import random
from collections import Counter

import pytest

from bilbiq import (
    BUILTIN_CODES,
    BBPolynomial,
    InvariantViolation,
    alexander_biquandle,
    build_bilinear,
    builtin_link,
    counting_invariant,
    enumerate_colorings,
    parse_gauss,
    parse_spec,
    phi_bb,
    print_gauss,
    subbiquandle_closure,
    symplectic_quandle,
)
from bilbiq import invariant
from conftest import (
    all_assignments_colorings,
    invalid_shapes,
    random_tables,
    reference_closure,
    reference_colorings,
    reference_phi,
    torus_2,
)

X27 = "3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]"
Z7S = "7,2,1,1,[[0,1],[6,0]]"


def column_walk(diagram, target) -> Counter:
    """The colorings that counting_invariant and phi_bb walk, as a multiset."""
    return Counter(c for batch in invariant._column_walk(diagram, target) for c in zip(*batch))


class TestEnumerateColorings:
    def test_unknot(self):
        target = alexander_biquandle(3, 2, 1)
        assert enumerate_colorings(builtin_link("unknot"), target) == [
            (0,),
            (1,),
            (2,),
        ]

    def test_lexicographic_and_matches_oracle(self, bb1_spec):
        # pairs kept small enough for the exhaustive oracle (size^arcs)
        cases = [
            (builtin_link("unknot"), build_bilinear(bb1_spec)),
            (builtin_link("hopf_pos"), build_bilinear(bb1_spec)),
            (builtin_link("trefoil"), build_bilinear(parse_spec("3,2,2,2,[[0,1],[2,0]]"))),
            (builtin_link("figure8"), alexander_biquandle(5, 2, 3)),
        ]
        for diagram, target in cases:
            got = enumerate_colorings(diagram, target)
            assert got == sorted(got)
            assert got == all_assignments_colorings(diagram, target)
            assert reference_colorings(diagram, target) == got
            assert column_walk(diagram, target) == Counter(got)

    def test_limit_takes_the_least(self, bb1_spec):
        diagram, target = builtin_link("hopf_pos"), build_bilinear(bb1_spec)
        full = enumerate_colorings(diagram, target)
        for limit in (0, 1, 3, len(full), len(full) + 1, 10**30):
            assert enumerate_colorings(diagram, target, limit) == full[:limit], limit

    def test_fox_coloring_counts(self):
        # s = 1, t = -1 gives the dihedral quandle x^y = 2y - x on Z_n
        for n, tref, fig8 in [(3, 9, 3), (5, 5, 25), (7, 7, 7)]:
            target = alexander_biquandle(n, 1, n - 1)
            assert counting_invariant(builtin_link("trefoil"), target) == tref
            assert counting_invariant(builtin_link("figure8"), target) == fig8

    def test_alexander_figure8_probe(self):
        # det(figure 8) values of the Alexander polynomial t^2 - 3t + 1
        assert (
            counting_invariant(builtin_link("figure8"), alexander_biquandle(11, 1, 9))
            == 121
        )
        assert (
            counting_invariant(builtin_link("figure8"), alexander_biquandle(11, 1, 2))
            == 11
        )

    def test_symplectic_trefoil(self):
        # only the 9 constant colorings survive, checked against the
        # all-assignments oracle
        target = symplectic_quandle(3, 2, [[0, 1], [2, 0]])
        diagram = builtin_link("trefoil")
        got = enumerate_colorings(diagram, target)
        assert len(got) == 9
        assert got == all_assignments_colorings(diagram, target)
        assert reference_colorings(diagram, target) == got
        assert column_walk(diagram, target) == Counter(got)

    def test_long_kink_chain(self):
        # 2398 semiarcs: deeper than the interpreter's recursion limit
        code = "".join(f"O{i}+U{i}+" for i in range(1, 1200))
        target = build_bilinear(parse_spec("3,2,2,2,[[0,1],[2,0]]"))
        assert counting_invariant(parse_gauss(code), target) == 9

    def test_random_codes_match_oracle(self):
        # 1-3 crossings cut into 1-3 components give kinks in both token
        # orders and signs, one-token components and free components
        targets = [alexander_biquandle(3, 2, 1)] + [
            build_bilinear(parse_spec(text))
            for text in (
                "3,2,2,2,[[0,1],[2,0]]",
                "3,2,2,2,[[0,0],[0,0]]",
                "4,2,1,3,[[2,1],[1,2]]",
            )
        ]
        rng = random.Random(20070813)
        for _ in range(40):
            n_cross = rng.randint(1, 3)
            tokens = []
            for cid in range(1, n_cross + 1):
                sign = rng.choice("+-")
                tokens += [f"O{cid}{sign}", f"U{cid}{sign}"]
            rng.shuffle(tokens)
            cuts = sorted(rng.randint(0, len(tokens)) for _ in range(rng.randint(0, 2)))
            bounds = [0, *cuts, len(tokens)]
            code = ";".join("".join(tokens[a:b]) for a, b in zip(bounds, bounds[1:]))
            diagram = parse_gauss(code)
            assert parse_gauss(print_gauss(diagram)) == diagram
            for target in targets:
                if target.size**diagram.n_semiarcs <= 2 * 10**5:
                    want = all_assignments_colorings(diagram, target)
                    assert enumerate_colorings(diagram, target) == want, (code, target.size)
                    assert reference_colorings(diagram, target) == want, (code, target.size)
                    assert column_walk(diagram, target) == Counter(want), (code, target.size)

    def test_targets_without_bijective_rows_match_oracle(self):
        # An inverse row or column may list several values or none, so the
        # one-open lookups must return every fitting value.  None of these
        # targets is a biquandle: the three 16-element invalid shapes
        # (constant up among them), a spec failing axiom 3, and random
        # 3-4 element tables.  A kink reads the fixed points of a line,
        # which may also be none or several: "O1+U1+" and "O1-U1-" fix a
        # row (output = y), the one-token components "O1+;U1+" and
        # "U1-;O1-" a column (output = x).
        rng = random.Random(20261018)
        targets = [*invalid_shapes(), build_bilinear(parse_spec("4,2,1,1,[[0,1],[1,0]]"))]
        targets += [random_tables(rng, rng.randint(3, 4)) for _ in range(12)]
        codes = ["O1+U1+", "O1-U1-", "O1+;U1+", "U1-;O1-", "O1+U2+;O2+U1+", "O1+U2-U1+O2-"]
        codes.append(BUILTIN_CODES["trefoil"])
        for target in targets:
            for code in codes:
                diagram = parse_gauss(code)
                if target.size**diagram.n_semiarcs <= 10**5:
                    want = all_assignments_colorings(diagram, target)
                    assert enumerate_colorings(diagram, target) == want, (code, target.size)
                    assert reference_colorings(diagram, target) == want, (code, target.size)
                    assert column_walk(diagram, target) == Counter(want), (code, target.size)
                    assert counting_invariant(diagram, target) == len(want)


class TestOrderFreeWalk:
    """counting_invariant, phi_bb and enumerate_colorings take the
    colorings from the column walk, in batches and in an order that
    depends on the diagram; as a multiset they are the lexicographic
    reference's, and enumerate_colorings sorts them into its list."""

    @pytest.mark.parametrize("name", ["trefoil", "trefoil_mirror", "figure8"])
    def test_moves_and_front_kinks(self, bb1_spec, name):
        # An R2 poke in both orientations and an R1 kink, appended to the
        # code, and a kink of either kind at its front.
        knot = BUILTIN_CODES[name]
        codes = [
            "O9+U9+" + knot,
            "U9-O9-" + knot,
            knot + "O9-U9-",
            knot + "U7+U8-O7+O8-",
            knot + "U8-U7+O7+O8-O9+U9+",
        ]
        targets = [alexander_biquandle(3, 1, 2), build_bilinear(bb1_spec)]
        targets.append(build_bilinear(parse_spec("3,2,2,2,[[0,1],[2,0]]")))
        for target in targets:
            want = counting_invariant(builtin_link(name), target)
            for code in codes:
                diagram = parse_gauss(code)
                got = column_walk(diagram, target)
                ref = reference_colorings(diagram, target)
                assert got == Counter(ref), (code, target.size)
                assert enumerate_colorings(diagram, target) == ref, (code, target.size)
                assert sum(got.values()) == want, (code, target.size)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_torus_knots_on_x27(self, k):
        diagram, target = parse_gauss(torus_2(k)), build_bilinear(parse_spec(X27))
        want = reference_colorings(diagram, target)
        assert len(want) == 27
        assert column_walk(diagram, target) == Counter(want)
        assert enumerate_colorings(diagram, target) == want

    def test_torus_2_21_on_x27(self):
        # The lexicographic reference's work grows about tenfold with every
        # two crossings of these knots (7,317 settle calls for T(2,3),
        # 791,721 for T(2,7)), so it cannot check this one: count and
        # phi_BB are pinned.
        diagram = parse_gauss(torus_2(21))
        assert counting_invariant(diagram, build_bilinear(parse_spec(X27))) == 27
        assert phi_bb(diagram, parse_spec(X27)).to_string() == "q z + 26 q^2 z^3"

    def test_enumerate_stays_lexicographic(self, bb1_spec):
        # On the Hopf link the column walk lists (0,0,3,1) before
        # (0,0,1,3); enumerate_colorings sorts its colorings.
        diagram, target = builtin_link("hopf_pos"), build_bilinear(bb1_spec)
        got = enumerate_colorings(diagram, target)
        walked = [c for batch in invariant._column_walk(diagram, target) for c in zip(*batch)]
        assert walked != got
        assert got == sorted(walked) == all_assignments_colorings(diagram, target)

    @pytest.mark.parametrize("width", [1, 2, 5, 16])
    def test_pieces_match_one_batch(self, monkeypatch, bb1_spec, width):
        # Branches, and inversions with several fits (the non-biquandle
        # tables), widen the batch past these widths, so the walk goes
        # in pieces.
        rng = random.Random(20261020)
        targets = [build_bilinear(bb1_spec), alexander_biquandle(3, 2, 1), *invalid_shapes()[1:]]
        targets += [random_tables(rng, 4) for _ in range(4)]
        codes = ["", ";;", "O1+U1+", "U1-;O1-", "O1+U2+;O2+U1+", BUILTIN_CODES["trefoil"]]
        cases = [(parse_gauss(code), target) for code in codes for target in targets]
        whole = [column_walk(*case) for case in cases]
        monkeypatch.setattr(invariant, "_WIDTH", width)
        for case, want in zip(cases, whole):
            batches = list(invariant._column_walk(*case))
            assert all(0 < len(batch[0]) <= width for batch in batches)
            assert Counter(c for batch in batches for c in zip(*batch)) == want
            assert counting_invariant(*case) == sum(want.values())

    def test_first_piece_of_eleven_free_components(self):
        # 27^11 colorings: the first piece comes without the rest listed.
        diagram, target = parse_gauss(";" * 10), build_bilinear(parse_spec(X27))
        batch = next(invariant._column_walk(diagram, target))
        assert len(batch) == 11
        assert len(set(zip(*batch))) == len(batch[0]) == invariant._WIDTH


class TestBBPolynomial:
    def test_to_string_examples(self):
        poly = BBPolynomial({(1, 1): 1, (1, 2): 3, (2, 4): 12})
        assert poly.to_string() == "q z + 3 q z^2 + 12 q^2 z^4"
        assert BBPolynomial({}).to_string() == "0"
        assert BBPolynomial({(0, 0): 5}).to_string() == "5"
        assert BBPolynomial({(2, 0): 1}).to_string() == "q^2"

    def test_zero_coefficients_dropped(self):
        assert BBPolynomial({(1, 1): 0}) == BBPolynomial({})

    def test_specialize(self):
        poly = BBPolynomial({(1, 1): 1, (1, 2): 3, (2, 4): 12})
        assert poly.specialize(1, 1) == 16
        assert poly.specialize(2, 1) == 56
        assert poly.specialize(1, 2) == 206


class TestPhiBB:
    def test_trefoil_golden(self, bb1_spec):
        poly = phi_bb(builtin_link("trefoil"), bb1_spec)
        assert poly.to_string() == "q z + 3 q z^2 + 12 q^2 z^4"
        assert poly.specialize(1, 1) == 16

    def test_unknot(self, bb1_spec):
        # the image is the sub-biquandle generated by the single color,
        # which for an order-4 vector x also contains x_y = 3x
        poly = phi_bb(builtin_link("unknot"), bb1_spec)
        assert poly.to_string() == "q z + 3 q z^2 + 12 q^2 z^4"

    def test_specializes_to_count(self, bb1_spec):
        for name in ("unknot", "trefoil", "trefoil_mirror", "hopf_pos", "figure8"):
            diagram = builtin_link(name)
            poly = phi_bb(diagram, bb1_spec)
            assert poly.specialize(1, 1) == counting_invariant(
                diagram, build_bilinear(bb1_spec)
            )

    def test_rejects_non_biquandle_spec(self):
        # diagonal constraint holds but axiom 3 fails for this triple
        bad = parse_spec("4,2,1,1,[[0,1],[1,0]]")
        with pytest.raises(InvariantViolation):
            phi_bb(builtin_link("unknot"), bad)

    @pytest.mark.parametrize(
        "code, spec",
        [
            (";;", "4,2,3,3,[[0,2],[2,0]]"),
            ("O1+U2+;O2+U1+", "4,2,3,3,[[0,2],[2,0]]"),
            # Many seeds that share prefixes, with images grown over
            # several rounds of closure.
            (";;;", "4,2,3,3,[[0,2],[2,0]]"),
            ("O1+U2+;O2+U1+;;", "4,2,3,3,[[0,2],[2,0]]"),
            (";", X27),
            (BUILTIN_CODES["hopf_pos"], X27),
            (";", "5,2,4,4,[[0,0],[0,0]]"),
            (BUILTIN_CODES["hopf_pos"], "5,2,4,4,[[0,0],[0,0]]"),
        ],
    )
    def test_matches_reference(self, code, spec):
        diagram = parse_gauss(code)
        assert phi_bb(diagram, parse_spec(spec)).terms == reference_phi(diagram, parse_spec(spec))

    def test_free_component_on_z7_symplectic(self):
        # 49 colorings of one semiarc; every nonzero color generates the
        # whole carrier in several rounds of closure.
        poly = phi_bb(parse_gauss(";"), parse_spec(Z7S))
        assert poly.to_string() == "q z + 48 q z^7 + 336 q^2 z^7 + 2016 q^48 z^49"


class TestSubbiquandleClosure:
    def test_extending_a_closed_set(self, bb1_spec):
        # phi_bb grows images one color at a time from closed prefixes
        rng = random.Random(20261019)
        for spec in (bb1_spec, parse_spec(X27), parse_spec(Z7S)):
            target = build_bilinear(spec)
            for _ in range(40):
                old = rng.sample(range(target.size), rng.randint(0, 3))
                new = rng.sample(range(target.size), rng.randint(0, 3))
                whole = subbiquandle_closure(target, old + new)
                assert whole == reference_closure(target, old + new)
                assert subbiquandle_closure(target, new, subbiquandle_closure(target, old)) == whole


class TestReidemeisterStability:
    CODES = ["", "O1+U1+", "O1-U1-", "O1+U2-U1+O2-"]

    def test_unknot_diagrams_agree(self, bb1_spec):
        polys = {phi_bb(parse_gauss(c), bb1_spec).to_string() for c in self.CODES}
        assert len(polys) == 1

    def test_counting_stability_alexander(self, bb1_spec):
        target = alexander_biquandle(5, 2, 3)
        counts = {counting_invariant(parse_gauss(c), target) for c in self.CODES}
        assert counts == {5}
        # a kink at the front of the code puts it on the lowest semiarcs
        bb1 = build_bilinear(bb1_spec)
        figure8 = BUILTIN_CODES["figure8"]
        assert counting_invariant(parse_gauss("O9+U9+" + figure8), bb1) == counting_invariant(
            parse_gauss(figure8), bb1
        )
