import itertools
import math
import random
import sys

import pytest

from bilbiq import (
    BilinearSpec,
    CapacityExceeded,
    DimensionMismatch,
    InvariantViolation,
    NotInvertible,
    ParseError,
    brute_force_search,
    build_bilinear,
    check_axioms,
    format_spec,
    is_symplectic,
    parse_spec,
    search,
    units,
)
from bilbiq import bilinear, biquandle
from bilbiq.bilinear import _congruence_class, checked_tables
from bilbiq.biquandle import _bilinear_axiom4, _bilinear_valid, _build_tables

from conftest import reference_axiom3, reference_axiom4

ZERO2 = ((0, 0), (0, 0))
ZERO3 = ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def spec_tuples(specs):
    return [(s.n, s.m, s.alpha, s.beta, s.matrix) for s in specs]


class TestBilinearSpec:
    def test_matrix_reduced_mod_n(self):
        s = BilinearSpec(4, 2, 3, 3, ((4, 6), (-2, 8)))
        assert s.matrix == ((0, 2), (2, 0))

    def test_units_reduced_mod_n(self):
        # alpha = beta = 5 is the unit 1 mod 4: the same spec, the same
        # tables (not an IndexError), and symplectic.
        raw = BilinearSpec(4, 2, 5, 5, ((0, 1), (3, 0)))
        reduced = BilinearSpec(4, 2, 1, 1, ((0, 1), (3, 0)))
        assert (raw.alpha, raw.beta) == (1, 1)
        assert raw == reduced
        assert build_bilinear(raw) == build_bilinear(reduced)
        assert is_symplectic(raw)

    @pytest.mark.parametrize("n, m", [(0, 1), (1, 1), (-3, 1), (3, 0)])
    def test_module_checked_first(self, n, m):
        # Checked before any arithmetic: n = 0 was a ZeroDivisionError,
        # and n = 1, n = -3 and m = 0 were accepted.
        with pytest.raises(DimensionMismatch, match=rf"^need n >= 2 and m >= 1, got \({n}, {m}\)$"):
            BilinearSpec(n, m, 1, 1, ((0,),) * m)

    def test_replace_and_make_check(self):
        # The tuple constructors go through the same checks as the class.
        spec = BilinearSpec(3, 2, 2, 2, ((0, 1), (2, 0)))
        assert spec._replace(alpha=5, beta=-4) == spec
        assert BilinearSpec._make((3, 2, 5, -1, ((3, 4), (-1, 0)))) == spec
        with pytest.raises(NotInvertible):
            spec._replace(alpha=0)

    def test_carrier_bound_not_checked(self):
        # (Z_10^6)^3 is past the carrier bound; only checked_tables refuses it.
        spec = BilinearSpec(10**6, 3, 1, 1, ZERO3)
        with pytest.raises(CapacityExceeded):
            checked_tables(spec)

    def test_bad_diagonal(self):
        with pytest.raises(InvariantViolation):
            BilinearSpec(4, 2, 3, 3, ((1, 2), (2, 1))).validate()

    def test_bad_entry(self):
        # alpha = 1, beta = 2 over Z_5 admits only the zero entry
        with pytest.raises(InvariantViolation):
            BilinearSpec(5, 2, 1, 2, ((2, 1), (0, 2))).validate()


class TestBuildBilinear:
    def test_bb1_tables(self, bb1_spec):
        bq = build_bilinear(bb1_spec)
        assert bq.size == 16
        assert check_axioms(bq).all_pass
        # x = (1,0), y = (0,1): f = 2, so x^y = 3x + 2y = (3, 2)
        carrier = bq.carrier
        i, j = carrier.index((1, 0)), carrier.index((0, 1))
        assert carrier[bq.up[i][j]] == (3, 2)
        assert carrier[bq.low[i][j]] == (3, 0)
        assert carrier[bq.upbar[i][j]] == (3, 2)
        assert carrier[bq.lowbar[i][j]] == (3, 0)

    def test_zero_form_beta_inverse_alpha(self):
        # A = 0 with beta = alpha^-1 is the Alexander-type structure
        bq = build_bilinear(parse_spec("5,2,2,3,[[0,0],[0,0]]"))
        assert check_axioms(bq).all_pass


class TestSearch:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_z2_empty(self, m):
        assert search(2, m) == []

    def test_z3_squared(self):
        assert spec_tuples(search(3, 2)) == [
            (3, 2, 2, 2, ZERO2),
            (3, 2, 2, 2, ((0, 1), (2, 0))),
        ]

    def test_z4_squared(self):
        assert spec_tuples(search(4, 2)) == [
            (4, 2, 1, 3, ((2, 0), (2, 2))),
            (4, 2, 1, 3, ((2, 1), (1, 2))),
            (4, 2, 3, 1, ((2, 0), (2, 2))),
            (4, 2, 3, 1, ((2, 1), (1, 2))),
            (4, 2, 3, 3, ((0, 0), (0, 0))),
            (4, 2, 3, 3, ((0, 1), (3, 0))),
            (4, 2, 3, 3, ((0, 2), (2, 0))),
        ]

    def test_z5_squared(self):
        assert spec_tuples(search(5, 2)) == [
            (5, 2, 2, 3, ZERO2),
            (5, 2, 3, 2, ZERO2),
            (5, 2, 4, 4, ZERO2),
            (5, 2, 4, 4, ((0, 1), (4, 0))),
        ]

    def test_z3_cubed(self):
        assert spec_tuples(search(3, 3)) == [
            (3, 3, 2, 2, ZERO3),
            (3, 3, 2, 2, ((0, 0, 0), (0, 0, 1), (0, 2, 0))),
        ]

    def test_all_results_pass_axioms(self):
        for spec in search(4, 2) + search(5, 2):
            assert check_axioms(build_bilinear(spec)).all_pass
            assert not is_symplectic(spec)

    def test_symplectic_included_when_asked(self):
        with_sym = search(3, 2, exclude_symplectic=False)
        extra = [s for s in with_sym if is_symplectic(s)]
        assert spec_tuples(extra) == [
            (3, 2, 1, 1, ZERO2),
            (3, 2, 1, 1, ((0, 1), (2, 0))),
        ]

    @pytest.mark.parametrize("nm", [(3, 3), (2, 4), (5, 2)])
    def test_closes_only_accepted_classes(self, nm, monkeypatch):
        # A rejected candidate is never closed, so there is one closure
        # per accepted class and each class gives one spec.
        calls = []
        close = bilinear._congruence_class

        def counted(*args):
            calls.append(args)
            return close(*args)

        monkeypatch.setattr(bilinear, "_congruence_class", counted)
        found = search(*nm, exclude_symplectic=False)
        assert len(calls) == len(found)


class TestBruteForce:
    # search walks A_ij for i < j with A_ji = -D - A_ij; brute_force_search
    # walks both entries of each pair.  m = 1 has no pair to walk.  The
    # verdict's c D = 0 condition is met with m >= 3, where it asks D = 0,
    # and with D = n/2 at n = 4 and 8.
    @pytest.mark.parametrize(
        "nm",
        [(2, 2), (3, 2), (4, 2), (5, 2)]
        + [(n, 1) for n in range(2, 8)]
        + [(2, 3), (3, 3), (4, 3), (2, 4), (6, 2), (8, 2)],
    )
    def test_matches_pruned_search(self, nm):
        n, m = nm
        assert brute_force_search(n, m) == search(n, m)
        assert brute_force_search(n, m, exclude_symplectic=False) == search(
            n, m, exclude_symplectic=False
        )


class TestTriangleWalk:
    """search walks n^(m(m-1)/2) forms per unit pair, the triangle of the
    axiom-4 rule; brute_force_search walks all n^(m(m-1)).  Both send
    every form that is not a member of an accepted class to the verdict."""

    def count_verdicts(self, monkeypatch, run):
        calls = []
        verdict = bilinear._bilinear_valid

        def counted(*args):
            calls.append(args)
            return verdict(*args)

        monkeypatch.setattr(bilinear, "_bilinear_valid", counted)
        run()
        return len(calls)

    def test_verdict_calls(self, monkeypatch):
        # With symplectic forms kept: 4 unit pairs mod 3, each probed once
        # by its form with every upper entry 0; the 2 with D = 0 pass and
        # are walked, 3^3 forms each on the triangle and 3^6 on the full
        # walk; either walk skips the same 50 members of accepted classes,
        # the ones met after the first.
        assert (
            self.count_verdicts(monkeypatch, lambda: search(3, 3, exclude_symplectic=False))
            == 4 + 2 * 3**3 - 50
        )
        assert (
            self.count_verdicts(
                monkeypatch, lambda: brute_force_search(3, 3, exclude_symplectic=False)
            )
            == 4 + 2 * 3**6 - 50
        )
        # Leaving symplectic forms out skips the pair (1, 1) unprobed: 3
        # probes, then (2, 2) alone is walked.  Its accepted forms are the
        # 3^3 alternating ones, the zero form and 26 of rank 2, so two
        # classes: either walk skips 25 members of them.
        assert self.count_verdicts(monkeypatch, lambda: search(3, 3)) == 3 + 3**3 - 25
        assert self.count_verdicts(monkeypatch, lambda: brute_force_search(3, 3)) == 3 + 3**6 - 25

    @pytest.mark.parametrize("nm", [(3, 3), (4, 3), (8, 2), (12, 2), (5, 1)])
    def test_refused_pair_refuses_every_form(self, nm):
        # The walks skip a unit pair whose form with upper entries 0 and
        # lower entries -D the verdict refuses.  Every form of such a pair
        # must be refused too, and a sample must fail the exhaustive check.
        n, m = nm

        def probe(alpha, beta):
            D = (pow(beta, -1, n) - alpha) % n
            return tuple(
                tuple(D if i == j else 0 if i < j else -D % n for j in range(m)) for i in range(m)
            )

        pairs = itertools.product(units(n), repeat=2)
        refused = {(a, b) for a, b in pairs if not _bilinear_valid(n, m, a, b, probe(a, b))}
        assert refused
        forms = [f for f in brute_force_forms(n, m) if f[:2] in refused]
        assert [f for f in forms if _bilinear_valid(n, m, *f)] == []
        for f in random.Random(n * 10 + m).sample(forms, 4):
            assert not check_axioms(_build_tables(n, m, *f)).all_pass

    @pytest.mark.parametrize(
        "n, m, pairs, forms",
        [
            (2, 5, [(1, 1)], [[], [(3, 4, 1)], [(1, 4, 1), (2, 3, 1)]]),
            (3, 4, [(1, 1), (2, 2)], [[], [(2, 3, 1)], [(0, 3, 1), (1, 2, 1)]]),
        ],
    )
    def test_new_reach(self, n, m, pairs, forms):
        # m >= 3 forces D = 0, so A is alternating: one class for each
        # even rank 0, 2 and 4 over the field Z_n, given by its (i, j, A_ij)
        # with i < j.
        def alternating(entries):
            A = [[0] * m for _ in range(m)]
            for i, j, e in entries:
                A[i][j], A[j][i] = e, -e % n
            return tuple(map(tuple, A))

        found = search(n, m, exclude_symplectic=False)
        want = [(n, m, a, b, alternating(f)) for a, b in pairs for f in forms]
        assert spec_tuples(found) == want
        for spec in found:
            assert check_axioms(build_bilinear(spec)).all_pass


def brute_force_forms(n, m):
    """Every (alpha, beta, A) that brute_force_search considers: A has
    the forced diagonal beta^-1 - alpha and any off-diagonal entries."""
    cells = [(i, j) for i in range(m) for j in range(m) if i != j]
    for alpha in units(n):
        for beta in units(n):
            diag = (pow(beta, -1, n) - alpha) % n
            for combo in itertools.product(range(n), repeat=len(cells)):
                A = [[diag] * m for _ in range(m)]
                for (i, j), e in zip(cells, combo):
                    A[i][j] = e
                yield alpha, beta, tuple(map(tuple, A))


class TestValidTables:
    """The closed-form verdict, and the closed-form rule for axiom 4,
    against the exhaustive check of the built tables.  Wherever the rule
    holds, axioms 1 and 2 must hold too."""

    @staticmethod
    def agrees(n, m, alpha, beta, A):
        report = check_axioms(_build_tables(n, m, alpha, beta, A))
        closed_form = _bilinear_axiom4(n, m, alpha, beta, A)
        verdict = _bilinear_valid(n, m, alpha, beta, A)
        implied = report.axiom_passes(1) and report.axiom_passes(2) or not closed_form
        return (closed_form, verdict, implied) == (report.axiom_passes(4), report.all_pass, True)

    @pytest.mark.parametrize(
        "nm", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (2, 4)] + [(n, 1) for n in range(2, 8)]
    )
    def test_every_brute_force_form(self, nm):
        n, m = nm
        assert [f for f in brute_force_forms(n, m) if not self.agrees(n, m, *f)] == []

    @pytest.mark.parametrize("nm", [(6, 2), (7, 2), (3, 3)])
    def test_seeded_sample(self, nm):
        """30 random forms, plus every form that search emits."""
        n, m = nm
        forms = random.Random(n * 10 + m).sample(list(brute_force_forms(n, m)), 30)
        forms += [(s.alpha, s.beta, s.matrix) for s in search(n, m, exclude_symplectic=False)]
        assert [f for f in forms if not self.agrees(n, m, *f)] == []

    @pytest.mark.parametrize("n", [8, 9, 12, 16])
    def test_every_diagonal_in_rank_1(self, n):
        """The 2-adic and 3-adic cases of the closed form's proof, with
        every diagonal value, not only the forced beta^-1 - alpha."""
        forms = [(a, b, ((d,),)) for a in units(n) for b in units(n) for d in range(n)]
        assert [f for f in forms if not self.agrees(n, 1, *f)] == []

    def test_z8_squared(self):
        """8 random forms, plus every emitted form with D = beta^-1 - alpha
        = 4 = n/2 and alpha = 1, such as 8,2,1,5,[[4,1],[3,4]]."""
        forms = random.Random(82).sample(list(brute_force_forms(8, 2)), 8)
        emitted = [(s.alpha, s.beta, s.matrix) for s in search(8, 2) if s.alpha == 1]
        assert (1, 5, ((4, 1), (3, 4))) in emitted
        assert [f for f in forms + emitted if not self.agrees(8, 2, *f)] == []

    def test_returns_the_tables(self, bb1_spec):
        assert checked_tables(bb1_spec) == build_bilinear(bb1_spec)
        with pytest.raises(InvariantViolation, match="does not satisfy the biquandle axioms"):
            checked_tables(parse_spec("4,2,1,1,[[0,1],[1,0]]"))


class TestClosedVerdict:
    """`_bilinear_valid` against the verdict it replaces, on shapes where
    check_axioms is too slow: the axiom-4 rule, then the plain axiom-3
    loop on the built tables with a only in e_1, ..., e_m, which is
    enough as identities 1 and 4 are linear in a and the others do not
    involve it."""

    @staticmethod
    def basis_verdict(n, m, alpha, beta, A):
        if not _bilinear_axiom4(n, m, alpha, beta, A):
            return False
        basis = [n ** (m - 1 - i) for i in range(m)]  # carrier indices of e_1, ..., e_m
        return reference_axiom3(_build_tables(n, m, alpha, beta, A), basis) is None

    @staticmethod
    def rule_forms(n, m):
        """Every form that passes the axiom-4 rule: the forced diagonal
        D, any entries above it, A_ji = -D - A_ij below it."""
        cells = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for alpha, beta in itertools.product(units(n), repeat=2):
            D = (pow(beta, -1, n) - alpha) % n
            if {1: 6, 2: 2}.get(m, 1) * D % n:
                continue
            for combo in itertools.product(range(n), repeat=len(cells)):
                A = [[D] * m for _ in range(m)]
                for (i, j), e in zip(cells, combo):
                    A[i][j], A[j][i] = e, (-D - e) % n
                yield alpha, beta, tuple(map(tuple, A))

    @pytest.mark.parametrize(
        "nm, k",
        [((8, 2), 4), ((12, 2), 2), ((16, 2), 1), ((20, 2), 1)]
        + [((3, 3), 4), ((4, 3), 3), ((2, 4), 4)],
    )
    def test_seeded_forms(self, nm, k):
        """k seeded rule-passing forms from each group of (verdict,
        D = n/2), so that D = n/2 is met on (n, 2), and 20 random forms
        with the forced diagonal, most of which fail the rule."""
        n, m = nm
        rng = random.Random(n * 10 + m)
        groups = {}
        for f in self.rule_forms(n, m):
            D = (pow(f[1], -1, n) - f[0]) % n
            groups.setdefault((_bilinear_valid(n, m, *f), D == n // 2), []).append(f)
        forms = []
        for key in sorted(groups):
            forms += rng.sample(groups[key], min(k, len(groups[key])))
        forms += rng.sample(list(brute_force_forms(n, m)), 20)
        verdicts = [_bilinear_valid(n, m, *f) for f in forms]
        assert verdicts == [self.basis_verdict(n, m, *f) for f in forms]
        assert True in verdicts and False in verdicts
        assert m != 2 or (True, True) in groups

    @pytest.mark.parametrize(
        "ns, k", [(range(2, 41), None), (range(41, 73), 4)], ids=["n2-40", "n41-72"]
    )
    def test_every_rank_1_form(self, ns, k):
        """m = 1: every unit pair with the forced diagonal D, where the
        rule is 6D = 0 and the entry condition follows from it.  From
        n = 41 on, the tables are built for k seeded pairs with 6D = 0 and
        D != 0 per n, the m = 1 case of the proof."""
        rng = random.Random(72)
        for n in ns:
            pairs = [(a, b, (pow(b, -1, n) - a) % n) for a in units(n) for b in units(n)]
            if k is not None:
                built = [p for p in pairs if p[2] and 6 * p[2] % n == 0]
                pairs = [p for p in pairs if 6 * p[2] % n] + rng.sample(built, min(k, len(built)))
            forms = [(a, b, ((D,),)) for a, b, D in pairs]
            verdicts = [_bilinear_valid(n, 1, *f) for f in forms]
            assert verdicts == [self.basis_verdict(n, 1, *f) for f in forms], n

    def test_mod_2_lemma(self):
        """The last step of the D = n/2 case on (Z_n)^2: with alpha odd and
        A = [[0,t],[t,0]] mod 2, e b^c is even for all a, b, c, where
        e = f(a,c) (alpha (b_1 c_2 + b_2 c_1) + f(b,c) q(c)) and
        q(c) = c_1^2 - c_1 c_2 + c_2^2."""
        vectors = list(itertools.product(range(2), repeat=2))
        for t in range(2):
            def f(x, y):
                return t * (x[0] * y[1] + x[1] * y[0])

            for a, b, c in itertools.product(vectors, repeat=3):
                q = c[0] ** 2 - c[0] * c[1] + c[1] ** 2
                e = f(a, c) * ((b[0] * c[1] + b[1] * c[0]) + f(b, c) * q)  # alpha = 1 mod 2
                b_c = [b[i] + f(b, c) * c[i] for i in range(2)]
                assert [e * x % 2 for x in b_c] == [0, 0], (t, a, b, c)


class TestSearchBuildsNoTable:
    """search and brute_force_search decide every candidate in closed
    form: with every table build refused, they return the same lists."""

    @pytest.mark.parametrize("nm", [(3, 2), (8, 2), (3, 3), (2, 1)])
    def test_no_build(self, nm, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        expected = [spec_tuples(f(*nm)) for f in (search, brute_force_search)]
        monkeypatch.setattr(bilinear, "_build_tables", refuse)
        monkeypatch.setattr(biquandle, "_build_tables", refuse)
        assert [spec_tuples(f(*nm)) for f in (search, brute_force_search)] == expected


class TestAxiom4Rule:
    """The closed-form rule against the per-vector condition it is
    proved from, on shapes where building and checking every table
    would take too long."""

    @staticmethod
    def forms(rng, n, m, count):
        """count seeded unit pairs, each with four forms: the forced
        diagonal D = beta^-1 - alpha or a random one, and random entries
        off it or A_ji = -D - A_ij, which leaves condition 3 to decide."""
        us = units(n)
        for _ in range(count):
            alpha, beta = rng.choice(us), rng.choice(us)
            D = (pow(beta, -1, n) - alpha) % n
            for forced, paired in itertools.product((True, False), repeat=2):
                A = [[rng.randrange(n) for _ in range(m)] for _ in range(m)]
                for i in range(m):
                    A[i][i] = D if forced else A[i][i]
                    for j in range(i) if paired else ():
                        A[i][j] = (-D - A[j][i]) % n
                yield alpha, beta, tuple(map(tuple, A))

    @pytest.mark.parametrize("nm", [(12, 2), (16, 2), (4, 3), (3, 4), (2, 5)])
    def test_matches_per_vector_reference(self, nm):
        n, m = nm
        forms = list(self.forms(random.Random(n * 10 + m), n, m, 150))
        verdicts = [_bilinear_axiom4(n, m, *f) for f in forms]
        assert verdicts == [reference_axiom4(n, m, *f) for f in forms]
        assert True in verdicts and False in verdicts

    def test_condition_3_at_d_n_over_2(self):
        """m = 2 with D = n/2 passes wherever 1 and 2 hold; m = 3 fails."""
        for n in (4, 6, 8, 10, 12, 14, 16):
            pairs = [(a, b) for a in units(n) for b in units(n) if pow(b, -1, n) - a == n // 2]
            for alpha, beta in pairs:
                D = n // 2
                assert _bilinear_axiom4(n, 2, alpha, beta, ((D, 1), (-1 - D, D)))
                assert reference_axiom4(n, 2, alpha, beta, ((D, 1), (-1 - D, D)))
                A3 = ((D, 0, 0), (-D, D, 0), (-D, -D, D))
                assert not _bilinear_axiom4(n, 3, alpha, beta, A3)
                assert not reference_axiom4(n, 3, alpha, beta, A3)

    def test_rank_1_is_6d(self):
        """m = 1 at the forced diagonal, n = 2..30, every unit pair: the
        per-vector condition holds exactly where 6D = 0."""
        for n in range(2, 31):
            for alpha, beta in itertools.product(units(n), repeat=2):
                D = (pow(beta, -1, n) - alpha) % n
                assert reference_axiom4(n, 1, alpha, beta, ((D,),)) == (6 * D % n == 0)
                assert _bilinear_axiom4(n, 1, alpha, beta, ((D,),)) == (6 * D % n == 0)


def _det(Q):
    if len(Q) == 1:
        return Q[0][0]
    return sum(
        (-1) ** j * Q[0][j] * _det([row[:j] + row[j + 1 :] for row in Q[1:]])
        for j in range(len(Q))
    )


class TestCongruentMin:
    """The class closure against the full group GL_m(Z_n), enumerated.
    The search skips every member of a class it has met, so the whole
    class must match, not only its minimum."""

    @pytest.mark.parametrize(
        "nm", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (2, 3)] + [(n, 1) for n in range(2, 7)]
    )
    def test_matches_gl_enumeration(self, nm):
        n, m = nm
        matrices = [
            tuple(flat[i * m : (i + 1) * m] for i in range(m))
            for flat in itertools.product(range(n), repeat=m * m)
        ]
        gl = [Q for Q in matrices if math.gcd(_det(Q) % n, n) == 1]
        seen = set()
        for A in matrices:
            if A in seen:
                continue
            cls = {
                tuple(
                    tuple(
                        sum(Q[i][k] * A[k][l] * Q[j][l] for k in range(m) for l in range(m)) % n
                        for j in range(m)
                    )
                    for i in range(m)
                )
                for Q in gl
            }
            seen |= cls
            # A is the class minimum (matrices run in row-major order),
            # so start from the other end of the class.
            flat_cls = {sum(B, ()) for B in cls}
            assert _congruence_class(sum(max(cls), ()), n, m) == flat_cls


class TestSpecText:
    def test_format(self, bb1_spec):
        assert format_spec(bb1_spec) == "4,2,3,3,[[0,2],[2,0]]"

    def test_round_trip(self):
        for text in (
            "4,2,3,3,[[0,2],[2,0]]",
            "3,2,2,2,[[0,0],[0,0]]",
            "3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]",
        ):
            assert format_spec(parse_spec(text)) == text

    def test_round_trip_table(self):
        # Every spec `table --max-cardinality 63` prints: m >= 2, n^m <= 63.
        specs = [
            spec
            for n in range(2, 8)
            for m in range(2, 6)
            if n**m <= 63
            for spec in search(n, m)
        ]
        assert len(specs) == 25
        for spec in specs:
            assert parse_spec(format_spec(spec)) == spec

    @pytest.mark.parametrize(
        "text, spec",
        [
            (" 4 , 2 , 3 , 3 , [ [ 0 , 2 ] , [ 2 , 0 ] ] ", (4, 2, 3, 3, ((0, 2), (2, 0)))),
            ("\t4,2,3,3,[[0,2],\n [2,0]]\n", (4, 2, 3, 3, ((0, 2), (2, 0)))),
            ("+4,+2,+3,+3,[[+0,+2],[+2,+0]]", (4, 2, 3, 3, ((0, 2), (2, 0)))),
            ("4,2,-1,7,[[0,-2],[-6,0]]", (4, 2, 3, 3, ((0, 2), (2, 0)))),
            ("4,2,3,3,[[0,1_0],[2,0]]", (4, 2, 3, 3, ((0, 2), (2, 0)))),
            ("\u0664,2,3,3,[[0,\u0662],[2,0]]", (4, 2, 3, 3, ((0, 2), (2, 0)))),
            ("4,2,3,3,[[00,02],[2,0]]", (4, 2, 3, 3, ((0, 2), (2, 0)))),
        ],
        ids=["spaces", "tab-newline", "plus", "negative", "underscore", "arabic-indic", "zeros"],
    )
    def test_accepted_text(self, text, spec):
        assert spec_tuples([parse_spec(text)]) == [spec]

    @pytest.mark.parametrize(
        "bad",
        [
            "4,2,3,3",
            "4,2,3,x,[[0,2],[2,0]]",
            "4,2,3,3,[[0,2]]",
            "4,2,3,3,[[0,2],[2,0]",
            "1,2,1,1,[[0,0],[0,0]]",
            "3,2,2,2,[[0,True],[2,0]]",
            "3,2,2,2,[[0,1],[False,0]]",
            "3,2,2,2,[[0x1,0],[0,0]]",
            "3,2,2,2,[[0b1,0],[0,0]]",
            "3,2,2,2,[[0,0,],[0,0]]",
            "3,2,2,2,[[0,0],[0,0],]",
            "3,2,2,2,[[0,[0]],[0,0]]",
            "3,2,2,2,[[],[0,0]]",
            "3,2,2,2,[[1 0,0],[0,0]]",
            "3,2,2,2,[[0,0],[0,0]] x",
            "3,2,2,2,[]",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_spec(bad)

    @pytest.mark.parametrize(
        "template", ["3,2,2,2,[[{},0],[0,0]]", "{},2,2,2,[[0,0],[0,0]]"], ids=["entry", "field"]
    )
    def test_overlong_number(self, template):
        # int() refuses more digits than the interpreter's limit.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not 0 < limit < 5000:
            pytest.skip("this interpreter converts 5,000-digit integers")
        with pytest.raises(ParseError):
            parse_spec(template.format("7" * 5000))
