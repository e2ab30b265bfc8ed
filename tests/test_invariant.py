import pytest

from bilbiq import (
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
    symplectic_quandle,
)
from conftest import all_assignments_colorings


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


class TestReidemeisterStability:
    CODES = ["", "O1+U1+", "O1-U1-", "O1+U2-U1+O2-"]

    def test_unknot_diagrams_agree(self, bb1_spec):
        polys = {phi_bb(parse_gauss(c), bb1_spec).to_string() for c in self.CODES}
        assert len(polys) == 1

    def test_counting_stability_alexander(self):
        target = alexander_biquandle(5, 2, 3)
        counts = {counting_invariant(parse_gauss(c), target) for c in self.CODES}
        assert counts == {5}
