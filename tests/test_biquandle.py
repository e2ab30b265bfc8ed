import itertools
import random

import pytest

from bilbiq import (
    AxiomViolation,
    FiniteBiquandle,
    IndexOutOfRange,
    NotAntisymmetric,
    NotInvertible,
    ParseError,
    alexander_biquandle,
    block_matrix_decode,
    block_matrix_encode,
    build_bilinear,
    check_axioms,
    is_quandle,
    omega,
    parse_spec,
    symplectic_quandle,
    units,
)
from bilbiq import biquandle
from bilbiq.biquandle import _axiom3, _build_tables

from conftest import (
    invalid_shapes,
    random_tables,
    reference_axiom3,
    reference_build_tables,
    reference_check_axioms,
)

ALEXANDER_3_2_1_MATRIX = """\
3
3 2 1 3 2 1
1 3 2 1 3 2
2 1 3 2 1 3
2 2 2 2 2 2
1 1 1 1 1 1
3 3 3 3 3 3
"""


def trivial_one_element():
    return FiniteBiquandle([0], [[0]], [[0]], [[0]], [[0]])


class TestMakeBiquandle:
    def test_one_element(self):
        assert trivial_one_element().size == 1

    def test_entry_out_of_range(self):
        good = [[0] * 3 for _ in range(3)]
        bad = [[0, 0, 0], [0, 5, 0], [0, 0, 0]]
        with pytest.raises(IndexOutOfRange):
            FiniteBiquandle(range(3), bad, good, good, good)


class TestCheckAxioms:
    def test_alexander_passes(self):
        assert check_axioms(alexander_biquandle(3, 2, 1)).all_pass

    def test_bb1_passes(self, bb1_spec):
        assert check_axioms(build_bilinear(bb1_spec)).all_pass

    def test_swap_tables_fail_axiom1_with_witness(self):
        swap = [[1, 1], [0, 0]]
        ident = [[0, 0], [1, 1]]
        report = check_axioms(FiniteBiquandle(range(2), swap, ident, ident, ident))
        assert not report.axiom_passes(1)
        violation = report.violations[0]
        assert violation.axiom == 1
        assert len(violation.elements) == 2


class TestCheckAxiomsAgainstReference:
    """check_axioms gives the plain triple loops' report, witnesses
    included."""

    def test_random_tables(self):
        rng = random.Random(20260601)
        for _ in range(600):
            bq = random_tables(rng, rng.randint(1, 6))
            assert check_axioms(bq) == reference_check_axioms(bq)

    def test_invalid_shapes(self):
        shapes = invalid_shapes()
        reports = [check_axioms(bq) for bq in shapes]
        assert reports == [reference_check_axioms(bq) for bq in shapes]
        assert [r.axiom_passes(k) for r, k in zip(reports, (1, 1, 3))] == [False] * 3
        assert [reports[2].axiom_passes(k) for k in (1, 2, 4)] == [True] * 3

    def test_valid_structures(self, bb1_spec):
        for bq in (alexander_biquandle(7, 3, 5), build_bilinear(bb1_spec)):
            assert check_axioms(bq) == reference_check_axioms(bq)

    def test_late_witnesses(self, bb1_spec):
        """One entry changed at (N/2, N/2) in each table of a valid
        structure.  Random tables fail axiom 3 at a = c = 0 almost
        always; here the check must walk on.  On BB1, N/2 is the vector
        (2, 0), which x -> 3x fixes, so the changed low and lowbar
        entries are not reached from a = 0: the witness is (8, 8, 8)."""
        structures = [
            build_bilinear(bb1_spec),
            build_bilinear(parse_spec("3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]")),
            build_bilinear(parse_spec("3,3,2,2,[[0,0,0],[0,0,0],[0,0,0]]")),
            alexander_biquandle(25, 2, 3),
        ]
        witnesses = []
        for bq in structures:
            n, late = bq.size, bq.size // 2
            for k in range(4):
                tables = [[list(row) for row in t] for t in (bq.up, bq.upbar, bq.low, bq.lowbar)]
                tables[k][late][late] = (tables[k][late][late] + 2) % n
                changed = FiniteBiquandle(range(n), *tables)
                report = check_axioms(changed)
                assert report == reference_check_axioms(changed), (bq.size, k)
                if report.violations[2] is not None:
                    witnesses.append(report.violations[2].elements)
        assert any(a > 0 and c > 0 for a, _, c in witnesses)

    def test_one_and_two_elements(self):
        assert check_axioms(trivial_one_element()) == reference_check_axioms(trivial_one_element())
        assert check_axioms(trivial_one_element()).all_pass
        rows = [[[x, y], [z, t]] for x in range(2) for y in range(2) for z in range(2) for t in range(2)]
        for up in rows:
            for low in rows:
                bq = FiniteBiquandle(range(2), up, up, low, low)
                assert check_axioms(bq) == reference_check_axioms(bq), (up, low)
        zero, low = [[0, 0], [0, 0]], [[0, 0], [1, 0]]
        assert check_axioms(FiniteBiquandle(range(2), zero, zero, low, low)).violations[2] == (
            AxiomViolation(3, "c_{ba} = c_{a_b b_a}", (1, 1, 1))
        )


@pytest.fixture(params=["as run", "lists", "one b per block"])
def axiom3_as(request, monkeypatch):
    """_axiom3 as it runs, then with the module constants set for this
    test only: small tables on lists, and every b in a block of its own."""
    if request.param == "lists":
        monkeypatch.setattr(biquandle, "_BYTE_LIMIT", 0)
    elif request.param == "one b per block":
        monkeypatch.setattr(biquandle, "_BLOCK", 1)
    return biquandle._axiom3


class TestAxiom3Firsts:
    """_axiom3 on the a values given, in their order, against the plain
    triple loop over the same a."""

    def test_random_tables(self, axiom3_as):
        rng = random.Random(20261019)
        for _ in range(300):
            size = rng.randint(1, 7)
            bq = random_tables(rng, size)
            shuffled = rng.sample(range(size), size)
            # the basis order of valid_tables, e_1 first, as on (Z_2)^m
            basis = [1 << i for i in reversed(range(size.bit_length())) if 1 << i < size]
            for firsts in (shuffled, basis, []):
                assert axiom3_as(bq, firsts) == reference_axiom3(bq, firsts), (bq.up, firsts)

    def test_one_and_two_elements(self, axiom3_as):
        for firsts in ([0], []):
            assert axiom3_as(trivial_one_element(), firsts) is None
        rows = [[[x, y], [z, t]] for x, y, z, t in itertools.product(range(2), repeat=4)]
        for up in rows:
            for low in rows:
                bq = FiniteBiquandle(range(2), up, up, low, low)
                for firsts in ([1, 0], [1]):
                    assert axiom3_as(bq, firsts) == reference_axiom3(bq, firsts), (up, low)

    def test_above_byte_limit(self):
        """289 elements, past the bytes: the valid structure, then one
        changed low entry whose witness is at the third a given."""
        bq = build_bilinear(parse_spec("17,2,1,1,[[0,1],[16,0]]"))
        firsts = [0, 1, 18, 288]
        assert _axiom3(bq, firsts) is None
        assert reference_axiom3(bq, firsts) is None
        tables = [[list(row) for row in t] for t in (bq.up, bq.upbar, bq.low, bq.lowbar)]
        tables[2][1][7] = (tables[2][1][7] + 1) % bq.size
        changed = FiniteBiquandle(range(bq.size), *tables)
        witness = _axiom3(changed, firsts)
        assert witness == reference_axiom3(changed, firsts)
        assert witness.elements == (18, 7, 1)


class TestBuildTables:
    def test_matches_reference(self):
        """Every unit pair on (Z_n)^m, n = 2..6 with n^m <= 125, with a
        seeded form."""
        rng = random.Random(6)
        for n in range(2, 7):
            m = 1
            while n**m <= 125:
                for alpha in units(n):
                    for beta in units(n):
                        A = tuple(tuple(rng.randrange(n) for _ in range(m)) for _ in range(m))
                        assert _build_tables(n, m, alpha, beta, A) == reference_build_tables(
                            n, m, alpha, beta, A
                        ), (n, m, alpha, beta, A)
                m += 1


class TestAlexander:
    def test_golden_matrix(self):
        assert block_matrix_encode(alexander_biquandle(3, 2, 1)) == ALEXANDER_3_2_1_MATRIX

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_trivial_when_s_t_one(self, n):
        bq = alexander_biquandle(n, 1, 1)
        for table in (bq.up, bq.upbar, bq.low, bq.lowbar):
            assert all(table[a][b] == a for a in range(n) for b in range(n))

    def test_non_unit_rejected(self):
        with pytest.raises(NotInvertible):
            alexander_biquandle(4, 2, 1)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_axioms_for_all_units(self, n):
        for s in units(n):
            for t in units(n):
                assert check_axioms(alexander_biquandle(n, s, t)).all_pass, (n, s, t)


class TestSymplectic:
    def test_example_passes_axioms(self):
        bq = symplectic_quandle(3, 2, [[0, 1], [2, 0]])
        assert check_axioms(bq).all_pass
        assert is_quandle(bq)

    def test_zero_matrix_is_trivial_quandle(self):
        bq = symplectic_quandle(3, 2, [[0, 0], [0, 0]])
        for table in (bq.up, bq.upbar, bq.low, bq.lowbar):
            assert all(table[a][b] == a for a in range(9) for b in range(9))

    def test_not_antisymmetric(self):
        with pytest.raises(NotAntisymmetric):
            symplectic_quandle(4, 2, [[0, 1], [1, 0]])

    @pytest.mark.parametrize("n", [2, 3])
    def test_all_antisymmetric_forms(self, n):
        for c in range(n):
            bq = symplectic_quandle(n, 2, [[0, c], [(-c) % n, 0]])
            assert check_axioms(bq).all_pass
            assert is_quandle(bq)


class TestIsQuandle:
    def test_alexander_is_not(self):
        assert not is_quandle(alexander_biquandle(3, 2, 1))

    def test_beta_one_bilinear_is_quandle(self):
        bq = build_bilinear(parse_spec("4,2,3,1,[[2,0],[2,2]]"))
        assert check_axioms(bq).all_pass
        assert is_quandle(bq)


class TestOmega:
    def test_symplectic_case_is_minus_one(self):
        for n in (3, 4, 5, 7):
            assert omega(1, 1, n) == n - 1

    def test_direct_evaluation_mod_5(self):
        # alpha = beta = 4: inverses are 4, so -1*1 - 16 + 1 = -16 = 4 mod 5
        assert omega(4, 4, 5) == 4

    def test_direct_evaluation_mod_4(self):
        # alpha = beta = 3: -1 - 9 + 1 = -9 = 3 mod 4
        assert omega(3, 3, 4) == 3

    def test_non_unit(self):
        with pytest.raises(NotInvertible):
            omega(2, 1, 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_defining_relation(self, n):
        # -alpha beta^2 w = alpha^-1 + beta^2 (beta - alpha^-1)
        for a in units(n):
            for b in units(n):
                ai = pow(a, -1, n)
                assert (-a * b * b * omega(a, b, n)) % n == (
                    ai + b * b * (b - ai)
                ) % n


class TestBlockMatrix:
    def test_one_element(self):
        assert block_matrix_encode(trivial_one_element()) == "1\n1 1\n1 1\n"

    def test_round_trip(self, bb1_spec):
        for bq in (
            alexander_biquandle(3, 2, 1),
            symplectic_quandle(3, 2, [[0, 1], [2, 0]]),
            build_bilinear(bb1_spec),
            trivial_one_element(),
        ):
            assert block_matrix_decode(block_matrix_encode(bq)) == bq

    def test_entry_out_of_bounds(self):
        text = ALEXANDER_3_2_1_MATRIX.replace("3 2 1 3 2 1", "3 2 1 3 2 7", 1)
        with pytest.raises(ParseError):
            block_matrix_decode(text)

    def test_wrong_row_count(self):
        with pytest.raises(ParseError):
            block_matrix_decode("2\n1 1 1 1\n1 1 1 1\n")

    def test_non_integer(self):
        with pytest.raises(ParseError):
            block_matrix_decode("1\n1 x\n1 1\n")
