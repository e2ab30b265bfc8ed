import itertools
import random
import re

import pytest

from bilbiq import (
    AxiomViolation,
    BilinearSpec,
    CapacityExceeded,
    FiniteBiquandle,
    IndexOutOfRange,
    NotAntisymmetric,
    NotInvertible,
    ParseError,
    ShapeError,
    alexander_biquandle,
    block_matrix_decode,
    block_matrix_encode,
    build_bilinear,
    check_axioms,
    is_quandle,
    is_symplectic,
    omega,
    parse_spec,
    symplectic_quandle,
    units,
)
from bilbiq import biquandle
from bilbiq.biquandle import _build_tables
from bilbiq.cli import run

from conftest import (
    invalid_shapes,
    random_tables,
    reference_alexander,
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


def assert_int_tables(bq):
    for table in (bq.up, bq.upbar, bq.low, bq.lowbar):
        assert type(table) is tuple and all(type(row) is tuple for row in table)
        assert all(type(e) is int for row in table for e in row)


def freeze_outcome(table, size):
    """_freeze_table's rows, or the type and message of what it raised."""
    try:
        return biquandle._freeze_table(table, size, "up")
    except Exception as exc:
        return type(exc), str(exc)


class TestMakeBiquandle:
    def test_one_element(self):
        assert trivial_one_element().size == 1

    def test_entry_out_of_range(self):
        """The error names the first bad entry in row order, below 0, at
        the size, above it or past a byte."""
        good = [[0] * 3 for _ in range(3)]
        for bad in (5, -1, 3, 256):
            low = [[0, 1, 2], [2, bad, 7], [9, 0, 0]]
            with pytest.raises(IndexOutOfRange, match=rf"^low entry {bad} outside \[0, 3\)$"):
                FiniteBiquandle(range(3), good, good, low, good)

    def test_entries_read_by_int(self):
        """Bools, numeric strings and floats become what int() makes of them."""
        bq = FiniteBiquandle(
            range(2),
            [[True, False], [False, True]],
            [["1", "0"], [" 0", "+1"]],
            [[0.0, 1.9], [1.0, 0.5]],
            [(0, 1), range(2)],
        )
        assert (bq.up, bq.upbar, bq.low, bq.lowbar) == (
            ((1, 0), (0, 1)),
            ((1, 0), (0, 1)),
            ((0, 1), (1, 0)),
            ((0, 1), (0, 1)),
        )
        assert_int_tables(bq)

    @pytest.mark.parametrize(
        "upbar", [[[0, 0, 0], [0, 0], [0, 0, 0]], [[0, 0, 0]] * 2, [[0, 0, 0]] * 4]
    )
    def test_wrong_shape(self, upbar):
        good = [[0] * 3 for _ in range(3)]
        with pytest.raises(ShapeError, match=r"^upbar table is not 3x3$"):
            FiniteBiquandle(range(3), good, upbar, good, good)

    def test_above_byte_limit(self):
        """257 elements: every entry is read by int()."""
        bq = alexander_biquandle(257, 3, 5)
        reference = reference_alexander(257, 3, 5)
        assert bq == reference and bq.carrier == reference.carrier
        assert_int_tables(bq)

    def test_byte_passes_match_int_path(self, monkeypatch):
        """Seeded tables, good and bad, give the same rows or the same
        error with the byte passes as with every table read by int()."""
        rng = random.Random(20261019)
        cases = []
        for _ in range(400):
            size = rng.randint(1, 5)
            entries = [*range(-1, size + 1), 255, 256, True, False, "1", 1.0, None]
            weights = [8] * (size + 2) + [1] * 7
            rows = [
                rng.choices(entries, weights, k=size + (rng.random() < 0.05))
                for _ in range(size + (rng.random() < 0.05))
            ]
            cases.append((rows, size))
        byte_passes = [freeze_outcome(rows, size) for rows, size in cases]
        monkeypatch.setattr(biquandle, "_BYTE_LIMIT", 0)
        assert byte_passes == [freeze_outcome(rows, size) for rows, size in cases]
        assert sum(type(r) is tuple for r in byte_passes) > 50

    def test_every_builder_stores_ints(self, bb1_spec):
        decoded = block_matrix_decode(ALEXANDER_3_2_1_MATRIX.replace("3 2 1", "03 2 1", 1))
        for bq in (
            alexander_biquandle(7, 3, 5),
            symplectic_quandle(3, 2, [[0, 1], [2, 0]]),
            build_bilinear(bb1_spec),
            build_bilinear(parse_spec("17,2,1,1,[[0,1],[16,0]]")),
            block_matrix_decode(ALEXANDER_3_2_1_MATRIX),
            decoded,
            trivial_one_element(),
        ):
            assert_int_tables(bq)


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
    """_axiom3 over every a against the plain triple loop, under each
    setting of axiom3_as.  The 289-element list path runs end to end in
    CI, through `verify --matrix-file` on a changed table."""

    def test_random_tables(self, axiom3_as):
        rng = random.Random(20261019)
        for _ in range(300):
            size = rng.randint(1, 7)
            bq = random_tables(rng, size)
            assert axiom3_as(bq) == reference_axiom3(bq, range(size)), bq.up

    def test_one_and_two_elements(self, axiom3_as):
        assert axiom3_as(trivial_one_element()) is None
        rows = [[[x, y], [z, t]] for x, y, z, t in itertools.product(range(2), repeat=4)]
        for up in rows:
            for low in rows:
                bq = FiniteBiquandle(range(2), up, up, low, low)
                assert axiom3_as(bq) == reference_axiom3(bq, range(2)), (up, low)

    def test_constant_row_lower_tables(self, axiom3_as):
        """Random up and upbar over constant-row low and lowbar, then
        with only one of the two lower tables constant-row."""
        rng = random.Random(20261022)
        for _ in range(300):
            size = rng.randint(1, 7)
            drawn = random_tables(rng, size)
            up, upbar, low, lowbar = drawn.up, drawn.upbar, drawn.low, drawn.lowbar
            constant = [[rng.randrange(size)] * size for _ in range(size)]
            for lower in ((constant, constant), (constant, lowbar), (low, constant)):
                bq = FiniteBiquandle(range(size), up, upbar, *lower)
                assert axiom3_as(bq) == reference_axiom3(bq, range(size)), (bq.up, bq.low)

    @pytest.mark.parametrize(
        "entry, identity, witness",
        [
            ((0, 2), 3, (0, 0, 2)),  # identity 1 fails first at (0, 0, 3)
            ((1, 1), 3, (0, 0, 0)),  # identity 1 fails first at (1, 0, 0)
            ((0, 3), 1, (0, 0, 1)),  # identity 3 fails first at (0, 0, 3)
            ((0, 0), 1, (0, 0, 0)),  # both fail first at (0, 0, 0)
        ],
    )
    def test_identity_3_against_identity_1(self, axiom3_as, entry, identity, witness):
        """One entry of up or upbar moved on the Alexander biquandle on
        Z_5 breaks identity 3 (or 6), which is checked over (b, c) alone,
        and identity 1 (or 4), checked in the blocks; the least of the
        two witnesses is reported, whichever it is."""
        base = alexander_biquandle(5, 2, 3)
        x, y = entry
        for k in range(2):
            tables = [[list(row) for row in t] for t in (base.up, base.upbar)]
            tables[k][x][y] = (tables[k][x][y] + 1) % 5
            bq = FiniteBiquandle(range(5), *tables, base.low, base.lowbar)
            violation = axiom3_as(bq)
            assert violation == reference_axiom3(bq, range(5))
            if k == 0:
                equation = biquandle._AXIOM3_EQUATIONS[identity - 1]
                assert violation == AxiomViolation(3, equation, witness)

    def test_changed_up_entry_on_27_elements(self, axiom3_as):
        """X27 with one entry of up moved, at each of a few places."""
        base = build_bilinear(parse_spec("3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]"))
        assert axiom3_as(base) is None
        for x, y in ((0, 26), (13, 13), (26, 0), (20, 7)):
            up = [list(row) for row in base.up]
            up[x][y] = (up[x][y] + 1) % 27
            bq = FiniteBiquandle(range(27), up, base.upbar, base.low, base.lowbar)
            violation = axiom3_as(bq)
            assert violation is not None and violation == reference_axiom3(bq, range(27)), (x, y)


def is_constant_row(table) -> bool:
    return all(row.count(row[0]) == len(row) for row in table)


class TestLowerTablesConstantRow:
    """`_axiom3` checks identities 2 and 3 over (b, c) alone when low
    and lowbar are constant-row; the structures bilbiq builds are."""

    def test_table_27_specs(self, capsys):
        assert run(["table", "--max-cardinality", "27"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "found 15"
        for line in lines[:-1]:
            bq = build_bilinear(parse_spec(line.split()[0]))
            assert is_constant_row(bq.low) and is_constant_row(bq.lowbar), line

    def test_alexander(self):
        for n in range(1, 13):
            for s, t in itertools.product(units(n) if n > 1 else [1], repeat=2):
                bq = alexander_biquandle(n, s, t)
                assert is_constant_row(bq.low) and is_constant_row(bq.lowbar), (n, s, t)


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

    def test_matches_reference(self):
        for n in range(1, 13):
            for s, t in itertools.product(units(n) if n > 1 else [1], repeat=2):
                for s_, t_ in ((s, t), (s - n, t + 2 * n)):
                    bq, reference = alexander_biquandle(n, s_, t_), reference_alexander(n, s_, t_)
                    assert bq == reference and bq.carrier == reference.carrier, (n, s_, t_)

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

    @pytest.mark.parametrize(
        "n, A", [(3, [[1, 1], [2, 0]]), (4, [[2, 0], [0, 2]]), (5, [[0, 0, 0], [0, 0, 0], [0, 0, 3]])]
    )
    def test_non_zero_diagonal(self, n, A):
        # (4, [[2,0],[0,2]]) has A^t = -A but f(e_1, e_1) = 2.
        with pytest.raises(NotAntisymmetric, match="needs a zero diagonal and A\\^t = -A"):
            symplectic_quandle(n, len(A), A)

    @pytest.mark.parametrize("m, A", [(3, [[0, 1], [2, 0]]), (1, [[0, 1], [2, 0]])])
    def test_wrong_shape(self, m, A):
        with pytest.raises(ShapeError, match=f"^form matrix is 2x2, expected {m}x{m}$"):
            symplectic_quandle(3, m, A)

    def test_is_symplectic_matches_constructor(self):
        """is_symplectic and symplectic_quandle take the same forms at
        alpha = beta = 1: every form on (Z_4)^2."""
        for flat in itertools.product(range(4), repeat=4):
            A = (flat[:2], flat[2:])
            try:
                symplectic_quandle(4, 2, A)
                accepted = True
            except NotAntisymmetric:
                accepted = False
            assert is_symplectic(BilinearSpec(4, 2, 1, 1, A)) == accepted, A

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

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_empty(self, text):
        with pytest.raises(ParseError, match="^empty matrix text$"):
            block_matrix_decode(text)

    @pytest.mark.parametrize("line", ["x", "2 2", "1.0"])
    def test_bad_size_line(self, line):
        with pytest.raises(ParseError, match=f"^bad size line {re.escape(repr(line))}$"):
            block_matrix_decode(f"{line}\n1 1\n1 1\n")

    def test_size_above_bound(self, monkeypatch):
        """The size line is checked before any row is read: these rows
        are too few and hold a bad token."""
        monkeypatch.setenv("BBQ_CARRIER_BOUND", "5")
        with pytest.raises(CapacityExceeded, match="^matrix has 6 elements, above bound 5$"):
            block_matrix_decode("6\n1 x\n")
        text = block_matrix_encode(alexander_biquandle(5, 2, 3))
        monkeypatch.setenv("BBQ_CARRIER_BOUND", "4")
        with pytest.raises(CapacityExceeded):
            block_matrix_decode(text)
        monkeypatch.setenv("BBQ_CARRIER_BOUND", "5")
        assert block_matrix_decode(text) == alexander_biquandle(5, 2, 3)

    def test_non_integer(self):
        with pytest.raises(ParseError):
            block_matrix_decode("1\n1 x\n1 1\n")

    def test_tokens_read_by_int(self):
        """Tokens that are not written as encode writes them, but that
        int() reads as labels, decode as those labels."""
        for text in (
            ALEXANDER_3_2_1_MATRIX.replace("3 2 1 3 2 1", "03 2 1 3 2 01", 1),
            ALEXANDER_3_2_1_MATRIX.replace("1 3 2 1 3 2", "+1 3 2 1 3 +2", 1),
            ALEXANDER_3_2_1_MATRIX.replace(" ", "\t"),
        ):
            assert text != ALEXANDER_3_2_1_MATRIX
            assert block_matrix_decode(text) == alexander_biquandle(3, 2, 1)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1 2 1", "row '1 2 1' has 3 entries, expected 4"),
            ("1 2 1 2 1", "row '1 2 1 2 1' has 5 entries, expected 4"),
            ("1 2 1 x", "non-integer entry in '1 2 1 x'"),
            ("1 2 x", "non-integer entry in '1 2 x'"),
            ("1 2 1 3", "entry outside [1, 2] in '1 2 1 3'"),
            ("1 2 01 0", "entry outside [1, 2] in '1 2 01 0'"),
            ("1 2 3", "row '1 2 3' has 3 entries, expected 4"),
        ],
    )
    def test_row_errors(self, row, message):
        text = f"2\n1 1 1 1\n{row}\n1 1 1 1\n1 1 1 1\n"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            block_matrix_decode(text)
