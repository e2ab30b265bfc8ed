import json
import os
import signal
import subprocess
import sys
import tracemalloc

import pytest

from bilbiq import BUILTIN_CODES, build_bilinear, invariant, parse_gauss, parse_spec
from bilbiq.cli import run
from conftest import reference_colorings, torus_2

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ALEXANDER_3_2_1_MATRIX = """\
3
3 2 1 3 2 1
1 3 2 1 3 2
2 1 3 2 1 3
2 2 2 2 2 2
1 1 1 1 1 1
3 3 3 3 3 3
"""


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_within_1s(capsys, *argv):
    """invoke, with an alarm that turns a run past 1 s into a failure
    instead of a hang."""

    def too_slow(signum, frame):
        raise RuntimeError(f"{argv[0]} did not stop within 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return invoke(capsys, *argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSearch:
    def test_z3_squared(self, capsys):
        code, out, _ = invoke(capsys, "search", "--n", "3", "--m", "2")
        assert code == 0
        assert out == (
            "3,2,2,2,[[0,0],[0,0]]\n"
            "3,2,2,2,[[0,1],[2,0]]\n"
            "found 2\n"
        )

    def test_z2_squared_empty(self, capsys):
        code, out, _ = invoke(capsys, "search", "--n", "2", "--m", "2")
        assert code == 0
        assert out == "found 0\n"

    def test_z4_squared_count(self, capsys):
        code, out, _ = invoke(capsys, "search", "--n", "4", "--m", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 8
        assert lines[-1] == "found 7"

    def test_include_symplectic(self, capsys):
        code, out, _ = invoke(
            capsys, "search", "--n", "3", "--m", "2", "--include-symplectic"
        )
        assert code == 0
        assert out.strip().split("\n")[-1] == "found 4"


class TestVerify:
    def test_bb1_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--spec", "4,2,3,3,[[0,2],[2,0]]")
        assert code == 0
        assert out == "axiom1: pass\naxiom2: pass\naxiom3: pass\naxiom4: pass\n"

    def test_zero_form_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--spec", "4,2,3,3,[[0,0],[0,0]]")
        assert code == 0

    def test_failing_spec(self, capsys):
        # valid entries but axiom 3 fails, so exit 1 with a witness
        code, out, _ = invoke(capsys, "verify", "--spec", "4,2,1,1,[[0,1],[1,0]]")
        assert code == 1
        assert "fail (witness" in out

    def test_non_unit_alpha(self, capsys):
        code, _, err = invoke(capsys, "verify", "--spec", "4,2,2,3,[[0,0],[0,0]]")
        assert code == 2
        assert "error" in err

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(ALEXANDER_3_2_1_MATRIX)
        code, out, _ = invoke(capsys, "verify", "--matrix-file", str(path))
        assert code == 0

    def test_matrix_file_capacity(self, capsys, monkeypatch, tmp_path):
        # The same bound as `verify --spec` on the same structure.
        path = tmp_path / "z9.txt"
        code, out, _ = invoke(capsys, "matrix", "--spec", "9,2,1,1,[[0,1],[8,0]]")
        assert code == 0
        path.write_text(out)
        monkeypatch.setenv("BBQ_CARRIER_BOUND", "5")
        assert invoke(capsys, "verify", "--matrix-file", str(path)) == (
            3, "", "error: matrix has 81 elements, above bound 5\n"
        )
        assert invoke(capsys, "verify", "--spec", "9,2,1,1,[[0,1],[8,0]]")[0] == 3

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "verify", "--matrix-file", str(tmp_path / "no"))
        assert code == 2

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        code, out, err = invoke(capsys, "verify", "--matrix-file", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")


class TestMatrix:
    def test_alexander_golden(self, capsys):
        code, out, _ = invoke(capsys, "matrix", "--alexander", "3,2,1")
        assert code == 0
        assert out == ALEXANDER_3_2_1_MATRIX

    def test_non_unit(self, capsys):
        code, _, err = invoke(capsys, "matrix", "--alexander", "4,2,1")
        assert code == 2

    def test_bad_alexander_arg(self, capsys):
        code, _, err = invoke(capsys, "matrix", "--alexander", "3,2")
        assert code == 2

    def test_spec(self, capsys):
        code, out, _ = invoke(capsys, "matrix", "--spec", "4,2,3,3,[[0,2],[2,0]]")
        assert code == 0
        assert out.split("\n")[0] == "16"

    @pytest.mark.parametrize(
        "bound, alexander", [("8", "11,2,3"), (None, "100000,1,1")], ids=["bound-8", "default"]
    )
    def test_capacity(self, capsys, monkeypatch, bound, alexander):
        # The carrier Z_n is checked against the bound before any table
        # is built; 100000 would mean 10^10-entry tables.
        if bound is not None:
            monkeypatch.setenv("BBQ_CARRIER_BOUND", bound)
        code, out, err = invoke_within_1s(capsys, "matrix", "--alexander", alexander)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")


class TestInvariant:
    BB1 = "4,2,3,3,[[0,2],[2,0]]"

    def test_trefoil_golden(self, capsys):
        code, out, _ = invoke(capsys, "invariant", "--link", "trefoil", "--spec", self.BB1)
        assert code == 0
        assert out == "phi = q z + 3 q z^2 + 12 q^2 z^4\nhom = 16\n"

    def test_unknot(self, capsys):
        code, out, _ = invoke(capsys, "invariant", "--link", "unknot", "--spec", self.BB1)
        assert code == 0
        assert out == "phi = q z + 3 q z^2 + 12 q^2 z^4\nhom = 16\n"

    def test_gauss_kink(self, capsys):
        code, out, _ = invoke(capsys, "invariant", "--gauss", "O1+U1+", "--spec", self.BB1)
        assert code == 0
        assert out.split("\n")[1] == "hom = 16"

    def test_torus_2_21_on_x27(self, capsys):
        # phi_BB's walk follows the crossings, so 21 of them take milliseconds
        x27 = "3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]"
        assert invoke_within_1s(capsys, "invariant", "--gauss", torus_2(21), "--spec", x27) == (
            0, "phi = q z + 26 q^2 z^3\nhom = 27\n", ""
        )

    def test_unknown_link(self, capsys):
        code, _, err = invoke(capsys, "invariant", "--link", "nope", "--spec", self.BB1)
        assert code == 2

    def test_bad_spec(self, capsys):
        code, _, err = invoke(capsys, "invariant", "--link", "unknot", "--spec", "x")
        assert code == 2

    def test_capacity(self, capsys, monkeypatch):
        # The carrier bound is checked before the axiom-4 rule and before
        # any table is built.
        monkeypatch.setenv("BBQ_CARRIER_BOUND", "50")
        code, out, err = invoke(
            capsys, "invariant", "--link", "unknot", "--spec", "53,1,1,1,[[0]]"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: 53^1 = 53 exceeds bound 50")

    def test_refusal_names_the_spec(self, capsys):
        code, out, err = invoke(
            capsys, "invariant", "--link", "unknot", "--spec", "4,2,1,1,[[0,1],[1,0]]"
        )
        assert (code, out) == (2, "")
        assert err == "error: spec 4,2,1,1,[[0,1],[1,0]] does not satisfy the biquandle axioms\n"


class TestColor:
    BB1 = "4,2,3,3,[[0,2],[2,0]]"

    def test_unknot_sixteen_lines(self, capsys):
        code, out, _ = invoke(capsys, "color", "--link", "unknot", "--spec", self.BB1)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 16
        assert lines[0] == "(0,0)"

    def test_limit_marker(self, capsys):
        code, out, _ = invoke(
            capsys, "color", "--link", "trefoil", "--spec", self.BB1, "--limit", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[-1] == "... (13 more)"

    def test_counts_only_a_cut_list(self, capsys, monkeypatch):
        # Without a limit, or with one past the 9 colorings, every
        # coloring is shown, so color walks them once and counts none.
        z3s = "3,2,2,2,[[0,1],[2,0]]"
        every = (
            "(0,0) (0,0) (0,0) (0,0) (0,0) (0,0)\n"
            "(0,1) (0,2) (0,1) (0,2) (0,1) (0,2)\n"
            "(0,2) (0,1) (0,2) (0,1) (0,2) (0,1)\n"
            "(1,0) (2,0) (1,0) (2,0) (1,0) (2,0)\n"
            "(1,1) (2,2) (1,1) (2,2) (1,1) (2,2)\n"
            "(1,2) (2,1) (1,2) (2,1) (1,2) (2,1)\n"
            "(2,0) (1,0) (2,0) (1,0) (2,0) (1,0)\n"
            "(2,1) (1,2) (2,1) (1,2) (2,1) (1,2)\n"
            "(2,2) (1,1) (2,2) (1,1) (2,2) (1,1)\n"
        )

        def no_count(diagram, target):
            raise AssertionError("counted colorings that were all shown")

        with monkeypatch.context() as patch:
            patch.setattr(invariant, "counting_invariant", no_count)
            for limit in [(), ("--limit", "100")]:
                assert invoke(capsys, "color", "--link", "trefoil", "--spec", z3s, *limit) == (
                    0, every, ""
                )
        assert invoke(capsys, "color", "--link", "trefoil", "--spec", z3s, "--limit", "5") == (
            0, "".join(every.splitlines(True)[:5]) + "... (4 more)\n", ""
        )

    def test_limit_lists_lexicographic_first(self, capsys):
        # On the Hopf link the column walk meets (0,0,3,1) before
        # (0,0,1,3); color keeps the three least in sorted order.
        code, out, _ = invoke(
            capsys, "color", "--link", "hopf_pos", "--spec", self.BB1, "--limit", "3"
        )
        assert code == 0
        assert out == (
            "(0,0) (0,0) (0,0) (0,0)\n"
            "(0,0) (0,0) (0,1) (0,3)\n"
            "(0,0) (0,0) (0,2) (0,2)\n"
            "... (157 more)\n"
        )

    @pytest.mark.parametrize(
        "code, spec",
        [
            (BUILTIN_CODES["hopf_pos"], BB1),
            # On BB1 each coloring of the poked trefoil follows from its
            # first semiarc, so the walk meets them in order there.
            ("O1+U2+O3+U1+O2+U3+U7+U8-O7+O8-", "4,2,1,3,[[2,1],[1,2]]"),
        ],
    )
    def test_lists_every_coloring_lexicographic(self, capsys, code, spec):
        # The column walk meets these colorings out of lexicographic
        # order; color sorts them.
        diagram, target = parse_gauss(code), build_bilinear(parse_spec(spec))
        want = reference_colorings(diagram, target)
        walked = [c for batch in invariant._column_walk(diagram, target) for c in zip(*batch)]
        assert walked != want
        status, out, err = invoke(capsys, "color", "--gauss", code, "--spec", spec)
        assert (status, err) == (0, "")
        assert out == "".join(
            " ".join("(" + ",".join(map(str, target.carrier[i])) + ")" for i in coloring) + "\n"
            for coloring in want
        )

    def test_limit_one_on_torus_2_9(self, capsys):
        # 27 colorings, found crossing by crossing: the least is the
        # constant one, and the rest are counted, not listed.
        x27 = "3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]"
        code, out, _ = invoke_within_1s(
            capsys, "color", "--gauss", torus_2(9), "--spec", x27, "--limit", "1"
        )
        assert code == 0
        assert out == " ".join(["(0,0,0)"] * 18) + "\n... (26 more)\n"

    def test_limit_past_maxsize_lists_all(self, capsys):
        huge = str(sys.maxsize * 10**4)
        spec = "3,2,2,2,[[0,1],[2,0]]"
        code, out, err = invoke(capsys, "color", "--link", "trefoil", "--spec", spec, "--limit", huge)
        assert (code, err) == (0, "")
        assert out == invoke(capsys, "color", "--link", "trefoil", "--spec", spec)[1]
        assert len(out.splitlines()) == 9

    def test_limit_streams(self, capsys):
        # three free components on 27 elements have 27^3 colorings, and
        # showing one of them must not hold the rest
        x27 = "3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]"
        tracemalloc.start()
        try:
            code, out, _ = invoke(capsys, "color", "--gauss", ";;", "--spec", x27, "--limit", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out.split("\n")[1:] == ["... (19682 more)", ""]
        assert peak < 0.5 * 2**20

    def test_bad_gauss(self, capsys):
        code, _, err = invoke(capsys, "color", "--gauss", "bad", "--spec", self.BB1)
        assert code == 2

    def test_refuses_non_biquandle(self, capsys):
        # Entries and diagonal pass validate(), axiom 3 fails: as for
        # `invariant`, no coloring is printed.
        code, out, err = invoke(
            capsys, "color", "--link", "trefoil", "--spec", "4,2,1,1,[[0,1],[1,0]]", "--limit", "2"
        )
        assert (code, out) == (2, "")
        assert err == "error: spec 4,2,1,1,[[0,1],[1,0]] does not satisfy the biquandle axioms\n"


class TestTable:
    def test_k8_empty(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-cardinality", "8")
        assert code == 0
        assert out == "found 0\n"

    def test_k9(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-cardinality", "9")
        assert code == 0
        assert out == (
            "3,2,2,2,[[0,0],[0,0]] is_quandle=false\n"
            "3,2,2,2,[[0,1],[2,0]] is_quandle=false\n"
            "found 2\n"
        )

    def test_capacity(self, capsys, monkeypatch):
        monkeypatch.setenv("BBQ_CARRIER_BOUND", "8")
        code, _, err = invoke(capsys, "table", "--max-cardinality", "9")
        assert code == 3

    def test_capacity_stop_prints_no_partial_table(self, capsys):
        # (Z_2)^6 has 2^15 candidate forms on the triangle; the searches
        # up to 63 elements succeed first, and none of their lines may be
        # printed.
        code, out, err = invoke(capsys, "table", "--max-cardinality", "64")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_cardinality_past_bound(self):
        # Listing the (n, m) pairs up to 10^18 alone would not finish, so
        # the run is a separate process that a timeout can end.
        proc = subprocess.run(
            [sys.executable, "-m", "bilbiq.cli", "table", "--max-cardinality", str(10**18)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=20,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize(
        "n, m",
        [
            ("2", "6"),
            ("3", "5"),
            ("211", "1"),
            ("100000000", "1"),
            ("1000000000000", "2"),
            ("3", "10000000"),
        ],
    )
    def test_candidate_capacity(self, capsys, n, m):
        # 2^15 and 3^10 candidate forms on the triangle, 210^2 unit
        # pairs mod 211, carriers too large to list the units of, and an
        # m too large to work n^m out.
        code, out, err = invoke_within_1s(capsys, "search", "--n", n, "--m", m)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "bound, n, m, message",
        [
            (None, "101", "2", "101^2 = 10201 exceeds bound 10000"),
            ("50", "8", "2", "8^2 = 64 exceeds bound 50"),
            (None, "3", "10000000", "3^10000000 exceeds bound 10000"),
            (None, "7" * 3000, "2", f"{'7' * 3000}^2 exceeds bound 10000"),
        ],
        ids=["default", "bound-50", "huge-m", "huge-n"],
    )
    def test_module_bound_message(self, capsys, monkeypatch, bound, n, m, message):
        # The carrier check of every command, check_module; a power too
        # large to work out or print is named without its value.
        if bound is not None:
            monkeypatch.setenv("BBQ_CARRIER_BOUND", bound)
        code, out, err = invoke_within_1s(capsys, "search", "--n", n, "--m", m)
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestSpecCapacity:
    @pytest.mark.parametrize("command", ["invariant", "color"])
    @pytest.mark.parametrize(
        "bound, spec, message",
        [
            (None, "1000000000000,2,1,1,[[0,1],[2,0]]", f"{10**12}^2 = {10**24} exceeds bound 10000"),
            ("50", "8,2,1,1,[[0,1],[2,0]]", "8^2 = 64 exceeds bound 50"),
        ],
        ids=["default", "bound-50"],
    )
    def test_bound_before_axiom_rule(self, capsys, monkeypatch, command, bound, spec, message):
        # A_12 + A_21 = 3 fails the axiom-4 rule, which needs no table,
        # but a carrier past the bound is refused first.
        if bound is not None:
            monkeypatch.setenv("BBQ_CARRIER_BOUND", bound)
        code, out, err = invoke_within_1s(capsys, command, "--link", "unknot", "--spec", spec)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["matrix"], ["invariant", "--link", "unknot"], ["color", "--link", "unknot"]],
        ids=lambda argv: argv[0],
    )
    def test_spec_capacity(self, capsys, argv):
        # The spec's entries are checked without listing Z_n, so the
        # carrier bound stops the command at once.
        code, out, err = invoke_within_1s(capsys, *argv, "--spec", "1000000000000,1,1,1,[[0]]")
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["search", "--n", "3", "--m", "2", "--bogus"])
        assert exc.value.code == 2


class TestOverlongIntegers:
    """An integer with more digits than int() converts on this interpreter
    is a usage error, not a traceback."""

    @pytest.fixture
    def digits(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        return "7" * (limit + 1)

    def test_gauss_crossing_id(self, capsys, digits):
        code, out, err = invoke(
            capsys, "invariant", "--gauss", f"O{digits}+U{digits}+", "--spec", "3,2,2,2,[[0,1],[2,0]]"
        )
        assert (code, out) == (2, "")
        assert err == "error: crossing id has too many digits\n"

    def test_carrier_bound(self, capsys, monkeypatch, digits):
        monkeypatch.setenv("BBQ_CARRIER_BOUND", digits)
        code, out, err = invoke(capsys, "search", "--n", "3", "--m", "2")
        assert (code, out) == (2, "")
        assert err == f"error: BBQ_CARRIER_BOUND has too many digits ({len(digits)})\n"


def test_import_leaves_out_dataclasses_and_inspect():
    # Every CLI call is a fresh process, and these two cost about 4 ms of
    # its import; -S keeps site from loading either.
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bilbiq.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_leaves_out_gauss_and_invariant():
    # table, search, verify and matrix color no link, so a process that
    # runs one of them compiles neither module.
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bilbiq.cli; print(sorted({'bilbiq.gauss', 'bilbiq.invariant'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_bilbiq_loads_no_submodule():
    # Every exported name and submodule resolves on first access.
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import bilbiq, sys; print(sorted(m for m in sys.modules if m.startswith('bilbiq.')))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# What the package exported when it imported every submodule eagerly.
EXPORTS = {
    "bilinear": "BilinearSpec brute_force_search build_bilinear format_spec is_symplectic"
                " parse_spec search",
    "biquandle": "AxiomReport AxiomViolation FiniteBiquandle alexander_biquandle"
                 " block_matrix_decode block_matrix_encode check_axioms is_quandle omega"
                 " symplectic_quandle",
    "errors": "BilbiqError CapacityExceeded DimensionMismatch IndexOutOfRange InvariantViolation"
              " NotAntisymmetric NotInvertible ParseError ShapeError SignMismatch UnknownLink"
              " UnmatchedCrossing",
    "gauss": "BUILTIN_CODES Crossing CrossingRelation GaussToken LinkDiagram builtin_link"
             " crossing_relations parse_gauss print_gauss",
    "invariant": "BBPolynomial counting_invariant enumerate_colorings phi_bb subbiquandle_closure",
    "modular": "enumerate_module inv_scalar units",
}


def test_exports_resolve_to_their_submodules():
    # A fresh process, so every name and submodule resolves on first
    # access: dir() is read before any of them, and each package
    # attribute before its submodule.
    script = (
        "import importlib, json, sys\n"
        "import bilbiq\n"
        "print(set(bilbiq.__all__) <= set(dir(bilbiq)))\n"
        "exports = json.loads(sys.argv[1])\n"
        "names = [n for names in exports.values() for n in names.split()]\n"
        "print(sorted(bilbiq.__all__) == sorted(names))\n"
        "print([m for m in exports if getattr(bilbiq, m) is not importlib.import_module('bilbiq.' + m)])\n"
        "print([f'{module}.{name}' for module, names in exports.items() for name in names.split()\n"
        "       if getattr(bilbiq, name) is not getattr(importlib.import_module('bilbiq.' + module), name)])\n"
        "from bilbiq import phi_bb\n"
        "print(phi_bb is bilbiq.invariant.phi_bb)\n"
        "star = {}\n"
        "exec('from bilbiq import *', star)\n"
        "print(sorted(star.keys() - {'__builtins__'}) == sorted(names))\n"
        "try:\n"
        "    bilbiq.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(EXPORTS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "True", "True", "[]", "[]", "True", "True", "module 'bilbiq' has no attribute 'no_such_name'"
    ]


class TestUsageErrors:
    @pytest.mark.parametrize(
        "env, argv",
        [
            ({}, ["search", "--n", "1", "--m", "2"]),
            ({}, ["search", "--n", "3", "--m", "0"]),
            ({"BBQ_CARRIER_BOUND": "abc"}, ["table", "--max-cardinality", "9"]),
            ({"BBQ_CARRIER_BOUND": "0"}, ["table", "--max-cardinality", "9"]),
            (
                {},
                ["color", "--link", "trefoil", "--spec", "3,2,2,2,[[0,0],[0,0]]", "--limit", "-1"],
            ),
            ({}, ["matrix", "--alexander", "0,1,1"]),
            ({}, ["verify", "--spec", "3,2,2,2,[[0,True],[2,0]]"]),
        ],
        ids=["n-1", "m-0", "bound-abc", "bound-0", "limit-negative", "alexander-n-0", "spec-bool"],
    )
    def test_one_error_line(self, capsys, monkeypatch, env, argv):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")
