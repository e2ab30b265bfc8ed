"""The benchmark's workloads: their inputs, operations, CLI calls and
checks.

Four parts (classify, verify, knots, links) make the two workloads at the
end of this file.  A workload is built once per process (the set-up the
benchmark times): specs and Gauss codes are parsed and the seeded inputs
are drawn.  A round runs its in-process operations in order, each a
callable taking the results so far, and its CLI calls.  Operations call
bilbiq through module attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from bilbiq import bilinear, biquandle, gauss, invariant
from bilbiq.errors import InvariantViolation

import oracles

# The twelve structures of the paper's table at cardinality <= 27.
PAPER_TABLE = [
    "3,2,2,2,[[0,0],[0,0]]",
    "3,2,2,2,[[0,1],[2,0]]",
    "4,2,1,3,[[2,0],[2,2]]",
    "4,2,1,3,[[2,1],[1,2]]",
    "4,2,3,1,[[2,0],[2,2]]",
    "4,2,3,1,[[2,1],[1,2]]",
    "4,2,3,3,[[0,0],[0,0]]",
    "4,2,3,3,[[0,2],[2,0]]",
    "4,2,3,3,[[0,1],[3,0]]",
    "5,2,4,4,[[0,0],[0,0]]",
    "5,2,4,4,[[0,1],[4,0]]",
    "3,3,2,2,[[0,0,0],[0,0,0],[0,0,0]]",
]
# Valid at cardinality <= 27 but left out of the paper's table (two
# Alexander biquandles on (Z_5)^2 and one form on (Z_3)^3).
TABLE_EXTRAS = [
    "5,2,2,3,[[0,0],[0,0]]",
    "5,2,3,2,[[0,0],[0,0]]",
    "3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]",
]

TARGETS = {
    "Z3z": "3,2,2,2,[[0,0],[0,0]]",
    "Z3s": "3,2,2,2,[[0,1],[2,0]]",
    "BB1": "4,2,3,3,[[0,2],[2,0]]",
    "Z5z": "5,2,4,4,[[0,0],[0,0]]",
    "X27": "3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]",
    "Z27z": "3,3,2,2,[[0,0,0],[0,0,0],[0,0,0]]",
}

KNOTS = {
    "trefoil": gauss.BUILTIN_CODES["trefoil"],
    "trefoil_mirror": gauss.BUILTIN_CODES["trefoil_mirror"],
    "figure8": gauss.BUILTIN_CODES["figure8"],
}
LINKS = {
    "unlink2": ";",
    "unlink3": ";;",
    "hopf_pos": gauss.BUILTIN_CODES["hopf_pos"],
    "hopf_u_unknot": "O1+U2+;O2+U1+;",
}
KINKS = 1000
KINK_CHAIN = "".join(f"O{i}+U{i}+" for i in range(1, KINKS + 1))

ENTRY_SAMPLES = 64
AXIOM_SAMPLES = 32


@dataclass
class CliCall:
    name: str
    args: list
    env: dict = field(default_factory=dict)
    expect_rc: int = 0
    # A probe is a bad input that must exit 2 with one "error:" line; it
    # counts as failed otherwise and is left out of the CLI timings.
    probe: bool = False


@dataclass
class Workload:
    name: str
    ops: list  # (name, fn(results) -> value)
    cli: list  # CliCall
    check: object  # fn(results, cli_results) -> list of error messages


@dataclass(frozen=True)
class Target:
    """A parsed bilinear spec with the oracle's view of it."""

    spec: object

    @property
    def size(self) -> int:
        return self.spec.n**self.spec.m

    @property
    def params(self):
        s = self.spec
        return (s.n, s.alpha, s.beta, s.matrix, oracles.omega(s.alpha, s.beta, s.n))

    @property
    def zero_form(self) -> bool:
        s = self.spec
        return not any(any(row) for row in s.matrix) and s.alpha * s.beta % s.n == 1


def tables(bq) -> dict:
    return {"up": bq.up, "upbar": bq.upbar, "low": bq.low, "lowbar": bq.lowbar}


def spec_text(spec) -> str:
    rows = ",".join("[" + ",".join(map(str, r)) + "]" for r in spec.matrix)
    return f"{spec.n},{spec.m},{spec.alpha},{spec.beta},[{rows}]"


def block_matrix_text(size: int, tabs: dict) -> str:
    """The CLI's matrix-file format, written from the tables directly."""
    lines = [str(size)]
    for left, right in (("upbar", "up"), ("lowbar", "low")):
        for i in range(size):
            lines.append(" ".join(str(e + 1) for e in list(tabs[left][i]) + list(tabs[right][i])))
    return "\n".join(lines) + "\n"


def parse_targets(keys) -> dict:
    return {k: Target(bilinear.parse_spec(TARGETS[k])) for k in keys}


def cli_lines(proc) -> list:
    return proc.stdout.splitlines()


# --- classify ------------------------------------------------------------

# The table --max-cardinality 27 sweep on (Z_n)^2.  (3,3) at about 6 s
# and (7,2) at 7-8 s are left out: either would make a round too long
# for a run to hold the dozen or so rounds that steady per-operation
# best times need.
SEARCHES = [(3, 2), (4, 2), (5, 2)]
BRUTE_FORCE = [(3, 2), (4, 2), (5, 2)]


def classify(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    paper = [bilinear.parse_spec(s) for s in PAPER_TABLE]
    ops = [(f"search:{n},{m}", lambda r, n=n, m=m: bilinear.search(n, m)) for n, m in SEARCHES]
    cli = [
        CliCall("search 4 2", ["search", "--n", "4", "--m", "2"]),
        CliCall("table 9", ["table", "--max-cardinality", "9"]),
        CliCall("search n=1", ["search", "--n", "1", "--m", "2"], probe=True),
        CliCall("search m=0", ["search", "--n", "3", "--m", "0"], probe=True),
        CliCall("table bad bound", ["table", "--max-cardinality", "9"],
                env={"BBQ_CARRIER_BOUND": "abc"}, probe=True),
    ]
    sample_seed = rng.randrange(2**32)

    def check(res, cli_res):
        errs = []
        srng = random.Random(sample_seed)
        emitted = []
        for n, m in SEARCHES:
            specs = res.get(f"search:{n},{m}")
            if specs is None:
                continue
            keys = [(s.alpha, s.beta, s.matrix) for s in specs]
            if keys != sorted(set(keys)):
                errs.append(f"search({n},{m}) output is not sorted and distinct")
            for spec in specs:
                try:
                    spec.validate()
                except InvariantViolation as exc:
                    errs.append(f"search({n},{m}) emitted {spec_text(spec)}: {exc}")
                bq = bilinear.build_bilinear(spec)
                if not biquandle.check_axioms(bq).all_pass:
                    errs.append(f"search({n},{m}) emitted {spec_text(spec)}, which fails check_axioms")
                errs += oracles.sampled_entry_mismatches(tables(bq), bq.carrier, Target(spec).params, srng, ENTRY_SAMPLES)
            for (alpha, beta, A), spec in zip(keys, specs):
                flat = tuple(e for row in A for e in row)
                orbit = oracles.congruence_class(A, n)
                if flat != min(orbit):
                    errs.append(f"search({n},{m}) emitted {spec_text(spec)}, not its class's least matrix")
                if any(other != spec and (other.alpha, other.beta) == (alpha, beta)
                       and tuple(e for row in other.matrix for e in row) in orbit for other in specs):
                    errs.append(f"search({n},{m}) emitted {spec_text(spec)} twice up to basis change")
            emitted += specs
        searched = [s for s in paper if f"search:{s.n},{s.m}" in res]
        missing = [spec_text(s) for s in searched if s not in emitted]
        if missing:
            errs.append(f"paper table entries not emitted: {missing}")
        for n, m in BRUTE_FORCE:
            if f"search:{n},{m}" in res and bilinear.brute_force_search(n, m) != res[f"search:{n},{m}"]:
                errs.append(f"search({n},{m}) differs from brute_force_search")
        if "search:4,2" in res and "search 4 2" in cli_res:
            want = [spec_text(s) for s in res["search:4,2"]] + [f"found {len(res['search:4,2'])}"]
            if cli_lines(cli_res["search 4 2"]) != want:
                errs.append("CLI search --n 4 --m 2 differs from search(4, 2)")
        if "search:3,2" in res and "table 9" in cli_res:
            specs = bilinear.search(2, 2) + bilinear.search(2, 3) + res["search:3,2"]
            want = [f"{spec_text(s)} is_quandle={'true' if s.beta == 1 else 'false'}" for s in specs]
            want.append(f"found {len(specs)}")
            if cli_lines(cli_res["table 9"]) != want:
                errs.append("CLI table --max-cardinality 9 differs from the searches")
        return errs

    return Workload("classify", ops, cli, check)


# --- verify --------------------------------------------------------------

VERIFY_SPECS = {
    **{s: s for s in PAPER_TABLE + TABLE_EXTRAS},
    # Zero forms with beta = alpha^-1 are Alexander biquandles.
    "Z7^2 zero": "7,2,3,5,[[0,0],[0,0]]",
    "Z3^4 zero": "3,4,2,2,[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]",
    # alpha = beta = 1 with an antisymmetric form: symplectic quandles.
    "Z9^2 symplectic": "9,2,1,1,[[0,1],[8,0]]",
}
ALEXANDER = (49, 2, 3)
SYMPLECTIC = (4, 3, ((0, 1, 1), (3, 0, 2), (3, 2, 0)))
# The paper's quoted omega(3, 3, 4) = 1 in place of 3: axiom 1 fails.
WRONG_OMEGA = ("4,2,3,3,[[0,1],[3,0]]", 1)
CONSTANT_UP = 16
# a^b swaps b+1 and b+2 mod N and fixes the rest, a_b = a: axioms 1, 2
# and 4 hold and self-distributivity (axiom 3) fails, so the check of
# axiom 3 has a structure to reject.
NON_DISTRIBUTIVE = 16


def verify(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    specs = {k: bilinear.parse_spec(v) for k, v in VERIFY_SPECS.items()}

    # Tables written straight from the formulas, with the wrong omega.
    bad_spec = bilinear.parse_spec(WRONG_OMEGA[0])
    n, alpha, beta, A = bad_spec.n, bad_spec.alpha, bad_spec.beta, bad_spec.matrix
    carrier = oracles.vectors(n, bad_spec.m)
    index = {v: i for i, v in enumerate(carrier)}
    wrong = {
        op: [[index[oracles.bilinear_op(op, x, y, n, alpha, beta, A, WRONG_OMEGA[1])] for y in carrier]
             for x in carrier]
        for op in ("up", "upbar", "low", "lowbar")
    }
    const = {op: [[0 if op == "up" else a for _ in range(CONSTANT_UP)] for a in range(CONSTANT_UP)]
             for op in ("up", "upbar", "low", "lowbar")}
    N = NON_DISTRIBUTIVE
    swap = [[{(b + 1) % N: (b + 2) % N, (b + 2) % N: (b + 1) % N}.get(a, a) for b in range(N)] for a in range(N)]
    proj = [[a] * N for a in range(N)]
    out.mkdir(parents=True, exist_ok=True)
    matrix_file = out / "wrong_omega.txt"
    matrix_file.write_text(block_matrix_text(len(carrier), wrong))

    builders = {k: (lambda r, s=s: bilinear.build_bilinear(s)) for k, s in specs.items()}
    builders["alexander"] = lambda r: biquandle.alexander_biquandle(*ALEXANDER)
    builders["symplectic"] = lambda r: biquandle.symplectic_quandle(*SYMPLECTIC)
    builders["wrong omega"] = lambda r: biquandle.FiniteBiquandle(
        carrier, wrong["up"], wrong["upbar"], wrong["low"], wrong["lowbar"])
    builders["constant up"] = lambda r: biquandle.FiniteBiquandle(
        range(CONSTANT_UP), const["up"], const["upbar"], const["low"], const["lowbar"])
    builders["non-distributive"] = lambda r: biquandle.FiniteBiquandle(range(N), swap, swap, proj, proj)
    invalid = {"wrong omega": 1, "constant up": 1, "non-distributive": 3}  # name -> axiom that must fail

    ops = []
    for key, build in builders.items():
        ops.append((f"build:{key}", build))
        ops.append((f"check:{key}", lambda r, key=key: biquandle.check_axioms(r[f"build:{key}"])))
        ops.append((f"codec:{key}", lambda r, key=key: biquandle.block_matrix_decode(
            biquandle.block_matrix_encode(r[f"build:{key}"]))))
    good = specs["3,3,2,2,[[0,0,0],[0,0,1],[0,2,0]]"]
    cli = [
        CliCall("verify spec", ["verify", "--spec", spec_text(good)]),
        CliCall("verify matrix-file", ["verify", "--matrix-file", str(matrix_file)], expect_rc=1),
    ]
    sample_seed = rng.randrange(2**32)

    def check(res, cli_res):
        errs = []
        srng = random.Random(sample_seed)
        for key in builders:
            bq, report = res.get(f"build:{key}"), res.get(f"check:{key}")
            if bq is None or report is None:
                continue
            tabs = tables(bq)
            if key in invalid:
                verdicts = oracles.axiom_verdicts(tabs, bq.size)
                if [report.axiom_passes(k) for k in range(1, 5)] != verdicts or verdicts[invalid[key] - 1]:
                    errs.append(f"{key}: check_axioms reports {report.violations}, axioms hold: {verdicts}")
            elif not report.all_pass:
                errs.append(f"{key}: valid by construction, but check_axioms fails")
            else:
                errs += [f"{key}: {e}" for e in oracles.sampled_axiom_failures(tabs, bq.size, srng, AXIOM_SAMPLES)]
            for v in report.violations:
                if v is not None and oracles.axiom_holds(tabs, bq.size, v.axiom, v.elements):
                    errs.append(f"{key}: witness {v.elements} of axiom {v.axiom} satisfies it")
            if key in specs:
                errs += oracles.sampled_entry_mismatches(tabs, bq.carrier, Target(specs[key]).params, srng, ENTRY_SAMPLES)
            elif key == "alexander":
                errs += oracles.alexander_entry_mismatches(tabs, bq.carrier, *ALEXANDER, srng, ENTRY_SAMPLES)
            elif key == "symplectic":
                sn, _, sa = SYMPLECTIC
                errs += oracles.sampled_entry_mismatches(tabs, bq.carrier, (sn, 1, 1, sa, sn - 1), srng, ENTRY_SAMPLES)
            if res.get(f"codec:{key}") != bq:
                errs.append(f"{key}: block matrix round trip changed the tables")
        if "verify spec" in cli_res:
            if cli_lines(cli_res["verify spec"]) != [f"axiom{k}: pass" for k in range(1, 5)]:
                errs.append("CLI verify --spec did not pass all four axioms")
        if "verify matrix-file" in cli_res:
            line = (cli_lines(cli_res["verify matrix-file"]) or [""])[0]
            witness = line.partition("witness ")[2].partition(";")[0]
            if not line.startswith("axiom1: fail") or oracles.axiom_holds(
                    wrong, len(carrier), 1, tuple(int(e) for e in witness.split(","))):
                errs.append(f"CLI verify --matrix-file: no valid axiom 1 witness in {line!r}")
        return errs

    return Workload("verify", ops, cli, check)


# --- knots and links -----------------------------------------------------


def _coloring_ops(targets, diagrams, pairs):
    """build:<target>, then count:<link>@<target> and phi:<link>@<target>
    for every (link, target) pair."""
    ops = [(f"build:{k}", lambda r, s=t.spec: bilinear.build_bilinear(s)) for k, t in targets.items()]
    for link, key in pairs:
        d, spec = diagrams[link], targets[key].spec
        ops.append((f"count:{link}@{key}", lambda r, d=d, key=key: invariant.counting_invariant(d, r[f"build:{key}"])))
        ops.append((f"phi:{link}@{key}", lambda r, d=d, spec=spec: invariant.phi_bb(d, spec)))
    return ops


def _coloring_checks(res, targets, codes, pairs, errs):
    """Coefficient sum, zero-form closed forms and, where affordable, the
    all-assignments enumeration with the oracle's closure and span."""
    for link, key in pairs:
        count, phi = res.get(f"count:{link}@{key}"), res.get(f"phi:{link}@{key}")
        if count is None or phi is None:
            continue
        t, code, where = targets[key], codes[link], f"{link} on {key}"
        if phi.specialize(1, 1) != count:
            errs.append(f"{where}: phi(1, 1) = {phi.specialize(1, 1)}, count = {count}")
        s = t.spec
        if t.zero_form:
            if count != oracles.zero_form_count(code, s.n, s.m, s.alpha):
                errs.append(f"{where}: count {count} differs from the zero-form closed form")
            if phi.terms != oracles.zero_form_phi(code, s.n, s.m, s.alpha):
                errs.append(f"{where}: phi differs from the zero-form orbit computation")
        elif t.size ** oracles.relations(code)[0] <= oracles.EXHAUSTIVE_LIMIT:
            bq = res[f"build:{key}"]
            cols = oracles.exhaustive_colorings(code, tables(bq), bq.size)
            if count != len(cols):
                errs.append(f"{where}: count {count}, all-assignments enumeration {len(cols)}")
            elif phi.terms != oracles.phi_terms(cols, tables(bq), bq.carrier, s.n):
                errs.append(f"{where}: phi differs from the all-assignments enumeration")


KNOT_TARGETS = ["Z3z", "Z3s", "BB1"]
# Targets per knot.  Knots stay on targets of 9 and 16 elements, so that
# a round is short enough for a run to hold several: the trefoil on the
# 27-element X27 adds 1.2 s a round, and 5_1 (O1+U2+O3+U4+O5+U1+O2+U3+O4+U5+)
# on the 9-element Z3s 1.9 s.
KNOT_PLAN = {
    "trefoil": KNOT_TARGETS,
    "trefoil_mirror": ["Z3s", "BB1"],
    "figure8": ["Z3s", "BB1"],
}
# Each knot also runs as a seeded variant on Z3s (on BB1 the three
# variants add 1.6 s a round).
VARIANT_PLAN = {"trefoil": "Z3s", "trefoil_mirror": "Z3s", "figure8": "Z3s"}
# The trefoil with one kink at the front of its code, counted: the same
# knot, but the coloring search branches on the kink's semiarcs first and
# does about 7x the work of the base diagram on this target.  figure8 so
# kinked does about 40x (0.8-1 s), and as half of a round's time it set
# run_s on its own.
KINKED_FRONT = ("trefoil", "O9+U9+" + gauss.BUILTIN_CODES["trefoil"], "Z3s")
KINK_TARGET = "Z3s"


def knots(seed: int, out: Path) -> Workload:
    rng = random.Random(seed)
    targets = parse_targets(KNOT_TARGETS)
    codes = dict(KNOTS)
    base_of = {}
    pairs = []
    for name, code in KNOTS.items():
        pairs += [(name, k) for k in KNOT_PLAN[name]]
        if name in VARIANT_PLAN:
            variant = f"{name}~"
            codes[variant] = oracles.reidemeister_variant(code, rng)
            base_of[variant] = name
            pairs.append((variant, VARIANT_PLAN[name]))
    base, codes["kinked_front"], front_key = KINKED_FRONT
    base_of["kinked_front"] = base
    diagrams = {name: gauss.parse_gauss(code) for name, code in codes.items()}
    kinks = gauss.parse_gauss(KINK_CHAIN)
    ops = _coloring_ops(targets, diagrams, pairs)
    ops.append((f"count:kinked_front@{front_key}", lambda r: invariant.counting_invariant(
        diagrams["kinked_front"], r[f"build:{front_key}"])))
    ops.append(("count:kinks", lambda r: invariant.counting_invariant(kinks, r[f"build:{KINK_TARGET}"])))
    pairs.append(("kinked_front", front_key))
    cli = [
        CliCall("invariant trefoil", ["invariant", "--link", "trefoil", "--spec", TARGETS["BB1"]]),
        CliCall("color trefoil", ["color", "--link", "trefoil", "--spec", TARGETS["Z3s"], "--limit", "5"]),
        CliCall("color limit -1", ["color", "--link", "trefoil", "--spec", TARGETS["Z3z"], "--limit", "-1"],
                probe=True),
    ]

    def check(res, cli_res):
        errs = []
        _coloring_checks(res, targets, codes, pairs, errs)
        for link, key in pairs:
            if link not in base_of:
                continue
            for kind in ("count", "phi"):
                got, want = res.get(f"{kind}:{link}@{key}"), res.get(f"{kind}:{base_of[link]}@{key}")
                if got is not None and want is not None and got != want:
                    errs.append(f"{kind} of {link} ({codes[link]}) on {key} differs from {base_of[link]}")
        if "count:kinks" in res and res["count:kinks"] != targets[KINK_TARGET].size:
            errs.append(f"{KINKS}-kink unknot has {res['count:kinks']} colorings, not |X|")
        if "invariant trefoil" in cli_res and "phi:trefoil@BB1" in res:
            phi = res["phi:trefoil@BB1"]
            if cli_lines(cli_res["invariant trefoil"]) != [f"phi = {phi.to_string()}", f"hom = {phi.specialize(1, 1)}"]:
                errs.append("CLI invariant --link trefoil differs from phi_bb")
        if "color trefoil" in cli_res and "build:Z3s" in res:
            bq = res["build:Z3s"]
            cols = sorted(oracles.exhaustive_colorings(KNOTS["trefoil"], tables(bq), bq.size))
            want = [" ".join("(" + ",".join(map(str, bq.carrier[i])) + ")" for i in c) for c in cols[:5]]
            want.append(f"... ({len(cols) - 5} more)")
            if cli_lines(cli_res["color trefoil"]) != want:
                errs.append("CLI color --limit 5 differs from the first five colorings")
        return errs

    return Workload("knots", ops, cli, check)


LINK_TARGETS = ["BB1", "Z5z", "X27", "Z27z"]
# Targets per link.  The 3-unlink and Hopf + unknot, whose thousands of
# colorings make closure and span the heaviest operations, stay on the
# 16-element BB1.  On the 25- and 27-element targets each takes 0.5-2.3 s
# a round, and with 10^4 colorings or more their times swing with the
# load on the host far more than those of smaller operations.
LINK_PLAN = {
    "unlink2": LINK_TARGETS,
    "unlink3": ["BB1"],
    "hopf_pos": LINK_TARGETS,
    "hopf_u_unknot": ["BB1"],
}


def links(seed: int, out: Path) -> Workload:
    targets = parse_targets(LINK_TARGETS)
    diagrams = {name: gauss.parse_gauss(code) for name, code in LINKS.items()}
    pairs = [(link, key) for key in LINK_TARGETS for link in LINKS if key in LINK_PLAN[link]]
    ops = _coloring_ops(targets, diagrams, pairs)
    cli = [CliCall("invariant hopf", ["invariant", "--link", "hopf_pos", "--spec", TARGETS["X27"]])]

    def check(res, cli_res):
        errs = []
        _coloring_checks(res, targets, LINKS, pairs, errs)
        for key, t in targets.items():
            for link, k in (("unlink2", 2), ("unlink3", 3)):
                if res.get(f"count:{link}@{key}", t.size**k) != t.size**k:
                    errs.append(f"{link} on {key}: {res[f'count:{link}@{key}']} colorings, not |X|^{k}")
            split, hopf = res.get(f"count:hopf_u_unknot@{key}"), res.get(f"count:hopf_pos@{key}")
            if split is not None and hopf is not None and split != hopf * t.size:
                errs.append(f"hopf_u_unknot on {key}: {split} colorings, not {hopf} * |X|")
        if "invariant hopf" in cli_res and "phi:hopf_pos@X27" in res:
            phi = res["phi:hopf_pos@X27"]
            if cli_lines(cli_res["invariant hopf"]) != [f"phi = {phi.to_string()}", f"hom = {phi.specialize(1, 1)}"]:
                errs.append("CLI invariant --link hopf_pos differs from phi_bb")
        return errs

    return Workload("links", ops, cli, check)


class _Part:
    """The results a part's operations and checks see: its own names,
    without the part's prefix."""

    def __init__(self, results: dict, prefix: str):
        self.results, self.prefix = results, prefix

    def __getitem__(self, name):
        return self.results[self.prefix + name]

    def __contains__(self, name):
        return self.prefix + name in self.results

    def get(self, name, default=None):
        return self.results.get(self.prefix + name, default)


def combined(name: str, *builders):
    """One workload made of several, run one after the other in each
    round, each part's names prefixed with its own."""

    def build(seed: int, out: Path) -> Workload:
        parts = [b(seed, out) for b in builders]
        ops, cli = [], []
        for part in parts:
            prefix = part.name + "/"
            ops += [(prefix + n, lambda r, fn=fn, prefix=prefix: fn(_Part(r, prefix))) for n, fn in part.ops]
            cli += [CliCall(prefix + c.name, c.args, c.env, c.expect_rc, c.probe) for c in part.cli]

        def check(res, cli_res):
            errs = []
            for part in parts:
                prefix = part.name + "/"
                errs += [prefix + e for e in part.check(_Part(res, prefix), _Part(cli_res, prefix))]
            return errs

        return Workload(name, ops, cli, check)

    return build


# Two workloads, each run long enough to hold several rounds: searching
# and checking tables (classify, then verify), and coloring diagrams
# (knots, then links).
WORKLOADS = {
    "tables": combined("tables", classify, verify),
    "colorings": combined("colorings", knots, links),
}
