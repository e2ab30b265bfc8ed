"""Reference computations for the benchmark's checks.

Nothing here calls into bilbiq.  Gauss codes are read with a regular
expression, bilinear operations are evaluated from their defining
formulas, and closures and spans are plain fixpoints.  The benchmark
runs all of this outside its timed region.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

_TOKEN = re.compile(r"([OU])(\d+)([+-])")

# Product of |X|^semiarcs up to which the all-assignments coloring
# enumeration is affordable in a benchmark run.
EXHAUSTIVE_LIMIT = 10**6


# --- Gauss codes ---------------------------------------------------------


def gauss_components(code: str) -> list[list[tuple[str, int, int]]]:
    """Per-component lists of (kind, crossing id, sign) tokens."""
    return [
        [(kind, int(cid), 1 if sign == "+" else -1) for kind, cid, sign in _TOKEN.findall(part)]
        for part in code.split(";")
    ]


def gauss_code(components) -> str:
    return ";".join(
        "".join(f"{kind}{cid}{'+' if sign > 0 else '-'}" for kind, cid, sign in comp)
        for comp in components
    )


def relations(code: str) -> tuple[int, list[tuple[int, int, int, str]]]:
    """Semiarc count and (output, x, y, op) for both outputs of every
    crossing: under_out = under_in ^ over_in and over_out = over_in _
    under_in, barred at a negative crossing.  The semiarc leaving token j
    of a component is that component's j-th semiarc."""
    passages: dict[int, dict[str, tuple[int, int, int]]] = {}
    arcs = 0
    for comp in gauss_components(code):
        k = len(comp)
        for j, (kind, cid, sign) in enumerate(comp):
            passages.setdefault(cid, {})[kind] = (sign, arcs + (j - 1) % k, arcs + j)
        arcs += max(k, 1)
    rels = []
    for cid in sorted(passages):
        sign, u_in, u_out = passages[cid]["U"]
        _, o_in, o_out = passages[cid]["O"]
        bar = "" if sign > 0 else "bar"
        rels.append((u_out, u_in, o_in, "up" + bar))
        rels.append((o_out, o_in, u_in, "low" + bar))
    return arcs, rels


def exhaustive_colorings(code: str, tables: dict, size: int) -> list[tuple[int, ...]]:
    """Every assignment of carrier indices to semiarcs that satisfies all
    crossing relations, found by trying all size^semiarcs assignments."""
    arcs, rels = relations(code)
    if size**arcs > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{size}^{arcs} assignments exceed {EXHAUSTIVE_LIMIT}")
    checks = [(out, x, y, tables[op]) for out, x, y, op in rels]
    return [
        a
        for a in itertools.product(range(size), repeat=arcs)
        if all(t[a[x]][a[y]] == a[out] for out, x, y, t in checks)
    ]


def component_exponent(component) -> int:
    """Signed under-passages minus signed over-passages."""
    return sum(sign if kind == "U" else -sign for kind, _, sign in component)


# --- modules and closures ------------------------------------------------


def vectors(n: int, m: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n), repeat=m))


def span(gens, n: int) -> set:
    """Submodule of (Z_n)^m generated by gens: close {0} under adding a
    generator."""
    gens = list(gens)
    zero = (0,) * len(gens[0])
    out, frontier = {zero}, [zero]
    while frontier:
        fresh = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % n for a, b in zip(v, g))
                if w not in out:
                    out.add(w)
                    fresh.append(w)
        frontier = fresh
    return out


def closure(seed, tables: dict) -> set:
    """Smallest index set containing seed and closed under all four
    operations, by repeated passes until nothing new appears."""
    closed = set(seed)
    ops = list(tables.values())
    while True:
        new = {t[a][b] for t in ops for a in closed for b in closed} - closed
        if not new:
            return closed
        closed |= new


def phi_terms(colorings, tables: dict, carrier, n: int) -> dict:
    """{(|image|, |span(image)|): count} over the given colorings."""
    cache: dict = {}
    terms: Counter = Counter()
    for coloring in colorings:
        seed = frozenset(coloring)
        if seed not in cache:
            image = closure(seed, tables)
            cache[seed] = (len(image), len(span([carrier[i] for i in image], n)))
        terms[cache[seed]] += 1
    return dict(terms)


# --- bilinear formulas ---------------------------------------------------


def omega(alpha: int, beta: int, n: int) -> int:
    """The paper's w = -a^-2 b^-2 - a^-1 b + a^-2."""
    ai, bi = pow(alpha, -1, n), pow(beta, -1, n)
    return (-ai * ai * bi * bi - ai * beta + ai * ai) % n


def bilinear_op(op: str, x, y, n: int, alpha: int, beta: int, A, w: int):
    """x^y = ax + f(x,y)y, x^ybar = a^-1 x + w f(x,y)y, x_y = bx and
    x_ybar = b^-1 x, with f(x,y) = x A y^t."""
    m = len(x)
    if op in ("low", "lowbar"):
        c = beta if op == "low" else pow(beta, -1, n)
        return tuple(c * xi % n for xi in x)
    f = sum(x[i] * A[i][j] * y[j] for i in range(m) for j in range(m))
    a, g = (alpha, f) if op == "up" else (pow(alpha, -1, n), w * f)
    return tuple((a * xi + g * yi) % n for xi, yi in zip(x, y))


def sampled_entry_mismatches(tables: dict, carrier, params, rng, samples: int) -> list[str]:
    """Recompute a seeded sample of table entries from the formulas.

    params is (n, alpha, beta, A, w); returns one message per mismatch."""
    n, alpha, beta, A, w = params
    size = len(carrier)
    bad = []
    for _ in range(samples):
        i, j = rng.randrange(size), rng.randrange(size)
        for op, table in tables.items():
            want = bilinear_op(op, carrier[i], carrier[j], n, alpha, beta, A, w)
            if carrier[table[i][j]] != want:
                bad.append(f"{op}[{i}][{j}] = {carrier[table[i][j]]}, formula gives {want}")
    return bad


def alexander_entry_mismatches(tables: dict, carrier, n: int, s: int, t: int, rng, samples: int) -> list[str]:
    """a^b = ta + (1 - st)b, a^bbar = t^-1 a + (1 - s^-1 t^-1)b,
    a_b = sa and a_bbar = s^-1 a on Z_n."""
    si, ti = pow(s, -1, n), pow(t, -1, n)
    formulas = {
        "up": lambda a, b: (t * a + (1 - s * t) * b) % n,
        "upbar": lambda a, b: (ti * a + (1 - si * ti) * b) % n,
        "low": lambda a, b: s * a % n,
        "lowbar": lambda a, b: si * a % n,
    }
    size = len(carrier)
    bad = []
    for _ in range(samples):
        i, j = rng.randrange(size), rng.randrange(size)
        for op, table in tables.items():
            if carrier[table[i][j]] != formulas[op](carrier[i], carrier[j]):
                bad.append(f"alexander {op}[{i}][{j}]")
    return bad


def congruence_class(A, n: int) -> set:
    """{Q A Q^t : Q in GL_m(Z_n)} as row-major tuples, Q enumerated with
    its determinant computed by Laplace expansion."""

    def det(M):
        if len(M) == 1:
            return M[0][0]
        return sum((-1) ** j * M[0][j] * det([row[:j] + row[j + 1:] for row in M[1:]]) for j in range(len(M)))

    m = len(A)
    out = set()
    for flat in itertools.product(range(n), repeat=m * m):
        Q = [flat[i * m:(i + 1) * m] for i in range(m)]
        if math.gcd(det(Q) % n, n) != 1:
            continue
        QA = [[sum(Q[i][k] * A[k][l] for k in range(m)) for l in range(m)] for i in range(m)]
        out.add(tuple(sum(QA[i][l] * Q[j][l] for l in range(m)) % n for i in range(m) for j in range(m)))
    return out


# --- zero-form closed forms ----------------------------------------------


def zero_form_count(code: str, n: int, m: int, alpha: int) -> int:
    """Colorings by x^y = ax, x_y = a^-1 x: going once round component c
    multiplies its colour by a^e_c, so each component contributes the
    gcd(a^e_c - 1, n)^m fixed vectors and components are independent."""
    total = 1
    for comp in gauss_components(code):
        total *= math.gcd(pow(alpha, component_exponent(comp), n) - 1, n) ** m
    return total


def zero_form_phi(code: str, n: int, m: int, alpha: int) -> dict:
    """phi_BB terms for the same targets.  A coloring is fixed by one
    colour x_c per component; every other colour is a power of a times
    it, and the generated sub-biquandle is the union of the a-orbits."""
    vecs = vectors(n, m)
    orbit = {}
    for v in vecs:
        orb, w = {v}, tuple(alpha * e % n for e in v)
        while w not in orb:
            orb.add(w)
            w = tuple(alpha * e % n for e in w)
        orbit[v] = frozenset(orb)
    choices = []
    for comp in gauss_components(code):
        a = pow(alpha, component_exponent(comp), n)
        choices.append([v for v in vecs if all((a * e - e) % n == 0 for e in v)])
    cache: dict = {}
    terms: Counter = Counter()
    for pick in itertools.product(*choices):
        image = frozenset().union(*(orbit[v] for v in pick))
        if image not in cache:
            cache[image] = (len(image), len(span(image, n)))
        terms[cache[image]] += 1
    return dict(terms)


# --- axioms at a point ---------------------------------------------------


def axiom_holds(tables: dict, size: int, axiom: int, elems) -> bool:
    """Evaluate the equations of one biquandle axiom at one point.

    Axiom 1 (a, b): the barred operations undo the plain ones.
    Axiom 2 (a, b): the two sideways solutions x and y exist.
    Axiom 3 (a, b, c): the six exchange laws.
    Axiom 4 (a): the two kink solutions exist.
    """
    up, upbar = tables["up"], tables["upbar"]
    low, lowbar = tables["low"], tables["lowbar"]
    rng = range(size)
    if axiom == 1:
        a, b = elems
        return (
            upbar[up[a][b]][low[b][a]] == a
            and lowbar[low[b][a]][up[a][b]] == b
            and up[upbar[a][b]][lowbar[b][a]] == a
            and low[lowbar[b][a]][upbar[a][b]] == b
        )
    if axiom == 2:
        a, b = elems
        return any(
            up[a][lowbar[b][x]] == x and upbar[x][b] == a and low[lowbar[b][x]][a] == b
            for x in rng
        ) and any(
            upbar[a][low[b][y]] == y and up[y][b] == a and lowbar[low[b][y]][a] == b
            for y in rng
        )
    if axiom == 3:
        a, b, c = elems
        for u, lo in ((up, low), (upbar, lowbar)):
            if u[u[a][b]][c] != u[u[a][lo[c][b]]][u[b][c]]:
                return False
            if lo[lo[c][b]][a] != lo[lo[c][lo[a][b]]][lo[b][a]]:
                return False
            if u[lo[b][a]][lo[c][u[a][b]]] != lo[u[b][c]][u[a][lo[c][b]]]:
                return False
        return True
    if axiom == 4:
        (a,) = elems
        return any(low[a][x] == x and up[x][a] == a for x in rng) and any(
            upbar[a][y] == y and lowbar[y][a] == a for y in rng
        )
    raise ValueError(f"no axiom {axiom}")


def axiom_verdicts(tables: dict, size: int) -> list[bool]:
    """Whether each of the four axioms holds at every point."""
    rng = range(size)
    return [
        all(axiom_holds(tables, size, axiom, p) for p in itertools.product(rng, repeat=arity))
        for axiom, arity in ((1, 2), (2, 2), (3, 3), (4, 1))
    ]


def sampled_axiom_failures(tables: dict, size: int, rng, samples: int) -> list[str]:
    """Evaluate every axiom at a seeded sample of points."""
    bad = []
    for _ in range(samples):
        a, b, c = (rng.randrange(size) for _ in range(3))
        for axiom, point in ((1, (a, b)), (2, (a, b)), (3, (a, b, c)), (4, (a,))):
            if not axiom_holds(tables, size, axiom, point):
                bad.append(f"axiom {axiom} fails at {point}")
    return bad


# --- Reidemeister moves --------------------------------------------------


def reidemeister_variant(code: str, rng) -> str:
    """The diagram after a two-crossing poke (R2) and a kink (R1), both
    appended to the last component, with seeded crossing signs and a
    seeded choice of parallel or antiparallel poke.

    The poke is U i s U j -s (reversed when antiparallel) followed by
    O i s O j -s; the kink is O k t U k t.  Each leaves every biquandle
    coloring count and phi_BB unchanged.  The places are fixed because
    the coloring search branches on the lowest-numbered open semiarc, so
    where a move lands changes its cost by up to two orders of magnitude
    (see the kinked_front operation of the knots part)."""
    comps = [list(c) for c in gauss_components(code)]
    i = max((cid for comp in comps for _, cid, _ in comp), default=0) + 1
    s, t = rng.choice((1, -1)), rng.choice((1, -1))
    under = [("U", i, s), ("U", i + 1, -s)]
    if rng.random() < 0.5:
        under.reverse()
    comps[-1] += under + [("O", i, s), ("O", i + 1, -s), ("O", i + 2, t), ("U", i + 2, t)]
    return gauss_code(comps)
