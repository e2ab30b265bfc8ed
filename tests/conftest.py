"""Shared fixtures and independent oracles for the test suite."""

import itertools
import math
import operator

import pytest

from bilbiq import (
    AxiomReport,
    AxiomViolation,
    FiniteBiquandle,
    LinkDiagram,
    crossing_relations,
    enumerate_module,
    inv_scalar,
    omega,
    parse_spec,
)


@pytest.fixture
def bb1_spec():
    """The (Z_4)^2 structure with alpha = beta = 3, A = [[0,2],[2,0]]."""
    return parse_spec("4,2,3,3,[[0,2],[2,0]]")


def torus_2(k: int) -> str:
    """Gauss code of the torus knot T(2, k), k odd."""
    return "".join(f"{'OU'[j % 2]}{j % k + 1}+" for j in range(2 * k))


def all_assignments_colorings(diagram: LinkDiagram, target: FiniteBiquandle):
    """Exhaustive coloring oracle: test every total assignment against
    every crossing relation.  Independent of the propagating search."""
    relations = [(getattr(target, r.op), r.x, r.y, r.output) for r in crossing_relations(diagram)]
    out = []
    for assignment in itertools.product(range(target.size), repeat=diagram.n_semiarcs):
        if all(
            table[assignment[x]][assignment[y]] == assignment[output]
            for table, x, y, output in relations
        ):
            out.append(assignment)
    return out


def reference_colorings(diagram: LinkDiagram, target: FiniteBiquandle) -> list:
    """Every coloring in lexicographic order, by a depth-first search
    over an explicit stack of partial colorings: branch on the lowest
    open semiarc, its values pushed in descending order, so the
    colorings come out sorted.  Setting a semiarc settles each relation
    it leaves with one open semiarc: both inputs set give the output,
    and a single open input with a set output (or a kink, whose open
    input is the output) is solved by the inverse of the table's row or
    column, kept per line.  Reaches the R-move and torus-knot codes the
    exhaustive oracle cannot afford; independent of the column walk."""
    size = target.size

    def inverse(line):
        # fits[z] lists every i with line[i] == z, fits[size] the fixed
        # points.
        fits = [[] for _ in range(size + 1)]
        for i, z in enumerate(line):
            fits[z].append(i)
            if z == i:
                fits[size].append(i)
        return fits

    # Per operation, the inverses of its rows and of its columns, by line.
    lines = {op: ({}, {}) for op in ("up", "upbar", "low", "lowbar")}
    touching = [[] for _ in range(diagram.n_semiarcs)]
    for rel in crossing_relations(diagram):
        entry = (rel.x, rel.y, rel.output, getattr(target, rel.op), *lines[rel.op])
        for arc in {rel.x, rel.y, rel.output}:
            touching[arc].append(entry)

    def settle(colors, arc, value):
        pending = [(arc, value)]
        while pending:
            arc, value = pending.pop()
            if colors[arc] is not None:
                if colors[arc] != value:
                    return False
                continue
            colors[arc] = value
            for x, y, out, table, rows, cols in touching[arc]:
                cx, cy, co = colors[x], colors[y], colors[out]
                if cx is not None and cy is not None:
                    pending.append((out, table[cx][cy]))
                    continue
                # x != y, as each semiarc ends at one token; an open input
                # that is also the output (a kink) reads the fixed points.
                if cx is not None and (co is not None or out == y):
                    if cx not in rows:
                        rows[cx] = inverse(table[cx])
                    a, found = y, rows[cx][size if out == y else co]
                elif cy is not None and (co is not None or out == x):
                    if cy not in cols:
                        cols[cy] = inverse([row[cy] for row in table])
                    a, found = x, cols[cy][size if out == x else co]
                else:
                    continue
                if not found:
                    return False
                if len(found) == 1:
                    pending.append((a, found[0]))
        return True

    out = []
    stack = [[None] * diagram.n_semiarcs]
    while stack:
        colors = stack.pop()
        if None not in colors:
            out.append(tuple(colors))
            continue
        arc = colors.index(None)
        for value in reversed(range(size)):
            child = colors.copy()
            if settle(child, arc, value):
                stack.append(child)
    return out


def reference_axiom3(bq: FiniteBiquandle, firsts):
    """Axiom 3 as a plain triple loop over a in firsts, in the order
    given, then b and c, with the six identities in order at each
    (a, b, c); the first failure is the witness."""
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    rng = range(bq.size)
    for a in firsts:
        for b in rng:
            for c in rng:
                if up[up[a][b]][c] != up[up[a][low[c][b]]][up[b][c]]:
                    return AxiomViolation(3, "a^{bc} = a^{c_b b^c}", (a, b, c))
                if low[low[c][b]][a] != low[low[c][low[a][b]]][low[b][a]]:
                    return AxiomViolation(3, "c_{ba} = c_{a_b b_a}", (a, b, c))
                if up[low[b][a]][low[c][up[a][b]]] != low[up[b][c]][up[a][low[c][b]]]:
                    return AxiomViolation(3, "(b_a)^{c_{a^b}} = (b^c)_{a^{c_b}}", (a, b, c))
                if upbar[upbar[a][b]][c] != upbar[upbar[a][lowbar[c][b]]][upbar[b][c]]:
                    return AxiomViolation(
                        3, "a^{bar(b)bar(c)} = a^{bar(c_bar(b)) bar(b^bar(c))}", (a, b, c)
                    )
                if lowbar[lowbar[c][b]][a] != lowbar[lowbar[c][lowbar[a][b]]][lowbar[b][a]]:
                    return AxiomViolation(
                        3, "c_{bar(b)bar(a)} = c_{bar(a_bar(b)) bar(b_bar(a))}", (a, b, c)
                    )
                if (
                    upbar[lowbar[b][a]][lowbar[c][upbar[a][b]]]
                    != lowbar[upbar[b][c]][upbar[a][lowbar[c][b]]]
                ):
                    return AxiomViolation(
                        3, "(b_bar(a))^bar(c_...) = (b^bar(c))_bar(a^...)", (a, b, c)
                    )
    return None


def reference_check_axioms(bq: FiniteBiquandle) -> AxiomReport:
    """Exhaustive axiom oracle: every (a, b, c) in order, one plain
    triple loop per axiom, the first failure as witness.  Independent of
    the byte maps and the column tricks in check_axioms."""
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    rng = range(bq.size)

    def axiom1():
        for a in rng:
            for b in rng:
                if upbar[up[a][b]][low[b][a]] != a:
                    return AxiomViolation(1, "a = a^{b bar(b_a)}", (a, b))
                if lowbar[low[b][a]][up[a][b]] != b:
                    return AxiomViolation(1, "b = b_{a bar(a^b)}", (a, b))
                if up[upbar[a][b]][lowbar[b][a]] != a:
                    return AxiomViolation(1, "a = a^{bar(b) b_bar(a)}", (a, b))
                if low[lowbar[b][a]][upbar[a][b]] != b:
                    return AxiomViolation(1, "b = b_{bar(a) a^bar(b)}", (a, b))
        return None

    def axiom2():
        for a in rng:
            for b in rng:
                if not any(
                    up[a][lowbar[b][x]] == x and upbar[x][b] == a and low[lowbar[b][x]][a] == b
                    for x in rng
                ):
                    return AxiomViolation(
                        2, "no x: x=a^{b_bar(x)}, a=x^bar(b), b=b_{bar(x)a}", (a, b)
                    )
                if not any(
                    upbar[a][low[b][y]] == y and up[y][b] == a and lowbar[low[b][y]][a] == b
                    for y in rng
                ):
                    return AxiomViolation(2, "no y: y=a^bar(b_y), a=y^b, b=b_{y bar(a)}", (a, b))
        return None

    def axiom4():
        for a in rng:
            if not any(low[a][x] == x and up[x][a] == a for x in rng):
                return AxiomViolation(4, "no x: x=a_x, a=x^a", (a,))
            if not any(upbar[a][y] == y and lowbar[y][a] == a for y in rng):
                return AxiomViolation(4, "no y: y=a^bar(y), a=y_bar(a)", (a,))
        return None

    return AxiomReport((axiom1(), axiom2(), reference_axiom3(bq, rng), axiom4()))


def reference_combination(coeffs, vectors, n):
    """sum_i coeffs[i] * vectors[i] mod n, coordinate by coordinate."""
    return tuple(sum(map(operator.mul, coeffs, column)) % n for column in zip(*vectors))


def reference_form(A, x, y, n):
    """The bilinear form x A y^t mod n, entry by entry."""
    return sum(x[i] * A[i][j] * y[j] for i in range(len(x)) for j in range(len(y))) % n


def reference_axiom4(n, m, alpha, beta, A) -> bool:
    """Axiom 4 of the bilinear structure (alpha, beta, A) by its
    per-vector condition: (f(b,b) - D) gcd(n, b) = 0 for every b in
    (Z_n)^m, with D = beta^-1 - alpha.  Walks all n^m vectors; the
    reference for the closed-form rule."""
    D = inv_scalar(beta, n) - alpha
    return all(
        (reference_form(A, b, b, n) - D) * math.gcd(n, *b) % n == 0
        for b in itertools.product(range(n), repeat=m)
    )


def reference_span_size(vectors, n, m):
    """|Span| as the set of every Z_n-combination of the vectors, grown
    one generator at a time.  Independent of span_size's elimination."""
    span = {(0,) * m}
    for v in vectors:
        span = {reference_combination((1, c), (s, v), n) for s in span for c in range(n)}
    return len(span)


def reference_build_tables(n, m, alpha, beta, A, w=None) -> FiniteBiquandle:
    """The bilinear tables evaluated vector by vector from the defining
    formulas, with the reference arithmetic above; oracle for the
    index-table build.  w defaults to omega(alpha, beta, n)."""
    alpha_inv, beta_inv = inv_scalar(alpha, n), inv_scalar(beta, n)
    if w is None:
        w = omega(alpha, beta, n)
    carrier = enumerate_module(n, m)
    index = {v: i for i, v in enumerate(carrier)}

    def element(coeffs, vectors):
        return index[reference_combination(coeffs, vectors, n)]

    up, upbar = [], []
    for x in carrier:
        up.append([])
        upbar.append([])
        for y in carrier:
            fxy = reference_form(A, x, y, n)
            up[-1].append(element((alpha, fxy), (x, y)))
            upbar[-1].append(element((alpha_inv, w * fxy), (x, y)))
    low = [[element((beta,), (x,))] * len(carrier) for x in carrier]
    lowbar = [[element((beta_inv,), (x,))] * len(carrier) for x in carrier]
    return FiniteBiquandle(carrier, up, upbar, low, lowbar)


def reference_alexander(n, s, t) -> FiniteBiquandle:
    """The Alexander tables a^b = ta + (1-st)b, a_b = sa evaluated entry
    by entry on the carrier 1, ..., n-1, 0; oracle for the row build."""
    s_inv, t_inv = pow(s, -1, n), pow(t, -1, n)
    carrier = [k % n for k in range(1, n + 1)]
    index = {v: i for i, v in enumerate(carrier)}

    def table(op):
        return [[index[op(a, b) % n] for b in carrier] for a in carrier]

    return FiniteBiquandle(
        carrier,
        table(lambda a, b: t * a + (1 - s * t) * b),
        table(lambda a, b: t_inv * a + (1 - s_inv * t_inv) * b),
        table(lambda a, b: s * a),
        table(lambda a, b: s_inv * a),
    )


def random_tables(rng, size):
    """Four size x size tables: permutation rows, arbitrary rows or one
    constant, the kind drawn per table."""
    tables = []
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            tables.append([rng.sample(range(size), size) for _ in range(size)])
        elif kind == 1:
            tables.append([[rng.randrange(size) for _ in range(size)] for _ in range(size)])
        else:
            tables.append([[rng.randrange(size)] * size for _ in range(size)])
    return FiniteBiquandle(range(size), *tables)


def invalid_shapes():
    """The benchmark's structures that must fail: the paper's quoted
    omega = 1 on (Z_4)^2 (axiom 1), a constant up table (axiom 1) and a
    swap of b+1, b+2 with projection below (axiom 3 only)."""
    wrong_omega = reference_build_tables(4, 2, 3, 3, ((0, 1), (3, 0)), w=1)
    const = [[0] * 16 for _ in range(16)]
    proj = [[a] * 16 for a in range(16)]
    constant_up = FiniteBiquandle(range(16), const, proj, proj, proj)
    swap = [
        [{(b + 1) % 16: (b + 2) % 16, (b + 2) % 16: (b + 1) % 16}.get(a, a) for b in range(16)]
        for a in range(16)
    ]
    return [wrong_omega, constant_up, FiniteBiquandle(range(16), swap, swap, proj, proj)]


def reference_closure(target: FiniteBiquandle, seed) -> set:
    """Naive fixpoint: apply all four operations to every pair of the
    current set until nothing new appears."""
    tables = (target.up, target.upbar, target.low, target.lowbar)
    closed = set(seed)
    while True:
        new = {t[a][b] for t in tables for a in closed for b in closed} - closed
        if not new:
            return closed
        closed |= new


def reference_phi(diagram: LinkDiagram, spec) -> dict:
    """phi_BB's terms {(|Im|, |Span|): count}: per coloring the naive
    closure of its colors, and the size of their span as every
    Z_n-combination of their vectors, cached per seed set only.  The
    colorings come from reference_colorings, so this is independent of
    the column walk, of subbiquandle_closure and span_size, and of the
    index-table build."""
    n, m = spec.n, spec.m
    target = reference_build_tables(n, m, spec.alpha, spec.beta, spec.matrix)
    terms, cache = {}, {}
    for coloring in reference_colorings(diagram, target):
        seed = frozenset(coloring)
        if seed not in cache:
            vectors = [target.carrier[i] for i in seed]
            cache[seed] = (len(reference_closure(target, seed)), reference_span_size(vectors, n, m))
        terms[cache[seed]] = terms.get(cache[seed], 0) + 1
    return terms
