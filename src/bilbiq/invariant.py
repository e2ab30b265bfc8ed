"""Biquandle colorings of link diagrams and the two-variable coloring
polynomial for bilinear targets.

A coloring assigns a carrier element of the target biquandle to every
semiarc so that both output relations hold at every crossing.  For a
bilinear target the module structure refines the coloring count into a
polynomial: each coloring contributes q^|image| z^|span of image|,
where the image is the sub-biquandle generated by the semiarc colors.
Using the generated sub-biquandle rather than the bare color set is
what makes the polynomial independent of the chosen diagram: a
Reidemeister move changes which elements appear on semiarcs but not
the sub-biquandle they generate.
"""

from __future__ import annotations

from .bilinear import BilinearSpec, build_bilinear
from .biquandle import FiniteBiquandle, passes_axioms
from .errors import InvariantViolation
from .gauss import LinkDiagram, crossing_relations
from .modular import submodule_span


def enumerate_colorings(diagram: LinkDiagram, target: FiniteBiquandle) -> list[tuple[int, ...]]:
    """All colorings, as semiarc-indexed tuples of carrier indices.

    Backtracking on the lowest unassigned semiarc with values tried in
    ascending order; whenever both inputs of a crossing relation are
    known its output is propagated.  The result list is lexicographic.
    """
    relations = crossing_relations(diagram)
    tables = {
        "up": target.up,
        "low": target.low,
        "upbar": target.upbar,
        "lowbar": target.lowbar,
    }
    n_arcs = diagram.n_semiarcs
    size = target.size
    touching: list[list[tuple[int, int, int, tuple]]] = [[] for _ in range(n_arcs)]
    for rel in relations:
        entry = (rel.x, rel.y, rel.output, tables[rel.op])
        touching[rel.x].append(entry)
        if rel.y != rel.x:
            touching[rel.y].append(entry)

    assignment: list[int | None] = [None] * n_arcs
    trail: list[int] = []
    solutions: list[tuple[int, ...]] = []

    def assign(arc: int, value: int) -> bool:
        """Set arc := value and propagate; False on conflict."""
        stack = [(arc, value)]
        while stack:
            s, v = stack.pop()
            cur = assignment[s]
            if cur is not None:
                if cur != v:
                    return False
                continue
            assignment[s] = v
            trail.append(s)
            for x, y, out, table in touching[s]:
                vx, vy = assignment[x], assignment[y]
                if vx is not None and vy is not None:
                    stack.append((out, table[vx][vy]))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            assignment[trail.pop()] = None

    def branch() -> None:
        try:
            arc = assignment.index(None)
        except ValueError:
            solutions.append(tuple(assignment))  # type: ignore[arg-type]
            return
        for value in range(size):
            mark = len(trail)
            if assign(arc, value):
                branch()
            undo(mark)

    branch()
    return solutions


def counting_invariant(diagram: LinkDiagram, target: FiniteBiquandle) -> int:
    """Number of colorings of the diagram by the target biquandle."""
    return len(enumerate_colorings(diagram, target))


class BBPolynomial:
    """Sparse polynomial in q, z with positive integer coefficients."""

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, int], int] = {
            k: v for k, v in dict(terms or {}).items() if v != 0
        }

    def __eq__(self, other):
        if not isinstance(other, BBPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"BBPolynomial({self.to_string()!r})"

    def specialize(self, q_val: int, z_val: int) -> int:
        return sum(c * q_val**qe * z_val**ze for (qe, ze), c in self.terms.items())

    def to_string(self) -> str:
        """Canonical text: terms by (q exp, z exp) ascending, unit
        coefficients and exponents suppressed."""
        if not self.terms:
            return "0"
        rendered = []
        for (qe, ze), coeff in sorted(self.terms.items()):
            factors = [] if coeff == 1 else [str(coeff)]
            for sym, exp in (("q", qe), ("z", ze)):
                if exp == 1:
                    factors.append(sym)
                elif exp != 0:
                    factors.append(f"{sym}^{exp}")
            rendered.append(" ".join(factors) if factors else "1")
        return " + ".join(rendered)


def subbiquandle_closure(target: FiniteBiquandle, seed) -> frozenset[int]:
    """Smallest subset of carrier indices containing `seed` and closed
    under all four operations."""
    closed = set(seed)
    tables = (target.up, target.upbar, target.low, target.lowbar)
    frontier = list(closed)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(closed):
                for table in tables:
                    for c in (table[a][b], table[b][a]):
                        if c not in closed:
                            closed.add(c)
                            fresh.append(c)
        frontier = fresh
    return frozenset(closed)


def phi_bb(diagram: LinkDiagram, spec: BilinearSpec) -> BBPolynomial:
    """Sum over colorings of q^|image| z^|span(image)|, the image being
    the sub-biquandle generated by the coloring."""
    target = build_bilinear(spec)
    if not passes_axioms(target):
        raise InvariantViolation(f"spec {spec} does not satisfy the biquandle axioms")
    terms: dict[tuple[int, int], int] = {}
    cache: dict[frozenset[int], tuple[int, int]] = {}
    for coloring in enumerate_colorings(diagram, target):
        seed = frozenset(coloring)
        key = cache.get(seed)
        if key is None:
            image = subbiquandle_closure(target, seed)
            vectors = {target.carrier[i] for i in image}
            key = (len(image), len(submodule_span(vectors, spec.n, spec.m)))
            cache[seed] = key
        terms[key] = terms.get(key, 0) + 1
    return BBPolynomial(terms)
