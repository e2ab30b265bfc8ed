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

from collections import Counter

from .bilinear import BilinearSpec, checked_tables
from .biquandle import FiniteBiquandle
from .gauss import LinkDiagram, crossing_relations
from .modular import span_size


def _inverse(line, size: int) -> list[list[int]]:
    """inverse[z] lists, ascending, every i with line[i] == z; the extra
    slot inverse[size] lists the fixed points, every i with line[i] == i."""
    inverse: list[list[int]] = [[] for _ in range(size + 1)]
    for i, z in enumerate(line):
        inverse[z].append(i)
        if z == i:
            inverse[size].append(i)
    return inverse


def _colorings(diagram: LinkDiagram, target: FiniteBiquandle, order_free: bool = False):
    """Yield every coloring, depth-first over an explicit stack of partial
    colorings; `enumerate_colorings` describes how a set semiarc settles
    the relations it touches.

    The walk branches on the lowest open semiarc, so the colorings come
    out in lexicographic order.  With `order_free` it branches on an open
    input of a relation whose other input is set, and on the lowest open
    semiarc only when no relation has such an input.  Setting that input
    sets both inputs of its crossing, so both outputs follow, and a
    wrong value conflicts as soon as the propagation meets a set
    semiarc.  A settle notes such inputs as it meets them; a node keeps
    those of its own settle and of its ancestors that are still open,
    and branches on the one noted last.  The order then depends on the
    diagram, and the work follows its crossings rather than the
    numbering of its semiarcs.
    """
    n_arcs = diagram.n_semiarcs
    size = target.size
    # Per operation: column y -> (z -> every x with table[x][y] == z), and
    # row x -> (z -> every y with table[x][y] == z), built when first needed.
    inverses = {op: ({}, {}) for op in ("up", "upbar", "low", "lowbar")}
    touching: list[list[tuple]] = [[] for _ in range(n_arcs)]
    for rel in crossing_relations(diagram):
        entry = (rel.x, rel.y, rel.output, getattr(target, rel.op), *inverses[rel.op])
        for arc in {rel.x, rel.y, rel.output}:
            touching[arc].append(entry)

    def settle(colors: list, arc: int, value: int, hints: list) -> bool:
        """Set colors[arc] = value, then resolve every relation left with
        one open semiarc; False on a conflict.  Every open input met
        beside a set one is appended to hints."""
        pending = [(arc, value)]
        while pending:
            arc, value = pending.pop()
            if colors[arc] is not None:
                if colors[arc] != value:
                    return False
                continue
            colors[arc] = value
            for x, y, out, table, by_x, by_y in touching[arc]:
                cx, cy, co = colors[x], colors[y], colors[out]
                if cx is not None and cy is not None:
                    pending.append((out, table[cx][cy]))
                    continue
                # parse_gauss ends each semiarc at one token, so x != y; an
                # open input that is also the output (a kink) reads inverse[size].
                if cx is not None:
                    if co is None and out != y:
                        # y and the output are open.  The crossing's other
                        # relation has x and y swapped, so noting y here
                        # alone notes each open input once.
                        hints.append(y)
                        continue
                    # y alone is open
                    inverse = by_y.get(cx)
                    if inverse is None:
                        inverse = by_y[cx] = _inverse(table[cx], size)
                    a, fits = y, inverse[size if out == y else co]
                elif cy is not None and (co is not None or out == x):
                    # x alone is open
                    inverse = by_x.get(cy)
                    if inverse is None:
                        inverse = by_x[cy] = _inverse([row[cy] for row in table], size)
                    a, fits = x, inverse[size if out == x else co]
                else:
                    continue  # two open semiarcs
                if not fits:
                    return False
                if len(fits) == 1:
                    pending.append((a, fits[0]))
                else:
                    hints.append(a)
        return True

    stack = [([None] * n_arcs, [])]
    while stack:
        colors, hints = stack.pop()
        while hints and colors[hints[-1]] is not None:
            hints.pop()
        if hints:
            arc = hints.pop()
        elif None in colors:
            arc = colors.index(None)
        else:
            yield tuple(colors)
            continue
        for value in reversed(range(size)):
            child, found = colors.copy(), hints.copy()
            if settle(child, arc, value, found):
                stack.append((child, found if order_free else []))


def enumerate_colorings(diagram: LinkDiagram, target: FiniteBiquandle) -> list[tuple[int, ...]]:
    """All colorings, as semiarc-indexed tuples of carrier indices, in
    lexicographic order.

    Depth-first over an explicit stack of partial colorings: branch on
    the lowest open semiarc and push its values in descending order.
    Every semiarc below the branch semiarc is fixed in the whole
    subtree, so the result list comes out lexicographic.  `color`
    streams the same walk.  Counts and phi_BB need no order and walk
    with another branch rule; see `_colorings`.

    Setting a semiarc settles every relation it leaves with one open
    semiarc.  When that semiarc is x or y and nothing else, its possible
    values are one list lookup: the inverse of the relation's table
    column or row, built in one pass the first time the call needs it.
    The lists hold every solution, so targets whose rows and columns
    are not bijections are enumerated exactly.  A kink, whose open input
    is also the output, reads the fixed points of that column or row.
    """
    return list(_colorings(diagram, target))


def counting_invariant(diagram: LinkDiagram, target: FiniteBiquandle) -> int:
    """Number of colorings of the diagram by the target biquandle,
    counted without holding them.

    The walk is order-free (see `_colorings`): it follows the diagram
    crossing by crossing.  On the 27-element X27 it settles 756 times
    for each of T(2, 3), T(2, 7) and T(2, 21), where the lexicographic
    walk settles 7,317 times for T(2, 3) and 791,721 for T(2, 7).
    """
    return sum(1 for _ in _colorings(diagram, target, order_free=True))


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


def subbiquandle_closure(target: FiniteBiquandle, seed, closed=frozenset()) -> frozenset[int]:
    """Smallest subset of carrier indices containing `seed` and `closed`
    and closed under all four operations.  `closed` must already be
    closed, so only pairs with an element outside it are computed."""
    result = set(closed)
    frontier = [a for a in set(seed) if a not in result]
    result.update(frontier)
    tables = (target.up, target.upbar, target.low, target.lowbar)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(result):
                for table in tables:
                    for c in (table[a][b], table[b][a]):
                        if c not in result:
                            result.add(c)
                            fresh.append(c)
        frontier = fresh
    return frozenset(result)


def phi_bb(diagram: LinkDiagram, spec: BilinearSpec) -> BBPolynomial:
    """Sum over colorings of q^|image| z^|span(image)|, the image being
    the sub-biquandle generated by the coloring.

    The order-free walk of `counting_invariant` streams the colorings
    into a tally by seed (set of colors), and each distinct seed is
    worked out once and counted with its tally.  Its image is
    built from the images of its sorted prefixes: a color already in the
    prefix image leaves it as it is, and a new one extends the closed
    prefix image, so only pairs with a new element are computed.  Each
    (prefix image, color) step is kept, and so is (|image|, |span|) per
    image: seeds with one image share one span count.  The memos live
    for the call only.
    """
    target = checked_tables(spec)
    terms: Counter[tuple[int, int]] = Counter()
    by_image: dict[frozenset[int], tuple[int, int]] = {}
    grown: dict[tuple[frozenset[int], int], frozenset[int]] = {}
    for seed, count in Counter(map(frozenset, _colorings(diagram, target, order_free=True))).items():
        image = frozenset()
        for color in sorted(seed):
            if color not in image:
                step = (image, color)
                if step not in grown:
                    grown[step] = subbiquandle_closure(target, (color,), image)
                image = grown[step]
        key = by_image.get(image)
        if key is None:
            # Each operation's output is a Z_n-combination of its
            # inputs, so the image spans the same submodule as the
            # colors of any seed that generates it.
            vectors = {target.carrier[i] for i in seed}
            key = by_image[image] = (len(image), span_size(vectors, spec.n, spec.m))
        terms[key] += count
    return BBPolynomial(terms)
