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

import sys
from collections import Counter
from itertools import chain, compress, groupby, islice, repeat
from math import prod
from operator import eq, getitem, itemgetter, or_

from .bilinear import BilinearSpec, checked_tables
from .biquandle import FiniteBiquandle
from .errors import CapacityExceeded
from .gauss import LinkDiagram, crossing_relations, split_pieces
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


def _touching(diagram: LinkDiagram, target: FiniteBiquandle) -> list[list[tuple]]:
    """touching[arc] lists (x, y, out, table, by_x, by_y) for every
    relation on arc.  by_x maps a column y to that column's `_inverse`,
    by_y a row x to that row's, built when first needed and shared by
    the relations of one operation."""
    inverses = {op: ({}, {}) for op in ("up", "upbar", "low", "lowbar")}
    touching: list[list[tuple]] = [[] for _ in range(diagram.n_semiarcs)]
    for rel in crossing_relations(diagram):
        entry = (rel.x, rel.y, rel.output, getattr(target, rel.op), *inverses[rel.op])
        for arc in {rel.x, rel.y, rel.output}:
            touching[arc].append(entry)
    return touching


# The most candidates a batch of `_column_walk` holds: a step that would
# widen a batch past it walks the wider batch in chunks of this width.
_WIDTH = 4096
# The most candidates one `_column_walk` makes, counted at every branch
# and inversion that widens a batch, before it stops with
# CapacityExceeded.  The largest walks of the tests, the CI and the
# benchmark make 905,175 (the first chunk of eleven free components on
# the 27-element X27), 551,880 (`color` of ';;;' on X27: 27 + 27^2 +
# 27^3 + 27^4) and 756 candidates.  `color` holds one group of
# colorings at a time (`_sorted_colorings`): stopped here, an unlimited
# `color` of ';;;;' on X27 has written three whole groups of 27^4 lines
# and peaks at 60 MB.
_WALK_BOUND = 2_000_000
_BRANCH, _TABLE, _INVERT = range(3)


def _plan(diagram: LinkDiagram, target: FiniteBiquandle) -> tuple[list[tuple], list[int]]:
    """The steps of `_column_walk`, and the column each semiarc gets.

    Which relation sets, checks or inverts which semiarc depends only
    on which semiarcs are set, not on their colors, so the order is
    worked out once per call.  The walk branches on an open input of a
    relation whose other input is set, the one noted last, and on the
    lowest open semiarc only when no relation has one: setting that
    input sets both inputs of its crossing, so both outputs follow, and
    a wrong value dies at the next check.  Each set semiarc then settles
    its relations: one with both inputs set sets its output, or checks
    it when that is set already, and one with a single open input and a
    set output (or a kink, whose open input is its output) inverts a
    table line.  A relation is done once it sets, checks or inverts.

    Steps: (_BRANCH,), (_TABLE, x, y, table, out) and (_INVERT, known,
    out, table, inverses, by_row), where x, y, out and known are
    columns.  A table step sets its output when out is None and checks
    it otherwise; an inversion reads the fixed points when out is None,
    as a kink's open input is its output.
    """
    touching = _touching(diagram, target)
    n_arcs = len(touching)
    column: list = [None] * n_arcs
    plan: list[tuple] = []
    hints: list[int] = []
    done: set[int] = set()
    n_set = lowest = 0
    while True:
        while hints and column[hints[-1]] is not None:
            hints.pop()
        if hints:
            arc = hints.pop()
        else:
            while lowest < n_arcs and column[lowest] is not None:
                lowest += 1
            if lowest == n_arcs:
                return plan, column
            arc = lowest
        plan.append((_BRANCH,))
        column[arc], n_set = n_set, n_set + 1
        pending = [arc]
        while pending:
            for entry in touching[pending.pop()]:
                if id(entry) in done:
                    continue
                x, y, out, table, by_x, by_y = entry
                cx, cy, co = column[x], column[y], column[out]
                if cx is not None and cy is not None:
                    step, arc = (_TABLE, cx, cy, table, co), out if co is None else None
                elif cx is not None and (co is not None or out == y):
                    step, arc = (_INVERT, cx, None if out == y else co, table, by_y, True), y
                elif cy is not None and (co is not None or out == x):
                    step, arc = (_INVERT, cy, None if out == x else co, table, by_x, False), x
                else:
                    if cx is not None:
                        # y and the output are open.  The crossing's other
                        # relation has x and y swapped, so noting y here
                        # alone notes each open input once.
                        hints.append(y)
                    continue
                done.add(id(entry))
                plan.append(step)
                if arc is not None:
                    column[arc], n_set = n_set, n_set + 1
                    pending.append(arc)


def _column_walk(diagram: LinkDiagram, target: FiniteBiquandle):
    """Yield the colorings in batches, each a list of equally long
    columns, one per semiarc: candidate i colors semiarc a with
    batch[a][i].

    The batch runs `_plan` step by step, every candidate at once, in C
    passes: a branch repeats each candidate once per color, a table
    step maps two columns through the table into the output's column,
    or drops the candidates whose output differs, and an inversion
    looks up each candidate's fits in the lazily built `_inverse` lists
    and repeats the candidate once per fit, none dropping it.  A branch
    or inversion that would make a batch wider than _WIDTH walks the
    wider batch in chunks of _WIDTH, depth-first, so no batch holds
    more.  The candidates each branch or inversion makes are counted
    over the walk, from the first branch's colors on, and the walk
    raises CapacityExceeded once they pass _WALK_BOUND.  `parse_gauss`
    gives every diagram a semiarc, so the plan opens with a branch: the
    first batch is the colors of one semiarc.
    """
    plan, column = _plan(diagram, target)
    size = target.size
    made = size
    stack = [(1, [iter(range(size))])]  # (next step, iterators over the rest of a batch)
    while stack:
        i, rest = stack[-1]
        cols = [list(islice(it, _WIDTH)) for it in rest]
        width = len(cols[0])
        if width < _WIDTH:
            stack.pop()
        if not width:
            continue
        while i < len(plan):
            step = plan[i]
            i += 1
            kind = step[0]
            if kind == _TABLE:
                _, x, y, table, out = step
                outs = map(getitem, map(table.__getitem__, cols[x]), cols[y])
                if out is None:
                    cols.append(list(outs))
                    continue
                keep = list(map(eq, outs, cols[out]))
                if False in keep:
                    cols = [list(compress(col, keep)) for col in cols]
                    width = len(cols[0])
                    if not width:
                        break
                continue
            if kind == _BRANCH:
                counts = [size] * width
                new = chain.from_iterable(repeat(range(size), width))
            else:
                _, known, out, table, inverses, by_row = step
                for v in set(cols[known]).difference(inverses):
                    inverses[v] = _inverse(table[v] if by_row else map(itemgetter(v), table), size)
                slots = repeat(size) if out is None else cols[out]
                fits = list(map(getitem, map(inverses.__getitem__, cols[known]), slots))
                counts = list(map(len, fits))
                new = chain.from_iterable(fits)
                if counts.count(1) == width:
                    cols.append(list(new))
                    continue
            wide = [chain.from_iterable(map(repeat, col, counts)) for col in cols]
            wide.append(new)
            width = sum(counts)
            made += width
            if made > _WALK_BOUND:
                raise CapacityExceeded(f"coloring walk exceeds bound of {_WALK_BOUND} candidates")
            if width > _WIDTH:
                stack.append((i, wide))
                break
            cols = list(map(list, wide))
            if not width:
                break
        else:
            yield [cols[c] for c in column]


def _sorted_colorings(diagram: LinkDiagram, target: FiniteBiquandle, limit: int | None = None):
    """The colorings in lexicographic order, streamed: all of them, or
    the `limit` least.

    `_plan` opens with a branch on semiarc 0, which gets column 0, and
    every later step keeps the order of its candidates, so
    `_column_walk` meets the colorings grouped by semiarc 0's color,
    ascending.  Each group is sorted on its own and the groups are
    chained, so no more than one group is held at a time, and with a
    limit the walk ends with the group that reaches it.
    """
    colorings = [()]
    if diagram.n_semiarcs:
        walked = chain.from_iterable(zip(*batch) for batch in _column_walk(diagram, target))
        colorings = chain.from_iterable(sorted(group) for _, group in groupby(walked, itemgetter(0)))
    # islice refuses a stop past sys.maxsize, which no stream reaches.
    return islice(colorings, None if limit is None else min(limit, sys.maxsize))


def enumerate_colorings(
    diagram: LinkDiagram, target: FiniteBiquandle, limit: int | None = None
) -> list[tuple[int, ...]]:
    """The colorings, as semiarc-indexed tuples of carrier indices, in
    lexicographic order: all of them, or the `limit` least.

    The list is `_sorted_colorings`, whose memory beyond the list is one
    group of colorings that share semiarc 0's color.  The walk stops at
    _WALK_BOUND candidates, and with a limit it ends after the group
    that reaches it.  A diagram with no semiarcs has one coloring, the
    empty one.
    """
    return list(_sorted_colorings(diagram, target, limit))


def counting_invariant(diagram: LinkDiagram, target: FiniteBiquandle) -> int:
    """Number of colorings of the diagram by the target biquandle.

    The colorings of a split diagram are the products of its pieces'
    colorings (`split_pieces`), so the count is the product of the piece
    counts, and a diagram with no components has one coloring.  A
    piece's count is the sum of the widths of its `_column_walk`
    batches, with no coloring built.  The walk follows the piece
    crossing by crossing, not the numbering of its semiarcs, so T(2, 21)
    on the 27-element X27 counts in about 3 ms, and each piece's walk
    stops at _WALK_BOUND candidates on its own.
    """
    return prod(
        sum(len(batch[0]) for batch in _column_walk(piece, target))
        for piece in split_pieces(diagram)
    )


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


def _members(mask: int) -> list[int]:
    """The carrier indices whose bits are set in mask, ascending."""
    members = []
    while mask:
        bit = mask & -mask
        members.append(bit.bit_length() - 1)
        mask ^= bit
    return members


def _grower(target: FiniteBiquandle):
    """grow(image, color): the closure of a closed image with one more
    color, as bit masks (bit c is carrier index c).

    Each round pairs the new elements with every member, so only pairs
    with a new element are computed.  pair[a*N + b] holds the mask of
    the eight products of a and b, both orders under all four tables;
    it is filled the first time either order is met, so a pair costs
    eight table reads once per grower, not once per closure.  The list
    lives as long as the grower does."""
    size = target.size
    up, upbar, low, lowbar = target.up, target.upbar, target.low, target.lowbar
    pair = [0] * (size * size)

    def grow(image: int, color: int) -> int:
        members = _members(image)
        mask = image | 1 << color
        frontier = [color]
        while frontier:
            members += frontier
            new = 0
            for a in frontier:
                row = a * size
                for b in members:
                    p = pair[row + b]
                    if not p:
                        p = pair[row + b] = pair[b * size + a] = (
                            1 << up[a][b] | 1 << up[b][a] | 1 << upbar[a][b] | 1 << upbar[b][a]
                            | 1 << low[a][b] | 1 << low[b][a] | 1 << lowbar[a][b] | 1 << lowbar[b][a]
                        )
                    new |= p
            frontier = _members(new & ~mask)
            mask |= new
        return mask

    return grow


def subbiquandle_closure(target: FiniteBiquandle, seed, closed=frozenset()) -> frozenset[int]:
    """Smallest subset of carrier indices containing `seed` and `closed`
    and closed under all four operations.  `closed` must already be
    closed: the seed colors are added one at a time by `_grower`, so
    only pairs with an element outside it are computed."""
    grow = _grower(target)
    image = 0
    for c in closed:
        image |= 1 << c
    for color in seed:
        if not image >> color & 1:
            image = grow(image, color)
    return frozenset(_members(image))


def phi_bb(diagram: LinkDiagram, spec: BilinearSpec) -> BBPolynomial:
    """Sum over colorings of q^|image| z^|span(image)|, the image being
    the sub-biquandle generated by the coloring.

    Seeds (sets of colors) and images are int bit masks, bit c for
    carrier index c, and `grown` maps a mask to the mask of its
    closure, for the call.  Each split piece (`split_pieces`) is walked
    once: its `_column_walk` batches are tallied by seed in one
    `Counter`, their masks OR-ed together column by column in C passes,
    and each distinct seed's image is grown through `_grower` from the
    images of its prefixes in ascending color order: a color already in
    the prefix image leaves it as it is, and a new one extends the
    closed prefix image.  The piece's colorings are then tallied by
    image, with one seed that generates each image.

    A coloring of a split diagram is one coloring of each piece, and
    its image is the sub-biquandle generated by the union of the
    pieces' images.  So the tallies fold piece by piece, starting from
    the empty image once: the join of an image a so far and a piece's
    image b is b grown by a's seed, kept in `grown` under a | b, which
    does not depend on the order of the pair, and its tally is the
    product of theirs.  Growing the piece's image, often a few colors,
    shares more steps than growing the image so far: `;;` on the
    49-element `7,2,1,1,[[0,1],[6,0]]` takes 2,513 grow calls where
    the other way takes 7,554.  (|image|, |span|) is counted once per
    final image, from the seed the join keeps.
    """
    target = checked_tables(spec)
    bits = [1 << c for c in range(target.size)]
    grow = _grower(target)
    grown: dict[int, int] = {}

    def close(image: int, seed: int) -> int:
        """The closure of a closed image and a seed."""
        rest = seed & ~image
        while rest:
            bit = rest & -rest
            step = image | bit
            if step not in grown:
                grown[step] = grow(image, bit.bit_length() - 1)
            image = grown[step]
            rest &= ~image
        return image

    tally: Counter[int] = Counter({0: 1})  # image -> colorings so far
    seed_of = {0: 0}  # image -> a seed that generates it
    for piece in split_pieces(diagram):
        seeds: Counter[int] = Counter()
        for batch in _column_walk(piece, target):
            masks = map(bits.__getitem__, batch[0])
            for col in batch[1:]:
                masks = list(map(or_, masks, map(bits.__getitem__, col)))
            seeds.update(masks)
        piece_tally: Counter[int] = Counter()
        piece_seed: dict[int, int] = {}
        for seed, count in seeds.items():
            image = close(0, seed)
            piece_tally[image] += count
            piece_seed.setdefault(image, seed)
        joined: Counter[int] = Counter()
        joined_seed: dict[int, int] = {}
        for a, count_a in tally.items():
            for b, count_b in piece_tally.items():
                key = a | b
                image = grown.get(key)
                if image is None:
                    image = grown[key] = close(b, seed_of[a])
                joined[image] += count_a * count_b
                joined_seed.setdefault(image, seed_of[a] | piece_seed[b])
        tally, seed_of = joined, joined_seed
    terms: Counter[tuple[int, int]] = Counter()
    for image, count in tally.items():
        # Each operation's output is a Z_n-combination of its inputs, so
        # the image spans the same submodule as the colors of any seed
        # that generates it.
        vectors = {target.carrier[i] for i in _members(seed_of[image])}
        terms[image.bit_count(), span_size(vectors, spec.n, spec.m)] += count
    return BBPolynomial(terms)
