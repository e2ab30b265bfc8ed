"""Signed Gauss codes for oriented classical and virtual link diagrams.

Grammar: components separated by ';', each component a sequence of
tokens `O<id><sign>` or `U<id><sign>` with sign '+' or '-'; whitespace
between tokens is ignored and an empty component is a zero-crossing
unknot component.  Virtual crossings never appear in a code: a code is
taken at face value whether or not it is planar-realizable, which is
exactly how virtual links arise.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError, SignMismatch, UnknownLink, UnmatchedCrossing

_TOKEN_RE = re.compile(r"([OU])(\d+)([+-])")
_COMPONENT_RE = re.compile(r"\s*(?:[OU]\d+[+-]\s*)*")


class GaussToken(NamedTuple):
    kind: str  # "O" or "U"
    crossing_id: int
    sign: int  # +1 or -1


class Crossing(NamedTuple):
    """One classical crossing with its four incident semiarc ids."""

    sign: int
    under_in: int
    under_out: int
    over_in: int
    over_out: int


class LinkDiagram(NamedTuple):
    components: tuple[tuple[GaussToken, ...], ...]
    crossings: dict[int, Crossing]
    n_semiarcs: int


class CrossingRelation(NamedTuple):
    """output = op(x, y) where x, y are input semiarc ids."""

    output: int
    x: int
    y: int
    op: str  # up | low | upbar | lowbar


def _parse_component(text: str) -> tuple[GaussToken, ...]:
    end = _COMPONENT_RE.match(text).end()
    if end < len(text):
        raise ParseError(f"bad token at {text[end:]!r}")
    try:
        return tuple([
            GaussToken(kind, int(cid), 1 if sign == "+" else -1)
            for kind, cid, sign in _TOKEN_RE.findall(text)
        ])
    except ValueError:  # int() refuses ids past the interpreter's digit limit
        raise ParseError("crossing id has too many digits") from None


def parse_gauss(text: str) -> LinkDiagram:
    """Parse a signed Gauss code into its semiarc incidence structure.

    In a component with k > 0 tokens, semiarc j runs from token j to
    token (j+1) mod k; a zero-crossing component contributes one free
    semiarc.
    """
    return _diagram(tuple(_parse_component(part) for part in text.split(";")))


def _diagram(components: tuple[tuple[GaussToken, ...], ...]) -> LinkDiagram:
    """The diagram of parsed components, its semiarcs numbered
    component by component as `parse_gauss` describes."""
    # passages[cid] = {kind: (sign, in_arc, out_arc)}
    passages: dict[int, dict[str, tuple[int, int, int]]] = {}
    next_arc = 0
    for comp in components:
        k = len(comp)
        for j, tok in enumerate(comp):
            seen = passages.setdefault(tok.crossing_id, {})
            if tok.kind in seen:
                raise ParseError(
                    f"crossing {tok.crossing_id} has two {tok.kind} passages"
                )
            seen[tok.kind] = (tok.sign, next_arc + (j - 1) % k, next_arc + j)
        next_arc += max(k, 1)
    crossings = {}
    for cid, seen in sorted(passages.items()):
        if "O" not in seen or "U" not in seen:
            raise UnmatchedCrossing(f"crossing {cid} lacks an O or U passage")
        o_sign, o_in, o_out = seen["O"]
        u_sign, u_in, u_out = seen["U"]
        if o_sign != u_sign:
            raise SignMismatch(f"crossing {cid} has mismatched signs")
        crossings[cid] = Crossing(o_sign, u_in, u_out, o_in, o_out)
    return LinkDiagram(components, crossings, next_arc)


def split_pieces(diagram: LinkDiagram) -> list[LinkDiagram]:
    """The split pieces of a diagram: its components joined into classes
    by shared crossings (union-find), in the order of each class's first
    component.

    Each piece is the diagram of its components' tokens alone, numbered
    as `parse_gauss` numbers the code of those components, so no text is
    printed or parsed.  A diagram of one piece is returned as it is, and
    a diagram with no components has no pieces.
    """
    components = diagram.components
    if len(components) == 1:
        return [diagram]
    root = list(range(len(components)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    first: dict[int, int] = {}  # crossing id -> component of its first passage
    for i, comp in enumerate(components):
        for tok in comp:
            root[find(first.setdefault(tok.crossing_id, i))] = find(i)
    pieces: dict[int, list] = {}
    for i, comp in enumerate(components):
        pieces.setdefault(find(i), []).append(comp)
    if len(pieces) == 1:
        return [diagram]
    return [_diagram(tuple(comps)) for comps in pieces.values()]


def print_gauss(diagram: LinkDiagram) -> str:
    """Canonical text of a diagram; parse(print(d)) reproduces d."""
    return ";".join(
        "".join(
            f"{tok.kind}{tok.crossing_id}{'+' if tok.sign > 0 else '-'}"
            for tok in comp
        )
        for comp in diagram.components
    )


def crossing_relations(diagram: LinkDiagram) -> list[CrossingRelation]:
    """The two output relations of every crossing.

    Positive: under_out = up(under_in, over_in), over_out = low(over_in,
    under_in); negative crossings use the barred operations.
    """
    relations = []
    for cid in sorted(diagram.crossings):
        c = diagram.crossings[cid]
        if c.sign > 0:
            relations.append(CrossingRelation(c.under_out, c.under_in, c.over_in, "up"))
            relations.append(CrossingRelation(c.over_out, c.over_in, c.under_in, "low"))
        else:
            relations.append(CrossingRelation(c.under_out, c.under_in, c.over_in, "upbar"))
            relations.append(CrossingRelation(c.over_out, c.over_in, c.under_in, "lowbar"))
    return relations


# Both trefoil chiralities are stored; which one is named "trefoil" is
# pinned by the golden polynomial test for the crossing conventions.
BUILTIN_CODES = {
    "unknot": "",
    "trefoil": "O1+U2+O3+U1+O2+U3+",
    "trefoil_mirror": "O1-U2-O3-U1-O2-U3-",
    "hopf_pos": "O1+U2+;O2+U1+",
    "figure8": "O1+U2+O3-U4-O2+U1+O4-U3-",
}


def builtin_link(name: str) -> LinkDiagram:
    """A stored diagram by name."""
    try:
        code = BUILTIN_CODES[name]
    except KeyError:
        raise UnknownLink(f"no built-in link named {name!r}") from None
    return parse_gauss(code)
