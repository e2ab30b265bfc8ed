"""Bilinear biquandle structures on (Z_n)^m and the search over the
(alpha, beta, A) triples on the axiom-4 rule's triangle.

A structure is described by a unit pair (alpha, beta) and an m x m form
matrix A with forced diagonal D = beta^-1 - alpha; the operations are

    x^y    = alpha x + f(x,y) y        x_y    = beta x
    x^ybar = alpha^-1 x + w f(x,y) y   x_ybar = beta^-1 x

with f(x,y) = x A y^t and w = omega(alpha, beta, n).  The axiom-4 rule
fixes A_ji = -D - A_ij for i < j, so `search` walks the entries above
the diagonal only; `brute_force_search` walks both.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import NamedTuple

from .biquandle import FiniteBiquandle, _bilinear_axiom4, _bilinear_valid, _build_tables
from .biquandle import _entry_admissible, omega
from .errors import CapacityExceeded, DimensionMismatch, InvariantViolation, ParseError
from .modular import Matrix, carrier_bound, check_module, inv_scalar, reduce_matrix, units


class BilinearSpec(NamedTuple("BilinearSpec", [
    ("n", int), ("m", int), ("alpha", int), ("beta", int), ("matrix", Matrix),
])):
    """The tuple (n, m, alpha, beta, A) with n >= 2 and m >= 1; alpha and
    beta must be units mod n.  alpha, beta and the entries of A are
    stored reduced mod n, also by `_make` and `_replace`."""

    __slots__ = ()

    def __new__(cls, n, m, alpha, beta, matrix):
        if n < 2 or m < 1:
            raise DimensionMismatch(f"need n >= 2 and m >= 1, got ({n}, {m})")
        alpha, beta, matrix = alpha % n, beta % n, reduce_matrix(matrix, n)
        if len(matrix) != m:
            raise InvariantViolation(f"form matrix is {len(matrix)}x{len(matrix)}, expected {m}x{m}")
        # NotInvertible unless alpha, then beta, is a unit mod n.
        omega(alpha, beta, n)
        return super().__new__(cls, n, m, alpha, beta, matrix)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def validate(self) -> None:
        """Check the structural constraints on the diagonal and entries."""
        n = self.n
        diag = (inv_scalar(self.beta, n) - self.alpha) % n
        for i in range(self.m):
            if self.matrix[i][i] != diag:
                raise InvariantViolation(
                    f"A[{i}][{i}] = {self.matrix[i][i]}, must equal beta^-1 - alpha = {diag}"
                )
            for j in range(self.m):
                if not _entry_admissible(self.beta, self.matrix[i][j], n):
                    raise InvariantViolation(
                        f"A[{i}][{j}] = {self.matrix[i][j]} fails the entry conditions"
                    )


def build_bilinear(spec: BilinearSpec) -> FiniteBiquandle:
    """Biquandle tables for a spec satisfying its invariants.

    No axiom check is performed here.
    """
    spec.validate()
    return _build_tables(spec.n, spec.m, spec.alpha, spec.beta, spec.matrix)


def checked_tables(spec: BilinearSpec) -> FiniteBiquandle:
    """The tables of a spec that is a biquandle: validate(), then the
    carrier bound (check_module), then the closed-form verdict of
    `_bilinear_valid`, else InvariantViolation naming the spec.  Only a
    spec that passes is built."""
    spec.validate()
    check_module(spec.n, spec.m)
    if not _bilinear_valid(spec.n, spec.m, spec.alpha, spec.beta, spec.matrix):
        raise InvariantViolation(f"spec {format_spec(spec)} does not satisfy the biquandle axioms")
    return _build_tables(spec.n, spec.m, spec.alpha, spec.beta, spec.matrix)


def is_symplectic(spec: BilinearSpec) -> bool:
    """alpha = beta = 1 with a form that symplectic_quandle takes: a zero
    diagonal and A^t = -A, the bilinear axiom-4 rule at D = 0."""
    return spec.alpha == spec.beta == 1 and _bilinear_axiom4(spec.n, spec.m, 1, 1, spec.matrix)


def _congruence_class(A: tuple[int, ...], n: int, m: int) -> set[tuple[int, ...]]:
    """The congruence class {Q A Q^t : Q in GL_m(Z_n)} of the form A,
    with A and every member as row-major flat tuples.

    A basis change is a biquandle isomorphism keeping alpha and beta, so
    a class shares one axiom verdict.  The class is the closure of A
    under four kinds of Q: the swap of e_0 and e_1 and the cyclic shift,
    which generate all permutations; I + e_01, whose conjugates by those
    are all I + e_ij and generate SL_m(Z_n) as Z_n is semilocal; and
    diag(u, 1, ..., 1) for units u != 1, which reach every determinant.
    """

    def transvect(B):  # I + e_01: add row 1 to row 0, then column 1 to column 0
        C = [(a + b) % n for a, b in zip(B[:m], B[m : 2 * m])] + list(B[m:])
        C[::m] = [(a + b) % n for a, b in zip(C[::m], C[1::m])]
        return tuple(C)

    cells = [(i, j) for i in range(m) for j in range(m)]
    moves = []
    if m > 1:
        # P A P^t has A[p[i]][p[j]] at (i, j); for m = 2 the shift is the swap.
        shifts = [[1, 0, *range(2, m)], [*range(1, m), 0]][: m - 1]
        moves = [itemgetter(*[p[i] * m + p[j] for i, j in cells]) for p in shifts]
        moves.append(transvect)
    for u in units(n)[1:]:
        ws = [pow(u, (i == 0) + (j == 0), n) for i, j in cells]
        moves.append(lambda B, ws=ws: tuple([b * w % n for b, w in zip(B, ws)]))
    cls, frontier = {A}, {A}
    while frontier:
        images = set()
        for move in moves:
            images.update(map(move, frontier))
        frontier = images - cls
        cls |= frontier
    return cls


def _rows(flat, m):
    return tuple(flat[i * m : (i + 1) * m] for i in range(m))


def _classify(n, m, cells_of, exclude_symplectic):
    """One accepted spec per congruence class met among the candidate
    forms of each unit pair (alpha, beta), reported by the class minimum,
    ordered by (alpha, beta, row-major A).  Symplectic specs are left out
    if asked by skipping the pair (1, 1): an accepted spec meets the
    axiom-4 rule, so it is symplectic iff alpha = beta = 1.  A candidate
    has the diagonal D = beta^-1 - alpha and, for each i < j, a pair
    (A_ij, A_ji) from cells_of(D); one walk tries every such choice, for
    each unit pair whose form with every upper entry 0 the verdict
    accepts (a refused one refuses the pair).  Each candidate is decided
    on its own by `_bilinear_valid`, with no table, and only an accepted
    one has its class closed: the verdict is exact and a basis change is
    an isomorphism, so a rejected class is rejected member by member.
    Raises what check_module raises, and CapacityExceeded if the unit
    pairs or the forms walked for one pair exceed carrier_bound().
    """
    check_module(n, m)
    us = units(n)
    if len(us) ** 2 > carrier_bound():
        raise CapacityExceeded(f"{len(us)}^2 unit pairs mod {n} exceed bound {carrier_bound()}")
    upper = [(i * m + j, j * m + i) for i in range(m) for j in range(i + 1, m)]
    forms = len(cells_of(0)) ** len(upper)
    if forms > carrier_bound():
        raise CapacityExceeded(
            f"{forms} candidate forms for one unit pair on (Z_{n})^{m} exceed bound {carrier_bound()}"
        )
    found = []
    for alpha, beta in itertools.product(us, repeat=2):
        if exclude_symplectic and alpha == beta == 1:
            continue
        D = (inv_scalar(beta, n) - alpha) % n
        flat = [D] * (m * m)
        for ij, ji in upper:
            flat[ij], flat[ji] = 0, -D % n
        # This form meets rule conditions 1 and 2 by construction, so
        # the verdict can refuse it only on c*D = 0 or on the entry
        # condition for D (-D passes iff D does), and every form of
        # the pair shares both: a refused pair is skipped unwalked.
        if not _bilinear_valid(n, m, alpha, beta, _rows(flat, m)):
            continue
        seen = set()  # every member of the accepted classes met so far
        # One choice list per cell above the diagonal; m = 1 builds none.
        for combo in itertools.product(*(cells_of(D) for _ in upper)):
            for (ij, ji), (e, f) in zip(upper, combo):
                flat[ij], flat[ji] = e, f
            A = tuple(flat)
            if A in seen or not _bilinear_valid(n, m, alpha, beta, _rows(A, m)):
                continue
            cls = _congruence_class(A, n, m)
            seen |= cls
            found.append(BilinearSpec(n, m, alpha, beta, _rows(min(cls), m)))
    return sorted(found, key=lambda s: (s.alpha, s.beta, s.matrix))


def search(n: int, m: int, exclude_symplectic: bool = True) -> list[BilinearSpec]:
    """All bilinear biquandle structures on (Z_n)^m up to module basis
    change, ordered by (alpha, beta, row-major A).  The walk covers the
    axiom-4 rule's triangle: A_ij runs over Z_n for i < j and
    A_ji = -D - A_ij, so n^(m(m-1)/2) forms per unit pair, each decided
    by the verdict."""
    return _classify(n, m, lambda D: [(e, (-D - e) % n) for e in range(n)], exclude_symplectic)


def brute_force_search(n: int, m: int, exclude_symplectic: bool = True) -> list[BilinearSpec]:
    """Same as `search` but with both off-diagonal entries of each cell
    ranging over all of Z_n, n^(m(m-1)) forms per unit pair: the oracle
    for the triangle."""
    return _classify(n, m, lambda D: list(itertools.product(range(n), repeat=2)), exclude_symplectic)


# The spec text: four fields, then [ rows ], each row [ ... ] with no
# nested brackets, and whitespace around brackets and commas; int() then
# reads each field and entry, whitespace around it included.
_SPEC_RE = re.compile(
    r"([^,]*),([^,]*),([^,]*),([^,]*),\s*\[((?:\s*\[[^][]*\]\s*,)*\s*\[[^][]*\]\s*)\]\s*"
)
_ROW_RE = re.compile(r"\[([^][]*)\]")


def _ints(parts, message: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, parts))
    except ValueError:  # also past the interpreter's digit limit
        raise ParseError(message) from None


def format_spec(spec: BilinearSpec) -> str:
    """Render `n,m,alpha,beta,[[a11,...],...]` with no whitespace."""
    rows = ",".join("[" + ",".join(str(e) for e in row) + "]" for row in spec.matrix)
    return f"{spec.n},{spec.m},{spec.alpha},{spec.beta},[{rows}]"


def parse_spec(text: str) -> BilinearSpec:
    """Parse the spec text form produced by format_spec: one match of the
    grammar, then every field and entry read by int()."""
    match = _SPEC_RE.fullmatch(text)
    if not match:
        raise ParseError(f"expected n,m,alpha,beta,[[...]] in {text!r}")
    n, m, alpha, beta = _ints(match.group(1, 2, 3, 4), f"non-integer field in {text!r}")
    shape = f"matrix in {text!r} is not {m}x{m} integer rows"
    A = tuple(_ints(row.split(","), shape) for row in _ROW_RE.findall(match[5]))
    if len(A) != m or any(len(r) != m for r in A):
        raise ParseError(shape)
    if n < 2 or m < 1:
        raise ParseError(f"need n >= 2 and m >= 1 in {text!r}")
    return BilinearSpec(n, m, alpha, beta, A)
