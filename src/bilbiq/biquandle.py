"""Finite biquandles as four N x N operation tables, with exhaustive
axiom verification and the standard constructors.

Notation used throughout:  for carrier indices a, b,

    up[a][b]     = a ^ b          upbar[a][b]  = a ^ bbar
    low[a][b]    = a _ b          lowbar[a][b] = a _ bbar

Composite superscripts/subscripts read left to right, e.g. a^{bc} is
(a^b)^c.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, NotAntisymmetric, ParseError, ShapeError
from .modular import (
    bilinear_eval,
    enumerate_module,
    inv_scalar,
    reduce_matrix,
    vec_add,
    vec_scale,
)

Table = tuple[tuple[int, ...], ...]


def _freeze_table(table, size: int, name: str) -> Table:
    rows = tuple(tuple(int(e) for e in row) for row in table)
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ShapeError(f"{name} table is not {size}x{size}")
    for row in rows:
        for e in row:
            if not 0 <= e < size:
                raise IndexOutOfRange(f"{name} entry {e} outside [0, {size})")
    return rows


class FiniteBiquandle:
    """A finite biquandle over an ordered carrier.

    Construction performs shape and range validation only; axiom
    checking is a separate operation (`check_axioms`) so searches can
    build candidates cheaply.  Equality compares the operation tables,
    not the carrier labels.
    """

    __slots__ = ("carrier", "up", "upbar", "low", "lowbar")

    def __init__(self, carrier, up, upbar, low, lowbar):
        self.carrier = list(carrier)
        n = len(self.carrier)
        if n == 0:
            raise ShapeError("carrier must be non-empty")
        self.up = _freeze_table(up, n, "up")
        self.upbar = _freeze_table(upbar, n, "upbar")
        self.low = _freeze_table(low, n, "low")
        self.lowbar = _freeze_table(lowbar, n, "lowbar")

    @property
    def size(self) -> int:
        return len(self.carrier)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteBiquandle):
            return NotImplemented
        return (
            self.up == other.up
            and self.upbar == other.upbar
            and self.low == other.low
            and self.lowbar == other.lowbar
        )

    def __hash__(self):
        return hash((self.up, self.upbar, self.low, self.lowbar))

    def __repr__(self):
        return f"FiniteBiquandle(size={self.size})"


@dataclass(frozen=True)
class AxiomViolation:
    axiom: int
    equation: str
    elements: tuple[int, ...]


@dataclass(frozen=True)
class AxiomReport:
    """Pass flags for the four axioms, with one witness per failure."""

    violations: tuple[
        AxiomViolation | None,
        AxiomViolation | None,
        AxiomViolation | None,
        AxiomViolation | None,
    ]

    def axiom_passes(self, k: int) -> bool:
        return self.violations[k - 1] is None

    @property
    def all_pass(self) -> bool:
        return all(v is None for v in self.violations)


def _axiom1(bq: FiniteBiquandle) -> AxiomViolation | None:
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    for a in range(bq.size):
        for b in range(bq.size):
            if upbar[up[a][b]][low[b][a]] != a:
                return AxiomViolation(1, "a = a^{b bar(b_a)}", (a, b))
            if lowbar[low[b][a]][up[a][b]] != b:
                return AxiomViolation(1, "b = b_{a bar(a^b)}", (a, b))
            if up[upbar[a][b]][lowbar[b][a]] != a:
                return AxiomViolation(1, "a = a^{bar(b) b_bar(a)}", (a, b))
            if low[lowbar[b][a]][upbar[a][b]] != b:
                return AxiomViolation(1, "b = b_{bar(a) a^bar(b)}", (a, b))
    return None


def _axiom2(bq: FiniteBiquandle) -> AxiomViolation | None:
    # Existential witnesses must satisfy their full conjunction of
    # three equations simultaneously.
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    rng = range(bq.size)
    for a in rng:
        for b in rng:
            if not any(
                up[a][lowbar[b][x]] == x
                and upbar[x][b] == a
                and low[lowbar[b][x]][a] == b
                for x in rng
            ):
                return AxiomViolation(2, "no x: x=a^{b_bar(x)}, a=x^bar(b), b=b_{bar(x)a}", (a, b))
            if not any(
                upbar[a][low[b][y]] == y
                and up[y][b] == a
                and lowbar[low[b][y]][a] == b
                for y in rng
            ):
                return AxiomViolation(2, "no y: y=a^bar(b_y), a=y^b, b=b_{y bar(a)}", (a, b))
    return None


def _axiom3(bq: FiniteBiquandle) -> AxiomViolation | None:
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    rng = range(bq.size)
    for a in rng:
        for b in rng:
            for c in rng:
                if up[up[a][b]][c] != up[up[a][low[c][b]]][up[b][c]]:
                    return AxiomViolation(3, "a^{bc} = a^{c_b b^c}", (a, b, c))
                if low[low[c][b]][a] != low[low[c][low[a][b]]][low[b][a]]:
                    return AxiomViolation(3, "c_{ba} = c_{a_b b_a}", (a, b, c))
                if up[low[b][a]][low[c][up[a][b]]] != low[up[b][c]][up[a][low[c][b]]]:
                    return AxiomViolation(3, "(b_a)^{c_{a^b}} = (b^c)_{a^{c_b}}", (a, b, c))
                if upbar[upbar[a][b]][c] != upbar[upbar[a][lowbar[c][b]]][upbar[b][c]]:
                    return AxiomViolation(3, "a^{bar(b)bar(c)} = a^{bar(c_bar(b)) bar(b^bar(c))}", (a, b, c))
                if lowbar[lowbar[c][b]][a] != lowbar[lowbar[c][lowbar[a][b]]][lowbar[b][a]]:
                    return AxiomViolation(3, "c_{bar(b)bar(a)} = c_{bar(a_bar(b)) bar(b_bar(a))}", (a, b, c))
                if (
                    upbar[lowbar[b][a]][lowbar[c][upbar[a][b]]]
                    != lowbar[upbar[b][c]][upbar[a][lowbar[c][b]]]
                ):
                    return AxiomViolation(3, "(b_bar(a))^bar(c_...) = (b^bar(c))_bar(a^...)", (a, b, c))
    return None


def _axiom4(bq: FiniteBiquandle) -> AxiomViolation | None:
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    rng = range(bq.size)
    for a in rng:
        if not any(low[a][x] == x and up[x][a] == a for x in rng):
            return AxiomViolation(4, "no x: x=a_x, a=x^a", (a,))
        if not any(upbar[a][y] == y and lowbar[y][a] == a for y in rng):
            return AxiomViolation(4, "no y: y=a^bar(y), a=y_bar(a)", (a,))
    return None


_AXIOM_CHECKS = (_axiom1, _axiom2, _axiom3, _axiom4)

# Cheapest-first order for early rejection during searches; axiom 3 is
# the O(N^3) check.
_FAST_ORDER = (_axiom1, _axiom4, _axiom2, _axiom3)


def check_axioms(bq: FiniteBiquandle) -> AxiomReport:
    """Exhaustively verify the four biquandle axioms."""
    return AxiomReport(tuple(check(bq) for check in _AXIOM_CHECKS))


def passes_axioms(bq: FiniteBiquandle) -> bool:
    """check_axioms(...).all_pass with early exit across axioms."""
    return all(check(bq) is None for check in _FAST_ORDER)


def alexander_biquandle(n: int, s: int, t: int) -> FiniteBiquandle:
    """Biquandle on Z_n with a^b = ta + (1-st)b, a_b = sa for units s, t.

    The carrier is ordered 1, 2, ..., n-1, 0 so that the printed block
    matrix uses the conventional 1-indexed element labeling x_k = k.
    """
    s, t = s % n, t % n
    s_inv = inv_scalar(s, n)
    t_inv = inv_scalar(t, n)
    carrier = [k % n for k in range(1, n + 1)]
    index = {v: i for i, v in enumerate(carrier)}
    up = [[index[(t * a + (1 - s * t) * b) % n] for b in carrier] for a in carrier]
    upbar = [
        [index[(t_inv * a + (1 - s_inv * t_inv) * b) % n] for b in carrier]
        for a in carrier
    ]
    low = [[index[(s * a) % n] for _ in carrier] for a in carrier]
    lowbar = [[index[(s_inv * a) % n] for _ in carrier] for a in carrier]
    return FiniteBiquandle(carrier, up, upbar, low, lowbar)


def symplectic_quandle(n: int, m: int, A) -> FiniteBiquandle:
    """Quandle on (Z_n)^m with x^y = x + f(x,y)y for antisymmetric f."""
    A = reduce_matrix(A, n)
    if len(A) != m:
        raise ShapeError(f"form matrix is {len(A)}x{len(A)}, expected {m}x{m}")
    for i in range(m):
        if A[i][i] != 0:
            raise NotAntisymmetric(f"A[{i}][{i}] = {A[i][i]}, diagonal must be zero")
        for j in range(m):
            if (A[i][j] + A[j][i]) % n != 0:
                raise NotAntisymmetric(f"A[{i}][{j}] != -A[{j}][{i}] mod {n}")
    return _build_tables(n, m, 1, 1, A)


def _build_tables(n: int, m: int, alpha: int, beta: int, A) -> FiniteBiquandle:
    """The four operation tables of the bilinear structure on (Z_n)^m:

        x^y    = alpha x + f(x,y) y        x_y    = beta x
        x^ybar = alpha^-1 x + w f(x,y) y   x_ybar = beta^-1 x

    with f(x,y) = x A y^t and w = omega(alpha, beta, n).  The symplectic
    quandle is the case alpha = beta = 1, where w = -1.  No axiom check.
    """
    alpha_inv = inv_scalar(alpha, n)
    beta_inv = inv_scalar(beta, n)
    w = omega(alpha, beta, n)
    carrier = enumerate_module(n, m)
    index = {v: i for i, v in enumerate(carrier)}
    size = len(carrier)
    up = [[0] * size for _ in range(size)]
    upbar = [[0] * size for _ in range(size)]
    for i, x in enumerate(carrier):
        ax = vec_scale(alpha, x, n)
        aix = vec_scale(alpha_inv, x, n)
        up_i, upbar_i = up[i], upbar[i]
        for j, y in enumerate(carrier):
            fxy = bilinear_eval(A, x, y, n)
            up_i[j] = index[vec_add(ax, vec_scale(fxy, y, n), n)]
            upbar_i[j] = index[vec_add(aix, vec_scale(w * fxy, y, n), n)]
    low = [[index[vec_scale(beta, x, n)]] * size for x in carrier]
    lowbar = [[index[vec_scale(beta_inv, x, n)]] * size for x in carrier]
    return FiniteBiquandle(carrier, up, upbar, low, lowbar)


def is_quandle(bq: FiniteBiquandle) -> bool:
    """True iff both lower operations fix their first argument."""
    return all(
        bq.low[a][b] == a and bq.lowbar[a][b] == a
        for a in range(bq.size)
        for b in range(bq.size)
    )


def omega(alpha: int, beta: int, n: int) -> int:
    """The scalar -a^-2 b^-2 - a^-1 b + a^-2 mod n relating the two
    upper bilinear forms."""
    ai = inv_scalar(alpha, n)
    bi = inv_scalar(beta, n)
    return (-ai * ai * bi * bi - ai * beta + ai * ai) % n


def block_matrix_encode(bq: FiniteBiquandle) -> str:
    """Render the 2N x 2N block matrix file form, 1-indexed.

    Layout: line 1 is N, then 2N rows; top-left a^bbar, top-right a^b,
    bottom-left a_bbar, bottom-right a_b.
    """
    lines = [str(bq.size)]
    for left, right in ((bq.upbar, bq.up), (bq.lowbar, bq.low)):
        for i in range(bq.size):
            row = [str(e + 1) for e in left[i]] + [str(e + 1) for e in right[i]]
            lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def block_matrix_decode(text: str) -> FiniteBiquandle:
    """Inverse of block_matrix_encode; carrier becomes 0..N-1."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix text")
    try:
        size = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"bad size line {lines[0]!r}") from exc
    if size < 1 or len(lines) != 1 + 2 * size:
        raise ParseError(f"expected {2 * size} matrix rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ParseError(f"non-integer entry in {ln!r}") from exc
        if len(row) != 2 * size:
            raise ParseError(f"row {ln!r} has {len(row)} entries, expected {2 * size}")
        if any(not 1 <= e <= size for e in row):
            raise ParseError(f"entry outside [1, {size}] in {ln!r}")
        rows.append([e - 1 for e in row])
    upbar = [rows[i][:size] for i in range(size)]
    up = [rows[i][size:] for i in range(size)]
    lowbar = [rows[size + i][:size] for i in range(size)]
    low = [rows[size + i][size:] for i in range(size)]
    return FiniteBiquandle(range(size), up, upbar, low, lowbar)
