"""Finite biquandles as four N x N operation tables, with exhaustive
axiom verification and the standard constructors.

Notation used throughout:  for carrier indices a, b,

    up[a][b]     = a ^ b          upbar[a][b]  = a ^ bbar
    low[a][b]    = a _ b          lowbar[a][b] = a _ bbar

Composite superscripts/subscripts read left to right, e.g. a^{bc} is
(a^b)^c.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import iadd, itemgetter, sub
from typing import NamedTuple

from .errors import (
    CapacityExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    NotAntisymmetric,
    ParseError,
    ShapeError,
)
from .modular import carrier_bound, enumerate_module, inv_scalar, reduce_matrix

Table = tuple[tuple[int, ...], ...]


_BYTE_LIMIT = 256  # the largest carrier whose elements fit in a byte


def _freeze_table(table, size: int, name: str) -> Table:
    """The table as `size` tuples of `size` int entries in [0, size).

    Up to _BYTE_LIMIT elements, a table of int rows is checked in two C
    passes: bytes() of its entries refuses any entry that is not an
    index or is outside 0..255, and deleting the bytes 0..size-1 must
    leave nothing.  The int rows are then rebuilt from the bytes.  Any
    table these passes refuse, and every larger table, takes the
    per-entry path: int() of each entry, then ShapeError, or
    IndexOutOfRange naming the first bad entry in row order.
    """
    rows = list(table)
    if size <= _BYTE_LIMIT and len(rows) == size:
        try:
            data = bytes(chain.from_iterable(rows)) if set(map(len, rows)) == {size} else None
        except (TypeError, ValueError):  # a row without len, an entry not an index or not a byte
            data = None
        if data is not None and not data.translate(None, bytes(range(size))):
            starts, ends = range(0, size * size, size), range(size, size * size + 1, size)
            return tuple(map(tuple, map(data.__getitem__, map(slice, starts, ends))))
    rows = tuple(tuple(map(int, row)) for row in rows)
    if len(rows) != size or set(map(len, rows)) != {size}:
        raise ShapeError(f"{name} table is not {size}x{size}")
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= size:
        e = next(e for row in rows for e in row if not 0 <= e < size)
        raise IndexOutOfRange(f"{name} entry {e} outside [0, {size})")
    return rows


class FiniteBiquandle:
    """A finite biquandle over an ordered carrier.

    Construction checks every entry of the four tables for shape, int()
    value and range (see `_freeze_table`: in C passes up to 256
    elements, entry by entry above or on any fault) and stores them as
    tuples of int tuples.  Axiom checking is a separate operation
    (`check_axioms`) so searches can build candidates cheaply.
    Equality compares the operation tables, not the carrier labels.
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


class AxiomViolation(NamedTuple):
    axiom: int
    equation: str
    elements: tuple[int, ...]


class AxiomReport(NamedTuple):
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
    # three equations simultaneously.  An x can only witness the a with
    # a = x^bar(b) (a y only a = y^b), so each column b is settled by one
    # pass over x; the witness is the least failing (a, b), the x
    # equation before the y equation.
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    rng = range(bq.size)
    first = None
    for b in rng:
        lowbar_b, low_b = lowbar[b], low[b]
        has_x = {
            a
            for x, a in zip(rng, [row[b] for row in upbar])
            if up[a][lowbar_b[x]] == x and low[lowbar_b[x]][a] == b
        }
        has_y = {
            a
            for y, a in zip(rng, [row[b] for row in up])
            if upbar[a][low_b[y]] == y and lowbar[low_b[y]][a] == b
        }
        for a in range(bq.size if first is None else first[0]):
            if a not in has_x:
                first = (a, b, "no x: x=a^{b_bar(x)}, a=x^bar(b), b=b_{bar(x)a}")
                break
            if a not in has_y:
                first = (a, b, "no y: y=a^bar(b_y), a=y^b, b=b_{y bar(a)}")
                break
    return None if first is None else AxiomViolation(2, first[2], first[:2])


_AXIOM3_EQUATIONS = (
    "a^{bc} = a^{c_b b^c}",
    "c_{ba} = c_{a_b b_a}",
    "(b_a)^{c_{a^b}} = (b^c)_{a^{c_b}}",
    "a^{bar(b)bar(c)} = a^{bar(c_bar(b)) bar(b^bar(c))}",
    "c_{bar(b)bar(a)} = c_{bar(a_bar(b)) bar(b_bar(a))}",
    "(b_bar(a))^bar(c_...) = (b^bar(c))_bar(a^...)",
)


_BLOCK = 1 << 16  # elements per side in one block of b values


def _gather(source):
    """t -> (t[s] for s in source), in C.  One index gets a slice, since
    itemgetter of one index returns the item, not a sequence."""
    if len(source) == 1:
        return itemgetter(slice(source[0], source[0] + 1))
    return itemgetter(*source)


def _axiom3(bq: FiniteBiquandle) -> AxiomViolation | None:
    """Axiom 3 for every (a, b, c).

    Every side of the six identities is a composition of unary maps,
    the columns U_y: x -> x^y and L_y: x -> x_y of up and low and the
    rows of the tables:
      - identities 1 and 4 are U_c U_b = U_{b^c} U_{c_b} in a, for fixed
        (b, c); the left side is also row a^b of up, in c;
      - identities 2 and 5 are L_a L_b = L_{b_a} L_{a_b} in c, for fixed (a, b);
      - the left side of 3 and 6 is (row b_a of up) L_{a^b} in c, the
        right side (row b^c of low) U_{c_b} in a.
    A map is a bytes object of N elements; the outer map of a composition
    is a 256-byte window of its table, so composing is one bytes.translate,
    in C.  Above _BYTE_LIMIT elements the maps are lists, applied by
    itemgetter.  The b values run in blocks of at most _BLOCK elements per
    side, so memory stays O(block).  In a block the maps in a come out in
    (b, c, a) order; strided slices put them in the (a, b, c) order of the
    maps in c, and each identity is one comparison.  The witness is the
    least (a, b, c, identity): the first difference in a block that
    differs, least over the blocks.
    """
    n = bq.size
    if n <= _BYTE_LIMIT:
        pad = bytes(256 - n)
        seq, sources, apply, join = bytes, list, bytes.translate, b"".join
    else:
        pad, seq = [], list

        def sources(maps):
            return list(map(_gather, maps))

        def join(parts):
            return reduce(iadd, parts, [])  # extends piece by piece, in C

        apply = itemgetter.__call__
    columns = list(map(slice, range(n), repeat(None), repeat(n)))
    # From each row start, 256 bytes (those past the row are never read) or the row.
    windows = list(map(slice, range(0, n * n, n), range(n + len(pad), n * n + n + len(pad), n)))

    def sides(up, low):
        """The sides of identities 1 to 3, as maps to join, for the b in
        [b0, b1) and every a, at the offsets `at` in a flat table: r1 and
        r3 in (b, c, a) order, then l1, l2, r2 and l3 in (a, b, c) order."""
        up_row = list(map(seq, up))
        up_flat, low_flat = join(up_row), join(map(seq, low))  # x^y, x_y at x n + y
        up_col = list(map(up_flat.__getitem__, columns))
        low_col = list(map(low_flat.__getitem__, columns))
        low_flat_t = join(low_col)  # y_x at x n + y
        up_x, low_x, up_y, low_y = (  # rows x and columns y, as maps to apply
            list(map((flat + pad).__getitem__, windows))
            for flat in (up_flat, low_flat, join(up_col), low_flat_t)
        )
        a_up = sources(up_col)  # x -> U_x
        c_low = sources(low_col)  # y -> L_y

        def block(b0, b1, at):
            bc = slice(b0 * n, b1 * n)
            a_c_b = _gather(low_flat_t[bc])(a_up)  # U_{c_b} by (b, c)
            by_b_c = _gather(up_flat[bc])  # b^c
            a_b_up, a_b, b_a = (
                join(map(t.__getitem__, at)) for t in (up_flat, low_flat, low_flat_t)
            )
            by_a_b_up, by_b_a = _gather(a_b_up), _gather(b_a)
            low_a = chain.from_iterable(map(repeat, low_y, repeat(b1 - b0)))  # L_a by (a, b)
            return (
                map(apply, a_c_b, by_b_c(up_y)),
                map(apply, a_c_b, by_b_c(low_x)),
                by_a_b_up(up_row),
                map(apply, c_low[b0:b1] * n, low_a),
                map(apply, _gather(a_b)(c_low), by_b_a(low_y)),
                map(apply, by_a_b_up(c_low), by_b_a(up_x)),
            )

        return block

    pairs = (sides(bq.up, bq.low), sides(bq.upbar, bq.lowbar))
    step = max(1, min(n, _BLOCK // (n * n)))
    to_abc = [slice(p, None, n) for p in range(n)]  # (b, c, a) order to (a, b, c)
    best = None
    for b0 in range(0, n, step):
        b1 = min(b0 + step, n)
        at = [slice(a * n + b0, a * n + b1) for a in range(n)]
        for k, pair in enumerate(pairs):
            r1, r3, l1, l2, r2, l3 = map(join, pair(b0, b1, at))
            r1, r3 = join(map(r1.__getitem__, to_abc)), join(map(r3.__getitem__, to_abc))
            for i, (left, right) in enumerate(((l1, r1), (l2, r2), (l3, r3))):
                if left != right:
                    d = next(d for d, (u, v) in enumerate(zip(left, right)) if u != v)
                    found = (d // ((b1 - b0) * n), b0 + d // n % (b1 - b0), d % n, 3 * k + i)
                    best = found if best is None else min(best, found)
    if best is None:
        return None
    a, b, c, i = best
    return AxiomViolation(3, _AXIOM3_EQUATIONS[i], (a, b, c))


def _axiom4(bq: FiniteBiquandle) -> AxiomViolation | None:
    up, upbar, low, lowbar = bq.up, bq.upbar, bq.low, bq.lowbar
    rng = range(bq.size)
    for a in rng:
        if not any(low[a][x] == x and up[x][a] == a for x in rng):
            return AxiomViolation(4, "no x: x=a_x, a=x^a", (a,))
        if not any(upbar[a][y] == y and lowbar[y][a] == a for y in rng):
            return AxiomViolation(4, "no y: y=a^bar(y), a=y_bar(a)", (a,))
    return None


def check_axioms(bq: FiniteBiquandle) -> AxiomReport:
    """Exhaustively verify the four biquandle axioms on the tables, with
    the least failing elements of each axiom as its witness.  It reads
    nothing but the tables, so it is the independent check of the
    closed-form bilinear verdict (`_bilinear_valid`), which builds none."""
    return AxiomReport((_axiom1(bq), _axiom2(bq), _axiom3(bq), _axiom4(bq)))


def alexander_biquandle(n: int, s: int, t: int) -> FiniteBiquandle:
    """Biquandle on Z_n with a^b = ta + (1-st)b, a_b = sa for units s, t.

    The carrier is ordered 1, 2, ..., n-1, 0 so that the printed block
    matrix uses the conventional 1-indexed element labeling x_k = k.
    """
    if n < 1:
        raise DimensionMismatch(f"modulus must be >= 1, got {n}")
    if n > carrier_bound():
        raise CapacityExceeded(f"Z_{n} has {n} elements, above bound {carrier_bound()}")
    s, t = s % n, t % n
    s_inv = inv_scalar(s, n)
    t_inv = inv_scalar(t, n)
    carrier = [k % n for k in range(1, n + 1)]
    # The index of v is (v - 1) mod n.  With b = j + 1 at column j, row a
    # of a^b = pa + qb holds the steps qj mod n shifted by pa + q - 1.
    wrap = [*range(n), *range(n)]  # wrap[r:][x] = (r + x) mod n for r, x < n

    def upper(p, q):
        steps = [q * j % n for j in range(n)]
        return [list(map(wrap[(p * a + q - 1) % n :].__getitem__, steps)) for a in carrier]

    def lower(p):
        return [[(p * a - 1) % n] * n for a in carrier]

    return FiniteBiquandle(
        carrier, upper(t, 1 - s * t), upper(t_inv, 1 - s_inv * t_inv), lower(s), lower(s_inv)
    )


def symplectic_quandle(n: int, m: int, A) -> FiniteBiquandle:
    """Quandle on (Z_n)^m with x^y = x + f(x,y)y for antisymmetric f.

    It is the bilinear structure with alpha = beta = 1, where D = 0 and
    `_bilinear_axiom4` asks for a zero diagonal and A^t = -A: ShapeError
    if A is not m x m, NotAntisymmetric if the rule fails.
    """
    A = reduce_matrix(A, n)
    if len(A) != m:
        raise ShapeError(f"form matrix is {len(A)}x{len(A)}, expected {m}x{m}")
    if not _bilinear_axiom4(n, m, 1, 1, A):
        raise NotAntisymmetric(f"form {A} mod {n} needs a zero diagonal and A^t = -A")
    return _build_tables(n, m, 1, 1, A)


def _bilinear_axiom4(n: int, m: int, alpha: int, beta: int, A) -> bool:
    """Axiom 4 of the bilinear structure (alpha, beta, A) on (Z_n)^m, which
    implies axioms 1 and 2.  With D = beta^-1 - alpha it holds iff

      1. A_ii = D for every i,
      2. A_ij + A_ji = -D for every i < j, and
      3. c D = 0, where c = 6 for m = 1, 2 for m = 2 and 1 for m >= 3.

    Nothing is listed, so the caller checks the carrier bound first.

    Reduction to one condition per b.  A scalar k kills b iff n divides
    k gcd(n, entries of b).  Axiom 4's witnesses are forced to
    x = y = beta b, leaving two scalar conditions on each b.  The first
    over beta is (f(b,b) - D) b = 0, that is (f(b,b) - D) gcd(n, b) = 0.
    At b = e_1 and 2 e_1 it gives A_11 = D and 3 gcd(n, 2) D = 0, so n
    divides (beta^2 - 1) D: beta^2 = 1 mod 3, and mod 8 if beta is odd.
    Given the first, the second times the unit alpha^2 beta is
    (beta^2 - 1) beta^2 D^2 b = 0.
    Axiom 1: x_y ignores y, so equations 2 and 4 hold.  Equation 1 reads
    f(a,b) c b = 0, c = alpha^-1 + w beta^2 (alpha + f(b,b)), and c b is a
    unit times (beta^2 - 1) D b = 0.  It makes upbar(., beta b) a left
    inverse of up(., b), two-sided on a finite carrier, which is equation 3.
    Axiom 2: low, lowbar ignore their second argument, so each third
    equation holds; x -> x^bbar and y -> y^b are bijective by equations 3
    and 1 of axiom 1, and their inverses give the witnesses.

    The rule.  b = e_i has gcd 1 and f(b,b) = A_ii, which gives 1.
    b = e_i + e_j has gcd 1 and f(b,b) = A_ii + A_jj + A_ij + A_ji, which
    given 1 gives 2.  Given 1 and 2, f(b,b) = D q(b) with
    q(b) = sum_i b_i^2 - sum_{i<j} b_i b_j, so axiom 4 reads
    D (q(b) - 1) gcd(n, b) = 0, or D (q(b) - 1) b = 0, for every b.
      - m = 1: q(b) = b^2, so n must divide D (b^3 - b) for every integer
        b.  Each b^3 - b = (b - 1) b (b + 1) is a multiple of 6, and
        2^3 - 2 = 6, so this is 6D = 0.
      - m >= 3: b = e_1 + e_2 + e_3 has q = 0 and gcd 1, so D = 0, which
        is enough.
      - m = 2: b = e_1 - e_2 has q = 3 and gcd 1, so 2D = 0.  That is
        enough: D = 0 is, and for D = n/2 the condition is that
        (q(b) - 1) gcd(n, b) is even.  If gcd(n, b) is odd, some b_i is
        odd, as n is even, and q(b) = b_1^2 + b_1 b_2 + b_2^2 mod 2 is
        then odd.
    """
    D = (inv_scalar(beta, n) - alpha) % n
    return (
        all((A[i][i] - D) % n == 0 for i in range(m))
        and all((A[i][j] + A[j][i] + D) % n == 0 for i in range(m) for j in range(i))
        and {1: 6, 2: 2}.get(m, 1) * D % n == 0
    )


def _entry_admissible(beta: int, x: int, n: int) -> bool:
    """The entry condition (1 - beta^2) x = 0 mod n, which axiom 3 asks
    of every entry x of the form matrix (see `_bilinear_valid`)."""
    return (1 - beta * beta) * x % n == 0


def _bilinear_valid(n: int, m: int, alpha: int, beta: int, A) -> bool:
    """Whether the bilinear structure (alpha, beta, A) on (Z_n)^m is a
    biquandle, decided with no table and no listing, so the caller checks
    the carrier bound: axioms 1, 2 and 4 by `_bilinear_axiom4`, then
    axiom 3, which given them holds iff every entry passes
    `_entry_admissible`: (1 - beta^2) A_ij = 0.

    Proof of the axiom-3 step.  Assume the axiom-4 rule, and write
    s(b,c) = f(b,c) + f(c,b) and b^c = alpha b + f(b,c) c.  The entry
    condition on A is (1 - beta^2) f = 0 on all vectors, as f is bilinear.
      - Identities 2 and 5: x_y = beta x ignores y, so both sides of 2 are
        beta^2 c, and of 5 beta^-2 c.
      - Identity 3: the sides are (beta b)^(beta c) = alpha beta b +
        beta^3 f(b,c) c and beta (b^c), which differ by
        beta (beta^2 - 1) f(b,c) c.  At b = e_i, c = e_j it is zero iff
        (beta^2 - 1) A_ij = 0, as beta is a unit: axiom 3 implies the
        entry condition.  Conversely the condition makes it zero for all
        b, c, and also identity 6, whose sides differ by
        w (beta^-3 - beta^-1) f(b,c) c.
      - Identity 1: with (beta^2 - 1) f = 0,
        (a^b)^c - (a^(c_b))^(b^c) = -E b^c, where
        E = (alpha^2 - 1) f(a,b) + alpha f(a,c) s(b,c) + f(a,c) f(b,c) f(c,c).
        By the rule D is 0 for m >= 3, 0 or n/2 for m = 2 and 6D = 0 for
        m = 1.
          - D = 0: alpha = beta^-1, so alpha^2 - 1 is a unit times
            1 - beta^2 and kills f, and A is alternating, so s = 0 and
            f(c,c) = 0.  E = 0.
          - m = 1: f(x,y) = D x y and b^c = u b with u = alpha + D c^2,
            so E b^c = D a b^2 u (u^2 - 1), zero as 6 divides u^3 - u.
          - m = 2, D = n/2: n is even, so alpha and beta^-1 are odd and
            D = beta^-1 - alpha is even: 4 divides n, so 2D = D^2 = 0.
            Then alpha^2 = beta^-2, so (alpha^2 - 1) f = 0; A + A^t is D
            off the diagonal and 0 on it, so s(b,c) = D (b_1 c_2 + b_2 c_1);
            and f(c,c) = D q(c) with q(c) = c_1^2 - c_1 c_2 + c_2^2.  So
            E = D e with e = f(a,c) (alpha (b_1 c_2 + b_2 c_1) + f(b,c) q(c)),
            and E b^c = 0 iff e b^c is even.  Mod 2, alpha = 1 and
            A = [[0,t],[t,0]], as D is even and A_12 + A_21 = -D, so this
            is a finite check over a, b, c in (Z_2)^2 and t in {0, 1},
            and it passes: e is even.  With sigma = b_1 c_2 + b_2 c_1,
            f(b,c) = t sigma and e = f(a,c) sigma (1 + t q(c)) mod 2;
            f(a,c) = 0 if t = 0, and 1 + q(c) is odd only at c = 0, where
            f(a,c) = 0.
      - Identity 4 is identity 1 for the barred operations, that is with
        (alpha^-1, w f, beta^-1) in place of (alpha, f, beta); the entry
        condition gives (beta^-2 - 1) w f = 0, as the computation needs.
        The three cases carry over: for D = 0, alpha^-1 = beta and w f is
        alternating; for m = 1, w f(x,y) = w D x y and u = alpha^-1 + w D c^2;
        for D = n/2, (alpha^-2 - 1) w f = (beta^2 - 1) w f = 0, and w and
        alpha^-1 are odd for even n, so E = w^2 D e with e the same mod 2.
    """
    return _bilinear_axiom4(n, m, alpha, beta, A) and all(
        _entry_admissible(beta, x, n) for row in A for x in row
    )


def _build_tables(n: int, m: int, alpha: int, beta: int, A) -> FiniteBiquandle:
    """The four operation tables of the bilinear structure on (Z_n)^m:

        x^y    = alpha x + f(x,y) y        x_y    = beta x
        x^ybar = alpha^-1 x + w f(x,y) y   x_ybar = beta^-1 x

    with f(x,y) = x A y^t and w = omega(alpha, beta, n).  The symplectic
    quandle is the case alpha = beta = 1, where w = -1.  No axiom check.

    Works on carrier indices.  The carrier is in lexicographic order, so
    the index of x reads its coordinates as base-n digits, and the tables
    of sums, multiples and f are built one coordinate at a time.
    """
    alpha_inv = inv_scalar(alpha, n)
    beta_inv = inv_scalar(beta, n)
    w = omega(alpha, beta, n)
    carrier = enumerate_module(n, m)
    digits = range(n)
    add = [[0]]  # add[i][j] = index of x_i + x_j
    scale = [[0] for _ in digits]  # scale[c][j] = index of c x_j
    form = [[0] * len(carrier)]  # form[i][j] = f(x_i, x_j) = sum over k of x_ik f(e_k, x_j)
    for k in range(m):
        add = [[v * n + (d + e) % n for v in row for e in digits] for row in add for d in digits]
        scale = [[v * n + c * e % n for v in row for e in digits] for c, row in enumerate(scale)]
        f_k = [0]  # f(e_k, x_j)
        for a in A[k]:
            f_k = [(v + a * e) % n for v in f_k for e in digits]
        form = [[(u + d * v) % n for u, v in zip(row, f_k)] for row in form for d in digits]
    mult = list(zip(*scale))  # mult[j][c] = index of c x_j
    wmult = [[col[w * c % n] for c in digits] for col in mult]
    up = [[add[ax][col[f]] for col, f in zip(mult, fx)] for ax, fx in zip(scale[alpha], form)]
    upbar = [
        [add[ax][col[f]] for col, f in zip(wmult, fx)] for ax, fx in zip(scale[alpha_inv], form)
    ]
    low = [[j] * len(carrier) for j in scale[beta]]
    lowbar = [[j] * len(carrier) for j in scale[beta_inv]]
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
    labels = [str(e + 1) for e in range(bq.size)]
    lines = [str(bq.size)]
    for left, right in ((bq.upbar, bq.up), (bq.lowbar, bq.low)):
        for l_row, r_row in zip(left, right):
            lines.append(" ".join(map(labels.__getitem__, chain(l_row, r_row))))
    return "\n".join(lines) + "\n"


def _parse_row(ln: str, size: int) -> list[int]:
    """One matrix row's tokens as int() reads them, checked and shifted
    to 0-indexed; each fault raises its ParseError."""
    try:
        row = list(map(int, ln.split()))
    except ValueError as exc:
        raise ParseError(f"non-integer entry in {ln!r}") from exc
    if len(row) != 2 * size:
        raise ParseError(f"row {ln!r} has {len(row)} entries, expected {2 * size}")
    if min(row) < 1 or max(row) > size:
        raise ParseError(f"entry outside [1, {size}] in {ln!r}")
    return list(map(sub, row, repeat(1)))


def block_matrix_decode(text: str) -> FiniteBiquandle:
    """Inverse of block_matrix_encode; carrier becomes 0..N-1.

    The size line N is checked against carrier_bound() before any row is
    parsed, and CapacityExceeded raised above it.

    Each row's tokens go through one lookup {"1": 0, ..., "N": N-1},
    which parses, shifts and range-checks them in one C pass.  A row the
    lookup refuses (a token such as "01", "+1" or "x", an entry outside
    [1, N], or a wrong entry count) is parsed again token by token with
    int(), which accepts what int() accepts and raises the row's
    ParseError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix text")
    try:
        size = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"bad size line {lines[0]!r}") from exc
    if size > carrier_bound():
        raise CapacityExceeded(f"matrix has {size} elements, above bound {carrier_bound()}")
    if size < 1 or len(lines) != 1 + 2 * size:
        raise ParseError(f"expected {2 * size} matrix rows, got {len(lines) - 1}")
    labels = {str(k + 1): k for k in range(size)}
    rows = []
    for ln in lines[1:]:
        try:
            row = list(map(labels.__getitem__, ln.split()))
        except KeyError:  # a token that is not a label 1..N as encode writes it
            row = None
        if row is None or len(row) != 2 * size:
            row = _parse_row(ln, size)
        rows.append(row)
    upbar = [rows[i][:size] for i in range(size)]
    up = [rows[i][size:] for i in range(size)]
    lowbar = [rows[size + i][:size] for i in range(size)]
    low = [rows[size + i][size:] for i in range(size)]
    return FiniteBiquandle(range(size), up, upbar, low, lowbar)
