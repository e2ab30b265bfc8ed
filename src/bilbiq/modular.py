"""Exact arithmetic in Z_n and in the free module (Z_n)^m: units and
inverses, the lexicographic listing of (Z_n)^m, and the size of a
submodule counted by elimination.

Scalars are always stored as canonical representatives in [0, n).
Vectors are plain tuples of ints, matrices are tuples of row tuples;
the modulus n is passed explicitly.
"""

from __future__ import annotations

import itertools
import math
import os

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

from .errors import CapacityExceeded, DimensionMismatch, NotInvertible, ParseError

DEFAULT_CARRIER_BOUND = 10_000


def carrier_bound() -> int:
    """Maximum carrier size; overridable via BBQ_CARRIER_BOUND, which
    must then be a positive integer."""
    raw = os.environ.get("BBQ_CARRIER_BOUND")
    if not raw:
        return DEFAULT_CARRIER_BOUND
    try:
        bound = int(raw) if raw.isdecimal() else 0
    except ValueError:  # int() refuses values past the interpreter's digit limit
        raise ParseError(f"BBQ_CARRIER_BOUND has too many digits ({len(raw)})") from None
    if bound < 1:
        raise ParseError(f"BBQ_CARRIER_BOUND must be a positive integer, got {raw!r}")
    return bound


def inv_scalar(x: int, n: int) -> int:
    """Multiplicative inverse of x mod n, or NotInvertible."""
    if math.gcd(x % n, n) != 1:
        raise NotInvertible(f"{x} is not invertible mod {n}")
    return pow(x, -1, n)


def units(n: int) -> list[int]:
    """All invertible scalars mod n, ascending."""
    if n < 2:
        raise DimensionMismatch(f"modulus must be >= 2, got {n}")
    return [x for x in range(1, n) if math.gcd(x, n) == 1]


def reduce_matrix(entries, n: int) -> Matrix:
    """Square matrix with every entry reduced to [0, n)."""
    rows = tuple(tuple(int(e) % n for e in row) for row in entries)
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise DimensionMismatch(f"matrix is not square: {entries!r}")
    return rows


def check_module(n: int, m: int) -> None:
    """DimensionMismatch unless n >= 2 and m >= 1; CapacityExceeded if
    (Z_n)^m has more than carrier_bound() elements.

    n^m is at least 2^(m k) with k = n.bit_length() - 1.  Once m k
    reaches both the bound's bit length and 1,000, the module is refused
    without working n^m out, and the message leaves it out: a huge m
    ends at once, and no power too long to print is made.
    """
    if n < 2 or m < 1:
        raise DimensionMismatch(f"need n >= 2 and m >= 1, got ({n}, {m})")
    bound = carrier_bound()
    if m * (n.bit_length() - 1) >= max(bound.bit_length(), 1000):
        raise CapacityExceeded(f"{n}^{m} exceeds bound {bound}")
    size = n**m
    if size > bound:
        raise CapacityExceeded(f"{n}^{m} = {size} exceeds bound {bound}")


def enumerate_module(n: int, m: int) -> list[Vector]:
    """All n^m vectors of (Z_n)^m in lexicographic order, zero first,
    checked by check_module first.

    The order is fixed so element indices in operation tables are
    reproducible across runs.
    """
    check_module(n, m)
    return list(itertools.product(range(n), repeat=m))


def span_size(vectors, n: int, m: int) -> int:
    """Size of the submodule of (Z_n)^m that the vectors span, counted
    by elimination without listing it.

    Column j starts a pivot at n*e_j and folds each row into it by
    Euclid steps on coordinate j; a row whose coordinate j reaches 0
    passes on to column j + 1.  Coordinates before j are 0 and
    coordinate j stays below n, so taking the others mod n only adds
    multiples of n*e_k for k > j, each still to come as column k's
    start.  The pivots are then a triangular basis of the lattice L in
    Z^m spanned by the vectors and nZ^m, and

        |Span| = n^m / det L = prod_j n // pivot_j[j].
    """
    rows = [[x % n for x in v] for v in vectors]
    size = 1
    for j in range(m):
        pivot = [n if k == j else 0 for k in range(m)]
        for i, row in enumerate(rows):
            while row[j]:
                q = pivot[j] // row[j]
                pivot, row = row, [(p - q * x) % n for p, x in zip(pivot, row)]
            rows[i] = row
        size *= n // pivot[j]
    return size
