"""Exact arithmetic in Z_n and in the free module (Z_n)^m.

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
    if not raw.isdecimal() or int(raw) < 1:
        raise ParseError(f"BBQ_CARRIER_BOUND must be a positive integer, got {raw!r}")
    return int(raw)


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


def bilinear_eval(A: Matrix, x: Vector, y: Vector, n: int) -> int:
    """Evaluate the bilinear form x A y^t mod n."""
    m = len(A)
    if len(x) != m or len(y) != m or any(len(row) != m for row in A):
        raise DimensionMismatch(
            f"form of size {m} applied to vectors of length {len(x)}, {len(y)}"
        )
    total = 0
    for i in range(m):
        xi = x[i]
        if xi:
            row = A[i]
            total += xi * sum(row[j] * y[j] for j in range(m))
    return total % n


def vec_add(x: Vector, y: Vector, n: int) -> Vector:
    return tuple((a + b) % n for a, b in zip(x, y))


def vec_scale(c: int, x: Vector, n: int) -> Vector:
    return tuple((c * a) % n for a in x)


def enumerate_module(n: int, m: int) -> list[Vector]:
    """All n^m vectors of (Z_n)^m in lexicographic order, zero first.

    The order is fixed so element indices in operation tables are
    reproducible across runs.
    """
    if n < 2 or m < 1:
        raise DimensionMismatch(f"need n >= 2 and m >= 1, got ({n}, {m})")
    size = n**m
    if size > carrier_bound():
        raise CapacityExceeded(f"{n}^{m} = {size} exceeds bound {carrier_bound()}")
    return list(itertools.product(range(n), repeat=m))


def submodule_span(vectors, n: int, m: int) -> set[Vector]:
    """Smallest subset containing the input and 0, closed under + and
    scalar multiplication, by breadth-first closure.

    In (Z_n)^m scalar multiples are repeated sums, so closing under
    addition by the generators suffices.
    """
    zero = (0,) * m
    gens = [tuple(v) for v in vectors]
    if any(len(g) != m for g in gens):
        raise DimensionMismatch("span generators have mixed lengths")
    span = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = vec_add(v, g, n)
                if w not in span:
                    span.add(w)
                    nxt.append(w)
        frontier = nxt
    return span
