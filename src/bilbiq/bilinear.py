"""Bilinear biquandle structures on (Z_n)^m and the exhaustive search
over constraint-admissible (alpha, beta, A) triples.

A structure is described by a unit pair (alpha, beta) and an m x m form
matrix A with forced diagonal beta^-1 - alpha; the operations are

    x^y    = alpha x + f(x,y) y        x_y    = beta x
    x^ybar = alpha^-1 x + w f(x,y) y   x_ybar = beta^-1 x

with f(x,y) = x A y^t and w = omega(alpha, beta, n).
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field

from .biquandle import FiniteBiquandle, _build_tables, omega, passes_axioms
from .errors import InvariantViolation, ParseError
from .modular import Matrix, inv_scalar, reduce_matrix, units


@dataclass(frozen=True)
class BilinearSpec:
    """The tuple (n, m, alpha, beta, A) with its derived constants."""

    n: int
    m: int
    alpha: int
    beta: int
    matrix: Matrix
    alpha_inv: int = field(init=False, compare=False)
    beta_inv: int = field(init=False, compare=False)
    omega: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", reduce_matrix(self.matrix, self.n))
        if len(self.matrix) != self.m:
            raise InvariantViolation(
                f"form matrix is {len(self.matrix)}x{len(self.matrix)}, expected {self.m}x{self.m}"
            )
        object.__setattr__(self, "alpha_inv", inv_scalar(self.alpha, self.n))
        object.__setattr__(self, "beta_inv", inv_scalar(self.beta, self.n))
        object.__setattr__(self, "omega", omega(self.alpha, self.beta, self.n))

    def validate(self) -> None:
        """Check the structural constraints on the diagonal and entries."""
        n = self.n
        diag = (self.beta_inv - self.alpha) % n
        allowed = set(candidate_entries(self.alpha, self.beta, n))
        for i in range(self.m):
            if self.matrix[i][i] != diag:
                raise InvariantViolation(
                    f"A[{i}][{i}] = {self.matrix[i][i]}, must equal beta^-1 - alpha = {diag}"
                )
            for j in range(self.m):
                if self.matrix[i][j] not in allowed:
                    raise InvariantViolation(
                        f"A[{i}][{j}] = {self.matrix[i][j]} fails the entry conditions"
                    )


def candidate_entries(alpha: int, beta: int, n: int) -> list[int]:
    """Scalars x with alpha(1-beta^2)x = beta(1-beta^2)x = 0 mod n."""
    u = alpha * (1 - beta * beta) % n
    v = beta * (1 - beta * beta) % n
    return [x for x in range(n) if u * x % n == 0 and v * x % n == 0]


def build_bilinear(spec: BilinearSpec) -> FiniteBiquandle:
    """Biquandle tables for a spec satisfying its invariants.

    No axiom check is performed here.
    """
    spec.validate()
    return _build_tables(spec.n, spec.m, spec.alpha, spec.beta, spec.matrix)


def is_symplectic(spec: BilinearSpec) -> bool:
    """alpha = beta = 1 with antisymmetric A."""
    if spec.alpha != 1 or spec.beta != 1:
        return False
    A, n, m = spec.matrix, spec.n, spec.m
    return all((A[i][j] + A[j][i]) % n == 0 for i in range(m) for j in range(m))


def _is_perm_canonical(A: Matrix, m: int) -> bool:
    """True iff A is row-major minimal among simultaneous row/column
    permutations P A P^t (a cheap pre-filter for the congruence dedup)."""
    flat = tuple(itertools.chain.from_iterable(A))
    for perm in itertools.permutations(range(m)):
        if tuple(A[perm[i]][perm[j]] for i in range(m) for j in range(m)) < flat:
            return False
    return True


def _congruent_min(A: Matrix, n: int, m: int) -> Matrix:
    """Row-major minimal representative of {Q A Q^t : Q in GL_m(Z_n)}.

    A basis change of the module carries one accepted structure to
    another with the same alpha, beta; only one representative per
    congruence class is reported.

    The class is the closure of A under Q = I + c e_ij: the transvections
    (i != j, c = 1) and the scalings diag(u, 1, ..., 1) (i = j = 0,
    c = u - 1 for a unit u).  Elementary matrices generate SL_m(Z_n)
    because Z_n is semilocal, and the scalings reach every unit
    determinant, so these generate GL_m(Z_n).
    """
    moves = [(i, j, 1) for i in range(m) for j in range(m) if i != j]
    moves += [(0, 0, u - 1) for u in units(n) if u != 1]
    orbit = {A}
    frontier = [A]
    while frontier:
        B = frontier.pop()
        for i, j, c in moves:
            # Q B Q^t: add c times row j to row i, then column j to column i.
            rows = [list(row) for row in B]
            rows[i] = [(x + c * y) % n for x, y in zip(rows[i], rows[j])]
            for row in rows:
                row[i] = (row[i] + c * row[j]) % n
            C = tuple(tuple(row) for row in rows)
            if C not in orbit:
                orbit.add(C)
                frontier.append(C)
    return min(orbit)


def _search_entries(n, m, alpha, beta, entry_values):
    """Yield accepted specs for one (alpha, beta) pair, off-diagonal
    entries drawn from entry_values in row-major ascending order."""
    diag = (inv_scalar(beta, n) - alpha) % n
    offdiag = [(i, j) for i in range(m) for j in range(m) if i != j]
    for combo in itertools.product(entry_values, repeat=len(offdiag)):
        A = [[diag if i == j else 0 for j in range(m)] for i in range(m)]
        for (i, j), e in zip(offdiag, combo):
            A[i][j] = e
        A = tuple(tuple(row) for row in A)
        if not _is_perm_canonical(A, m):
            continue
        if passes_axioms(_build_tables(n, m, alpha, beta, A)):
            yield BilinearSpec(n, m, alpha, beta, A)


def _dedup_and_sort(found, exclude_symplectic):
    """Drop symplectic structures if asked, reduce each accepted form
    matrix to its congruence-class representative, and order the result
    by (alpha, beta, row-major A)."""
    if exclude_symplectic:
        found = [s for s in found if not is_symplectic(s)]
    reps = {}
    for spec in found:
        A = _congruent_min(spec.matrix, spec.n, spec.m)
        key = (spec.alpha, spec.beta, A)
        if key not in reps:
            reps[key] = BilinearSpec(spec.n, spec.m, spec.alpha, spec.beta, A)
    return [reps[key] for key in sorted(reps)]


def search(n: int, m: int, exclude_symplectic: bool = True) -> list[BilinearSpec]:
    """All bilinear biquandle structures on (Z_n)^m up to module basis
    change, pruned by the admissible-entry conditions, ordered by
    (alpha, beta, row-major A)."""
    found = []
    for alpha in units(n):
        for beta in units(n):
            entries = candidate_entries(alpha, beta, n)
            found.extend(_search_entries(n, m, alpha, beta, entries))
    return _dedup_and_sort(found, exclude_symplectic)


def brute_force_search(n: int, m: int, exclude_symplectic: bool = True) -> list[BilinearSpec]:
    """Same as `search` but with off-diagonal entries ranging over all
    of Z_n; oracle for the entry-condition pruning."""
    found = []
    for alpha in units(n):
        for beta in units(n):
            found.extend(_search_entries(n, m, alpha, beta, range(n)))
    return _dedup_and_sort(found, exclude_symplectic)


def format_spec(spec: BilinearSpec) -> str:
    """Render `n,m,alpha,beta,[[a11,...],...]` with no whitespace."""
    rows = ",".join("[" + ",".join(str(e) for e in row) + "]" for row in spec.matrix)
    return f"{spec.n},{spec.m},{spec.alpha},{spec.beta},[{rows}]"


def parse_spec(text: str) -> BilinearSpec:
    """Parse the spec text form produced by format_spec."""
    parts = text.strip().split(",", 4)
    if len(parts) != 5:
        raise ParseError(f"expected n,m,alpha,beta,[[...]] in {text!r}")
    try:
        n, m, alpha, beta = (int(p) for p in parts[:4])
    except ValueError as exc:
        raise ParseError(f"non-integer field in {text!r}") from exc
    try:
        A = ast.literal_eval(parts[4].strip())
    except (ValueError, SyntaxError) as exc:
        raise ParseError(f"bad matrix literal in {text!r}") from exc
    if not (
        isinstance(A, list)
        and len(A) == m
        and all(isinstance(r, list) and len(r) == m for r in A)
        and all(isinstance(e, int) for r in A for e in r)
    ):
        raise ParseError(f"matrix in {text!r} is not {m}x{m} integer rows")
    if n < 2 or m < 1:
        raise ParseError(f"need n >= 2 and m >= 1 in {text!r}")
    return BilinearSpec(n, m, alpha % n, beta % n, tuple(tuple(r) for r in A))
