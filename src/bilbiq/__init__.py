"""Finite bilinear biquandles: construction, verification, search, and
link coloring invariants."""

from .bilinear import (
    BilinearSpec,
    brute_force_search,
    build_bilinear,
    format_spec,
    is_symplectic,
    parse_spec,
    search,
)
from .biquandle import (
    AxiomReport,
    AxiomViolation,
    FiniteBiquandle,
    alexander_biquandle,
    block_matrix_decode,
    block_matrix_encode,
    check_axioms,
    is_quandle,
    omega,
    symplectic_quandle,
)
from .errors import (
    BilbiqError,
    CapacityExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    InvariantViolation,
    NotAntisymmetric,
    NotInvertible,
    ParseError,
    ShapeError,
    SignMismatch,
    UnknownLink,
    UnmatchedCrossing,
)
from .gauss import (
    BUILTIN_CODES,
    Crossing,
    CrossingRelation,
    GaussToken,
    LinkDiagram,
    builtin_link,
    crossing_relations,
    parse_gauss,
    print_gauss,
)
from .invariant import (
    BBPolynomial,
    counting_invariant,
    enumerate_colorings,
    phi_bb,
    subbiquandle_closure,
)
from .modular import enumerate_module, inv_scalar, units

__version__ = "0.1.0"
