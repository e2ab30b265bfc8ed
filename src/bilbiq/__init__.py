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
from .modular import enumerate_module, inv_scalar, units

__version__ = "0.1.0"

# The gauss and invariant names, and those two submodules, resolve on
# first access (PEP 562), so a process that colors no link compiles
# neither gauss.py nor invariant.py.
_LAZY = {
    "gauss": "gauss",
    "BUILTIN_CODES": "gauss",
    "Crossing": "gauss",
    "CrossingRelation": "gauss",
    "GaussToken": "gauss",
    "LinkDiagram": "gauss",
    "builtin_link": "gauss",
    "crossing_relations": "gauss",
    "parse_gauss": "gauss",
    "print_gauss": "gauss",
    "invariant": "invariant",
    "BBPolynomial": "invariant",
    "counting_invariant": "invariant",
    "enumerate_colorings": "invariant",
    "phi_bb": "invariant",
    "subbiquandle_closure": "invariant",
}

__all__ = [
    "BilinearSpec", "brute_force_search", "build_bilinear", "format_spec", "is_symplectic",
    "parse_spec", "search",
    "AxiomReport", "AxiomViolation", "FiniteBiquandle", "alexander_biquandle",
    "block_matrix_decode", "block_matrix_encode", "check_axioms", "is_quandle", "omega",
    "symplectic_quandle",
    "BilbiqError", "CapacityExceeded", "DimensionMismatch", "IndexOutOfRange",
    "InvariantViolation", "NotAntisymmetric", "NotInvertible", "ParseError", "ShapeError",
    "SignMismatch", "UnknownLink", "UnmatchedCrossing",
    "enumerate_module", "inv_scalar", "units",
    *(name for name, module in _LAZY.items() if name != module),
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value
