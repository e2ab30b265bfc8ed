"""Finite bilinear biquandles: construction, verification, search, and
link coloring invariants."""

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.  Names and
# submodules resolve on first access (PEP 562), so `import bilbiq` loads
# no submodule, and a process that colors no link never compiles gauss.py
# or invariant.py.
_EXPORTS = {
    "bilinear": "BilinearSpec brute_force_search build_bilinear format_spec is_symplectic"
                " parse_spec search",
    "biquandle": "AxiomReport AxiomViolation FiniteBiquandle alexander_biquandle"
                 " block_matrix_decode block_matrix_encode check_axioms is_quandle omega"
                 " symplectic_quandle",
    "errors": "BilbiqError CapacityExceeded DimensionMismatch IndexOutOfRange InvariantViolation"
              " NotAntisymmetric NotInvertible ParseError ShapeError SignMismatch UnknownLink"
              " UnmatchedCrossing",
    "gauss": "BUILTIN_CODES Crossing CrossingRelation GaussToken LinkDiagram builtin_link"
             " crossing_relations parse_gauss print_gauss",
    "invariant": "BBPolynomial counting_invariant enumerate_colorings phi_bb subbiquandle_closure",
    "modular": "enumerate_module inv_scalar units",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # Importing a submodule binds it in this namespace; an exported name
    # is cached here so later reads skip this hook.
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
