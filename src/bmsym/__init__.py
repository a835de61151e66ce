"""Exact arithmetic for the scaled-permutation symmetries of the
product-form (Berwald-Moor) metric, the diagonal determinant-one Lie
group inside it, and a support-pattern classifier for arbitrary rational
Jacobians.

Public names resolve lazily (PEP 562): ``import bmsym`` loads no
submodule, and the first access to a name imports only the submodule that
defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, keyed to the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "affine": "AffineSymmetry",
        "classify": (
            "DegenerateTuple OracleReport PermanentMismatch Symmetry Violation"
            " classify_affine degenerate_products_zero extract_pattern"
            " invariance_system_check membership_test permanent theorem_oracle"
            " witness_violates"
        ),
        "errors": (
            "DEFAULT_MAX_N DimensionCapExceeded DimensionMismatch MalformedInput"
            " NegativeRadicand NotIdentityComponent NotMonomial NotSquare"
            " TraceNotZero UnitProductViolation ZeroCoordinate ZeroScale"
        ),
        "group": "Permutation ScaledPerm",
        "lie": (
            "DiagonalGroupElement TracelessDiagonal as_scaled_perm basis bracket"
            " chart component_signature dn1_new lie_exp lie_log mu structure_constants"
        ),
        "matrix": "RationalMatrix as_fraction as_vector metric metric_power",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
