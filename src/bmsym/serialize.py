"""Canonical JSON for every object the command line reads or writes.

Validates each input once, by the reader for its shape (``_require_list``
for every array, ``vector_from_obj`` for every rational array, naming
Python's limit on an integer literal's digits, ``sigma_from_obj`` for
``--sigma``), raising MalformedInput, and the constructors add the
algebraic conditions.  Trusts: a parsed matrix holds the ``Fraction``s
its reader built, so it is built with ``_unchecked``.

Writes deterministically: keys in insertion order, compact separators,
floats as '%.17g', other scalars through ``json.dumps``, and each rational
through ``_rational_to_str`` as ``str(Fraction)``, written in full.

Imports ``errors`` and ``matrix``; the group, classifier and Lie records
inside the functions that use them, so a subcommand loads only its layer.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .errors import MalformedInput
from .matrix import RationalMatrix, _unchecked

TYPE_CHECKING = False  # true to a type checker; the run time imports no typing
if TYPE_CHECKING:
    from .affine import AffineSymmetry
    from .classify import OracleReport
    from .group import Permutation, ScaledPerm
    from .lie import DiagonalGroupElement, TracelessDiagonal

_RATIONAL = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text) -> Fraction:
    if isinstance(text, bool):
        raise MalformedInput(f"expected a rational string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    m = _RATIONAL.match(text) if isinstance(text, str) else None
    if m is None:
        raise MalformedInput(f"not a rational literal: {text!r}")
    return Fraction(int(m[1]), int(m[2] or 1))


def parse_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedInput(f"expected a number, got {value!r}")
    result = float(value)
    if not math.isfinite(result):
        raise MalformedInput(f"non-finite value {value!r}")
    return result


def canonical_dumps(obj) -> str:
    """Compact deterministic JSON; dict keys keep insertion order."""
    if isinstance(obj, float):
        # '%.17g' keeps round-trips exact and output stable
        if not math.isfinite(obj):
            raise MalformedInput(f"non-finite value {obj!r} cannot be serialized")
        text = format(obj, ".17g")
        return text if ("." in text or "e" in text) else text + ".0"
    if isinstance(obj, (str, int)) or obj is None:  # bool is an int
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(canonical_dumps, obj)) + "]"
    if isinstance(obj, dict):
        parts = []
        for key, item in obj.items():
            if not isinstance(key, str):
                raise MalformedInput(f"non-string key {key!r}")
            parts.append(json.dumps(key) + ":" + canonical_dumps(item))
        return "{" + ",".join(parts) + "}"
    raise MalformedInput(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc


def _require_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise MalformedInput(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _require_list(obj, what: str, n: int | None = None) -> list:
    """``obj`` when it is a JSON array, of length ``n`` when ``n`` is given."""
    if not isinstance(obj, list):
        raise MalformedInput(f"{what} must be a JSON array, got {type(obj).__name__}")
    if n is not None and len(obj) != n:
        raise MalformedInput(f"{what} has length {len(obj)}, expected {n}")
    return obj


def _require_n(obj: dict, default=None) -> int:
    n = obj.get("n", default)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MalformedInput(f'"n" must be a positive integer, got {n!r}')
    return n


def permutation_from_obj(obj, n: int) -> Permutation:
    from .group import Permutation

    image = tuple(_require_list(obj, '"sigma"', n))
    try:
        return Permutation(image)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(str(exc)) from exc


def sigma_from_obj(obj, n: int) -> Permutation:
    """A bare one-line array, or an object with a "sigma" key and an optional "n"."""
    if isinstance(obj, dict):
        return permutation_from_obj(obj.get("sigma"), _require_n(obj, n))
    return permutation_from_obj(obj, n)


def element_to_obj(element: AffineSymmetry | ScaledPerm) -> dict:
    from .affine import AffineSymmetry
    from .group import ScaledPerm

    if isinstance(element, ScaledPerm):
        element = AffineSymmetry.linear_only(element)
    linear = element.linear
    return {
        "n": linear.n,
        "sigma": list(linear.sigma.image),
        "scale": vector_to_obj(linear.scale),
        "translation": vector_to_obj(element.translation),
    }


def element_from_obj(obj) -> AffineSymmetry:
    from .affine import AffineSymmetry
    from .group import ScaledPerm

    obj = _require_dict(obj, "element")
    n = _require_n(obj)
    sigma = permutation_from_obj(obj.get("sigma"), n)
    scale = vector_from_obj(obj.get("scale"), '"scale"', n)
    translation = vector_from_obj(obj.get("translation", [0] * n), '"translation"', n)
    try:
        return AffineSymmetry(ScaledPerm(sigma, scale), translation)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def matrix_from_obj(obj) -> RationalMatrix:
    obj = _require_dict(obj, "matrix")
    n = _require_n(obj)
    rows = tuple(
        vector_from_obj(row, "matrix row", n) for row in _require_list(obj.get("rows"), '"rows"', n)
    )
    return _unchecked(RationalMatrix, n, rows)


def _rational_to_str(value: Fraction) -> str:
    """``str(value)``, written in full."""
    try:
        return str(value)
    except ValueError:  # past Python's int-to-str limit, which Decimal does not apply
        from decimal import Decimal

        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}".removesuffix("/1")


def vector_to_obj(vector) -> list:
    return [_rational_to_str(v) for v in vector]


def vector_from_obj(obj, what: str = "vector", n: int | None = None) -> tuple[Fraction, ...]:
    """The exact values of a non-empty rational array, of length ``n`` if given."""
    values = _require_list(obj, what, n)
    if not values:
        raise MalformedInput(f"{what} must not be empty")
    try:
        return tuple(parse_rational(v) for v in values)
    except MalformedInput:
        raise
    except ValueError as exc:  # int() past Python's int-from-str limit
        limit = sys.get_int_max_str_digits()
        raise MalformedInput(f"{what} has an integer of more than {limit} digits") from exc


def _diagonal_from_obj(obj, what: str, key: str, cls):
    """A ``cls`` of the finite numbers under ``key``, an array of length "n"."""
    obj = _require_dict(obj, what)
    values = _require_list(obj.get(key), f'"{key}"', _require_n(obj))
    try:
        return cls(tuple(parse_number(v) for v in values))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def diag_to_obj(element: DiagonalGroupElement) -> dict:
    return {"n": element.n, "diag": [float(v) for v in element.diag]}


def diag_from_obj(obj) -> DiagonalGroupElement:
    from .lie import DiagonalGroupElement

    return _diagonal_from_obj(obj, "group element", "diag", DiagonalGroupElement)


def tdiag_to_obj(element: TracelessDiagonal) -> dict:
    return {"n": element.n, "tdiag": [float(v) for v in element.diag]}


def tdiag_from_obj(obj) -> TracelessDiagonal:
    from .lie import TracelessDiagonal

    return _diagonal_from_obj(obj, "algebra element", "tdiag", TracelessDiagonal)


def witness_to_obj(witness) -> dict:
    from .classify import DegenerateTuple, PermanentMismatch

    if isinstance(witness, DegenerateTuple):
        return {
            "kind": "degenerate_tuple",
            "tuple": list(witness.indices),
            "product": _rational_to_str(witness.product),
        }
    if isinstance(witness, PermanentMismatch):
        return {"kind": "permanent", "value": _rational_to_str(witness.value)}
    raise MalformedInput(f"unknown witness type {type(witness).__name__}")


def report_to_obj(report, translation=None) -> dict:
    from .classify import Symmetry, Violation

    if isinstance(report, Symmetry):
        out = {
            "verdict": "symmetry",
            "sigma": list(report.sigma.image),
            "scale": vector_to_obj(report.scale),
        }
        if translation is not None:
            out["translation"] = vector_to_obj(translation)
        return out
    if isinstance(report, Violation):
        return {"verdict": "violation", "witness": witness_to_obj(report.witness)}
    raise MalformedInput(f"unknown report type {type(report).__name__}")


def oracle_report_to_obj(report: OracleReport) -> dict:
    return {
        "n": report.n,
        "trials": report.trials,
        "positives_passed": report.positives_passed,
        "perturbed_rejected": report.perturbed_rejected,
        "seed": report.seed,
    }
