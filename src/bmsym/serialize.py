"""Canonical JSON for every object the command line reads or writes.

The encoder is deterministic byte for byte: keys appear in the order the
codec inserts them, separators are compact, rationals are lowest-terms
"p" or "p/q" strings, floats go through repr-faithful '%.17g'.  Parsers
reject anything that does not match the documented shapes with
MalformedInput so the CLI can map the whole family to one exit code.
The classifier and Lie record types are imported inside the functions that
use them, so the group subcommands load neither layer.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import MalformedInput
from .group import AffineSymmetry, ScaledPerm
from .matrix import RationalMatrix, as_fraction
from .permutation import Permutation

if TYPE_CHECKING:
    from .classify import OracleReport
    from .lie import DiagonalGroupElement, TracelessDiagonal

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def format_rational(value: Fraction) -> str:
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text) -> Fraction:
    if isinstance(text, bool):
        raise MalformedInput(f"expected a rational string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise MalformedInput(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_float(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise MalformedInput(f"non-finite value {value!r} cannot be serialized")
    return value


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
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
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


def _require_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise MalformedInput(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


def _require_n(obj: dict, default=None) -> int:
    n = obj.get("n", default)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MalformedInput(f'"n" must be a positive integer, got {n!r}')
    return n


def permutation_from_obj(obj, n: int) -> Permutation:
    image = _require_list(obj, '"sigma"')
    if len(image) != n:
        raise MalformedInput(f'"sigma" has length {len(image)}, expected {n}')
    for value in image:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MalformedInput(f'"sigma" entries must be integers, got {value!r}')
    try:
        return Permutation(tuple(image))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def _rational_vector_from_obj(obj, what: str, n: int) -> tuple[Fraction, ...]:
    values = _require_list(obj, what)
    if len(values) != n:
        raise MalformedInput(f"{what} has length {len(values)}, expected {n}")
    return tuple(parse_rational(v) for v in values)


def element_to_obj(element: AffineSymmetry | ScaledPerm) -> dict:
    if isinstance(element, ScaledPerm):
        element = AffineSymmetry.linear_only(element)
    linear = element.linear
    return {
        "n": linear.n,
        "sigma": list(linear.sigma.image),
        "scale": [format_rational(a) for a in linear.scale],
        "translation": [format_rational(t) for t in element.translation],
    }


def element_from_obj(obj) -> AffineSymmetry:
    obj = _require_dict(obj, "element")
    n = _require_n(obj)
    sigma = permutation_from_obj(obj.get("sigma"), n)
    scale = _rational_vector_from_obj(obj.get("scale"), '"scale"', n)
    if "translation" in obj:
        translation = _rational_vector_from_obj(obj["translation"], '"translation"', n)
    else:
        translation = (Fraction(0),) * n
    try:
        return AffineSymmetry(ScaledPerm(sigma, scale), translation)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def matrix_to_obj(matrix: RationalMatrix) -> dict:
    return {
        "n": matrix.n,
        "rows": [[format_rational(v) for v in row] for row in matrix.rows],
    }


def matrix_from_obj(obj) -> RationalMatrix:
    obj = _require_dict(obj, "matrix")
    n = _require_n(obj)
    rows = _require_list(obj.get("rows"), '"rows"')
    if len(rows) != n:
        raise MalformedInput(f'"rows" has {len(rows)} rows, expected {n}')
    parsed = []
    for row in rows:
        row = _require_list(row, "matrix row")
        if len(row) != n:
            raise MalformedInput(f"matrix row has length {len(row)}, expected {n}")
        parsed.append(tuple(parse_rational(v) for v in row))
    return RationalMatrix(tuple(parsed))


def vector_to_obj(vector) -> list:
    return [format_rational(v) for v in vector]


def vector_from_obj(obj, what: str = "vector") -> tuple[Fraction, ...]:
    values = _require_list(obj, what)
    if not values:
        raise MalformedInput(f"{what} must not be empty")
    return tuple(parse_rational(v) for v in values)


def diag_to_obj(element: DiagonalGroupElement) -> dict:
    return {"n": element.n, "diag": [format_float(float(v)) for v in element.diag]}


def diag_from_obj(obj) -> DiagonalGroupElement:
    from .lie import DiagonalGroupElement

    obj = _require_dict(obj, "group element")
    n = _require_n(obj)
    values = _require_list(obj.get("diag"), '"diag"')
    if len(values) != n:
        raise MalformedInput(f'"diag" has length {len(values)}, expected {n}')
    try:
        return DiagonalGroupElement(tuple(parse_number(v) for v in values))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def tdiag_to_obj(element: TracelessDiagonal) -> dict:
    return {"n": element.n, "tdiag": [format_float(float(v)) for v in element.diag]}


def tdiag_from_obj(obj) -> TracelessDiagonal:
    from .lie import TracelessDiagonal

    obj = _require_dict(obj, "algebra element")
    n = _require_n(obj)
    values = _require_list(obj.get("tdiag"), '"tdiag"')
    if len(values) != n:
        raise MalformedInput(f'"tdiag" has length {len(values)}, expected {n}')
    try:
        return TracelessDiagonal(tuple(parse_number(v) for v in values))
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


def witness_to_obj(witness) -> dict:
    from .classify import DegenerateTuple, PermanentMismatch

    if isinstance(witness, DegenerateTuple):
        return {
            "kind": "degenerate_tuple",
            "tuple": list(witness.indices),
            "product": format_rational(witness.product),
        }
    if isinstance(witness, PermanentMismatch):
        return {"kind": "permanent", "value": format_rational(witness.value)}
    raise MalformedInput(f"unknown witness type {type(witness).__name__}")


def witness_from_obj(obj):
    from .classify import DegenerateTuple, PermanentMismatch

    obj = _require_dict(obj, "witness")
    kind = obj.get("kind")
    if kind == "degenerate_tuple":
        indices = _require_list(obj.get("tuple"), '"tuple"')
        for value in indices:
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise MalformedInput(f'"tuple" entries must be positive integers, got {value!r}')
        return DegenerateTuple(tuple(indices), parse_rational(obj.get("product")))
    if kind == "permanent":
        return PermanentMismatch(parse_rational(obj.get("value")))
    raise MalformedInput(f'unknown witness kind {kind!r}')


def report_to_obj(report, translation=None) -> dict:
    from .classify import Symmetry, Violation

    if isinstance(report, Symmetry):
        out = {
            "verdict": "symmetry",
            "sigma": list(report.sigma.image),
            "scale": [format_rational(a) for a in report.scale],
        }
        if translation is not None:
            out["translation"] = [format_rational(t) for t in translation]
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
