"""Command-line front end with JSON input/output and stable exit codes.

Exit codes: 0 success or positive verdict, 1 negative verdict (violation,
non-membership, failed oracle), 2 usage or input error, 3 dimension cap
exceeded.  Every flag that names an input accepts either a file path or
inline JSON (recognized by a leading "{" or "[").  The single JSON result
document goes to stdout (or --output); diagnostics go to stderr.  Each
handler imports the layers it runs, so a call loads only those.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DEFAULT_MAX_N, DimensionCapExceeded, MalformedInput
from .serialize import (
    canonical_dumps,
    diag_from_obj,
    diag_to_obj,
    element_from_obj,
    element_to_obj,
    loads,
    matrix_from_obj,
    oracle_report_to_obj,
    report_to_obj,
    sigma_from_obj,
    tdiag_from_obj,
    tdiag_to_obj,
    vector_from_obj,
    vector_to_obj,
)


def _load(value: str):
    """Parse inline JSON, or read and parse the file at the given path."""
    text = value.strip()
    if text.startswith("{") or text.startswith("["):
        return loads(text)
    with open(value, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def _require_lie_n(n: int) -> None:
    if n < 2:
        raise MalformedInput(f"--n must be at least 2, got {n}")


def _cmd_compose(args) -> tuple[object, int]:
    a = element_from_obj(_load(args.a))
    b = element_from_obj(_load(args.b))
    return element_to_obj(a.compose(b)), 0


def _cmd_inverse(args) -> tuple[object, int]:
    element = element_from_obj(_load(args.input))
    return element_to_obj(element.inverse()), 0


def _cmd_apply(args) -> tuple[object, int]:
    element = element_from_obj(_load(args.input))
    point = vector_from_obj(_load(args.y), "--y")
    return vector_to_obj(element.apply(point)), 0


def _cmd_metric(args) -> tuple[object, int]:
    from .group import metric

    point = vector_from_obj(_load(args.y), "--y")
    return {"F": metric(point)}, 0


def _cmd_classify(args) -> tuple[object, int]:
    from .classify import Symmetry, invariance_system_check

    matrix = matrix_from_obj(_load(args.matrix))
    translation = None if args.y is None else vector_from_obj(_load(args.y), "--y", matrix.n)
    report = invariance_system_check(matrix, max_n=args.max_n)
    payload = report_to_obj(report, translation)
    return payload, 0 if isinstance(report, Symmetry) else 1


def _cmd_membership(args) -> tuple[object, int]:
    from .classify import membership_test

    matrix = matrix_from_obj(_load(args.matrix))
    sigma = sigma_from_obj(_load(args.sigma), matrix.n)
    member = membership_test(matrix, sigma)
    return {"member": member}, 0 if member else 1


def _cmd_oracle(args) -> tuple[object, int]:
    from .classify import theorem_oracle

    report = theorem_oracle(args.n, args.trials, args.seed, max_n=args.max_n)
    return oracle_report_to_obj(report), 0 if report.all_passed() else 1


def _cmd_lie_exp(args) -> tuple[object, int]:
    from .lie import lie_exp

    return diag_to_obj(lie_exp(tdiag_from_obj(_load(args.input)))), 0


def _cmd_lie_log(args) -> tuple[object, int]:
    from .lie import lie_log

    return tdiag_to_obj(lie_log(diag_from_obj(_load(args.input)))), 0


def _cmd_lie_basis(args) -> tuple[object, int]:
    from .lie import basis

    _require_lie_n(args.n)
    vectors = [basis(args.n, i) for i in range(1, args.n)]
    return {
        "n": args.n,
        "dim": args.n - 1,
        "basis": [[float(v) for v in vector.diag] for vector in vectors],
    }, 0


def _cmd_lie_structure(args) -> tuple[object, int]:
    from .lie import structure_constants

    _require_lie_n(args.n)
    return {"n": args.n, "dim": args.n - 1, "constants": structure_constants(args.n).tolist()}, 0


def _cmd_components(args) -> tuple[object, int]:
    from .lie import component_signature

    element = diag_from_obj(_load(args.input))
    return {"n": element.n, "signs": list(component_signature(element))}, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmsym",
        description="Exact scaled-permutation symmetries of the product-form metric.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON document here instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    p = sub.add_parser("compose", parents=[common], help="compose two elements, left after right")
    p.add_argument("--a", required=True, help="left element, path or inline JSON")
    p.add_argument("--b", required=True, help="right element, path or inline JSON")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("inverse", parents=[common], help="invert an element")
    p.add_argument("--input", required=True, help="element, path or inline JSON")
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("apply", parents=[common], help="apply an element to a point")
    p.add_argument("--input", required=True, help="element, path or inline JSON")
    p.add_argument("--y", required=True, help="rational vector, path or inline JSON")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("metric", parents=[common], help="evaluate the metric at a point")
    p.add_argument("--y", required=True, help="rational vector, path or inline JSON")
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("classify", parents=[common], help="decide whether a matrix is a symmetry")
    p.add_argument("--matrix", required=True, help="square rational matrix, path or inline JSON")
    p.add_argument("--y", help="optional translation vector for the affine map")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n",
                   help="dimension cap (default 8)")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("membership", parents=[common],
                       help="test x @ E_sigma diagonal with unit determinant")
    p.add_argument("--matrix", required=True, help="square rational matrix, path or inline JSON")
    p.add_argument("--sigma", required=True,
                   help="permutation, one-line array or object with a sigma key")
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser("oracle", parents=[common],
                       help="randomized soundness/completeness run of the classifier")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--trials", type=int, default=100, help="trial count (default 100)")
    p.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n",
                   help="dimension cap (default 8)")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("lie-exp", parents=[common], help="componentwise exponential")
    p.add_argument("--input", required=True, help="traceless diagonal, path or inline JSON")
    p.set_defaults(handler=_cmd_lie_exp)

    p = sub.add_parser("lie-log", parents=[common],
                       help="componentwise logarithm on the positive component")
    p.add_argument("--input", required=True, help="diagonal group element, path or inline JSON")
    p.set_defaults(handler=_cmd_lie_log)

    p = sub.add_parser("lie-basis", parents=[common], help="basis of the traceless diagonals")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.set_defaults(handler=_cmd_lie_basis)

    p = sub.add_parser("lie-structure", parents=[common],
                       help="structure constants in the standard basis")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.set_defaults(handler=_cmd_lie_structure)

    p = sub.add_parser("components", parents=[common],
                       help="sign pattern locating an element's connected component")
    p.add_argument("--input", required=True, help="diagonal group element, path or inline JSON")
    p.set_defaults(handler=_cmd_components)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, code = args.handler(args)
        text = canonical_dumps(payload) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except DimensionCapExceeded as exc:
        # must precede ValueError: the cap error is a ValueError subclass
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, OverflowError, RecursionError) as exc:
        # OverflowError: an input value too large for a float; RecursionError:
        # JSON nested too deeply to parse
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code
