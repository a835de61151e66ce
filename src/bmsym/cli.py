"""Command-line front end with JSON input/output and stable exit codes.

Exit codes: 0 success or positive verdict, 1 negative verdict (violation,
non-membership, failed oracle), 2 usage or input error, 3 dimension cap
exceeded, each error with one ``error:`` line on stderr.  An input flag
takes a file path or inline JSON (a leading "{" or "["); the one result
document goes to stdout or --output.

Validates the Lie subcommands' ``--n`` and the one dimension cap, ``--max-n``
(``_require_cap``, of classify and oracle); ``serialize`` reads the rest.
Each subcommand is one row of ``_SUBCOMMANDS``.  A call is a fresh process,
so ``main`` builds only the subparser that argv names first, and the whole
table when there is none, so help and usage errors read the same either
way.  Imports ``argparse``, ``errors`` and ``serialize``; each handler
imports the layers it runs.
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


def _require_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise DimensionCapExceeded(f"dimension {n} exceeds the dimension cap {max_n}")


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
    from .matrix import metric

    point = vector_from_obj(_load(args.y), "--y")
    return {"F": metric(point)}, 0


def _cmd_classify(args) -> tuple[object, int]:
    from .classify import Symmetry, invariance_system_check

    matrix = matrix_from_obj(_load(args.matrix))
    translation = None if args.y is None else vector_from_obj(_load(args.y), "--y", matrix.n)
    _require_cap(matrix.n, args.max_n)
    report = invariance_system_check(matrix)
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

    _require_cap(args.n, args.max_n)
    report = theorem_oracle(args.n, args.trials, args.seed)
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
    vectors = [tdiag_to_obj(basis(args.n, i))["tdiag"] for i in range(1, args.n)]
    return {"n": args.n, "dim": args.n - 1, "basis": vectors}, 0


def _cmd_lie_structure(args) -> tuple[object, int]:
    from .lie import structure_constants

    _require_lie_n(args.n)
    return {"n": args.n, "dim": args.n - 1, "constants": structure_constants(args.n).tolist()}, 0


def _cmd_components(args) -> tuple[object, int]:
    from .lie import component_signature

    element = diag_from_obj(_load(args.input))
    return {"n": element.n, "signs": list(component_signature(element))}, 0


def _json(flag: str, what: str) -> tuple[str, dict]:
    """A required flag naming a JSON input: a file path or inline JSON."""
    return flag, {"required": True, "help": f"{what}, path or inline JSON"}


_ELEMENT = _json("--input", "element")
_VECTOR = _json("--y", "rational vector")
_MATRIX = _json("--matrix", "square rational matrix")
_DIAG = _json("--input", "diagonal group element")
_N = ("--n", {"type": int, "required": True, "help": "dimension"})
_MAX_N = ("--max-n", {"type": int, "default": DEFAULT_MAX_N,
                      "help": "dimension cap (default %(default)s)"})

# One row per subcommand: name, help, handler and its flags after --output.
_SUBCOMMANDS = (
    ("compose", "compose two elements, left after right", _cmd_compose,
     (_json("--a", "left element"), _json("--b", "right element"))),
    ("inverse", "invert an element", _cmd_inverse, (_ELEMENT,)),
    ("apply", "apply an element to a point", _cmd_apply, (_ELEMENT, _VECTOR)),
    ("metric", "evaluate the metric at a point", _cmd_metric, (_VECTOR,)),
    ("classify", "decide whether a matrix is a symmetry", _cmd_classify,
     (_MATRIX, ("--y", {"help": "optional translation vector for the affine map"}), _MAX_N)),
    ("membership", "test x @ E_sigma diagonal with unit determinant", _cmd_membership,
     (_MATRIX, ("--sigma", {"required": True,
                            "help": "permutation, one-line array or object with a sigma key"}))),
    ("oracle", "randomized soundness/completeness run of the classifier", _cmd_oracle,
     (_N, ("--trials", {"type": int, "default": 100, "help": "trial count (default %(default)s)"}),
      ("--seed", {"type": int, "default": 0, "help": "seed (default %(default)s)"}), _MAX_N)),
    ("lie-exp", "componentwise exponential", _cmd_lie_exp,
     (_json("--input", "traceless diagonal"),)),
    ("lie-log", "componentwise logarithm on the positive component", _cmd_lie_log, (_DIAG,)),
    ("lie-basis", "basis of the traceless diagonals", _cmd_lie_basis, (_N,)),
    ("lie-structure", "structure constants in the standard basis", _cmd_lie_structure, (_N,)),
    ("components", "sign pattern locating an element's connected component", _cmd_components,
     (_DIAG,)),
)


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The parser of every row, or of the one row named ``subcommand`` if any is."""
    parser = argparse.ArgumentParser(
        prog="bmsym",
        description="Exact scaled-permutation symmetries of the product-form metric.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    rows = [row for row in _SUBCOMMANDS if row[0] == subcommand] or _SUBCOMMANDS
    for name, help_text, handler, flags in rows:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", help="write the JSON document here instead of stdout")
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a call names its subcommand first, so its parser needs that row alone
        args = build_parser(argv[0] if argv else None).parse_args(argv)
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
