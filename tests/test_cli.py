import argparse
import contextlib
import io
import json
import math
import subprocess
import sys

import pytest

import bmsym
from bmsym.cli import _SUBCOMMANDS, build_parser, main
from bmsym.errors import DEFAULT_MAX_N
from bmsym.serialize import canonical_dumps
from helpers import BIG_IDENTITY, ELEMENT_P, ELEMENT_Q, SUBCOMMAND_ARGS, WORKED_MATRIX


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bmsym", *args], capture_output=True, text=True
    )


def test_metric_worked_example():
    result = run_cli("metric", "--y", "[1,2,4]")
    assert result.returncode == 0
    assert result.stdout == '{"F":2.0}\n'
    assert result.stderr == ""


def test_compose_worked_example():
    result = run_cli("compose", "--a", ELEMENT_P, "--b", ELEMENT_Q)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "n": 3,
        "sigma": [1, 3, 2],
        "scale": ["4", "3", "1/12"],
        "translation": ["0", "0", "0"],
    }


def test_inverse():
    result = run_cli("inverse", "--input", ELEMENT_P)
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "n": 3,
        "sigma": [3, 1, 2],
        "scale": ["6", "1/2", "1/3"],
        "translation": ["0", "0", "0"],
    }


def test_apply():
    result = run_cli("apply", "--input", ELEMENT_P, "--y", '["1","2","4"]')
    assert result.returncode == 0
    assert json.loads(result.stdout) == ["4", "12", "1/6"]


def test_classify_symmetry():
    result = run_cli("classify", "--matrix", WORKED_MATRIX)
    assert result.returncode == 0
    assert result.stdout == '{"verdict":"symmetry","sigma":[2,3,1],"scale":["2","3","1/6"]}\n'


def test_classify_with_translation():
    result = run_cli("classify", "--matrix", WORKED_MATRIX, "--y", '["1","0","0"]')
    assert result.returncode == 0
    assert json.loads(result.stdout)["translation"] == ["1", "0", "0"]


def test_classify_violation():
    matrix = '{"n":3,"rows":[["1","1/2","0"],["0","1","0"],["0","0","1"]]}'
    result = run_cli("classify", "--matrix", matrix)
    assert result.returncode == 1
    assert json.loads(result.stdout) == {
        "verdict": "violation",
        "witness": {"kind": "degenerate_tuple", "tuple": [2, 2, 3], "product": "1/2"},
    }


def test_membership_true_false():
    member = run_cli(
        "membership",
        "--matrix", '{"n":3,"rows":[["0","0","6"],["1/2","0","0"],["0","1/3","0"]]}',
        "--sigma", "[2,3,1]",
    )
    assert member.returncode == 0
    assert json.loads(member.stdout) == {"member": True}

    non_member = run_cli(
        "membership",
        "--matrix", '{"n":3,"rows":[["1","0","0"],["0","1","0"],["0","0","1"]]}',
        "--sigma", "[2,1,3]",
    )
    assert non_member.returncode == 1
    assert json.loads(non_member.stdout) == {"member": False}


def test_oracle():
    result = run_cli("oracle", "--n", "3", "--trials", "25", "--seed", "5")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "n": 3,
        "trials": 25,
        "positives_passed": 25,
        "perturbed_rejected": 25,
        "seed": 5,
    }


def test_lie_exp_and_log():
    exp = run_cli("lie-exp", "--input", '{"n":3,"tdiag":[0.6931471805599453,-0.6931471805599453,0.0]}')
    assert exp.returncode == 0
    assert json.loads(exp.stdout) == {"n": 3, "diag": [2.0, 0.5, 1.0]}

    log = run_cli("lie-log", "--input", '{"n":3,"diag":[2.0,0.5,1.0]}')
    assert log.returncode == 0
    parsed = json.loads(log.stdout)
    assert abs(parsed["tdiag"][0] - 0.6931471805599453) < 1e-15


TOLERANCE_EDGE = [
    ("lie-exp", '{"n":2,"tdiag":[1e-12,0.0]}', "diag", math.exp(1e-12), bmsym.DiagonalGroupElement),
    ("lie-log", '{"n":2,"diag":[10.0,0.10000000000009998]}', "tdiag", math.log(10.0),
     bmsym.TracelessDiagonal),
]


@pytest.mark.parametrize("subcommand, document, key, first, constructor", TOLERANCE_EDGE)
def test_exp_and_log_at_the_tolerance_edge(subcommand, document, key, first, constructor):
    # exp or log of every entry put the product or trace just past TOLERANCE
    result = run_cli(subcommand, "--input", document)
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.count("\n") == 1
    entries = json.loads(result.stdout)[key]
    assert entries[0] == first
    constructor(tuple(entries))


def test_lie_basis():
    result = run_cli("lie-basis", "--n", "3")
    assert result.returncode == 0
    assert json.loads(result.stdout) == {
        "n": 3,
        "dim": 2,
        "basis": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0]],
    }


def test_lie_structure():
    result = run_cli("lie-structure", "--n", "4")
    assert result.returncode == 0
    constants = json.loads(result.stdout)
    assert constants == {"n": 4, "dim": 3, "constants": [[[0.0] * 3] * 3] * 3}


def test_components():
    result = run_cli("components", "--input", '{"n":3,"diag":[-2.0,-0.5,1.0]}')
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"n": 3, "signs": [-1, -1, 1]}


# group-law results are written in full, though Python's int-to-str limit
# (4300 digits) is below their size; every input literal is under it
TEN_3000 = "1" + "0" * 3000
WIDE = json.dumps({"n": 2, "sigma": [1, 2], "scale": [TEN_3000, "1/" + TEN_3000]})
SHIFTED = json.dumps(
    {"n": 2, "sigma": [1, 2], "scale": ["1/" + TEN_3000, TEN_3000], "translation": [TEN_3000, "0"]}
)
WIDE_RESULTS = {
    "compose": (
        ["--a", WIDE, "--b", WIDE],
        {"n": 2, "sigma": [1, 2], "scale": ["1" + "0" * 6000, "1/1" + "0" * 6000],
         "translation": ["0", "0"]},
    ),
    "inverse": (
        ["--input", SHIFTED],
        {"n": 2, "sigma": [1, 2], "scale": [TEN_3000, "1/" + TEN_3000],
         "translation": ["-1" + "0" * 6000, "0"]},
    ),
    "apply": (
        ["--input", SHIFTED, "--y", json.dumps(["7" * 3001, "3" * 3001])],
        ["1" + "0" * 2999 + "7" * 3001 + "/" + TEN_3000, "3" * 3001 + "0" * 3000],
    ),
}


@pytest.mark.parametrize("subcommand", WIDE_RESULTS)
def test_group_law_results_past_the_digit_limit_are_written_in_full(subcommand):
    args, expected = WIDE_RESULTS[subcommand]
    result = run_cli(subcommand, *args)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == canonical_dumps(expected) + "\n"


# a 2 x 2 matrix of 10^3000 entries: a witness of 6,001 digits, written in full
WIDE_WITNESSES = {
    "degenerate_tuple": (
        [[TEN_3000, TEN_3000], [TEN_3000, TEN_3000]],
        {"kind": "degenerate_tuple", "tuple": [1, 1], "product": "1" + "0" * 6000},
    ),
    "permanent": (
        [[TEN_3000, "0"], ["0", TEN_3000]],
        {"kind": "permanent", "value": "1" + "0" * 6000},
    ),
}


@pytest.mark.parametrize("kind", WIDE_WITNESSES)
def test_witnesses_past_the_digit_limit_are_written_in_full(kind):
    rows, witness = WIDE_WITNESSES[kind]
    result = run_cli("classify", "--matrix", json.dumps({"n": 2, "rows": rows}))
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout == canonical_dumps({"verdict": "violation", "witness": witness}) + "\n"


def test_a_literal_past_the_digit_limit_is_exit_2():
    limit = sys.get_int_max_str_digits()
    result = run_cli("apply", "--input", ELEMENT_P, "--y", json.dumps(["1" * (limit + 1), "1", "1"]))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: --y has an integer of more than {limit} digits\n"


# exit codes 2 and 3


def test_malformed_json_is_exit_2():
    result = run_cli("classify", "--matrix", '{"n":3,"rows":"nope"}')
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error" in result.stderr


def test_unit_product_below_the_float_range_is_exit_2():
    result = run_cli("components", "--input", '{"n":3,"diag":[1e-200,1e-200,1.0]}')
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: entry product is below the float range, expected 1\n"


def test_missing_file_is_exit_2():
    result = run_cli("classify", "--matrix", "no_such_file.json")
    assert result.returncode == 2
    assert result.stdout == ""


def test_cap_exceeded_is_exit_3():
    result = run_cli("classify", "--matrix", BIG_IDENTITY)
    assert result.returncode == 3
    assert result.stdout == ""


def test_cap_can_be_raised():
    result = run_cli("classify", "--matrix", BIG_IDENTITY, "--max-n", "9")
    assert result.returncode == 0
    result = run_cli("oracle", "--n", "9", "--trials", "5", "--max-n", "9")
    assert (result.returncode, result.stderr) == (0, "")


def test_the_cap_is_checked_before_the_trial_count():
    result = run_cli("oracle", "--n", "9", "--trials", "0")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "error: dimension 9 exceeds the dimension cap 8\n"


def test_usage_error_is_exit_2():
    assert run_cli("classify").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli().returncode == 2


def test_negative_radicand_is_exit_2():
    result = run_cli("metric", "--y", "[-1,1,1,1]")
    assert result.returncode == 2
    assert result.stdout == ""


def test_log_off_component_is_exit_2():
    result = run_cli("lie-log", "--input", '{"n":3,"diag":[-1.0,-1.0,1.0]}')
    assert result.returncode == 2


def _assert_one_line_input_error(result):
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


def test_exp_overflow_is_exit_2():
    result = run_cli("lie-exp", "--input", '{"n":2,"tdiag":[800.0,-800.0]}')
    _assert_one_line_input_error(result)
    assert result.stderr == "error: entry 1 is above the float range\n"
    _assert_one_line_input_error(run_cli("lie-exp", "--input", '{"n":2,"tdiag":[-800.0,800.0]}'))


@pytest.mark.parametrize("tdiag, shown", [
    ("[1e308,1e308,-1e308]", "1e+308"),
    ("[1e308,1e308,1e308]", "beyond the float range"),
])
def test_trace_past_the_float_sum_is_a_short_line(tdiag, shown):
    result = run_cli("lie-exp", "--input", f'{{"n":3,"tdiag":{tdiag}}}')
    _assert_one_line_input_error(result)
    assert len(result.stderr.encode()) < 120
    assert result.stderr == f"error: trace is {shown}, expected 0\n"


@pytest.mark.parametrize("argv, line", [
    (["lie-exp", "--input", '{"n":2,"tdiag":["1","-1"]}'], "error: expected a number, got '1'"),
    # Python's json reads NaN and Infinity
    (["lie-log", "--input", '{"n":2,"diag":[NaN,1.0]}'], "error: non-finite value nan"),
])
def test_a_float_entry_must_be_a_finite_json_number(argv, line, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_metric_beyond_float_range_is_exit_2():
    _assert_one_line_input_error(run_cli("metric", "--y", json.dumps(["1" + "0" * 399, "1"])))


def test_metric_names_the_coordinate_above_the_float_range():
    result = run_cli("metric", "--y", json.dumps(["1" + "0" * 400, "1"]))
    _assert_one_line_input_error(result)
    assert result.stderr == "error: coordinate 1 is above the float range\n"


def test_metric_below_float_range_is_exit_2():
    result = run_cli("metric", "--y", json.dumps(["1/1" + "0" * 340, "1"]))
    _assert_one_line_input_error(result)
    assert "below the float range" in result.stderr


def test_metric_of_a_product_beyond_float_range_in_process(capsys):
    # the float products are inf and 0.0; the roots 1e200 and 1e-200 are not
    for coordinate, root in ((str(10**200), 1e200), (f"1/{10**200}", 1e-200)):
        assert main(["metric", "--y", json.dumps([coordinate, coordinate])]) == 0
        captured = capsys.readouterr()
        assert captured.out == canonical_dumps({"F": root}) + "\n"
        assert captured.err == ""


def test_deeply_nested_json_is_exit_2(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    _assert_one_line_input_error(run_cli("classify", "--matrix", str(deep)))


def test_import_bmsym_loads_no_submodule():
    code = "import sys, bmsym; print(*sorted(m for m in sys.modules if m.startswith('bmsym')))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "bmsym\n"


def test_star_import_yields_every_public_name():
    namespace = {}
    exec("from bmsym import *", namespace)
    assert set(bmsym.__all__) <= namespace.keys()
    assert set(bmsym.__all__) <= set(dir(bmsym))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bmsym.no_such_name
    assert not hasattr(bmsym, "no_such_name")


def test_file_inputs_and_output(tmp_path):
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(WORKED_MATRIX)
    out_file = tmp_path / "out.json"
    result = run_cli("classify", "--matrix", str(matrix_file), "--output", str(out_file))
    assert result.returncode == 0
    assert result.stdout == ""
    assert out_file.read_text() == '{"verdict":"symmetry","sigma":[2,3,1],"scale":["2","3","1/6"]}\n'


def test_emitted_elements_reparse_canonically():
    # parse-print round trip: output re-serializes to the same bytes
    result = run_cli("compose", "--a", ELEMENT_P, "--b", ELEMENT_Q)
    assert canonical_dumps(json.loads(result.stdout)) + "\n" == result.stdout


def test_main_callable_in_process(capsys):
    code = main(["metric", "--y", "[1,2,4]"])
    assert code == 0
    assert capsys.readouterr().out == '{"F":2.0}\n'


def test_main_in_process_exit_codes(capsys):
    assert main(["classify", "--matrix", BIG_IDENTITY]) == 3
    assert main(["metric", "--y", "bad"]) == 2
    assert main(["oracle", "--n", "2", "--trials", "3"]) == 0
    capsys.readouterr()


# The subcommand table, checked through the parser it builds, not through
# help text, which argparse formats differently across Python versions.
REQUIRED_FLAGS = {
    "compose": ("--a", "--b"),
    "inverse": ("--input",),
    "apply": ("--input", "--y"),
    "metric": ("--y",),
    "classify": ("--matrix",),
    "membership": ("--matrix", "--sigma"),
    "oracle": ("--n",),
    "lie-exp": ("--input",),
    "lie-log": ("--input",),
    "lie-basis": ("--n",),
    "lie-structure": ("--n",),
    "components": ("--input",),
}
DEFAULTS = {
    "classify": {"y": None, "max_n": DEFAULT_MAX_N},
    "oracle": {"trials": 100, "seed": 0, "max_n": DEFAULT_MAX_N},
}


def _without(argv, flag):
    """argv with ``flag`` and the value after it removed."""
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("subcommand", SUBCOMMAND_ARGS)
def test_each_required_flag_is_named_when_missing(subcommand, capsys):
    assert set(REQUIRED_FLAGS) == set(SUBCOMMAND_ARGS)
    for flag in REQUIRED_FLAGS[subcommand]:
        assert main([subcommand, *_without(SUBCOMMAND_ARGS[subcommand], flag)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: the following arguments are required: {flag}\n"), err


@pytest.mark.parametrize("subcommand", SUBCOMMAND_ARGS)
def test_parser_defaults(subcommand):
    argv = SUBCOMMAND_ARGS[subcommand]
    required = [word for flag in REQUIRED_FLAGS[subcommand]
                for word in argv[argv.index(flag):argv.index(flag) + 2]]
    args = build_parser().parse_args([subcommand, *required])
    defaults = {"subcommand": subcommand, "output": None, **DEFAULTS.get(subcommand, {})}
    dests = {flag[2:] for flag in REQUIRED_FLAGS[subcommand]}
    assert set(vars(args)) == {"handler", *defaults, *dests}
    assert {key: getattr(args, key) for key in defaults} == defaults
    assert callable(args.handler)


def _parsed(parser, argv):
    """The Namespace ``parser`` makes of ``argv``, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def _argv_shapes(subcommand):
    """A valid call, its help, and each kind of usage error, as argv lists."""
    args = SUBCOMMAND_ARGS[subcommand]
    valid = [subcommand, *args]
    shapes = [
        valid,
        [subcommand, "-h"],
        [subcommand, *_without(args, REQUIRED_FLAGS[subcommand][0])],
        [*valid, "--nosuch"],
        [subcommand, f"{args[0]}={args[1]}", *args[2:]],
        [*valid, "--outp", "out.json"],
        [*valid, "extra"],
    ]
    if len(args[0]) > 5:  # an abbreviation of the first flag, such as --inp
        shapes.append([subcommand, args[0][:5], *args[1:]])
    flags = next(row[3] for row in _SUBCOMMANDS if row[0] == subcommand)
    shapes += [[*valid, flag, "x"] for flag, options in flags if options.get("type") is int]
    return shapes


# argv that names no subcommand first builds the whole table either way
UNNAMED_ARGV = [[], ["-h"], ["nosuch"], ["comp"], ["--output", "out.json", "compose"]]


@pytest.mark.parametrize("subcommand", [*SUBCOMMAND_ARGS, None])
def test_the_one_row_parser_parses_like_the_whole_table(subcommand, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # help and usage wrap at the terminal width
    shapes = UNNAMED_ARGV if subcommand is None else _argv_shapes(subcommand)
    for argv in shapes:
        one_row = build_parser(argv[0] if argv else None)
        assert _parsed(one_row, argv) == _parsed(build_parser(), argv), argv


def test_a_call_builds_only_its_own_subparser(monkeypatch, capsys):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    for subcommand, args in SUBCOMMAND_ARGS.items():
        added.clear()
        assert main([subcommand, *args]) == 0
        assert added == [subcommand]
    added.clear()
    assert main(["comp"]) == 2  # no row has that name: the whole table reports it
    assert added == [row[0] for row in _SUBCOMMANDS]
    capsys.readouterr()
