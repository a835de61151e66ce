import json
import math
import subprocess
import sys

import pytest

import bmsym
from bmsym.cli import build_parser, main
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
