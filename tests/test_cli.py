import contextlib
import gc
import io
import json
import math
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import bmsym
import check_cli
from bmsym.cli import _SUBCOMMANDS, _read, build_parser, main
from bmsym.errors import DEFAULT_MAX_N
from bmsym.serialize import canonical_dumps
from check_cli import BIG_IDENTITY, CASES, WORKED_MATRIX
from helpers import SUBCOMMAND_ARGS


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "bmsym", *args], capture_output=True, text=True
    )


def _row_test(name):
    def test():
        assert check_cli.mismatches(name) == []
    return test


# One test per row of tests/check_cli.py, named after the row, so a row that
# replaced a test of one call keeps that test's name.
ROW_TESTS = {f"test_{name}": _row_test(name) for name in CASES}
assert not ROW_TESTS.keys() & globals().keys()
globals().update(ROW_TESTS)


def test_the_stdlib_cli_check_passes_through_a_given_command(monkeypatch, capsys):
    monkeypatch.setattr(check_cli, "CASES", {"metric_worked_example": CASES["metric_worked_example"]})
    assert check_cli.main(["--bmsym", shlex.join([sys.executable, "-m", "bmsym"])]) == 0
    assert capsys.readouterr().out.startswith(f"1 CLI calls through {sys.executable} -m bmsym")


def test_the_stdlib_cli_check_names_a_changed_byte(monkeypatch, capsys):
    argv, code, stdout, stderr = CASES["exp_overflow_is_exit_2"]
    changed = stderr.replace("entry 1", "entry 2")
    monkeypatch.setattr(check_cli, "CASES", {"exp_overflow_is_exit_2": (argv, code, stdout, changed)})
    assert check_cli.main([]) == 1
    assert capsys.readouterr().out.startswith(
        "mismatch in exp_overflow_is_exit_2: stderr at byte 13: "
        "b'error: entry 1 is above the float' != b'error: entry 2 is above the float'\n"
    )


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


def test_usage_error_is_exit_2():
    # argparse words its messages differently across Python versions, so the
    # first line and the choice error are matched, not whole
    missing = run_cli("classify")
    assert (missing.returncode, missing.stdout) == (2, "")
    assert missing.stderr.startswith("usage: bmsym classify"), missing.stderr
    unknown = run_cli("nosuch")
    assert (unknown.returncode, unknown.stdout) == (2, "")
    assert "invalid choice" in unknown.stderr, unknown.stderr
    assert run_cli().returncode == 2


def _assert_one_line_input_error(result):
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


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
    # the process ends with its heap frozen, so a file left open would never be
    # finalized by the collector; -X dev reports one that is not closed
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "bmsym",
         "classify", "--matrix", str(matrix_file), "--output", str(out_file)],
        capture_output=True, text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert out_file.read_text() == CASES["classify_symmetry"][2]


def test_emitted_elements_reparse_canonically():
    # parse-print round trip: every pinned result re-serializes to the same bytes
    for argv, code, stdout, stderr in CASES.values():
        if stdout:
            assert canonical_dumps(json.loads(stdout)) + "\n" == stdout, argv[0]


def test_main_callable_in_process(capsys):
    argv, code, stdout, stderr = CASES["metric_worked_example"]
    assert main(argv) == code
    assert capsys.readouterr() == (stdout, stderr)


def test_main_in_process_exit_codes(capsys):
    assert main(["classify", "--matrix", BIG_IDENTITY]) == 3
    assert main(["metric", "--y", "bad"]) == 2
    assert main(["oracle", "--n", "2", "--trials", "3"]) == 0
    capsys.readouterr()


def test_out_of_memory_is_exit_4(monkeypatch, capsys):
    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr("bmsym.lie.structure_constants", exhausted)
    assert main(["lie-structure", "--n", "3"]) == 4
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_main_leaves_the_collector_alone(capsys):
    # tests and the benchmark's traced replay call main in long-lived processes
    frozen = gc.get_freeze_count()
    for argv, code, stdout, stderr in CASES.values():
        assert main(argv) == code, argv[0]
    assert gc.get_freeze_count() == frozen
    capsys.readouterr()


def test_a_bmsym_process_freezes_its_heap_before_it_exits():
    probe = "\n".join([
        "import gc, runpy, sys",
        "sys.argv = ['bmsym', 'metric', '--y', '[1,2,4]']",
        "try:",
        "    runpy.run_module('bmsym', run_name='__main__')",
        "except SystemExit as exc:",
        "    print(exc.code, gc.get_freeze_count() > 0)",
    ])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (result.stdout, result.stderr) == ('{"F":2.0}\n0 True\n', "")


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
    shapes += [[*valid, *args[:2]], [*valid, "--output", "-o"]]  # a repeat; a dash-leading value
    flags = next(row[3] for row in _SUBCOMMANDS if row[0] == subcommand)
    shapes += [[*valid, flag, value] for flag, options in flags if options.get("type") is int
               for value in ("x", "-1")]
    return shapes


# argv that names no subcommand first
UNNAMED_ARGV = [[], ["-h"], ["nosuch"], ["comp"], ["--output", "out.json", "compose"]]


def _reads_like_argparse(argv):
    """The reader reads ``argv`` as argparse does, or leaves it to argparse."""
    read = _read(argv)
    assert read is None or vars(read) == _parsed(build_parser(), argv), argv
    return read


@pytest.mark.parametrize("subcommand", [*SUBCOMMAND_ARGS, None])
def test_the_reader_reads_like_argparse(subcommand):
    if subcommand is None:
        shapes = UNNAMED_ARGV + [argv for argv, *_ in CASES.values()]
    else:
        shapes = _argv_shapes(subcommand)
        assert _reads_like_argparse(shapes[0]) is not None  # the valid call
    for argv in shapes:
        _reads_like_argparse(argv)


ROW_FLAGS = {row[0]: [flag for flag, _ in row[3]] + ["--output"] for row in _SUBCOMMANDS}
ALL_FLAGS = sorted({flag for flags in ROW_FLAGS.values() for flag in flags})
VALUES = st.one_of(
    st.sampled_from(["3", "0", "x", "", " 4 ", "+5", "1_0", "3.0", "\u0663", "[1,2,4]", "a=b"]),
    st.sampled_from(["-1", "-2", "-", "--", "-h", "--y", "-o"]),
    st.text(max_size=3),
)


@st.composite
def argvs(draw):
    """Mostly a valid call, reordered and changed: flags of its own row and of
    others, abbreviations, ``--flag=value``, repeats, a dropped pair, odd values."""
    name = draw(st.sampled_from([*SUBCOMMAND_ARGS, "comp", "-h", ""]))
    args = SUBCOMMAND_ARGS.get(name, [])
    own = st.sampled_from(ROW_FLAGS.get(name, ALL_FLAGS))
    flags = st.one_of(
        own,
        st.sampled_from(ALL_FLAGS),
        st.builds(lambda flag, k: flag[:k], own, st.integers(min_value=2, max_value=6)),
    )
    extra = st.one_of(
        st.tuples(flags, VALUES),
        st.builds(lambda flag, value: (f"{flag}={value}",), own, VALUES),
    )
    pairs = list(zip(args[::2], args[1::2])) + draw(st.lists(extra, max_size=2))
    pairs = draw(st.permutations(pairs))
    if pairs and draw(st.integers(min_value=0, max_value=3)) == 0:
        del pairs[draw(st.integers(min_value=0, max_value=len(pairs) - 1))]
    argv = [name, *(word for pair in pairs for word in pair)]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(argv)))
        argv.insert(at, draw(st.one_of(flags, VALUES)))
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_the_reader_reads_random_argv_like_argparse(argv):
    _reads_like_argparse(argv)


def test_a_plain_call_builds_no_parser(monkeypatch, capsys):
    built = []
    monkeypatch.setattr("bmsym.cli.build_parser", lambda: built.append(True) or build_parser())
    for subcommand, args in SUBCOMMAND_ARGS.items():
        assert main([subcommand, *args]) == 0
    assert built == []
    assert main(["comp"]) == 2  # no row has that name: argparse reports it
    assert built == [True]
    capsys.readouterr()
