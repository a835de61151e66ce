"""The benchmark's own checks catch a wrong result and count it as failed.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import itertools
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bmsym import DegenerateTuple, PermanentMismatch, Violation  # noqa: E402


def _classify_ops():
    return {op.kind: op for op in workloads._classify_round(random.Random(7), 0)}


def _tally_with(op, wrong):
    """Run a round of the wrong op beside the untouched one."""
    tally = run.Tally()
    run.run_round([dataclasses.replace(op, call=lambda: wrong), op], tally)
    return tally


def _assert_caught(tally, kind):
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 1, [kind])
    assert len(tally.latencies) == 1  # only the correct one is timed


def test_wrong_verdict_is_counted_as_failed():
    op = _classify_ops()["classify.symmetry.n6"]
    _assert_caught(_tally_with(op, Violation(PermanentMismatch(Fraction(1)))), op.kind)


def test_wrong_symmetry_data_is_counted_as_failed():
    op = _classify_ops()["classify.symmetry.n3"]
    right = op.call()
    wrong = dataclasses.replace(right, translation=tuple(t + 1 for t in right.translation))
    _assert_caught(_tally_with(op, wrong), op.kind)


def test_wrong_witness_is_counted_as_failed():
    ops = _classify_ops()
    op = ops["classify.off_pattern.n8"]
    witness = op.call().witness
    shifted = DegenerateTuple(witness.indices, witness.product * 2)
    _assert_caught(_tally_with(op, Violation(shifted)), op.kind)
    op = ops["classify.permanent.n6"]
    value = op.call().witness.value
    _assert_caught(_tally_with(op, Violation(PermanentMismatch(value + 1))), op.kind)


def test_wrong_group_result_is_counted_as_failed():
    ops = {op.kind: op for op in workloads._group_round(random.Random(7))}
    op = ops["scaled.n8"]
    c, unit, y1, y2, before, after = op.call()
    _assert_caught(_tally_with(op, (c, unit, y1, y2, before, after + 1)), op.kind)


def _cli_cases():
    return {label: (argv, check) for label, argv, check, _ in workloads._cli_cases(random.Random(7))}


def test_wrong_cli_byte_is_counted_as_failed():
    argv, check = _cli_cases()["compose"]
    right = workloads.main_in_process(argv)
    assert check(right)
    for i in range(len(right.stdout)):
        for replacement in ("0", " ", "x"):
            if right.stdout[i] != replacement:
                text = right.stdout[:i] + replacement + right.stdout[i + 1:]
                assert not check(dataclasses.replace(right, stdout=text)), text
    op = workloads.Op("cli.compose", lambda: right, None, check)
    wrong = dataclasses.replace(right, stdout=right.stdout.replace("[", "[ ", 1))
    _assert_caught(_tally_with(op, wrong), "cli.compose")


def test_wrong_cli_exit_code_is_counted_as_failed():
    argv, check = _cli_cases()["lie-log"]
    right = workloads.main_in_process(argv)
    assert check(right)
    assert not check(dataclasses.replace(right, code=1))


def test_known_fault_counts_as_failed_but_keeps_the_run_correct():
    traceback = workloads.CliResult(1, "", "Traceback (most recent call last):\nOverflowError\n")
    fault = workloads.Op("fault.lie-exp", lambda: traceback, None,
                         workloads.check_input_error, known_fault=True)
    tally = run.Tally()
    run.run_round([fault], tally)
    assert (tally.attempted, tally.failed, tally.unexpected, len(tally.latencies)) == (1, 1, [], 0)
    assert workloads.check_input_error(workloads.CliResult(2, "", "error: too large\n"))


def test_first_degenerate_tuple_matches_the_full_scan():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-2, 2)) if rng.random() < 0.5 else Fraction(0)
                 for _ in range(n)] for _ in range(n)]
        expected = next((tuple(j + 1 for j in cols)
                         for cols in itertools.product(range(n), repeat=n)
                         if len(set(cols)) < n and all(rows[i][j] for i, j in enumerate(cols))),
                        None)
        assert ref.first_degenerate_tuple(rows) == expected


def test_canonical_matches_the_documented_shapes():
    assert ref.canonical({"F": 2.0}) == '{"F":2.0}'
    assert ref.canonical({"a": [1, "1/6", 0.1, True, None]}) == '{"a":[1,"1/6",0.10000000000000001,true,null]}'
