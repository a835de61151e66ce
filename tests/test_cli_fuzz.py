"""In-process fuzzing of ``cli.main`` over JSON inputs of the documented
shapes, filled with extreme values.

Whatever the input, the call ends in exit 0, 1, 2 or 3; stdout is empty
exactly for 2 and 3; stderr holds at most one line and never a traceback.
Most inputs are valid, so the calls reach the arithmetic; the rest put a
wrong value, an empty or a nested array in one slot.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bmsym.cli import main

BIG = 10**400
HUGE = 10**200
EXACT = [1, -1, 2, BIG, -BIG, HUGE, "1/3", "-7/2", str(BIG), f"1/{BIG}", f"-{HUGE}/7", f"1/{HUGE}"]
FLOATS = [1.0, -1.0, 0.5, 2.0, 800.0, -800.0, 1e308, -1e308, 1e-308, 5e-324, 1e200, 1e-200]
JUNK = [0, 0.0, -0.0, -1, 9, "3", "1.5", "", None, True, BIG, 1e308]

exact = st.one_of(st.sampled_from(EXACT), st.integers(min_value=-9, max_value=9))
nonzero = exact.filter(lambda v: Fraction(v) != 0)
floats = st.one_of(st.sampled_from(FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# wrong scalars, empty and nested arrays
junk = st.recursive(st.sampled_from(JUNK), lambda inner: st.lists(inner, max_size=3), max_leaves=4)


def mostly(valid):
    """``valid`` three times in four, junk otherwise."""
    return st.sampled_from([False, False, False, True]).flatmap(lambda bad: junk if bad else valid)


def corrupt(draw, doc: dict) -> dict:
    """``doc`` three times in four, otherwise with one slot replaced by junk."""
    key = draw(st.sampled_from([None] * (3 * len(doc)) + list(doc)))
    return doc if key is None else {**doc, key: draw(junk)}


def rational_text(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def exact_list(n):
    return st.lists(exact, min_size=n, max_size=n)


@st.composite
def unit_scales(draw, n):
    head = draw(st.lists(nonzero, min_size=n - 1, max_size=n - 1))
    return [*head, rational_text(1 / math.prod(map(Fraction, head), start=Fraction(1)))]


@st.composite
def element(draw, n):
    doc = {"n": n, "sigma": draw(st.permutations(range(1, n + 1))), "scale": draw(unit_scales(n))}
    if draw(st.booleans()):
        doc["translation"] = draw(exact_list(n))
    return corrupt(draw, doc)


@st.composite
def matrix(draw, n):
    if draw(st.booleans()):
        rows = draw(st.lists(exact_list(n), min_size=n, max_size=n))
    else:  # a monomial, often a symmetry
        sigma, scale = draw(st.permutations(range(1, n + 1))), draw(unit_scales(n))
        rows = [["0"] * n for _ in range(n)]
        for i, (j, value) in enumerate(zip(sigma, scale)):
            rows[i][j - 1] = value
    return corrupt(draw, {"n": n, "rows": rows})


@st.composite
def diagonal(draw, n, key):
    """Floats of product 1 for "diag", of sum 0 for "tdiag", where they fit."""
    head = draw(st.lists(floats.filter(bool), min_size=n - 1, max_size=n - 1))
    ratios = [Fraction(v) for v in head]
    if key == "diag":
        product = math.prod(ratios, start=Fraction(1))
        last = float(1 / product) if abs(product) > Fraction(1, 10**300) else 1.0
    else:
        last = -float(sum(ratios)) if abs(sum(ratios)) < 10**300 else 0.0
    return corrupt(draw, {"n": n, key: [*head, last]})


def command_lines(n):
    vector = mostly(exact_list(n))
    permutation = st.permutations(range(1, n + 1))
    sigma = mostly(st.one_of(permutation, permutation.map(lambda s: {"n": n, "sigma": s})))
    calls = [
        ("compose", {"a": element(n), "b": element(n)}),
        ("inverse", {"input": element(n)}),
        ("apply", {"input": element(n), "y": vector}),
        ("metric", {"y": vector}),
        ("classify", {"matrix": matrix(n)}),
        ("classify", {"matrix": matrix(n), "y": vector}),
        ("membership", {"matrix": matrix(n), "sigma": sigma}),
        ("lie-exp", {"input": diagonal(n, "tdiag")}),
        ("lie-log", {"input": diagonal(n, "diag")}),
        ("components", {"input": diagonal(n, "diag")}),
    ]
    return st.one_of(
        st.fixed_dictionaries(flags).map(lambda docs, name=name: [name] + [
            part for flag, doc in docs.items() for part in (f"--{flag}", json.dumps(doc))])
        for name, flags in calls
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(command_lines))
def test_every_input_ends_in_a_documented_exit_code(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2, 3), (args, code)
    assert (out.getvalue() == "") == (code in (2, 3)), (args, code, out.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and "Traceback" not in err.getvalue(), (args, lines)
