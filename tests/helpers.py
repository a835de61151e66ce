"""Shared generators, hypothesis strategies and CLI calls for the test suite."""

import json
import subprocess
import sys
from fractions import Fraction

from hypothesis import Phase, strategies as st

from bmsym import Permutation, ScaledPerm, AffineSymmetry
# the shared CLI inputs live with the CLI table; the acceptance tests import them from here
from check_cli import BIG_IDENTITY, ELEMENT_P, ELEMENT_Q, WORKED_MATRIX

# every phase but shrinking, for properties whose failing examples are slow to
# shrink (each step re-runs a whole chain at n = 64 with 128-bit entries)
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

SMALL = [k for k in range(-9, 10) if k != 0]
POSITIVE = list(range(1, 10))
WIDE = 2**128

nonzero_rationals = st.builds(
    Fraction, st.sampled_from(SMALL), st.sampled_from(POSITIVE)
)
rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from(POSITIVE)
)
# numerators and denominators up to 2**128, either sign
wide_nonzero_rationals = st.builds(
    lambda k, sign, d: Fraction(sign * k, d),
    st.integers(min_value=1, max_value=WIDE),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=WIDE),
)
wide_rationals = st.one_of(st.just(Fraction(0)), wide_nonzero_rationals)


@st.composite
def permutations(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    image = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(tuple(image))


@st.composite
def scaled_perms(draw, n=None, min_n=2, max_n=5, scales=nonzero_rationals):
    if n is None:
        sigma = draw(permutations(min_n=min_n, max_n=max_n))
    else:
        sigma = Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))
    head = [draw(scales) for _ in range(sigma.n - 1)]
    last = Fraction(1)
    for value in head:
        last /= value
    return ScaledPerm(sigma, tuple(head) + (last,))


@st.composite
def affine_symmetries(draw, n=None, min_n=2, max_n=5, scales=nonzero_rationals,
                      shifts=rationals):
    linear = draw(scaled_perms(n=n, min_n=min_n, max_n=max_n, scales=scales))
    translation = tuple(draw(shifts) for _ in range(linear.n))
    return AffineSymmetry(linear, translation)


@st.composite
def vectors(draw, n, entries=nonzero_rationals):
    return tuple(draw(entries) for _ in range(n))


# One successful call of each of the twelve subcommands.
SUBCOMMAND_ARGS = {
    "compose": ["--a", ELEMENT_P, "--b", ELEMENT_Q],
    "inverse": ["--input", ELEMENT_P],
    "apply": ["--input", ELEMENT_P, "--y", '["1","2","4"]'],
    "metric": ["--y", "[1,2,4]"],
    "classify": ["--matrix", WORKED_MATRIX],
    "membership": ["--matrix", WORKED_MATRIX, "--sigma", "[3,1,2]"],
    "oracle": ["--n", "3", "--trials", "5"],
    "lie-exp": ["--input", '{"n":2,"tdiag":[1.0,-1.0]}'],
    "lie-log": ["--input", '{"n":2,"diag":[2.0,0.5]}'],
    "lie-basis": ["--n", "3"],
    "lie-structure": ["--n", "3"],
    "components": ["--input", '{"n":3,"diag":[-2.0,-0.5,1.0]}'],
}

# Runs each argv of a JSON list, then prints the exit codes and sys.modules.
_HARNESS = """
import json, runpy, sys
codes = []
for argv in json.loads(sys.argv[1]):
    sys.argv = argv
    try:
        if argv[0] == "bmsym":
            runpy.run_module("bmsym", run_name="__main__", alter_sys=True)
        else:  # not runpy.run_path, which imports pkgutil and with it typing
            with open(argv[0], encoding="utf-8") as demo:
                exec(compile(demo.read(), argv[0], "exec"), {"__name__": "__main__"})
        codes.append(0)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, sorted(sys.modules)]))
"""


def loaded_by(rows, *flags, code=0):
    """sys.modules after one child ran each argv of ``rows``, every one with
    exit code ``code``, and with no stderr if that is 0: ``["bmsym", ...]`` as
    ``python -m bmsym ...`` and ``[path]`` as ``python path``."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", _HARNESS, json.dumps(rows)], capture_output=True, text=True
    )
    assert result.returncode == 0 and (code or result.stderr == ""), result.stderr
    codes, modules = json.loads(result.stdout.splitlines()[-1])
    assert codes == [code] * len(rows)
    return set(modules)
