"""Check each call of the ``bmsym`` command line against its exit code and
exact output, with the standard library alone (no pytest, hypothesis or
sympy).

``CASES`` names each call and gives its argv, exit code, stdout and stderr.
Rows hold only bytes that are the same on Python 3.10 to 3.13: argparse's
usage and help text, whose wording moves between versions, and float results
that depend on the platform's libm are checked by ``tests/test_cli.py`` with
patterns and tolerances instead.  The digit-limit rows assume Python's
default limit of 4300 digits.  Run it on any interpreter that can import
bmsym, or against an installed console script:

    PYTHONPATH=src python tests/check_cli.py [--bmsym COMMAND]

It runs each call as ``python -m bmsym ...``, or as ``COMMAND ...`` (such as
``--bmsym bmsym``), prints one line per mismatch and exits 1 if there is
any, else prints a summary and exits 0.
"""

import argparse
import json
import shlex
import subprocess
import sys

WORKED_MATRIX = '{"n":3,"rows":[["0","2","0"],["0","0","3"],["1/6","0","0"]]}'
ELEMENT_P = '{"n":3,"sigma":[2,3,1],"scale":["2","3","1/6"]}'
ELEMENT_Q = '{"n":3,"sigma":[2,1,3],"scale":["1/2","2","1"]}'
BIG_IDENTITY = json.dumps(
    {"n": 9, "rows": [[str(int(i == j)) for j in range(9)] for i in range(9)]}
)

# an element with translations and negative scales, and one to compose it with
SHIFTED_P = '{"n":3,"sigma":[2,3,1],"scale":["2","3","1/6"],"translation":["1","-1/2","0"]}'
SHIFTED_Q = '{"n":3,"sigma":[2,1,3],"scale":["-1/2","-2","1"],"translation":["3/4","0","5"]}'
IDENTITY_2 = '{"n":2,"rows":[["1","0"],["0","1"]]}'

# results past Python's int-to-str limit (4300 digits) of literals under it,
# written in full
TEN_3000, TEN_6000 = "1" + "0" * 3000, "1" + "0" * 6000
WIDE = json.dumps({"n": 2, "sigma": [1, 2], "scale": [TEN_3000, "1/" + TEN_3000]})
WIDE_SHIFTED = json.dumps(
    {"n": 2, "sigma": [1, 2], "scale": ["1/" + TEN_3000, TEN_3000], "translation": [TEN_3000, "0"]}
)
# an integer one digit past that limit: a string literal, or a bare JSON
# integer, which the JSON reader itself rejects
ONES_4301 = "1" * 4301

ERROR_PAST_THE_LIMIT = "error: JSON input has an integer of more than 4300 digits\n"

# name: (argv, exit code, stdout, stderr)
CASES = {
    # the group law, the product form and the classifier on the worked examples
    "compose_worked_example": (
        ["compose", "--a", ELEMENT_P, "--b", ELEMENT_Q], 0,
        '{"n":3,"sigma":[1,3,2],"scale":["4","3","1/12"],"translation":["0","0","0"]}\n', "",
    ),
    "inverse": (
        ["inverse", "--input", ELEMENT_P], 0,
        '{"n":3,"sigma":[3,1,2],"scale":["6","1/2","1/3"],"translation":["0","0","0"]}\n', "",
    ),
    "apply": (["apply", "--input", ELEMENT_P, "--y", '["1","2","4"]'], 0, '["4","12","1/6"]\n', ""),
    "compose_with_translations_and_negative_scales": (
        ["compose", "--a", SHIFTED_P, "--b", SHIFTED_Q], 0,
        '{"n":3,"sigma":[1,3,2],"scale":["-4","3","-1/12"],"translation":["1","29/2","1/8"]}\n',
        "",
    ),
    "inverse_with_a_translation": (
        ["inverse", "--input", SHIFTED_P], 0,
        '{"n":3,"sigma":[3,1,2],"scale":["6","1/2","1/3"],"translation":["0","-1/2","1/6"]}\n',
        "",
    ),
    "metric_worked_example": (["metric", "--y", "[1,2,4]"], 0, '{"F":2.0}\n', ""),
    "classify_symmetry": (
        ["classify", "--matrix", WORKED_MATRIX], 0,
        '{"verdict":"symmetry","sigma":[2,3,1],"scale":["2","3","1/6"]}\n', "",
    ),
    "classify_with_translation": (
        ["classify", "--matrix", WORKED_MATRIX, "--y", '["1","0","0"]'], 0,
        '{"verdict":"symmetry","sigma":[2,3,1],"scale":["2","3","1/6"],'
        '"translation":["1","0","0"]}\n', "",
    ),
    "classify_violation": (
        ["classify", "--matrix", '{"n":3,"rows":[["1","1/2","0"],["0","1","0"],["0","0","1"]]}'], 1,
        '{"verdict":"violation","witness":{"kind":"degenerate_tuple","tuple":[2,2,3],'
        '"product":"1/2"}}\n', "",
    ),
    "classify_degenerate_tuple_witness": (
        ["classify", "--matrix", '{"n":2,"rows":[["1","1"],["0","1"]]}'], 1,
        '{"verdict":"violation","witness":{"kind":"degenerate_tuple","tuple":[2,2],'
        '"product":"1"}}\n', "",
    ),
    "classify_permanent_witness": (
        ["classify", "--matrix", '{"n":2,"rows":[["2","0"],["0","1"]]}'], 1,
        '{"verdict":"violation","witness":{"kind":"permanent","value":"2"}}\n', "",
    ),
    "membership_worked_example": (
        ["membership", "--matrix", WORKED_MATRIX, "--sigma", "[3,1,2]"], 0, '{"member":true}\n', "",
    ),
    "membership_true": (
        ["membership", "--matrix", '{"n":3,"rows":[["0","0","6"],["1/2","0","0"],["0","1/3","0"]]}',
         "--sigma", "[2,3,1]"], 0, '{"member":true}\n', "",
    ),
    "membership_false": (
        ["membership", "--matrix", '{"n":3,"rows":[["1","0","0"],["0","1","0"],["0","0","1"]]}',
         "--sigma", "[2,1,3]"], 1, '{"member":false}\n', "",
    ),
    # --sigma also takes an object with a "sigma" key and an optional "n"
    "membership_with_a_sigma_object": (
        ["membership", "--matrix", IDENTITY_2, "--sigma", '{"sigma":[1,2]}'], 0,
        '{"member":true}\n', "",
    ),
    "membership_with_a_sigma_object_of_another_size": (
        ["membership", "--matrix", IDENTITY_2, "--sigma", '{"n":3,"sigma":[1,2,3]}'], 2,
        "", "error: matrix size 2 vs permutation on 3 points\n",
    ),
    "oracle": (
        ["oracle", "--n", "3", "--trials", "25", "--seed", "5"], 0,
        '{"n":3,"trials":25,"positives_passed":25,"perturbed_rejected":25,"seed":5}\n', "",
    ),
    "oracle_at_n8": (
        ["oracle", "--n", "8", "--trials", "50", "--seed", "7"], 0,
        '{"n":8,"trials":50,"positives_passed":50,"perturbed_rejected":50,"seed":7}\n', "",
    ),
    "oracle_below_n2": (
        ["oracle", "--n", "1", "--trials", "1"], 2, "", "error: the oracle needs n >= 2\n",
    ),
    # the Lie subcommands whose floats are exact
    "lie_basis": (
        ["lie-basis", "--n", "3"], 0,
        '{"n":3,"dim":2,"basis":[[1.0,0.0,-1.0],[0.0,1.0,-1.0]]}\n', "",
    ),
    "lie_structure_at_n3": (
        ["lie-structure", "--n", "3"], 0,
        '{"n":3,"dim":2,"constants":[[[0.0,0.0],[0.0,0.0]],[[0.0,0.0],[0.0,0.0]]]}\n', "",
    ),
    "lie_structure": (
        ["lie-structure", "--n", "4"], 0,
        '{"n":4,"dim":3,"constants":[[[0.0,0.0,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]],'
        '[[0.0,0.0,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]],'
        '[[0.0,0.0,0.0],[0.0,0.0,0.0],[0.0,0.0,0.0]]]}\n', "",
    ),
    "lie_basis_below_n2": (
        ["lie-basis", "--n", "1"], 2, "", "error: --n must be at least 2, got 1\n",
    ),
    "lie_structure_below_n2": (
        ["lie-structure", "--n", "1"], 2, "", "error: --n must be at least 2, got 1\n",
    ),
    "components": (
        ["components", "--input", '{"n":3,"diag":[-2.0,-0.5,1.0]}'], 0,
        '{"n":3,"signs":[-1,-1,1]}\n', "",
    ),
    # calls that are not a plain "--flag value" list, which argparse reads
    "inverse_with_flag_equals_value": (
        ["inverse", f"--input={ELEMENT_P}"], 0,
        '{"n":3,"sigma":[3,1,2],"scale":["6","1/2","1/3"],"translation":["0","0","0"]}\n', "",
    ),
    "inverse_with_an_abbreviated_flag": (
        ["inverse", "--inp", ELEMENT_P], 0,
        '{"n":3,"sigma":[3,1,2],"scale":["6","1/2","1/3"],"translation":["0","0","0"]}\n', "",
    ),
    "a_repeated_flag_takes_its_last_value": (
        ["metric", "--y", "[1,1,1]", "--y", "[1,2,4]"], 0, '{"F":2.0}\n', "",
    ),
    "lie_basis_at_a_negative_n": (
        ["lie-basis", "--n", "-1"], 2, "", "error: --n must be at least 2, got -1\n",
    ),
    # the dimension cap: exit 3 at n = 9, a verdict with --max-n 9
    "cap_exceeded_is_exit_3": (
        ["classify", "--matrix", BIG_IDENTITY], 3,
        "", "error: dimension 9 exceeds the dimension cap 8\n",
    ),
    "cap_can_be_raised": (
        ["classify", "--matrix", BIG_IDENTITY, "--max-n", "9"], 0,
        '{"verdict":"symmetry","sigma":[1,2,3,4,5,6,7,8,9],'
        '"scale":["1","1","1","1","1","1","1","1","1"]}\n', "",
    ),
    "oracle_cap_can_be_raised": (
        ["oracle", "--n", "9", "--trials", "5", "--max-n", "9"], 0,
        '{"n":9,"trials":5,"positives_passed":5,"perturbed_rejected":5,"seed":0}\n', "",
    ),
    "the_cap_is_checked_before_the_trial_count": (
        ["oracle", "--n", "9", "--trials", "0"], 3,
        "", "error: dimension 9 exceeds the dimension cap 8\n",
    ),
    # results and witnesses past the digit limit, written in full
    "compose_result_past_the_digit_limit": (
        ["compose", "--a", WIDE, "--b", WIDE], 0,
        f'{{"n":2,"sigma":[1,2],"scale":["{TEN_6000}","1/{TEN_6000}"],"translation":["0","0"]}}\n',
        "",
    ),
    "inverse_result_past_the_digit_limit": (
        ["inverse", "--input", WIDE_SHIFTED], 0,
        f'{{"n":2,"sigma":[1,2],"scale":["{TEN_3000}","1/{TEN_3000}"],'
        f'"translation":["-{TEN_6000}","0"]}}\n', "",
    ),
    "apply_result_past_the_digit_limit": (
        ["apply", "--input", WIDE_SHIFTED, "--y", json.dumps(["7" * 3001, "3" * 3001])], 0,
        f'["1{"0" * 2999}{"7" * 3001}/{TEN_3000}","{"3" * 3001}{"0" * 3000}"]\n', "",
    ),
    "degenerate_tuple_witness_past_the_digit_limit": (
        ["classify", "--matrix", json.dumps({"n": 2, "rows": [[TEN_3000, TEN_3000]] * 2})], 1,
        '{"verdict":"violation","witness":{"kind":"degenerate_tuple","tuple":[1,1],'
        f'"product":"{TEN_6000}"}}}}\n', "",
    ),
    "permanent_witness_past_the_digit_limit": (
        ["classify", "--matrix", json.dumps({"n": 2, "rows": [[TEN_3000, "0"], ["0", TEN_3000]]})],
        1,
        f'{{"verdict":"violation","witness":{{"kind":"permanent","value":"{TEN_6000}"}}}}\n', "",
    ),
    # input errors: exit 2 with one line on stderr
    "a_literal_past_the_digit_limit_is_exit_2": (
        ["apply", "--input", ELEMENT_P, "--y", json.dumps([ONES_4301, "1", "1"])], 2,
        "", "error: --y has an integer of more than 4300 digits\n",
    ),
    "json_integer_past_the_digit_limit_in_a_row": (
        ["classify", "--matrix", f'{{"n":2,"rows":[[{ONES_4301},0],[0,1]]}}'], 2,
        "", ERROR_PAST_THE_LIMIT,
    ),
    "json_integer_past_the_digit_limit_as_n": (
        ["classify", "--matrix", f'{{"n":{ONES_4301},"rows":[]}}'], 2, "", ERROR_PAST_THE_LIMIT,
    ),
    "json_integer_past_the_digit_limit_in_sigma": (
        ["membership", "--matrix", IDENTITY_2, "--sigma", f"[{ONES_4301},2]"], 2,
        "", ERROR_PAST_THE_LIMIT,
    ),
    "json_integer_past_the_digit_limit_in_tdiag": (
        ["lie-exp", "--input", f'{{"n":2,"tdiag":[{ONES_4301},0]}}'], 2, "", ERROR_PAST_THE_LIMIT,
    ),
    "malformed_json_is_exit_2": (
        ["classify", "--matrix", '{"n":3,"rows":"nope"}'], 2,
        "", 'error: "rows" must be a JSON array, got str\n',
    ),
    "missing_file_is_exit_2": (
        ["classify", "--matrix", "no_such_file.json"], 2,
        "", "error: [Errno 2] No such file or directory: 'no_such_file.json'\n",
    ),
    "apply_with_a_wrong_length_vector": (
        ["apply", "--input", SHIFTED_P, "--y", '["1","2"]'], 2,
        "", "error: vector length 2, expected 3\n",
    ),
    "classify_with_a_wrong_length_translation": (
        ["classify", "--matrix", WORKED_MATRIX, "--y", '["1","2"]'], 2,
        "", "error: --y has length 2, expected 3\n",
    ),
    "negative_radicand_is_exit_2": (
        ["metric", "--y", "[-1,1,1,1]"], 2, "", "error: even order 4 with product -1.0\n",
    ),
    "metric_beyond_float_range_is_exit_2": (
        ["metric", "--y", json.dumps(["1" + "0" * 399, "1"])], 2,
        "", "error: coordinate 1 is above the float range\n",
    ),
    "metric_names_the_coordinate_above_the_float_range": (
        ["metric", "--y", json.dumps(["1" + "0" * 400, "1"])], 2,
        "", "error: coordinate 1 is above the float range\n",
    ),
    "metric_below_float_range_is_exit_2": (
        ["metric", "--y", json.dumps(["1/1" + "0" * 340, "1"])], 2,
        "", "error: a nonzero coordinate is below the float range\n",
    ),
    "log_off_component_is_exit_2": (
        ["lie-log", "--input", '{"n":3,"diag":[-1.0,-1.0,1.0]}'], 2,
        "", "error: logarithm needs all diagonal entries positive\n",
    ),
    "exp_overflow_is_exit_2": (
        ["lie-exp", "--input", '{"n":2,"tdiag":[800.0,-800.0]}'], 2,
        "", "error: entry 1 is above the float range\n",
    ),
    "exp_underflow_is_exit_2": (
        ["lie-exp", "--input", '{"n":2,"tdiag":[-800.0,800.0]}'], 2,
        "", "error: entry 1 is below the float range\n",
    ),
    "unit_product_below_the_float_range_is_exit_2": (
        ["components", "--input", '{"n":3,"diag":[1e-200,1e-200,1.0]}'], 2,
        "", "error: entry product is below the float range, expected 1\n",
    ),
}

PYTHON_M_BMSYM = [sys.executable, "-m", "bmsym"]


def _difference(got: bytes, want: bytes) -> str:
    """Where two byte strings first differ, with a few bytes on each side."""
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    start = max(at - 20, 0)
    return f"at byte {at}: {got[start:at + 20]!r} != {want[start:at + 20]!r}"


def mismatches(name, command=PYTHON_M_BMSYM) -> list[str]:
    """One line for each of the exit code, stdout and stderr of case ``name``
    that differs from its row when run as ``command``."""
    argv, code, stdout, stderr = CASES[name]
    result = subprocess.run([*command, *argv], capture_output=True)
    lines = [f"exit code {result.returncode} != {code}"] if result.returncode != code else []
    for stream, got, want in (("stdout", result.stdout, stdout), ("stderr", result.stderr, stderr)):
        if got != want.encode():
            lines.append(f"{stream} {_difference(got, want.encode())}")
    return [f"mismatch in {name}: {line}" for line in lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bmsym", type=shlex.split, default=PYTHON_M_BMSYM,
                        help="the command to run (default: this Python's -m bmsym)")
    args = parser.parse_args(argv)
    failed = 0
    for name in CASES:
        lines = mismatches(name, args.bmsym)
        failed += bool(lines)
        for line in lines:
            print(line)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{len(CASES)} CLI calls through {shlex.join(args.bmsym)} on Python {version}: "
          f"{failed} mismatched")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
