import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st

from bmsym import (
    AffineSymmetry,
    DegenerateTuple,
    DiagonalGroupElement,
    MalformedInput,
    OracleReport,
    PermanentMismatch,
    Permutation,
    RationalMatrix,
    ScaledPerm,
    Symmetry,
    TracelessDiagonal,
    Violation,
)
from bmsym.cli import build_parser
from bmsym.serialize import (
    canonical_dumps,
    diag_from_obj,
    diag_to_obj,
    element_from_obj,
    element_to_obj,
    loads,
    matrix_from_obj,
    oracle_report_to_obj,
    parse_rational,
    report_to_obj,
    tdiag_from_obj,
    tdiag_to_obj,
    vector_from_obj,
    vector_to_obj,
    witness_to_obj,
)
from bmsym.serialize import _require_dict, _require_list
from oracles import two_grammar_parse_rational


# The inverses of matrix_from_obj and witness_to_obj, which no subcommand
# needs: they live here, next to the round trips that use them.


def matrix_to_obj(matrix):
    return {"n": matrix.n, "rows": [[str(v) for v in row] for row in matrix.rows]}


def witness_from_obj(obj):
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
    raise MalformedInput(f"unknown witness kind {kind!r}")


ELEMENT = AffineSymmetry(
    ScaledPerm(Permutation((2, 3, 1)), (F(2), F(3), F(1, 6))),
    (F(0), F(-1, 2), F(4)),
)


# The writers format each rational with str: lowest terms, no "/1"
def test_format_rational():
    assert vector_to_obj((F(3), F(-1, 2), F(2, 4), F(0))) == ["3", "-1/2", "1/2", "0"]


def test_parse_rational():
    assert parse_rational("3") == F(3)
    assert parse_rational("-1/2") == F(-1, 2)
    assert parse_rational(7) == F(7)
    assert parse_rational("5\n") == F(5)
    assert parse_rational("007") == F(7)
    assert parse_rational("٣") == F(3)


def test_parse_rational_rejections():
    for bad in ("1.5", "1/0", "1/-2", "", "a", "1/", "/2", "٣/٤", "1/07", None, 0.5, True, [1]):
        with pytest.raises(MalformedInput):
            parse_rational(bad)


def _outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)
    return value, type(value), value.numerator, value.denominator


# ASCII and non-ASCII digits, signs, separators and whitespace, where the
# quirks live: "5\n", "007" and "٣" are accepted, "٣/٤" and "1/07" rejected;
# the second strategy draws mostly well-formed literals, reducible ones too
@given(st.text(alphabet="0123456789٣٤-+/_. \n", max_size=8)
       | st.from_regex(r"-?[0-9٣٤]{1,4}(/[0-9٣٤]{1,4})?\n?", fullmatch=True))
@example("-6/4")
@example("5\n")
@example("007")
@example("٣/٤")
@example("1/07")
def test_parse_rational_matches_the_two_grammar_reader(text):
    assert _outcome(parse_rational, text) == _outcome(two_grammar_parse_rational, text)


def test_canonical_dumps_shapes():
    assert canonical_dumps({"F": 2.0}) == '{"F":2.0}'
    assert canonical_dumps({"a": 1, "b": [True, False, None]}) == '{"a":1,"b":[true,false,null]}'
    assert canonical_dumps(["1", "1/2"]) == '["1","1/2"]'
    assert canonical_dumps(0.5) == "0.5"
    assert canonical_dumps(-0.0) == "-0.0"
    assert canonical_dumps(1e-13) == "1e-13"


def test_canonical_dumps_preserves_insertion_order():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_round_trip(x):
    assert loads(canonical_dumps(x)) == x


def test_element_round_trip():
    obj = element_to_obj(ELEMENT)
    assert obj == {
        "n": 3,
        "sigma": [2, 3, 1],
        "scale": ["2", "3", "1/6"],
        "translation": ["0", "-1/2", "4"],
    }
    assert element_from_obj(loads(canonical_dumps(obj))) == ELEMENT


def test_element_translation_defaults_to_zero():
    parsed = element_from_obj({"n": 3, "sigma": [2, 3, 1], "scale": ["2", "3", "1/6"]})
    assert parsed.translation == (F(0), F(0), F(0))


def test_element_to_obj_accepts_bare_linear():
    obj = element_to_obj(ELEMENT.linear)
    assert obj["translation"] == ["0", "0", "0"]


def test_element_rejections():
    with pytest.raises(MalformedInput):
        element_from_obj([1, 2])
    with pytest.raises(MalformedInput):
        element_from_obj({"sigma": [1, 2], "scale": ["1", "1"]})
    with pytest.raises(MalformedInput):
        element_from_obj({"n": 2, "sigma": [1, 1], "scale": ["1", "1"]})
    with pytest.raises(MalformedInput):
        element_from_obj({"n": 2, "sigma": [1, 2], "scale": ["1"]})
    with pytest.raises(MalformedInput):  # scale product must be 1
        element_from_obj({"n": 2, "sigma": [1, 2], "scale": ["2", "3"]})
    with pytest.raises(MalformedInput):
        element_from_obj({"n": True, "sigma": [1], "scale": ["1"]})


def test_matrix_round_trip():
    m = RationalMatrix([[0, 2, 0], [0, 0, 3], [F(1, 6), 0, 0]])
    obj = matrix_to_obj(m)
    assert obj == {"n": 3, "rows": [["0", "2", "0"], ["0", "0", "3"], ["1/6", "0", "0"]]}
    assert matrix_from_obj(loads(canonical_dumps(obj))) == m


def test_matrix_rejections():
    with pytest.raises(MalformedInput):
        matrix_from_obj({"n": 2, "rows": [["1", "0"]]})
    with pytest.raises(MalformedInput):
        matrix_from_obj({"n": 2, "rows": [["1", "0"], ["0"]]})
    with pytest.raises(MalformedInput):
        matrix_from_obj({"n": 2, "rows": [["1", "0"], ["0", 0.5]]})


MATRIX = '{"n":3,"rows":[["0","2","0"],["0","0","3"],["1/6","0","0"]]}'


@pytest.mark.parametrize("argv", [
    pytest.param(["inverse", "--input", '{"n":3,"sigma":[2,3],"scale":["2","3","1/6"]}'],
                 id="sigma"),
    pytest.param(["membership", "--matrix", MATRIX, "--sigma", "[3,1]"], id="bare-sigma"),
    pytest.param(["inverse", "--input", '{"n":3,"sigma":[2,3,1],"scale":["2","3"]}'], id="scale"),
    pytest.param(["inverse", "--input",
                  '{"n":3,"sigma":[2,3,1],"scale":["2","3","1/6"],"translation":["1"]}'],
                 id="translation"),
    pytest.param(["classify", "--matrix", '{"n":2,"rows":[["1","0"]]}'], id="rows"),
    pytest.param(["classify", "--matrix", '{"n":2,"rows":[["1","0"],["0"]]}'], id="row"),
    pytest.param(["classify", "--matrix", MATRIX, "--y", '["1","0"]'], id="y"),
    pytest.param(["lie-log", "--input", '{"n":3,"diag":[2.0,0.5]}'], id="diag"),
    pytest.param(["lie-exp", "--input", '{"n":3,"tdiag":[1.0,-1.0]}'], id="tdiag"),
])
def test_wrong_length_arrays_are_malformed(argv):
    # each array is checked by its reader, through the subcommand that reads it
    args = build_parser().parse_args(argv)
    with pytest.raises(MalformedInput, match="has length"):
        args.handler(args)


def test_vector_round_trip():
    vec = (F(1), F(-2, 3))
    assert vector_to_obj(vec) == ["1", "-2/3"]
    assert vector_from_obj(["1", "-2/3"]) == vec
    with pytest.raises(MalformedInput):
        vector_from_obj([])
    with pytest.raises(MalformedInput):
        vector_from_obj({"y": [1]})


def test_vector_to_obj_writes_what_str_writes_without_a_digit_limit():
    """Every rational as the ``str`` of a child that lifts Python's digit limit:
    values past it, powers of ten, and small ones."""
    rng = random.Random("wide-digits")
    sizes = [1, 599, 600, 601, 1200, 4300, 4301, 6000, 13000]
    ints = [rng.randrange(10 ** (k - 1), 10**k) for k in sizes] + [10**k for k in sizes]
    ints += [10**1200 + 7, 10**1800 - 1]
    values = [F(sign * a, b) for a in ints for b in (1, 3, 10**4301 + 1) for sign in (1, -1)]
    child = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=0", "-c",
         "import sys; from fractions import Fraction as F\n"
         "for line in sys.stdin: print(F(*(int(h, 16) for h in line.split())))"],
        input="".join(f"{v.numerator:x} {v.denominator:x}\n" for v in values),
        capture_output=True, text=True, check=True,
    )
    assert vector_to_obj(values) == child.stdout.splitlines()
    assert vector_to_obj(values[:2]) == [str(v) for v in values[:2]]


def test_diag_round_trip():
    a = DiagonalGroupElement((2.0, 0.5, 1.0))
    obj = diag_to_obj(a)
    assert obj == {"n": 3, "diag": [2.0, 0.5, 1.0]}
    assert diag_from_obj(loads(canonical_dumps(obj))) == a
    with pytest.raises(MalformedInput):
        diag_from_obj({"n": 3, "diag": [2.0, 0.5]})
    with pytest.raises(MalformedInput):  # constructor invariants surface as input errors
        diag_from_obj({"n": 2, "diag": [2.0, 2.0]})


def test_tdiag_round_trip():
    x = TracelessDiagonal((math.log(2), -math.log(2), 0.0))
    obj = tdiag_to_obj(x)
    parsed = tdiag_from_obj(loads(canonical_dumps(obj)))
    assert parsed == x
    with pytest.raises(MalformedInput):
        tdiag_from_obj({"n": 2, "tdiag": [1.0, 1.0]})


def test_witness_serialization():
    degenerate = DegenerateTuple((2, 2, 3), F(1, 2))
    obj = witness_to_obj(degenerate)
    assert obj == {"kind": "degenerate_tuple", "tuple": [2, 2, 3], "product": "1/2"}
    assert witness_from_obj(obj) == degenerate

    mismatch = PermanentMismatch(F(3, 2))
    obj = witness_to_obj(mismatch)
    assert obj == {"kind": "permanent", "value": "3/2"}
    assert witness_from_obj(obj) == mismatch

    with pytest.raises(MalformedInput):
        witness_from_obj({"kind": "nonsense"})


def test_report_serialization():
    symmetry = Symmetry(Permutation((2, 3, 1)), (F(2), F(3), F(1, 6)))
    assert report_to_obj(symmetry) == {
        "verdict": "symmetry",
        "sigma": [2, 3, 1],
        "scale": ["2", "3", "1/6"],
    }
    with_translation = report_to_obj(symmetry, (F(1), F(0), F(0)))
    assert with_translation["translation"] == ["1", "0", "0"]

    violation = Violation(DegenerateTuple((2, 2, 3), F(1, 2)))
    assert report_to_obj(violation) == {
        "verdict": "violation",
        "witness": {"kind": "degenerate_tuple", "tuple": [2, 2, 3], "product": "1/2"},
    }
    # the translation never shows up on a violation
    assert "translation" not in report_to_obj(violation, (F(1), F(0), F(0)))


def test_oracle_report_serialization():
    report = OracleReport(3, 100, 100, 100, 7)
    assert oracle_report_to_obj(report) == {
        "n": 3,
        "trials": 100,
        "positives_passed": 100,
        "perturbed_rejected": 100,
        "seed": 7,
    }


def test_loads_rejects_invalid_json():
    with pytest.raises(MalformedInput):
        loads("not json")


def test_non_finite_floats_rejected():
    with pytest.raises(MalformedInput):
        canonical_dumps({"x": float("nan")})
    with pytest.raises(MalformedInput):
        canonical_dumps({"x": float("inf")})


def test_dumps_is_deterministic():
    obj = element_to_obj(ELEMENT)
    assert canonical_dumps(obj) == canonical_dumps(element_to_obj(ELEMENT))
