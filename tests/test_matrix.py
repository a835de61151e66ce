import copy
import dataclasses
import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bmsym
from bmsym import AffineSymmetry, DiagonalGroupElement, DimensionMismatch, NotSquare, Permutation
from bmsym import RationalMatrix, ScaledPerm, TracelessDiagonal, as_fraction, as_vector
from bmsym import DegenerateTuple, OracleReport, PermanentMismatch, Symmetry, Violation
from bmsym import classify_affine, matrix
from bmsym.errors import TraceNotZero, UnitProductViolation
from bmsym.matrix import ZERO, _affine_gather, _dot, _inv, _inverse_gather, _prod, _unchecked
from bmsym.matrix import _scaled_gather
import check_kernels
from helpers import NO_SHRINK, nonzero_rationals, scaled_perms, wide_nonzero_rationals
from oracles import cofactor_det, diagonal, is_diagonal, operator_apply, operator_matmul


def test_as_fraction_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    half = Fraction(1, 2)
    assert as_fraction(half) is half  # already exact: returned unchanged
    assert as_fraction("2/3") == Fraction(2, 3)


def test_as_fraction_rejects_floats():
    # floats are binary approximations; exactness is the whole point
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_vector((1, 0.5))


def test_rejects_non_square():
    with pytest.raises(NotSquare):
        RationalMatrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(NotSquare):
        RationalMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(NotSquare):
        RationalMatrix([])


def test_entry_and_with_entry_are_one_based():
    m = RationalMatrix.identity(3).with_entry(1, 2, Fraction(1, 2))
    assert m.entry(1, 2) == Fraction(1, 2)
    assert m.entry(1, 1) == 1
    assert RationalMatrix.identity(3).entry(1, 2) == 0


def test_entry_indices_outside_one_to_n_raise():
    # index 0 would otherwise wrap to row or column n
    m = RationalMatrix([[1, 2], [3, 4]])
    for i, j in ((0, 0), (0, 1), (1, 0), (3, 1), (1, 3), (-1, 1)):
        with pytest.raises(IndexError, match=r"outside 1\.\.2"):
            m.entry(i, j)
        with pytest.raises(IndexError, match=r"outside 1\.\.2"):
            m.with_entry(i, j, 7)
    assert m.with_entry(2, 2, 7) == RationalMatrix([[1, 2], [3, 7]])


def test_with_entry_checks_only_the_new_entry():
    m = RationalMatrix([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        m.with_entry(1, 2, 0.5)
    edited = m.with_entry(1, 2, "1/2")
    assert edited == RationalMatrix([[1, "1/2"], [3, 4]])
    assert edited.rows[1] is m.rows[1]  # the untouched row is shared, not rebuilt
    assert all(type(v) is Fraction for row in edited.rows for v in row)


# every caller vector of the exact layer: entry point -> (call, what its message names)
SIZED_VECTOR_SITES = {
    "ScaledPerm": (lambda v: ScaledPerm(Permutation.identity(3), v), "scale"),
    "AffineSymmetry": (lambda v: AffineSymmetry(ScaledPerm.identity(3), v), "translation"),
    "ScaledPerm.apply": (lambda v: ScaledPerm.identity(3).apply(v), "vector"),
    "AffineSymmetry.apply": (lambda v: AffineSymmetry.identity(3).apply(v), "vector"),
    "RationalMatrix.apply": (lambda v: RationalMatrix.identity(3).apply(v), "vector"),
    "classify_affine": (lambda v: classify_affine(RationalMatrix.identity(3), v), "translation"),
}


@pytest.mark.parametrize("site", SIZED_VECTOR_SITES)
@pytest.mark.parametrize("length", [2, 4])
def test_every_caller_vector_has_one_length_rule(site, length):
    call, what = SIZED_VECTOR_SITES[site]
    with pytest.raises(DimensionMismatch, match=f"^{what} length {length}, expected 3$"):
        call((1,) * length)
    call((1,) * 3)  # the right length passes


def test_matmul():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert a @ b == RationalMatrix([[2, 1], [4, 3]])
    assert a @ RationalMatrix.identity(2) == a
    assert RationalMatrix.identity(2) @ a == a


@pytest.mark.parametrize("left, right", [(2, 3), (3, 2)])
def test_matmul_of_different_sizes_names_both(left, right):
    with pytest.raises(DimensionMismatch, match=f"^matrix sizes differ: {left} vs {right}$"):
        RationalMatrix.identity(left) @ RationalMatrix.identity(right)


def test_apply():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a.apply((Fraction(1), Fraction(1))) == (Fraction(3), Fraction(7))


def test_det_known_values():
    assert cofactor_det(RationalMatrix.identity(4)) == 1
    assert cofactor_det(RationalMatrix([[1, 2], [3, 4]])) == -2
    assert cofactor_det(RationalMatrix([[2, 0, 0], [0, 3, 0], [0, 0, Fraction(1, 6)]])) == 1
    assert cofactor_det(RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0


def test_is_diagonal():
    assert is_diagonal(RationalMatrix.identity(3))
    assert not is_diagonal(RationalMatrix.identity(3).with_entry(2, 3, Fraction(1)))
    d = RationalMatrix([[2, 0], [0, Fraction(1, 2)]])
    assert is_diagonal(d)
    assert diagonal(d) == (Fraction(2), Fraction(1, 2))


def test_immutable():
    m = RationalMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.n = 3
    before = m.rows
    m.with_entry(1, 1, Fraction(5))
    assert m.rows == before


# every immutable record type: a value, and the field that deletion must refuse
RECORDS = {
    "RationalMatrix": (RationalMatrix([[1, "1/2"], [0, -3]]), "rows"),
    "DiagonalGroupElement": (DiagonalGroupElement((Fraction(2), Fraction(1, 2))), "diag"),
    "TracelessDiagonal": (TracelessDiagonal((1.5, -1.5)), "diag"),
    "Permutation": (Permutation((2, 3, 1)), "image"),
    "ScaledPerm": (ScaledPerm(Permutation((2, 1)), (Fraction(-2), Fraction(-1, 2))), "scale"),
    "AffineSymmetry": (AffineSymmetry(ScaledPerm.identity(2), (1, Fraction(1, 3))), "translation"),
    "DegenerateTuple": (DegenerateTuple((2, 2, 3), Fraction(1, 2)), "indices"),
    "PermanentMismatch": (PermanentMismatch(Fraction(2)), "value"),
    "Symmetry": (Symmetry(Permutation((2, 1)), (Fraction(-2), Fraction(-1, 2))), "scale"),
    "Violation": (Violation(PermanentMismatch(Fraction(0))), "witness"),
    "OracleReport": (OracleReport(3, 4, 4, 4, 7), "seed"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle_to_equal_values_and_refuse_deletion(name):
    value, field = RECORDS[name]
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value
        assert hash(copied) == hash(value)
    with pytest.raises(AttributeError):
        delattr(value, field)
    getattr(value, field)  # the field survived


@pytest.mark.parametrize("name", RECORDS)
def test_unchecked_is_the_one_trusted_builder_and_copies_skip_the_checks(name, monkeypatch):
    value, _ = RECORDS[name]
    cls = type(value)
    fields = [getattr(value, field) for field in cls.__match_args__]
    built = _unchecked(cls, *fields)
    assert type(built) is cls and built == value

    def recheck(*args, **kwargs):
        raise AssertionError(f"{name} was checked again")

    checked = "__post_init__" if dataclasses.is_dataclass(cls) else "__init__"
    monkeypatch.setattr(cls, checked, recheck)
    with pytest.raises(AssertionError, match="checked again"):
        cls(*fields)  # the patch is in force
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value


# the records that were frozen dataclasses: constructor arguments and the
# repr each showed as a dataclass
HALF = Fraction(1, 2)
SCALES = (Fraction(-2), -HALF)
MOVED_RECORDS = [
    (Permutation, ((2, 3, 1),), "Permutation([2, 3, 1])"),
    (
        ScaledPerm,
        (Permutation((2, 1)), SCALES),
        "ScaledPerm(sigma=Permutation([2, 1]), scale=(Fraction(-2, 1), Fraction(-1, 2)))",
    ),
    (
        DegenerateTuple,
        ((2, 2, 3), HALF),
        "DegenerateTuple(indices=(2, 2, 3), product=Fraction(1, 2))",
    ),
    (PermanentMismatch, (Fraction(2),), "PermanentMismatch(value=Fraction(2, 1))"),
    (
        Symmetry,
        (Permutation((2, 1)), SCALES),
        "Symmetry(sigma=Permutation([2, 1]), scale=(Fraction(-2, 1), Fraction(-1, 2)))",
    ),
    (
        Violation,
        (DegenerateTuple((2, 2, 3), HALF),),
        "Violation(witness=DegenerateTuple(indices=(2, 2, 3), product=Fraction(1, 2)))",
    ),
    (
        OracleReport,
        (3, 4, 4, 4, 7),
        "OracleReport(n=3, trials=4, positives_passed=4, perturbed_rejected=4, seed=7)",
    ),
]


def positional_fields(value):
    """What a positional class pattern binds on ``value``."""
    match value:
        case Permutation(image):
            return (image,)
        case ScaledPerm(sigma, scale) | Symmetry(sigma, scale):
            return sigma, scale
        case DegenerateTuple(indices, product):
            return indices, product
        case PermanentMismatch(field) | Violation(field):
            return (field,)
        case OracleReport(n, trials, passed, rejected, seed):
            return n, trials, passed, rejected, seed


@pytest.mark.parametrize(
    "cls, args, shown", MOVED_RECORDS, ids=[row[0].__name__ for row in MOVED_RECORDS]
)
def test_moved_records_keep_repr_and_match_and_refuse_assignment(cls, args, shown):
    value = cls(*args)
    assert repr(value) == shown
    assert positional_fields(value) == args
    for field in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(value, field, None)
    assert positional_fields(value) == args  # nothing changed


def test_a_record_without_checks_takes_exactly_its_fields_by_position():
    with pytest.raises(TypeError, match="^DegenerateTuple takes 2 fields, got 1$"):
        DegenerateTuple((1, 1))
    with pytest.raises(TypeError, match="^OracleReport takes 5 fields, got 6$"):
        OracleReport(3, 4, 4, 4, 7, 0)
    with pytest.raises(TypeError, match="keyword"):
        PermanentMismatch(value=ZERO)


def test_affine_symmetry_is_the_only_dataclass():
    exported = [getattr(bmsym, name) for name in bmsym.__all__]
    classes = [cls for cls in exported if isinstance(cls, type)]
    assert {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)} == {"AffineSymmetry"}


# every record type in RECORDS: its constructor's arguments, its repr, and
# for a checked constructor one bad input with the error it raises (None for
# the classifier records, whose default __init__ stores its fields as given)
SIGMA = Permutation((2, 1))
TABLE = {
    "RationalMatrix": (
        ([[1, "1/2"], [0, -3]],), "RationalMatrix[1 1/2; 0 -3]", (([[1, 2]],), NotSquare)
    ),
    "DiagonalGroupElement": (
        ((Fraction(2), Fraction(1, 2)),),
        "DiagonalGroupElement(diag=(Fraction(2, 1), Fraction(1, 2)))",
        (((2, 2),), UnitProductViolation),
    ),
    "TracelessDiagonal": (
        ((1.5, -1.5),), "TracelessDiagonal(diag=(1.5, -1.5))", (((1.5, 1.5),), TraceNotZero)
    ),
    "Permutation": (((2, 3, 1),), "Permutation([2, 3, 1])", (((1, 1),), ValueError)),
    "ScaledPerm": (
        (SIGMA, SCALES),
        "ScaledPerm(sigma=Permutation([2, 1]), scale=(Fraction(-2, 1), Fraction(-1, 2)))",
        ((SIGMA, (2, 2)), UnitProductViolation),
    ),
    "AffineSymmetry": (
        (ScaledPerm(SIGMA, SCALES), (1, HALF)),
        "AffineSymmetry(linear=ScaledPerm(sigma=Permutation([2, 1]), scale=(Fraction(-2, 1),"
        " Fraction(-1, 2))), translation=(Fraction(1, 1), Fraction(1, 2)))",
        ((ScaledPerm(SIGMA, SCALES), (1,)), DimensionMismatch),
    ),
    **{
        cls.__name__: (args, shown, None)
        for cls, args, shown in MOVED_RECORDS
        if cls.__module__ == "bmsym.classify"
    },
}


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_builds_compares_hashes_shows_copies_and_pickles_as_pinned(name):
    args, shown, bad = TABLE[name]
    cls = type(RECORDS[name][0])
    value = cls(*args)
    fields = tuple(getattr(value, field) for field in cls.__match_args__)
    rebuilt = [_unchecked(cls, *fields), copy.copy(value), copy.deepcopy(value)]
    rebuilt.append(pickle.loads(pickle.dumps(value)))
    if bad is None:  # the default __init__ stores the fields by position
        assert fields == args
        rebuilt.append(cls(*fields))
    else:
        bad_args, error = bad
        with pytest.raises(error):
            cls(*bad_args)
    for other in [value, *rebuilt]:
        assert type(other) is cls and repr(other) == shown
        assert other == value and not other != value
        assert hash(other) == hash(value) == hash(fields)
    assert value.__eq__(fields) is NotImplemented and value != fields
    assert value != object()


def test_records_with_equal_fields_but_different_types_differ():
    symmetry, element = Symmetry(SIGMA, SCALES), ScaledPerm(SIGMA, SCALES)
    assert symmetry != element and element != symmetry
    assert hash(symmetry) == hash(element)  # the hash is the field tuple's


# scalar kernels: each returns what the Fraction operator it replaces returns

BIG = 2**64
integers = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(BIG**2), max_value=BIG**2),
    st.sampled_from([0, BIG + 1, -(BIG + 1), 2 * BIG, -(3**50)]),
)
denominators = st.one_of(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=BIG**2),
    st.sampled_from([BIG + 1, 2 * BIG, 3**50]),
)
fractions = st.builds(Fraction, integers, denominators)


@st.composite
def fraction_pairs(draw):
    """Pairs of fractions, half of them over the same denominator."""
    if draw(st.booleans()):
        d = draw(denominators)
        return Fraction(draw(integers), d), Fraction(draw(integers), d)
    return draw(fractions), draw(fractions)


def assert_same_fraction(got, want):
    assert type(got) is Fraction
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)


@st.composite
def vector_pairs(draw):
    """Two vectors of fraction pairs and a shift, about a quarter of the
    second's and the shift's entries zero, and a random permutation image
    of 1..n."""
    pairs = draw(st.lists(fraction_pairs(), min_size=1, max_size=8))
    u = tuple(a for a, _ in pairs)
    v = tuple(Fraction(0) if draw(st.integers(0, 3)) == 0 else b for _, b in pairs)
    shift = tuple(Fraction(0) if draw(st.integers(0, 3)) == 0 else draw(fractions) for _ in u)
    image = tuple(draw(st.permutations(range(1, len(u) + 1))))
    return u, v, shift, image


@given(vector_pairs())
def test_mul_and_add_kernels_match_the_operators(vectors):
    u, v, shift, image = vectors
    one = Fraction(1)
    assert_same_fraction(_dot(u, v), sum(a * b for a, b in zip(u, v)))
    for a, b in zip(u, v):
        assert_same_fraction(_dot((a,), (b,)), a * b)
        assert_same_fraction(_dot((a, one), (one, b)), a + b)
    # the fused whole-vector kernels, entry by entry
    gathered = _scaled_gather(u, image, v)
    assert len(gathered) == len(u)
    for got, a, s in zip(gathered, u, image):
        assert_same_fraction(got, a * v[s - 1])
    shifted = _affine_gather(u, image, v, shift)
    assert len(shifted) == len(u)
    for got, a, s, t in zip(shifted, u, image, shift):
        assert_same_fraction(got, a * v[s - 1] + t)
    scale = tuple(a or Fraction(1) for a in u)  # an inverse needs nonzero scales
    inverses, quotients = _inverse_gather(scale, image, shift)
    alone, none = _inverse_gather(scale, image)
    assert len(inverses) == len(quotients) == len(alone) == len(u) and none == ()
    for got, quotient, got_alone, j in zip(inverses, quotients, alone, image):
        assert_same_fraction(got, 1 / scale[j - 1])
        assert_same_fraction(got_alone, 1 / scale[j - 1])
        assert_same_fraction(quotient, -shift[j - 1] / scale[j - 1])


@given(fractions)
def test_neg_and_inv_kernels_match_the_operators(a):
    assert_same_fraction(_dot((a,), (Fraction(-1),)), -a)
    if a:
        assert_same_fraction(_inv(a), 1 / a)


@given(st.lists(fractions, max_size=8))
def test_prod_kernel_matches_the_operator(values):
    want = Fraction(1)
    for v in values:
        want *= v
    assert_same_fraction(_prod(values), want)


def test_inv_kernel_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        _inv(Fraction(0))


CHECK_KERNELS = pathlib.Path(check_kernels.__file__)


def test_the_stdlib_kernel_check_passes_without_site_packages():
    """tests/check_kernels.py, as CI's package smoke step runs it; ``-S`` leaves
    out site-packages, so it runs with the standard library alone."""
    result = subprocess.run(
        [sys.executable, "-S", str(CHECK_KERNELS), "--cases", "300"], capture_output=True, text=True
    )
    assert (result.returncode, result.stderr) == (0, ""), result.stdout
    assert result.stdout.endswith(": 0 mismatches\n")


def _unreduced_prod(values):
    numerator = denominator = 1
    for v in values:
        numerator, denominator = numerator * v.numerator, denominator * v.denominator
    return matrix._fraction(numerator, denominator)


BROKEN_KERNELS = {
    "_inv": lambda a: Fraction(1) / abs(a),  # drops the sign
    "_prod": _unreduced_prod,  # the right value, not in lowest terms
}


@pytest.mark.parametrize("name", BROKEN_KERNELS)
def test_the_stdlib_kernel_check_names_a_broken_kernel(name, monkeypatch, capsys):
    monkeypatch.setattr(matrix, name, BROKEN_KERNELS[name])
    assert check_kernels.main(["--cases", "20"]) == 1
    assert f"mismatch in {name}(" in capsys.readouterr().out


def test_dot_of_no_terms_or_of_zero_sums_is_the_shared_zero():
    half, zero = Fraction(1, 2), Fraction(0)
    assert _dot((), ()) is ZERO and ZERO == sum(()) and hash(ZERO) == hash(sum(()))
    for u, v in (((zero, zero), (half, zero)), ((half, -half), (half, half))):
        assert _dot(u, v) is ZERO
        assert_same_fraction(_dot(u, v), sum(a * b for a, b in zip(u, v)))


# apply and @ against the sums of Fraction products; failing examples are not
# shrunk, since each shrink step re-runs the products


def assert_same_rows(got, want):
    assert type(got) is tuple and len(got) == len(want)
    for row, want_row in zip(got, want):
        assert type(row) is tuple and len(row) == len(want_row)
        for a, b in zip(row, want_row):
            assert_same_fraction(a, b)
            assert a or a is ZERO  # a zero entry is the shared ZERO


# about a quarter of the entries zero
sparse_fractions = st.one_of(fractions, fractions, fractions, st.just(Fraction(0)))


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_matmul_and_apply_match_the_operators(n, data):
    rows = st.lists(sparse_fractions, min_size=n, max_size=n)
    a, b = (RationalMatrix([data.draw(rows) for _ in range(n)]) for _ in "ab")
    vec = tuple(data.draw(rows))
    assert_same_rows((a @ b).rows, operator_matmul(a, b))
    assert_same_rows((a.apply(vec),), (operator_apply(a, vec),))


@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_monomial_products_at_n64_match_the_operators(data):
    small, wide = (data.draw(scaled_perms(n=64, scales=scales)).to_dense()
                   for scales in (nonzero_rationals, wide_nonzero_rationals))
    # a dense matrix of 128-bit entries, about a quarter of them zero, from a drawn seed
    rng = random.Random(data.draw(st.integers(0, 2**32)))

    def entry():
        if rng.randrange(4) == 0:
            return Fraction(0)
        return Fraction(rng.randint(-(2**128), 2**128), rng.randint(1, 2**128))

    dense = RationalMatrix([[entry() for _ in range(64)] for _ in range(64)])
    for a, b in ((small, wide), (wide, dense), (dense, small)):
        assert_same_rows((a @ b).rows, operator_matmul(a, b))
    vec = tuple(entry() for _ in range(64))
    for a in (wide, dense):
        assert_same_rows((a.apply(vec),), (operator_apply(a, vec),))
