import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bmsym import AffineSymmetry, DimensionMismatch, NotSquare, Permutation, RationalMatrix
from bmsym import ScaledPerm, as_fraction, as_vector, classify_affine
from bmsym.matrix import ZERO, _affine_gather, _dot, _inv, _inverse_gather, _prod
from bmsym.matrix import _scaled_gather
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
