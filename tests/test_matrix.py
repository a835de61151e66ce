from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bmsym import NotSquare, RationalMatrix, as_fraction, as_vector
from bmsym.matrix import _add, _inv, _mul, _neg, _prod, _scaled_gather, vec_add
from oracles import cofactor_det, diagonal, is_diagonal


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
    """Two vectors of fraction pairs, about a quarter of the second's entries
    zero, and a random permutation image of 1..n."""
    pairs = draw(st.lists(fraction_pairs(), min_size=1, max_size=8))
    u = tuple(a for a, _ in pairs)
    v = tuple(Fraction(0) if draw(st.integers(0, 3)) == 0 else b for _, b in pairs)
    image = tuple(draw(st.permutations(range(1, len(u) + 1))))
    return u, v, image


@given(vector_pairs())
def test_mul_and_add_kernels_match_the_operators(vectors):
    u, v, image = vectors
    for a, b in zip(u, v):
        assert_same_fraction(_mul(a, b), a * b)
        assert_same_fraction(_add(a, b), a + b)
    # the whole-vector kernels, entry by entry
    gathered = _scaled_gather(u, image, v)
    assert len(gathered) == len(u)
    for got, a, s in zip(gathered, u, image):
        assert_same_fraction(got, a * v[s - 1])
    added = vec_add(u, v)
    assert len(added) == len(u)
    for got, a, b in zip(added, u, v):
        assert_same_fraction(got, a + b)


@given(fractions)
def test_neg_and_inv_kernels_match_the_operators(a):
    assert_same_fraction(_neg(a), -a)
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
