from fractions import Fraction

import pytest
from hypothesis import given

from bmsym import DimensionMismatch, Permutation
from helpers import permutations


def test_composition_convention():
    # (s . t)(i) = s(t(i)): t acts first
    s = Permutation((2, 1, 3))
    t = Permutation((1, 3, 2))
    assert s.compose(t).image == (2, 3, 1)


def test_compose_identity_left():
    t = Permutation((3, 1, 2))
    assert Permutation.identity(3).compose(t) == t
    assert t.compose(Permutation.identity(3)) == t


def test_compose_mutually_inverse_cycles():
    s = Permutation((2, 3, 1))
    t = Permutation((3, 1, 2))
    assert s.compose(t).is_identity()
    assert t.compose(s).is_identity()
    assert s.inverse() == t


def test_sign_identity():
    assert Permutation.identity(3).sign() == 1
    assert Permutation.identity(1).sign() == 1


def test_sign_transposition():
    assert Permutation((2, 1, 3)).sign() == -1
    assert Permutation((2, 1)).sign() == -1


def test_sign_three_cycle():
    assert Permutation((2, 3, 1)).sign() == 1
    assert Permutation((3, 1, 2)).sign() == 1


def test_call_is_one_based():
    s = Permutation((2, 3, 1))
    assert [s(i) for i in (1, 2, 3)] == [2, 3, 1]
    with pytest.raises(IndexError):
        s(0)
    with pytest.raises(IndexError):
        s(4)


def test_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 4))
    with pytest.raises(ValueError):
        Permutation(())


def test_rejects_non_integer_entries():
    # int() would truncate 1.7 to 1 and accept a float as an index
    with pytest.raises(TypeError):
        Permutation((1.7, 2))
    with pytest.raises(TypeError):
        Permutation((2.0, 1.0))
    with pytest.raises(TypeError):
        Permutation((True, 2))
    with pytest.raises(TypeError):
        Permutation(("1", "2"))
    with pytest.raises(TypeError):
        Permutation((Fraction(1), 2))


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Permutation((2, 1)).compose(Permutation((1, 2, 3)))


@given(permutations())
def test_inverse_cancels(s):
    assert s.compose(s.inverse()).is_identity()
    assert s.inverse().compose(s).is_identity()


@given(permutations())
def test_sign_of_inverse(s):
    assert s.sign() == s.inverse().sign()


@given(permutations(min_n=4, max_n=4), permutations(min_n=4, max_n=4),
       permutations(min_n=4, max_n=4))
def test_compose_associative(s, t, u):
    assert s.compose(t).compose(u) == s.compose(t.compose(u))


@given(permutations(min_n=4, max_n=4), permutations(min_n=4, max_n=4))
def test_sign_is_a_homomorphism(s, t):
    assert s.compose(t).sign() == s.sign() * t.sign()


@given(permutations(min_n=4, max_n=4), permutations(min_n=4, max_n=4))
def test_pointwise_convention(s, t):
    u = s.compose(t)
    for i in range(1, 5):
        assert u(i) == s(t(i))
