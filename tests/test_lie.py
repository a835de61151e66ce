import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import numpy_bracket

from bmsym import (
    DiagonalGroupElement,
    DimensionMismatch,
    NotIdentityComponent,
    Permutation,
    ScaledPerm,
    TraceNotZero,
    TracelessDiagonal,
    UnitProductViolation,
    ZeroCoordinate,
    as_scaled_perm,
    basis,
    bracket,
    chart,
    component_signature,
    dn1_new,
    lie_exp,
    lie_log,
    mu,
    structure_constants,
)

TOL = 1e-12


def close(u, v, tol=TOL):
    return all(abs(float(a) - float(b)) <= tol for a, b in zip(u, v))


# element validation


def test_group_element_wants_unit_product():
    DiagonalGroupElement((2.0, 0.5, 1.0))
    with pytest.raises(UnitProductViolation):
        DiagonalGroupElement((2.0, 2.0, 1.0))


def test_unit_product_check_cannot_overflow_midway():
    # a float product of the first two entries would already be inf (or 0.0)
    for entries in ((1e200, 1e200, 1e-200, 1e-200), (1e-200, 1e-200, 1e200, 1e200)):
        element = DiagonalGroupElement(entries)
        assert element.diag == entries
        assert element.inverse().multiply(element).is_identity()
    with pytest.raises(UnitProductViolation):
        DiagonalGroupElement((1e200, 1e200, 1e-200))


def test_group_element_rejects_non_finite_entries():
    with pytest.raises(UnitProductViolation):
        DiagonalGroupElement((math.inf, 1.0))
    with pytest.raises(UnitProductViolation):
        DiagonalGroupElement((math.nan, 1.0))


def test_group_element_rejects_zero_entries():
    with pytest.raises(ZeroCoordinate):
        DiagonalGroupElement((0.0, 1.0, 1.0))


def test_traceless_wants_zero_trace():
    TracelessDiagonal((1.0, -1.0))
    with pytest.raises(TraceNotZero):
        TracelessDiagonal((1.0, 1.0))


def test_traceless_rejects_non_finite_entries():
    for entries in ((math.nan, 1.0), (math.inf, -math.inf), (math.inf, 1.0), (F(1), math.nan)):
        with pytest.raises(TraceNotZero):
            TracelessDiagonal(entries)


# constructors and the chart


def test_dn1_new_examples():
    assert dn1_new((F(2), F(1, 2))).diag == (F(2), F(1, 2), F(1))
    assert dn1_new((F(5),)).diag == (F(5), F(1, 5))
    assert dn1_new((F(1), F(1), F(1))).is_identity()


def test_dn1_new_cannot_overflow_midway():
    # the float product 1e200 * 1e200 is inf, whose reciprocal is 0.0
    a = dn1_new((1e200, 1e200, 1e-200))
    assert a.diag[:3] == (1e200, 1e200, 1e-200)
    # the exact reciprocal product, rounded once
    assert a.diag[3] == float(1 / (F(1e200) * F(1e200) * F(1e-200)))
    assert dn1_new((1e-200, 1e-200, 1e200)).diag[3] == float(1 / (F(1e-200) * F(1e-200) * F(1e200)))
    assert dn1_new((F(10**200), F(10**200))).diag[2] == F(1, 10**400)  # rationals stay exact


def test_dn1_new_rejects_zero():
    with pytest.raises(ZeroCoordinate):
        dn1_new((F(2), F(0)))


def test_chart_examples():
    assert chart(DiagonalGroupElement((F(2), F(1, 2), F(1)))) == (F(2), F(1, 2))
    assert chart(DiagonalGroupElement.identity(4)) == (F(1), F(1), F(1))
    assert chart(DiagonalGroupElement((F(3), F(1, 3)))) == (F(3),)


def test_chart_round_trips():
    c = (F(2), F(-3), F(-1, 4))
    assert chart(dn1_new(c)) == c
    a = DiagonalGroupElement((F(2), F(3), F(1, 6)))
    assert dn1_new(chart(a)) == a


# group law


def test_mu_examples():
    a = DiagonalGroupElement((F(2), F(1, 2), F(1)))
    b = DiagonalGroupElement((F(4), F(1), F(1, 4)))
    assert mu(a, a).is_identity()
    assert mu(DiagonalGroupElement.identity(3), b) == b
    assert mu(a, b).diag == (F(2), F(2), F(1, 4))


def test_mu_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mu(DiagonalGroupElement.identity(2), DiagonalGroupElement.identity(3))


def test_multiplication_is_commutative_exact():
    rng = random.Random(11)
    for _ in range(50):
        a = dn1_new(tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)))
        b = dn1_new(tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)))
        assert (a * b).diag == (b * a).diag
        assert mu(a, b).diag == (a.inverse() * b).diag


# exp and log


def test_lie_exp_zero_is_identity():
    assert lie_exp(TracelessDiagonal.zero(4)).is_identity()


def test_lie_exp_worked_example():
    a = lie_exp(TracelessDiagonal((math.log(2), -math.log(2), 0.0)))
    assert close(a.diag, (2.0, 0.5, 1.0))


def test_lie_exp_of_scaled_basis():
    t = 0.75
    a = lie_exp(basis(4, 1).scaled(t))
    assert close(a.diag, (math.exp(t), 1.0, 1.0, math.exp(-t)))


def test_lie_log_examples():
    assert lie_log(DiagonalGroupElement.identity(3)).diag == (0.0, 0.0, 0.0)
    x = lie_log(DiagonalGroupElement((2.0, 0.5, 1.0)))
    assert close(x.diag, (math.log(2), -math.log(2), 0.0))


def test_lie_log_off_positive_component():
    with pytest.raises(NotIdentityComponent):
        lie_log(DiagonalGroupElement((-1.0, -1.0, 1.0)))


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=9))
def test_exp_log_round_trip(head):
    x = TracelessDiagonal(tuple(head) + (-sum(head),))
    a = lie_exp(x)
    assert abs(math.prod(a.diag) - 1.0) <= TOL
    assert close(lie_log(a).diag, x.diag)


def test_log_exp_round_trip_on_positive_component():
    a = dn1_new((2.0, 0.75, 1.25, 0.5))
    b = lie_exp(lie_log(a))
    assert close(b.diag, a.diag)


# basis, bracket, structure constants


def test_basis_placement():
    assert basis(3, 1).diag == (F(1), F(0), F(-1))
    assert basis(3, 2).diag == (F(0), F(1), F(-1))
    assert basis(2, 1).diag == (F(1), F(-1))


def test_basis_index_range():
    with pytest.raises(IndexError):
        basis(3, 0)
    with pytest.raises(IndexError):
        basis(3, 3)


def test_basis_spans_with_zero_error():
    x = TracelessDiagonal((F(2), F(-5), F(1, 3), F(8, 3)))
    rebuilt = TracelessDiagonal.zero(4)
    for i in range(1, 4):
        rebuilt = rebuilt + basis(4, i).scaled(x.diag[i - 1])
    assert rebuilt.diag == x.diag


def test_basis_independent_all_n():
    for n in range(2, 11):
        rows = np.array([[float(v) for v in basis(n, i).diag] for i in range(1, n)])
        assert rows.shape == (n - 1, n)
        assert np.linalg.matrix_rank(rows) == n - 1


def test_bracket_of_basis_pairs_is_zero():
    for i in range(1, 3):
        for j in range(1, 3):
            assert all(v == 0 for v in bracket(basis(3, i), basis(3, j)).diag)


def test_bracket_alternating():
    x = TracelessDiagonal((1.5, -0.5, -1.0))
    assert all(v == 0 for v in bracket(x, x).diag)


def test_bracket_random_pairs_zero():
    rng = random.Random(3)
    for _ in range(25):
        head = [rng.uniform(-2, 2) for _ in range(3)]
        x = TracelessDiagonal(tuple(head) + (-sum(head),))
        head = [rng.uniform(-2, 2) for _ in range(3)]
        y = TracelessDiagonal(tuple(head) + (-sum(head),))
        assert all(v == 0.0 for v in bracket(x, y).diag)


def test_structure_constants_zero():
    for n in (2, 3, 10):
        tensor = structure_constants(n)
        assert tensor.shape == (n - 1, n - 1, n - 1)
        assert not tensor.any()


floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
fractions = st.fractions(min_value=-10, max_value=10, max_denominator=100)


@st.composite
def traceless_diagonals(draw, n, entries):
    head = [draw(entries) for _ in range(n - 1)]
    return TracelessDiagonal((*head, -sum(head)))


@given(st.data(), st.integers(min_value=2, max_value=8), st.sampled_from([floats, fractions]))
def test_bracket_matches_numpy_dense_commutator(data, n, entries):
    x = data.draw(traceless_diagonals(n, entries))
    y = data.draw(traceless_diagonals(n, entries))
    # repr tells 0.0 from -0.0, which the CLI's JSON prints differently
    assert list(map(repr, bracket(x, y).diag)) == list(map(repr, numpy_bracket(x, y)))
    tensor = structure_constants(n)
    assert tensor.shape == (n - 1,) * 3
    assert tensor.dtype == float
    assert not tensor.any()


# components and the crossover to the exact group


def test_component_signature_examples():
    assert component_signature(DiagonalGroupElement.identity(4)) == (1, 1, 1, 1)
    a = DiagonalGroupElement((-2.0, -0.5, 1.0))
    assert component_signature(a) == (-1, -1, 1)


def test_negative_sign_count_is_even():
    rng = random.Random(5)
    for _ in range(50):
        head = tuple(F(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(4))
        a = dn1_new(head)
        signs = component_signature(a)
        assert signs.count(-1) % 2 == 0


def test_rational_elements_cross_over_exactly():
    a = DiagonalGroupElement((F(2), F(3), F(1, 6)))
    p = as_scaled_perm(a)
    assert p == ScaledPerm(Permutation.identity(3), (F(2), F(3), F(1, 6)))
    b = DiagonalGroupElement((F(4), F(1), F(1, 4)))
    agreed = as_scaled_perm(a).inverse().compose(as_scaled_perm(b))
    assert agreed.scale == mu(a, b).diag
