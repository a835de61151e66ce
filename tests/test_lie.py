import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from helpers import wide_nonzero_rationals
from oracles import (
    entrywise_add,
    entrywise_exp,
    entrywise_inverse,
    entrywise_log,
    entrywise_mu,
    entrywise_multiply,
    entrywise_scaled,
    expanded_bracket,
    expanded_structure_constants,
    near_unit_product,
    numpy_bracket,
    summed_basis,
)

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
from bmsym.lie import TOLERANCE, _Diagonal, _near_unit_product, _ratio_product

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


def test_unit_product_error_names_a_product_beyond_the_float_range():
    with pytest.raises(UnitProductViolation, match="entry product is below the float range"):
        DiagonalGroupElement((1e-200, 1e-200, 1.0))
    with pytest.raises(UnitProductViolation, match="entry product is above the float range"):
        DiagonalGroupElement((1e200, -1e200, 1.0))
    with pytest.raises(UnitProductViolation, match="entry product is 4.0, expected 1"):
        DiagonalGroupElement((2.0, 2.0, 1.0))
    with pytest.raises(UnitProductViolation, match="entry product is inf, expected 1"):
        DiagonalGroupElement((math.inf, 1.0))


def test_group_element_rejects_non_finite_entries():
    with pytest.raises(UnitProductViolation):
        DiagonalGroupElement((math.inf, 1.0))
    with pytest.raises(UnitProductViolation):
        DiagonalGroupElement((math.nan, 1.0))


def test_group_element_rejects_mixed_exact_and_float_entries():
    with pytest.raises(TypeError):
        DiagonalGroupElement((F(1, 2), 2.0))
    with pytest.raises(TypeError):
        DiagonalGroupElement((2.0, F(1, 4), 2))
    assert DiagonalGroupElement((0.5, 2.0)).diag == (0.5, 2.0)
    assert DiagonalGroupElement((F(1, 2), 2)).diag == (F(1, 2), F(2))
    # dn1_new checks its chart the same way
    with pytest.raises(TypeError, match=r"all floats or all exact, got \(Fraction\(1, 2\), 2.0\)"):
        dn1_new((F(1, 2), 2.0))


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


def test_trace_check_cannot_overflow_midway():
    # the float sum 1e308 + 1e308 is already inf, but the trace is exactly 0
    for entries in ((1e308, 1e308, -1e308, -1e308), (-1e308, -1e308, 1e308, 1e308)):
        assert TracelessDiagonal(entries).diag == entries
    # the exact trace is reported as its float, or as beyond the float range
    with pytest.raises(TraceNotZero, match=r"^trace is 1e\+308, expected 0$"):
        TracelessDiagonal((1e308, 1e308, -1e308))
    for entries in ((1e308, 1e308, 1e308), (-1e308, -1e308, -1e308), (F(10**400), 1.0)):
        with pytest.raises(TraceNotZero, match="^trace is beyond the float range, expected 0$"):
            TracelessDiagonal(entries)


def test_float_trace_is_the_correctly_rounded_sum():
    # the float sum left to right is -1.0, but the trace is exactly 0
    entries = (1e20, 1.0, -1e20, -1.0)
    assert TracelessDiagonal(entries).diag == entries
    # the exact values of these floats sum to -5.96e-9, well beyond TOLERANCE
    assert sum(map(F, (1e8 + 0.1, -1e8, -0.1))) < -5e-9
    with pytest.raises(TraceNotZero, match="trace is -5.96"):
        TracelessDiagonal((1e8 + 0.1, -1e8, -0.1))
    # an exact entry beyond the float range is summed exactly
    with pytest.raises(TraceNotZero):
        TracelessDiagonal((F(10**400), 1.0))
    with pytest.raises(TraceNotZero, match="trace is inf"):
        TracelessDiagonal((1e308, 1e308, math.inf))


def test_exact_entries_pass_through_unchanged():
    half, quarter = F(1, 2), F(1, 4)
    a = DiagonalGroupElement((half, F(2)))
    x = TracelessDiagonal((quarter, -quarter))
    assert a.diag[0] is half and x.diag[0] is quarter
    assert dn1_new((half,)).diag[0] is half
    assert TracelessDiagonal((1, -1)).diag == (F(1), F(-1))


def test_exact_entries_are_checked_exactly():
    # TOLERANCE would admit these; as_scaled_perm of the first would then raise
    with pytest.raises(UnitProductViolation, match="entry product is 10000000000001/10000000000000"):
        DiagonalGroupElement((F(10**13 + 1, 10**13), F(1)))
    with pytest.raises(TraceNotZero, match="trace is 1/10000000000000, expected 0"):
        TracelessDiagonal((F(1, 10**13), F(0)))
    # one float entry is enough for the tolerance to apply
    assert DiagonalGroupElement((1 + 1e-13, 1.0)).n == 2
    assert TracelessDiagonal((1e-13, 0.0)).n == 2
    assert TracelessDiagonal((F(1, 10**13), 0.0)).n == 2


def test_diagonal_records_keep_their_dataclass_behaviour():
    a = DiagonalGroupElement((F(2), F(1, 2)))
    x = TracelessDiagonal((1.5, -1.5))
    assert repr(a) == "DiagonalGroupElement(diag=(Fraction(2, 1), Fraction(1, 2)))"
    assert repr(x) == "TracelessDiagonal(diag=(1.5, -1.5))"
    assert a == DiagonalGroupElement((2, F(1, 2))) and hash(a) == hash((a.diag,))
    assert {x, TracelessDiagonal((1.5, -1.5))} == {x}
    b = DiagonalGroupElement(diag=(4, F(1, 4)))
    assert type(b) is DiagonalGroupElement and b.diag == (F(4), F(1, 4))
    with pytest.raises(TraceNotZero):
        TracelessDiagonal(diag=(1.0, 1.0))
    with pytest.raises(AttributeError, match="^DiagonalGroupElement is immutable$"):
        a.diag = (F(1), F(1))
    with pytest.raises(AttributeError, match="^TracelessDiagonal is immutable$"):
        del x.diag
    match b:
        case DiagonalGroupElement((four, quarter)):
            assert (four, quarter) == (4, F(1, 4))
        case _:
            pytest.fail("no positional match")
    # the same entries in the group and in the algebra are different values
    for entries in ((F(1), F(1), F(-1), F(-1)), (1.0, 1.0, -1.0, -1.0)):
        assert DiagonalGroupElement(entries) != TracelessDiagonal(entries)
        assert TracelessDiagonal(entries) != DiagonalGroupElement(entries)


# every size and dimension check of the module: call -> its exact message
SIZE_RAISES = {
    "multiply": (lambda: DiagonalGroupElement.identity(2).multiply(DiagonalGroupElement.identity(3)),
                 "sizes differ: 2 vs 3"),
    "add": (lambda: TracelessDiagonal.zero(2) + TracelessDiagonal.zero(3), "sizes differ: 2 vs 3"),
    "bracket": (lambda: bracket(TracelessDiagonal.zero(2), TracelessDiagonal.zero(3)),
                "sizes differ: 2 vs 3"),
    "basis": (lambda: basis(1, 1), "need n >= 2"),
    "structure_constants": (lambda: structure_constants(1), "need n >= 2"),
    "dn1_new": (lambda: dn1_new(()), "need at least one leading entry"),
}


@pytest.mark.parametrize("site", SIZE_RAISES)
def test_each_size_check_has_its_own_message(site):
    call, message = SIZE_RAISES[site]
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        call()


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


def test_dn1_new_last_entry_outside_float_range():
    # the exact last entries are 1e400 and 1e-400, which no float holds
    with pytest.raises(UnitProductViolation, match="last entry is above the float range"):
        dn1_new((1e-200, 1e-200))
    with pytest.raises(UnitProductViolation, match="last entry is below the float range"):
        dn1_new((1e200, 1e200))
    with pytest.raises(UnitProductViolation, match="last entry is below the float range"):
        dn1_new((-1e200, 1e200))
    # a subnormal last entry holds the unit product within TOLERANCE only
    # when it is not too small; the constructor draws the same line
    assert dn1_new((1e300, 1e10)) == DiagonalGroupElement((1e300, 1e10, 1e-310))
    with pytest.raises(UnitProductViolation, match="last entry is below the float range"):
        dn1_new((1e300, 1e15))
    with pytest.raises(UnitProductViolation):
        DiagonalGroupElement((1e300, 1e15, float(1 / (F(1e300) * F(1e15)))))


def test_dn1_new_rejects_non_finite_coordinates():
    for first in ((math.inf,), (math.nan,), (2.0, -math.inf, 0.5)):
        with pytest.raises(UnitProductViolation, match="chart coordinates must be finite"):
            dn1_new(first)


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
    with pytest.raises(DimensionMismatch, match="sizes differ: 2 vs 3"):
        mu(DiagonalGroupElement.identity(2), DiagonalGroupElement.identity(3))


def test_mu_divides_the_charts_without_an_intermediate_inverse():
    # the last entry of a's inverse, the product of a's chart, is 1.8e308:
    # above the float range, although every b_i / a_i lies within it
    a = dn1_new((1.0, 1.0, 2.0, 18.0, 56.0, 9.000000000000001e304))
    b = dn1_new((1.0, 1.0, 1.0, 1.0, 1.0, 1e9))
    result = mu(a, b)
    assert DiagonalGroupElement(result.diag) == result
    assert result.diag[:-1] == tuple(y / x for x, y in zip(a.diag[:-1], b.diag[:-1]))
    assert result.diag[-1] == float(1 / math.prod(map(F, result.diag[:-1])))  # the chart, completed


def test_multiplication_is_commutative_exact():
    rng = random.Random(11)
    for _ in range(50):
        a = dn1_new(tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)))
        b = dn1_new(tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)))
        assert (a * b).diag == (b * a).diag
        assert mu(a, b).diag == (a.inverse() * b).diag


def test_float_operations_at_the_tolerance_edge_are_closed():
    # the entrywise results fell just outside TOLERANCE
    a = DiagonalGroupElement((1 + 9e-13, 1.0))
    x = TracelessDiagonal((9e-13, 0.0))
    for element in (a.multiply(a), a * a * a, mu(a.inverse(), a)):
        assert DiagonalGroupElement(element.diag) == element
    square = a.diag[0] * a.diag[0]
    assert (a * a).diag == (square, float(1 / F(square)))  # the chart, completed
    for element in (x + x, x.scaled(3.0), 3.0 * x):
        assert TracelessDiagonal(element.diag) == element
        assert element.diag[1] == -element.diag[0]


def test_group_results_outside_the_float_range_are_domain_errors():
    a = DiagonalGroupElement((1e200, 1e-200))
    with pytest.raises(UnitProductViolation):
        a.multiply(a)  # the chart is (inf,)
    with pytest.raises(ZeroCoordinate):
        a.inverse().multiply(a.inverse())  # the chart is (0.0,)


def test_algebra_completion_keeps_a_zero_last_entry_positive():
    # -sum((0.0, 0.0)) is -0.0, which the CLI's JSON would print as -0.0
    assert repr(TracelessDiagonal.zero(3).scaled(2.0).diag) == "(0.0, 0.0, 0.0)"


def test_algebra_completion_cannot_overflow_midway():
    # the float sum of the head, 1e308 + 1e308, is inf; the exact one is 1e308
    x = TracelessDiagonal((1e308, 1e308, -1e308, -1e308))
    assert x + TracelessDiagonal.zero(4) == x
    assert x.scaled(1.0) == x
    y = TracelessDiagonal((1e308, -1e308))
    for overflow in (lambda: y + y, lambda: y.scaled(2.0), lambda: y.scaled(math.nan)):
        with pytest.raises(TraceNotZero):
            overflow()
    # the head's trace, 3.4e308, is past the float range, so no float completes it
    z = TracelessDiagonal((1.7e308, 1.7e308, -2 * F(1.7e308)))
    with pytest.raises(TraceNotZero,
                       match=r"^chart \(1\.7e\+308, 1\.7e\+308\) has no finite traceless completion$"):
        z.scaled(1.0)


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


def test_exp_overflow_names_the_entry():
    # and an entry whose exp underflows to 0.0, the same way
    for head, i, side in (((800.0,), 1, "above"), ((1.0, 800.0), 2, "above"),
                          ((710.0, 1.0, -1.0), 1, "above"), ((-800.0,), 1, "below"),
                          ((1.0, -750.0, 1.0), 2, "below")):
        x = TracelessDiagonal((*head, -sum(head)))
        with pytest.raises(UnitProductViolation, match=f"^entry {i} is {side} the float range$"):
            lie_exp(x)


def test_exp_and_log_at_the_tolerance_edge_are_closed():
    # exp or log of every entry put the product or trace just past TOLERANCE
    x = TracelessDiagonal((1e-12, 0.0))
    with pytest.raises(UnitProductViolation):
        entrywise_exp(x)
    a = lie_exp(x)
    assert DiagonalGroupElement(a.diag) == a
    assert a.diag[0] == math.exp(1e-12)
    b = DiagonalGroupElement((10.0, 0.10000000000009998))
    with pytest.raises(TraceNotZero):
        entrywise_log(b)
    y = lie_log(b)
    assert TracelessDiagonal(y.diag) == y
    assert y.diag == (math.log(10.0), -math.log(10.0))


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


def test_basis_equals_the_summed_construction():
    for n in range(2, 13):
        assert all(repr(basis(n, i)) == repr(summed_basis(n, i)) for i in range(1, n))


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


def test_bracket_is_exact_at_every_magnitude():
    # the float products x_i * y_i of these entries overflow or underflow;
    # the exact commutator is still 0.0 in every entry
    entries = [(1e200, -1e200), (1e308, -1e308), (5e-324, -5e-324)]
    for x, y in itertools.product(map(TracelessDiagonal, entries), repeat=2):
        assert [repr(v) for v in bracket(x, y).diag] == ["0.0", "0.0"]


def test_structure_lists_are_float_zeros():
    for n in range(2, 11):
        zeros = [[[0.0] * (n - 1) for _ in range(n - 1)] for _ in range(n - 1)]
        assert repr(structure_constants(n).tolist()) == repr(zeros)
        assert repr(expanded_structure_constants(n)) == repr(zeros)


def test_structure_constants_zero():
    for n in (2, 3, 10):
        tensor = structure_constants(n)
        assert tensor.shape == (n - 1, n - 1, n - 1)
        assert not np.asarray(tensor).any()


floats = st.floats(min_value=-10, max_value=10, allow_nan=False)
fractions = st.fractions(min_value=-10, max_value=10, max_denominator=100)
# the float products of these overflow or underflow; their pairs v, -v
# keep the trace exactly 0
edges = st.sampled_from([1e308, -1e308, 1e200, 5e-324, -5e-324, 0.0])


@st.composite
def traceless_diagonals(draw, n, entries):
    if entries is edges:
        values = [draw(edges) for _ in range(n // 2)]
        diag = [*values, *(-v for v in values), *[0.0] * (n % 2)]
        return TracelessDiagonal(tuple(draw(st.permutations(diag))))
    head = [draw(entries) for _ in range(n - 1)]
    return TracelessDiagonal((*head, -sum(head)))


@given(st.data(), st.integers(min_value=2, max_value=8),
       st.sampled_from([floats, fractions, edges]))
def test_bracket_matches_numpy_dense_commutator(data, n, entries):
    x = data.draw(traceless_diagonals(n, entries))
    y = data.draw(traceless_diagonals(n, entries))
    # repr tells 0.0 from -0.0, which the CLI's JSON prints differently
    result = list(map(repr, bracket(x, y).diag))
    assert result == list(map(repr, expanded_bracket(x, y).diag))
    if entries is not edges:  # numpy's products overflow there
        assert result == list(map(repr, numpy_bracket(x, y)))
    tensor = structure_constants(n)
    assert tensor.shape == (n - 1,) * 3
    assert tensor.format == "d"
    assert not np.asarray(tensor).any()


# the exact float product, each entry entering as its integer ratio

finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300, 0.1, -0.0]),
)


@given(st.lists(st.one_of(finite_floats, fractions), max_size=8))
def test_ratio_product_is_exact_on_floats_and_mixes(values):
    numerator, denominator = _ratio_product(values)
    assert F(numerator, denominator) == math.prod(map(F, values), start=F(1))
    assert denominator > 0


def test_ratio_product_rejects_non_finite_floats():
    with pytest.raises(OverflowError):
        _ratio_product([F(1, 2), math.inf])
    with pytest.raises(OverflowError):
        _ratio_product([-math.inf])
    with pytest.raises(ValueError):
        _ratio_product([2.0, math.nan])


# the unit-product tolerance test, against the Fraction operators

edge_floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf]
        + [math.nan, 1.0, 1.0 + TOLERANCE, 1.0 - TOLERANCE, -1.0]
    ),
)


@st.composite
def near_unit_lists(draw):
    """Float, exact or mixed entries; half the time the last entry is plus
    or minus the reciprocal of the others' product (a float one if any entry
    is a float), so that the product is near 1 or near -1."""
    values = draw(st.lists(st.one_of(edge_floats, fractions), max_size=8))
    if draw(st.booleans()):
        try:
            product = math.prod(map(F, values), start=F(1))
        except (OverflowError, ValueError):
            return values
        if product:
            last = draw(st.sampled_from([1, -1])) / product
            if any(isinstance(v, float) for v in values):
                last = float(last) if abs(last) < 2**1000 else math.inf
            values.append(last)
    return values


@given(near_unit_lists())
def test_near_unit_product_matches_the_operator_oracle(values):
    assert _near_unit_product(values) is near_unit_product(values, TOLERANCE)


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


# the operations complete the chart: exact results equal the entrywise
# operators, float results are closed

wide_fractions = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


@st.composite
def exact_group_elements(draw, n, entries=wide_fractions.filter(bool)):
    head = [draw(entries) for _ in range(n - 1)]
    return DiagonalGroupElement((*head, 1 / math.prod(head, start=F(1))))


def assert_same(result, want):
    """The same value, entry types, repr and hash."""
    assert type(result) is type(want) and result == want
    assert [type(v) for v in result.diag] == [type(v) for v in want.diag]
    assert repr(result) == repr(want) and hash(result) == hash(want)


@given(st.data(), st.integers(min_value=2, max_value=8))
def test_exact_operations_equal_the_entrywise_oracles(data, n):
    a, b = data.draw(exact_group_elements(n)), data.draw(exact_group_elements(n))
    x = data.draw(traceless_diagonals(n, wide_fractions))
    y = data.draw(traceless_diagonals(n, wide_fractions))
    factor = data.draw(st.one_of(st.integers(min_value=-9, max_value=9), wide_fractions))
    assert_same(a.multiply(b), entrywise_multiply(a, b))
    assert_same(a.inverse(), entrywise_inverse(a))
    assert_same(mu(a, b), entrywise_mu(a, b))
    assert_same(x + y, entrywise_add(x, y))
    assert_same(x.scaled(factor), entrywise_scaled(x, factor))


@given(st.data(), st.integers(min_value=2, max_value=8))
def test_exact_group_law_kernels_equal_the_fraction_operators(data, n):
    # negative entries, with numerators and denominators up to 2**128
    a = data.draw(exact_group_elements(n, wide_nonzero_rationals))
    b = data.draw(exact_group_elements(n, wide_nonzero_rationals))
    # assert_same: the type, each entry's numerator and denominator (by repr) and the hash
    assert_same(a.multiply(b), entrywise_multiply(a, b))
    assert_same(a * a, entrywise_multiply(a, a))
    assert_same(a.inverse(), entrywise_inverse(a))
    assert_same(mu(a, b), entrywise_mu(a, b))
    assert_same(mu(b, b), DiagonalGroupElement.identity(n))


EDGE_OFFSETS = [0.0, 9e-13, -9e-13, 5e-13, -5e-13]
IN_RANGE = (F(1e-300), F(1e300))


@st.composite
def edge_group_elements(draw, n):
    """Float elements whose product is off 1 by up to 9e-13, with entries
    from about 1 up to 1e±250 in magnitude."""
    head = []
    for _ in range(n - 1):
        mantissa = draw(st.floats(min_value=1, max_value=10)) * draw(st.sampled_from([1, -1]))
        head.append(mantissa * 10.0 ** draw(st.one_of(st.just(0), st.integers(-250, 250))))
    last = 1 / math.prod(map(F, head), start=F(1))
    assume(IN_RANGE[0] <= abs(last) <= IN_RANGE[1])
    return DiagonalGroupElement((*head, float(last) * (1 + draw(st.sampled_from(EDGE_OFFSETS)))))


# each step with the exponents (p, q) of its entrywise result a_i^p b_i^q
GROUP_STEPS = [
    (lambda a, b: a.multiply(b), 1, 1),
    (lambda a, b: a.inverse(), -1, 0),
    (mu, -1, 1),
    (lambda a, b: mu(b, a), 1, -1),
    (lambda a, b: a * a, 2, 0),
]


@given(st.data(), st.integers(min_value=2, max_value=8))
def test_float_group_chains_from_the_tolerance_edge_are_closed(data, n):
    a = data.draw(edge_group_elements(n))
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        b = data.draw(edge_group_elements(n))
        step, p, q = data.draw(st.sampled_from(GROUP_STEPS))
        want = [F(u) ** p * F(v) ** q for u, v in zip(a.diag, b.diag)]
        in_range = all(IN_RANGE[0] <= abs(v) <= IN_RANGE[1] for v in want)
        try:
            result = step(a, b)
        except (UnitProductViolation, ZeroCoordinate):
            assert not in_range
            return
        assert all(type(v) is float for v in result.diag)
        assert DiagonalGroupElement(result.diag) == result
        if in_range:  # the projection moves the entrywise result by its operands' errors
            assert all(abs(F(u) - v) <= abs(v) * F(1e-11) for u, v in zip(result.diag, want))
        a = result


@st.composite
def edge_traceless(draw, n):
    """Float elements whose trace is off 0 by up to 9e-13."""
    head = [draw(st.floats(min_value=-2, max_value=2)) for _ in range(n - 1)]
    last = -float(sum(map(F, head))) + draw(st.sampled_from(EDGE_OFFSETS))
    return TracelessDiagonal((*head, last))


# each step with its entrywise result on the exact entries u of x, v of y
ALGEBRA_STEPS = [
    (lambda x, y, f: x + y, lambda u, v, f: u + v),
    (lambda x, y, f: x.scaled(f), lambda u, v, f: f * u),
    (lambda x, y, f: -x, lambda u, v, f: -u),
]


@given(st.data(), st.integers(min_value=2, max_value=8))
def test_float_algebra_chains_from_the_tolerance_edge_are_closed(data, n):
    x = data.draw(edge_traceless(n))
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        y = data.draw(edge_traceless(n))
        factor = data.draw(st.floats(min_value=-1.5, max_value=1.5))
        step, entrywise = data.draw(st.sampled_from(ALGEBRA_STEPS))
        result = step(x, y, factor)
        assert all(type(v) is float for v in result.diag)
        assert TracelessDiagonal(result.diag) == result
        want = [entrywise(F(u), F(v), F(factor)) for u, v in zip(x.diag, y.diag)]
        assert all(abs(F(u) - v) <= F(1e-11) for u, v in zip(result.diag, want))
        x = result


def assert_completes_the_entrywise_result(result, oracle, argument):
    """``result`` passes its validating constructor and agrees with the
    entrywise oracle: byte for byte on the chart, within 1e-11 relative (at
    least 1e-11 absolute) on the last entry.  Where the oracle's constructor
    rejects its own entries, the tolerance defect that completing the chart
    mends, only the first check runs."""
    assert all(type(v) is float for v in result.diag)
    assert type(result)(result.diag) == result
    try:
        want = oracle(argument).diag
    except (UnitProductViolation, TraceNotZero):
        return
    assert list(map(repr, result.diag[:-1])) == list(map(repr, want[:-1]))
    assert abs(result.diag[-1] - want[-1]) <= max(abs(want[-1]), 1.0) * 1e-11


@st.composite
def traceless_at_the_tolerance(draw, n):
    """Float elements whose trace is off 0 by as much as TOLERANCE admits."""
    head = [draw(st.floats(min_value=-2, max_value=2)) for _ in range(n - 1)]
    last = float(draw(st.sampled_from([1, -1])) * F(TOLERANCE) - sum(map(F, head)))
    while abs(trace := sum(map(F, (*head, last)))) > F(TOLERANCE):  # rounding overshot
        last = math.nextafter(last, -math.inf if trace > 0 else math.inf)
    return TracelessDiagonal((*head, last))


@given(st.data(), st.integers(min_value=2, max_value=8))
def test_exp_and_log_equal_the_entrywise_oracles_on_the_chart(data, n):
    a = DiagonalGroupElement(tuple(map(abs, data.draw(edge_group_elements(n)).diag)))
    y = lie_log(a)
    assert_completes_the_entrywise_result(y, entrywise_log, a)
    # tangent vectors at the tolerance edge, and logs of up to 690 in magnitude
    for x in (data.draw(edge_traceless(n)), data.draw(traceless_at_the_tolerance(n)), y):
        try:
            result = lie_exp(x)
        except (UnitProductViolation, ZeroCoordinate):
            assert not all(abs(t) <= math.log(1e300) for t in x.diag)
            continue
        assert_completes_the_entrywise_result(result, entrywise_exp, x)


@pytest.mark.parametrize("entries", [F, float])
def test_no_operation_goes_through_the_validating_constructor(monkeypatch, entries):
    a = DiagonalGroupElement(tuple(map(entries, (2, 3, F(1, 6)))))
    b = DiagonalGroupElement(tuple(map(entries, (F(1, 4), 1, 4))))
    x = TracelessDiagonal(tuple(map(entries, (F(1, 2), -1, F(1, 2)))))
    y = TracelessDiagonal(tuple(map(entries, (3, -2, -1))))

    def refuse(self, diag):
        raise AssertionError("a result went through the validating constructor")

    monkeypatch.setattr(_Diagonal, "__init__", refuse)
    results = [a.multiply(b), a.inverse(), mu(a, b), x + y, x.scaled(entries(3)), -x]
    results += [lie_exp(x), lie_log(a), bracket(x, y)]
    assert [r.n for r in results] == [3] * len(results)
    assert structure_constants(4).shape == (3, 3, 3)
