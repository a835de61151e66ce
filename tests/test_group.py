import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from bmsym import (
    AffineSymmetry,
    DimensionMismatch,
    NegativeRadicand,
    Permutation,
    RationalMatrix,
    ScaledPerm,
    UnitProductViolation,
    ZeroScale,
    as_fraction,
    metric,
    metric_power,
)
from helpers import (
    NO_SHRINK,
    affine_symmetries,
    nonzero_rationals,
    rationals,
    scaled_perms,
    vectors,
    wide_nonzero_rationals,
    wide_rationals,
)
from oracles import (
    chained_affine_apply,
    chained_affine_compose,
    chained_affine_inverse,
    chained_scaled_apply,
    chained_scaled_compose,
    chained_scaled_inverse,
    cofactor_det,
)

WORKED = ScaledPerm(Permutation((2, 3, 1)), (F(2), F(3), F(1, 6)))


# construction


def test_unit_product_accepted():
    assert WORKED.scale == (F(2), F(3), F(1, 6))


def test_identity_element():
    e = ScaledPerm.identity(3)
    assert e.is_identity()
    assert e.to_dense() == RationalMatrix.identity(3)


def test_rejects_zero_scale():
    with pytest.raises(ZeroScale):
        ScaledPerm(Permutation((2, 1)), (F(0), F(1)))


def test_rejects_non_unit_product():
    with pytest.raises(UnitProductViolation):
        ScaledPerm(Permutation((2, 1)), (F(2), F(2)))


def test_non_unit_product_error_prints_the_reduced_product():
    with pytest.raises(UnitProductViolation, match="^scale product is 4/3, expected 1$"):
        ScaledPerm(Permutation((2, 1)), (F(2, 3), F(2)))


def test_rejects_scale_length_mismatch():
    with pytest.raises(DimensionMismatch):
        ScaledPerm(Permutation((2, 1)), (F(2), F(1), F(1, 2)))


# dense form


def test_to_dense_placement():
    assert WORKED.to_dense() == RationalMatrix(
        [[0, 2, 0], [0, 0, 3], [F(1, 6), 0, 0]]
    )


def test_to_dense_two_by_two():
    p = ScaledPerm(Permutation((2, 1)), (F(3), F(1, 3)))
    assert p.to_dense() == RationalMatrix([[0, 3], [F(1, 3), 0]])


# composition and inverse


def test_compose_worked_example():
    q = ScaledPerm(Permutation((2, 1, 3)), (F(1, 2), F(2), F(1)))
    r = WORKED.compose(q)
    assert r.sigma.image == (1, 3, 2)
    assert r.scale == (F(4), F(3), F(1, 12))


def test_compose_with_identity():
    assert WORKED.compose(ScaledPerm.identity(3)) == WORKED
    assert ScaledPerm.identity(3).compose(WORKED) == WORKED


def test_compose_with_inverse_is_identity():
    assert WORKED.compose(WORKED.inverse()).is_identity()
    assert WORKED.inverse().compose(WORKED).is_identity()


def test_inverse_worked_example():
    inv = WORKED.inverse()
    assert inv.sigma.image == (3, 1, 2)
    assert inv.scale == (F(6), F(1, 2), F(1, 3))


def test_inverse_is_involution():
    assert WORKED.inverse().inverse() == WORKED


def test_not_abelian():
    s = ScaledPerm(Permutation((2, 1, 3)), (F(1),) * 3)
    t = ScaledPerm(Permutation((1, 3, 2)), (F(1),) * 3)
    assert s.compose(t).sigma.image == (3, 1, 2)
    assert t.compose(s).sigma.image == (2, 3, 1)
    assert s.compose(t) != t.compose(s)


def test_det_examples():
    assert ScaledPerm(Permutation((2, 1, 3)), (F(2), F(1, 2), F(1))).det() == -1
    assert ScaledPerm.identity(3).det() == 1
    assert WORKED.det() == 1
    assert WORKED.det() == cofactor_det(WORKED.to_dense())


# action on vectors


def test_apply_worked_example():
    assert WORKED.apply((F(1), F(2), F(4))) == (F(4), F(12), F(1, 6))


def test_apply_identity():
    y = (F(3), F(-1), F(7))
    assert ScaledPerm.identity(3).apply(y) == y


def test_apply_two_by_two():
    p = ScaledPerm(Permutation((2, 1)), (F(3), F(1, 3)))
    assert p.apply((F(1), F(1))) == (F(3), F(1, 3))


# affine layer


def test_affine_apply_pure_translation():
    s = AffineSymmetry(ScaledPerm.identity(3), (F(1), F(2), F(3)))
    assert s.apply((F(0), F(0), F(0))) == (F(1), F(2), F(3))


def test_affine_apply_zero_translation():
    s = AffineSymmetry(WORKED, (F(0),) * 3)
    assert s.apply((F(1), F(2), F(4))) == (F(4), F(12), F(1, 6))


def test_affine_compose_translations_add():
    u = AffineSymmetry(ScaledPerm.identity(2), (F(1), F(2)))
    v = AffineSymmetry(ScaledPerm.identity(2), (F(3), F(5)))
    w = u.compose(v)
    assert w.linear.is_identity()
    assert w.translation == (F(4), F(7))


def test_affine_compose_worked_example():
    swap = ScaledPerm(Permutation((2, 1)), (F(1), F(1)))
    s = AffineSymmetry(swap, (F(1), F(0)))
    t = AffineSymmetry(ScaledPerm.identity(2), (F(0), F(1)))
    u = s.compose(t)
    assert u.linear == swap
    assert u.translation == (F(2), F(0))


def test_affine_inverse_pure_translation():
    s = AffineSymmetry(ScaledPerm.identity(3), (F(1), F(2), F(3)))
    assert s.inverse().translation == (F(-1), F(-2), F(-3))


def test_affine_inverse_worked_example():
    s = AffineSymmetry(WORKED, (F(1), F(0), F(0)))
    inv = s.inverse()
    assert inv.linear == WORKED.inverse()
    assert inv.translation == (F(0), F(-1, 2), F(0))
    assert s.compose(inv).is_identity()
    assert inv.compose(s).is_identity()


def test_affine_identity_inverse():
    e = AffineSymmetry.identity(3)
    assert e.inverse() == e


def test_affine_translation_length_checked():
    with pytest.raises(DimensionMismatch):
        AffineSymmetry(WORKED, (F(1), F(2)))


# metric


def test_metric_power_examples():
    assert metric_power((F(1), F(2), F(4))) == 8
    assert metric_power((F(4), F(12), F(1, 6))) == 8
    assert metric_power((F(0), F(5), F(7))) == 0


def test_metric_power_needs_two_coordinates():
    with pytest.raises(DimensionMismatch):
        metric_power((F(2),))


def test_metric_examples():
    assert metric((1, 2, 4)) == 2.0
    assert metric((1, 1, 1, 1)) == 1.0


def test_metric_negative_radicand_even_n():
    with pytest.raises(NegativeRadicand):
        metric((-1, 1, 1, 1))


def test_metric_signed_root_odd_n():
    assert metric((-1, 2, 4)) == -2.0
    assert metric((-8.0, 1, 1)) == -2.0


def test_metric_names_a_coordinate_above_the_float_range():
    for y, i in (((F(10**400), F(1)), 1), ((F(1), F(-(10**400), 3), F(2)), 2)):
        with pytest.raises(OverflowError, match=f"^coordinate {i} is above the float range$"):
            metric(y)


def test_metric_beyond_the_float_range_of_the_product():
    # the float products are 0.0 and inf, but the roots lie in range
    assert metric((F(1, 10**200),) * 2) == 1e-200
    assert metric((F(10**200),) * 2) == 1e200
    assert metric((F(10**200),) * 3) == 1e200
    assert metric((F(-(10**200)), F(10**200), F(10**200))) == -1e200
    assert metric((F(-1, 10**200), F(1, 10**200), F(1, 10**200))) == -1e-200
    assert metric((F(10**300),) * 1000) == 1e300
    assert metric((F(1, 10**300),) * 1000) == 1e-300
    assert metric((F(10**300),) * 2000) == 1e300  # 2**(remainder) alone would overflow
    # a subnormal product: the root keeps full precision
    assert metric((F(1, 10**160), F(1, 10**160))) == 1e-160
    with pytest.raises(NegativeRadicand, match="product -inf"):
        metric((F(10**200), F(-(10**200))))
    with pytest.raises(NegativeRadicand, match="product below the float range, negative"):
        metric((F(1, 10**200), F(-1, 10**200)))


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=10**6),
                          st.integers(min_value=-300, max_value=300)), min_size=2, max_size=1500))
@example(parts=[(1, -16), (1, -300), (1, 9)])  # a subnormal partial product, normal again
def test_metric_matches_the_mean_log_of_the_coordinates(parts):
    # most of these products leave the float range; the root never does
    y = [F(m) * F(10) ** e for m, e in parts]
    mean_log = sum(math.log(m) + e * math.log(10) for m, e in parts) / len(parts)
    assert math.log(metric(y)) == pytest.approx(mean_log, rel=1e-12, abs=1e-9)


def test_metric_keeps_zero_coordinates_and_their_sign():
    assert metric((0, 5)) == 0.0
    assert metric((-1, 0)) == 0.0  # the even root of -0.0 is not a negative radicand
    assert str(metric((-1, 0, 1))) == "-0.0"
    assert metric((F(10**200), 0, F(10**200))) == 0.0


def test_metric_coordinate_beyond_float_range_still_overflows():
    with pytest.raises(OverflowError):
        metric((F(10**400), F(1)))


def test_metric_coordinate_below_float_range_overflows():
    # the coordinate's float is 0.0, which would make the root 0.0, not 1
    with pytest.raises(OverflowError, match="below the float range"):
        metric((F(1, 10**400), F(10**200), F(10**200)))
    assert metric((0, F(1, 10**400))) == 0.0  # an exact zero still gives 0.0


def test_metric_reads_an_iterator_as_it_reads_a_list():
    def outcome(y):
        try:
            return repr(metric(y))
        except OverflowError as exc:
            return str(exc)

    for y in ([0, 1], [F(1, 10**400), 0], [2, 8], [F(1, 10**400), F(10**200), F(10**200)]):
        assert outcome(iter(y)) == outcome(y), y
    assert outcome(iter([F(1, 10**400), 1])) == "a nonzero coordinate is below the float range"


# properties


@given(scaled_perms(n=4), scaled_perms(n=4), scaled_perms(n=4))
def test_scaled_perm_group_axioms(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))
    e = ScaledPerm.identity(4)
    assert p.compose(e) == p and e.compose(p) == p
    assert p.compose(p.inverse()).is_identity()
    assert p.inverse().compose(p).is_identity()


@given(scaled_perms())
def test_closure_scale_product_is_one(p):
    product = F(1)
    for a in p.inverse().scale:
        product *= a
    assert product == 1


@given(scaled_perms(n=3), scaled_perms(n=3))
def test_compose_matches_dense_product(p, q):
    assert p.compose(q).to_dense() == p.to_dense() @ q.to_dense()


@given(scaled_perms())
def test_inverse_matches_dense_inverse(p):
    n = p.n
    assert p.inverse().to_dense() @ p.to_dense() == RationalMatrix.identity(n)
    assert p.to_dense() @ p.inverse().to_dense() == RationalMatrix.identity(n)


@given(scaled_perms())
def test_det_matches_sign_and_cofactor(p):
    assert p.det() == p.sigma.sign() == cofactor_det(p.to_dense())


@given(scaled_perms(n=3))
def test_metric_power_invariance(p):
    y = (F(1), F(2), F(4))
    assert metric_power(p.apply(y)) == metric_power(y)


@given(scaled_perms(n=3))
def test_action_compatible_with_composition(p):
    q = ScaledPerm(Permutation((3, 1, 2)), (F(5), F(1), F(1, 5)))
    y = (F(1), F(-2), F(3))
    assert p.compose(q).apply(y) == p.apply(q.apply(y))


@given(affine_symmetries(n=3), affine_symmetries(n=3), affine_symmetries(n=3))
def test_affine_group_axioms(s, t, u):
    assert s.compose(t).compose(u) == s.compose(t.compose(u))
    e = AffineSymmetry.identity(3)
    assert s.compose(e) == s and e.compose(s) == s
    assert s.compose(s.inverse()).is_identity()
    assert s.inverse().compose(s).is_identity()


@given(affine_symmetries(n=3), affine_symmetries(n=3))
def test_affine_compose_is_pointwise_composition(s, t):
    for y in ((F(0), F(0), F(0)), (F(1), F(2), F(4)), (F(-3), F(1, 2), F(5))):
        assert s.compose(t).apply(y) == s.apply(t.apply(y))


@given(affine_symmetries(n=3))
def test_translation_does_not_affect_invariance(s):
    # the fiber transformation law uses only the Jacobian
    y = (F(2), F(3), F(5))
    assert metric_power(s.linear.apply(y)) == metric_power(y)


# the fused group law and action against the chained kernels they replaced

WIDE_SCALES = st.one_of(nonzero_rationals, wide_nonzero_rationals)
WIDE_ENTRIES = st.one_of(rationals, wide_rationals)


def assert_same_fractions(got, want):
    assert type(got) is tuple and len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is F
        assert (a.numerator, a.denominator, hash(a)) == (b.numerator, b.denominator, hash(b))


def assert_same_element(got, want):
    assert type(got) is type(want)
    if isinstance(got, AffineSymmetry):
        assert_same_fractions(got.translation, want.translation)
        got, want = got.linear, want.linear
    assert got.sigma == want.sigma
    assert_same_fractions(got.scale, want.scale)


def raised(call, *args):
    try:
        call(*args)
    except Exception as exc:  # any exception: its type and message are compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n", [*range(1, 9), 64])
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_fused_group_law_matches_the_chained_kernels(n, data):
    draw = data.draw
    s, t = (draw(affine_symmetries(n=n, scales=WIDE_SCALES, shifts=WIDE_ENTRIES)) for _ in "st")
    y = draw(vectors(n, entries=WIDE_ENTRIES))
    for a, b in ((s, t), (AffineSymmetry.linear_only(s.linear), t), (s, s.inverse())):
        assert_same_element(a.compose(b), chained_affine_compose(a, b))
        assert_same_element(a.inverse(), chained_affine_inverse(a))
        assert_same_element(a.linear.compose(b.linear), chained_scaled_compose(a.linear, b.linear))
        assert_same_element(a.linear.inverse(), chained_scaled_inverse(a.linear))
        # exact vectors take the fast validation; ints and iterators the general one
        want = chained_affine_apply(a, y)
        for point in (y, list(y), iter(y)):
            assert_same_fractions(a.apply(point), want)
        mixed = (1, *y[1:])
        assert_same_fractions(a.apply(mixed), chained_affine_apply(a, mixed))
        for point in (y, mixed):
            assert_same_fractions(a.linear.apply(point), chained_scaled_apply(a.linear, point))
        for bad in ((*y[:-1], 0.5), ["1/0", *y[1:]], y[:-1], (*y, F(1))):
            assert raised(a.apply, bad) == raised(chained_affine_apply, a, bad) is not None
            assert raised(a.linear.apply, bad) == raised(chained_scaled_apply, a.linear, bad)
        for bad in ((*y[:-1], 0.5), ["1/0", *y[1:]]):
            assert raised(metric_power, bad) == raised(lambda v: [as_fraction(x) for x in v], bad)
    if n >= 2:
        assert_same_fractions((metric_power(y),), (math.prod(y, start=F(1)),))


def test_compose_of_different_sizes_raises_before_any_entry_is_read():
    small, large = AffineSymmetry.identity(2), AffineSymmetry.identity(3)
    for a, b in ((small, large), (large, small)):
        message = f"^cannot compose sizes {a.n} and {b.n}$"
        with pytest.raises(DimensionMismatch, match=message):
            a.compose(b)
        with pytest.raises(DimensionMismatch, match=message):
            a.linear.compose(b.linear)
