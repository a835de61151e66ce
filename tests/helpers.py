"""Shared generators and hypothesis strategies for the test suite."""

from fractions import Fraction

from hypothesis import Phase, strategies as st

from bmsym import Permutation, ScaledPerm, AffineSymmetry

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
