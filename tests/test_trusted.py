"""Results built without re-validation equal the same values rebuilt through
the validating constructors, and hold only exact ``Fraction`` entries in
lowest terms."""

import math
from fractions import Fraction

from hypothesis import given, strategies as st

from bmsym import (
    AffineSymmetry,
    Permutation,
    RationalMatrix,
    ScaledPerm,
    Symmetry,
    classify_affine,
    invariance_system_check,
    metric_power,
)
from bmsym.classify import _inject_off_pattern
from bmsym.sampling import random_nonzero_rational, random_scaled_perm, trial_rng
from bmsym.serialize import matrix_from_obj
from helpers import affine_symmetries, permutations, rationals, scaled_perms, vectors
from oracles import constructed_off_pattern, constructed_random_scaled_perm

DIMS = st.integers(min_value=1, max_value=8)


def pairs(strategy):
    return DIMS.flatmap(lambda n: st.tuples(strategy(n=n), strategy(n=n)))


def perm_pairs():
    return DIMS.flatmap(
        lambda n: st.tuples(permutations(min_n=n, max_n=n), permutations(min_n=n, max_n=n))
    )


@st.composite
def matrix_pairs(draw):
    n = draw(DIMS)
    entries = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    return RationalMatrix(draw(entries)), RationalMatrix(draw(entries))


def exact(values) -> bool:
    """Every value is exactly a Fraction in lowest terms with a positive
    denominator, as the scalar kernels must build them."""
    return all(
        type(v) is Fraction and v.denominator > 0 and math.gcd(v.numerator, v.denominator) == 1
        for v in values
    )


def assert_valid_perm(p):
    assert all(type(v) is int for v in p.image)
    assert Permutation(p.image) == p


def assert_valid_scaled(c):
    assert type(c.scale) is tuple and exact(c.scale)
    assert_valid_perm(c.sigma)
    assert ScaledPerm(c.sigma, c.scale) == c


def assert_valid_affine(c):
    assert type(c.translation) is tuple and exact(c.translation)
    assert_valid_scaled(c.linear)
    assert AffineSymmetry(c.linear, c.translation) == c


def assert_valid_matrix(m):
    assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
    assert all(exact(row) for row in m.rows)
    rebuilt = RationalMatrix(m.rows)
    assert rebuilt == m and hash(rebuilt) == hash(m) and rebuilt.n == m.n


@given(perm_pairs())
def test_permutation_products_and_inverses_revalidate(pair):
    a, b = pair
    assert_valid_perm(a * b)
    assert_valid_perm(a.inverse())


@given(pairs(scaled_perms))
def test_scaled_products_and_inverses_revalidate(pair):
    a, b = pair
    assert_valid_scaled(a * b)
    assert_valid_scaled(a.inverse())


@given(pairs(affine_symmetries))
def test_affine_products_and_inverses_revalidate(pair):
    a, b = pair
    assert_valid_affine(a * b)
    assert_valid_affine(a.inverse())


@given(pairs(scaled_perms))
def test_dense_forms_and_their_products_revalidate(pair):
    a, b = pair
    assert_valid_matrix(a.to_dense())
    product = a.to_dense() @ b.to_dense()
    assert_valid_matrix(product)
    assert product == (a * b).to_dense()


@given(matrix_pairs())
def test_dense_products_revalidate(pair):
    a, b = pair
    assert_valid_matrix(a @ b)


# rational literals as the codec accepts them: JSON integers, unreduced
# fractions, signed zeros, leading zeros and a trailing newline
literals = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.integers(-99, 99).map(str),
    st.sampled_from(["0", "-0", "-0/3", "007", "5\n"]),
)


@st.composite
def matrix_documents(draw):
    n = draw(DIMS)
    rows = draw(st.lists(st.lists(literals, min_size=n, max_size=n), min_size=n, max_size=n))
    return {"n": n, "rows": rows}


@given(matrix_documents())
def test_parsed_matrices_revalidate(doc):
    parsed = matrix_from_obj(doc)
    assert parsed == RationalMatrix([[Fraction(v) for v in row] for row in doc["rows"]])
    assert_valid_matrix(parsed)


@st.composite
def images(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    entries = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    return draw(affine_symmetries(n=n)), RationalMatrix(draw(entries)), draw(vectors(n))


@given(images())
def test_images_and_metric_powers_are_in_lowest_terms(case):
    a, m, y = case
    assert exact(a.apply(y)) and exact(a.linear.apply(y)) and exact(m.apply(y))
    assert exact((metric_power(y), metric_power(a.linear.apply(y))))


@given(st.integers(min_value=2, max_value=8).flatmap(lambda n: affine_symmetries(n=n)))
def test_verdicts_revalidate(a):
    report = invariance_system_check(a.linear.to_dense())
    assert type(report) is Symmetry
    assert_valid_scaled(ScaledPerm(report.sigma, report.scale))
    assert report.sigma == a.linear.sigma and report.scale == a.linear.scale
    verdict = classify_affine(a.linear.to_dense(), [str(v) for v in a.translation])
    assert_valid_affine(verdict)
    assert verdict == a


@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=2, max_value=8), st.booleans())
def test_sampled_elements_and_perturbed_matrices_revalidate(seed, index, n, positive):
    element = random_scaled_perm(n, trial_rng(seed, index), positive=positive)
    assert_valid_scaled(element)
    dense, rng = element.to_dense(), trial_rng(seed, index)
    assert_valid_matrix(_inject_off_pattern(element, dense, rng, random_nonzero_rational))


def test_sampling_makes_the_draws_of_the_constructor_path():
    # the same elements and perturbed matrices from the same stream, which
    # is left in the same state, so every oracle trial replays
    for seed in range(200):
        for n in range(2, 9):
            for positive in (False, True):
                rng, reference = trial_rng(seed, n), trial_rng(seed, n)
                element = random_scaled_perm(n, rng, positive=positive)
                assert element == constructed_random_scaled_perm(n, reference, positive=positive)
                dense = element.to_dense()
                perturbed = _inject_off_pattern(element, dense, rng, random_nonzero_rational)
                assert perturbed == constructed_off_pattern(element, reference)
                assert rng.getstate() == reference.getstate()
