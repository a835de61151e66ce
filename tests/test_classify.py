import itertools
import math
import operator
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from bmsym import (
    DegenerateTuple,
    DimensionMismatch,
    NotMonomial,
    Permutation,
    PermanentMismatch,
    RationalMatrix,
    ScaledPerm,
    Symmetry,
    Violation,
    classify_affine,
    degenerate_products_zero,
    extract_pattern,
    invariance_system_check,
    membership_test,
    metric_power,
    permanent,
    theorem_oracle,
    witness_violates,
)
import bmsym.classify as classify_module
from bmsym.classify import _inject_off_pattern
from bmsym.sampling import (
    random_nonzero_rational,
    random_permutation,
    random_scaled_perm,
    random_vector,
    trial_rng,
)
from helpers import nonzero_rationals, permutations, scaled_perms
from oracles import (
    brute_force_degenerate,
    cofactor_det,
    constructed_off_pattern,
    constructed_random_scaled_perm,
    dense_membership,
    enumerated_check,
    enumerated_permanent,
    preserves_product_form,
    product_form_agrees_at_points,
    ryser_permanent,
    support_scan_degenerate,
    two_pass_check,
    two_pass_degenerate,
    two_pass_pattern,
)

WORKED = RationalMatrix([[0, 2, 0], [0, 0, 3], [F(1, 6), 0, 0]])


def random_matrix(n, rng, density=0.6):
    rows = [
        [F(rng.randint(-3, 3)) if rng.random() < density else F(0) for _ in range(n)]
        for _ in range(n)
    ]
    return RationalMatrix(rows)


# permanent


def test_permanent_identity():
    assert permanent(RationalMatrix.identity(3)) == 1


def test_permanent_of_scaled_perms_regardless_of_sign():
    even = ScaledPerm(Permutation((2, 3, 1)), (F(2), F(3), F(1, 6)))
    odd = ScaledPerm(Permutation((2, 1, 3)), (F(2), F(1, 2), F(1)))
    assert even.sigma.sign() == 1 and odd.sigma.sign() == -1
    assert permanent(even.to_dense()) == 1
    assert permanent(odd.to_dense()) == 1
    # the determinant sees the signature, the permanent does not
    assert cofactor_det(odd.to_dense()) == -1


def test_permanent_all_ones():
    assert permanent(RationalMatrix([[1, 1], [1, 1]])) == 2


def test_permanent_cap():
    # n = 9 is past the CLI's default cap of 8, which the library does not apply
    assert permanent(RationalMatrix.identity(9)) == 1


# degenerate products


def test_degenerate_zero_on_monomial():
    assert degenerate_products_zero(WORKED) is None


def test_degenerate_witness_worked_example():
    m = RationalMatrix.identity(3).with_entry(1, 2, F(1, 2))
    witness = degenerate_products_zero(m)
    assert witness == DegenerateTuple((2, 2, 3), F(1, 2))
    assert witness_violates(m, witness)


def test_degenerate_zero_matrix_passes():
    zero = RationalMatrix([[0] * 3 for _ in range(3)])
    assert degenerate_products_zero(zero) is None


def test_support_scan_matches_brute_force():
    rng = random.Random(17)
    for n in (2, 3, 4):
        for _ in range(100):
            m = random_matrix(n, rng, density=rng.choice([0.3, 0.6]))
            assert support_scan_degenerate(m) == brute_force_degenerate(m)


def test_degenerate_matches_brute_force():
    rng = random.Random(17)
    for _ in range(200):
        m = random_matrix(3, rng)
        assert degenerate_products_zero(m) == brute_force_degenerate(m)
    for _ in range(50):
        m = random_matrix(2, rng)
        assert degenerate_products_zero(m) == brute_force_degenerate(m)


# full system check


def test_system_check_worked_example():
    report = invariance_system_check(WORKED)
    assert report == Symmetry(Permutation((2, 3, 1)), (F(2), F(3), F(1, 6)))
    assert report.element().to_dense() == WORKED


def test_system_check_identity():
    report = invariance_system_check(RationalMatrix.identity(4))
    assert report == Symmetry(Permutation.identity(4), (F(1),) * 4)


def test_system_check_degenerate_violation():
    m = RationalMatrix([[2, 1, 0], [0, 2, 0], [0, 0, F(1, 4)]])
    report = invariance_system_check(m)
    assert isinstance(report, Violation)
    assert isinstance(report.witness, DegenerateTuple)
    assert witness_violates(m, report.witness)


def test_system_check_permanent_violation():
    m = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    report = invariance_system_check(m)
    assert report == Violation(PermanentMismatch(F(2)))
    assert witness_violates(m, report.witness)


def test_system_check_zero_matrix():
    zero = RationalMatrix([[0] * 3 for _ in range(3)])
    assert invariance_system_check(zero) == Violation(PermanentMismatch(F(0)))


def test_system_check_needs_n_at_least_two():
    with pytest.raises(DimensionMismatch):
        invariance_system_check(RationalMatrix([[1]]))


def test_system_check_cap():
    # n = 9 is past the CLI's default cap of 8, which the library does not apply
    report = invariance_system_check(RationalMatrix.identity(9))
    assert report == Symmetry(Permutation.identity(9), (F(1),) * 9)


def test_system_check_two_by_two():
    # closed-form case: ac=0, bd=0, ad+bc=1 forces the monomial shape
    assert isinstance(invariance_system_check(RationalMatrix.identity(2)), Symmetry)
    swap = RationalMatrix([[0, 5], [F(1, 5), 0]])
    assert invariance_system_check(swap) == Symmetry(
        Permutation((2, 1)), (F(5), F(1, 5))
    )
    dense = RationalMatrix([[1, 1], [0, 1]])
    assert isinstance(invariance_system_check(dense), Violation)


# pattern extraction


def test_extract_pattern_worked_example():
    assert extract_pattern(WORKED) == (Permutation((2, 3, 1)), (F(2), F(3), F(1, 6)))


def test_extract_pattern_identity():
    assert extract_pattern(RationalMatrix.identity(3)) == (
        Permutation.identity(3),
        (F(1), F(1), F(1)),
    )


def test_extract_pattern_rejections():
    with pytest.raises(NotMonomial):
        extract_pattern(RationalMatrix([[1, 1], [1, 1]]))
    with pytest.raises(NotMonomial):
        extract_pattern(RationalMatrix([[1, 0], [0, 0]]))
    with pytest.raises(NotMonomial):  # repeated columns
        extract_pattern(RationalMatrix([[1, 0], [1, 0]]))


def test_extract_pattern_ignores_scale_product():
    m = RationalMatrix([[0, 7], [7, 0]])
    assert extract_pattern(m) == (Permutation((2, 1)), (F(7), F(7)))


# membership


def test_membership_worked_example():
    sigma = Permutation((2, 3, 1))
    x = ScaledPerm(sigma.inverse(), (F(6), F(1, 2), F(1, 3))).to_dense()
    assert membership_test(x, sigma)


def test_membership_identity_cases():
    assert membership_test(RationalMatrix.identity(3), Permutation.identity(3))
    assert not membership_test(RationalMatrix.identity(3), Permutation((2, 1, 3)))


def test_membership_rejects_non_unit_product():
    sigma = Permutation((2, 3, 1))
    m = ScaledPerm(sigma.inverse(), (F(6), F(1, 2), F(1, 3))).to_dense()
    assert not membership_test(m.with_entry(1, 3, F(12)), sigma)


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership_test(RationalMatrix.identity(3), Permutation((2, 1)))


@given(scaled_perms(n=3))
def test_membership_agrees_with_pattern_extraction(p):
    x = p.to_dense()
    assert membership_test(x, p.sigma.inverse())
    # any other permutation must be rejected
    for image in itertools.permutations((1, 2, 3)):
        sigma = Permutation(image)
        expected = sigma.inverse() == p.sigma
        assert membership_test(x, sigma) == expected


@st.composite
def membership_cases(draw):
    """A monomial with unit scale product and its own sigma, then one of:
    a wrong sigma, a zero row, one extra off-pattern entry, or a scale
    product other than 1."""
    n = draw(st.integers(min_value=1, max_value=8))
    p = draw(scaled_perms(n=n))
    rows = [list(row) for row in p.to_dense().rows]
    sigma = p.sigma.inverse()
    kind = draw(st.sampled_from(("member", "sigma", "zero_row", "off_pattern", "scale")))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    on = p.sigma.image[i] - 1
    if kind == "sigma":
        sigma = draw(permutations(min_n=n, max_n=n))
    elif kind == "zero_row":
        rows[i] = [F(0)] * n
    elif kind == "off_pattern" and n > 1:
        off = draw(st.sampled_from([j for j in range(n) if j != on]))
        rows[i][off] = draw(nonzero_rationals)
    elif kind == "scale":
        rows[i][on] *= draw(nonzero_rationals.filter(lambda v: v != 1))
    return kind, RationalMatrix(rows), sigma


@given(membership_cases())
def test_membership_matches_the_dense_product(case):
    kind, m, sigma = case
    member = membership_test(m, sigma)
    assert member == dense_membership(m, sigma)
    if kind == "member" or kind == "off_pattern" and m.n == 1:
        assert member
    elif kind != "sigma":
        assert not member


# affine classification


def test_classify_affine_identity_with_translation():
    result = classify_affine(RationalMatrix.identity(3), (F(7), F(-1), F(0)))
    assert result.linear.is_identity()
    assert result.translation == (F(7), F(-1), F(0))


def test_classify_affine_worked_matrix():
    result = classify_affine(WORKED, (F(0), F(0), F(0)))
    assert result.linear == ScaledPerm(Permutation((2, 3, 1)), (F(2), F(3), F(1, 6)))


def test_classify_affine_dense_violation():
    rotationish = RationalMatrix([[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]])
    result = classify_affine(rotationish, (F(0), F(0), F(0)))
    assert isinstance(result, Violation)
    assert witness_violates(rotationish, result.witness)


def test_classify_affine_translation_length():
    with pytest.raises(DimensionMismatch):
        classify_affine(WORKED, (F(0), F(0)))


# witness re-evaluation


def test_witness_violates_negative_cases():
    m = RationalMatrix.identity(3)
    assert not witness_violates(m, DegenerateTuple((1, 1, 2), F(1, 2)))
    assert not witness_violates(m, PermanentMismatch(F(3)))
    # a non-degenerate tuple is never a witness
    assert not witness_violates(m, DegenerateTuple((1, 2, 3), F(1)))
    # every index must be a column 1..n: 0 and -2 would wrap round to a real
    # column, 4 is past the last, and a float, a bool or a list is not a column index
    ones = RationalMatrix([[1, 1, 1]] * 3)
    assert witness_violates(ones, DegenerateTuple((1, 1, 2), F(1)))
    for indices in [(0, 0, 1), (-2, 1, 1), (4, 1, 1), (1.0, 1, 2), (True, 1, 1), ([1], 1, 1)]:
        assert not witness_violates(ones, DegenerateTuple(indices, F(1))), indices


# cross-checks of the pattern classifier and the support-expansion permanent
# against enumeration, sympy and Ryser's formula


def _monomial_rows(n, rng):
    rows = [list(row) for row in random_scaled_perm(n, rng).to_dense().rows]
    if rng.random() < 0.5:  # scale product other than 1
        row = rows[rng.randrange(n)]
        k = next(k for k, v in enumerate(row) if v)
        row[k] *= rng.choice([-1, 2, F(1, 3)])
    return rows


def _perturb(rows, rng, extra):
    n = len(rows)
    for _ in range(extra):
        rows[rng.randrange(n)][rng.randrange(n)] = random_nonzero_rational(rng)
    return rows


def _cross_check_matrices(n, rng, count):
    """Monomials, perturbed monomials, monomials with a zeroed row, and
    random matrices from nearly empty to full, in equal shares."""
    for index in range(count):
        family = index % 4
        if family == 0:
            rows = _monomial_rows(n, rng)
        elif family == 1:
            rows = _perturb(_monomial_rows(n, rng), rng, rng.randint(1, 3))
        elif family == 2:
            rows = _perturb(_monomial_rows(n, rng), rng, rng.randint(0, 2))
            rows[rng.randrange(n)] = [F(0)] * n
        else:
            density = rng.choice([0.1, 0.25, 0.5, 0.9])
            rows = [
                [random_nonzero_rational(rng) if rng.random() < density else F(0)
                 for _ in range(n)]
                for _ in range(n)
            ]
        yield RationalMatrix(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_classifier_matches_enumeration(n):
    rng = random.Random(f"cross-check:{n}")
    for m in _cross_check_matrices(n, rng, 400):
        assert permanent(m) == enumerated_permanent(m), m
        assert degenerate_products_zero(m) == support_scan_degenerate(m), m
        assert invariance_system_check(m) == enumerated_check(m), m


def _outcome(decide, m, **kwargs):
    try:
        return decide(m, **kwargs)
    except NotMonomial as error:
        return f"NotMonomial: {error}"


def assert_one_pass_matches_two_passes(m):
    report = invariance_system_check(m)
    assert report == two_pass_check(m), m
    assert degenerate_products_zero(m) == two_pass_degenerate(m), m
    assert _outcome(extract_pattern, m) == _outcome(two_pass_pattern, m), m
    if type(report) is Symmetry:  # the matrix's own entries, read off unchanged
        entries = [row[j - 1] for row, j in zip(m.rows, report.sigma.image)]
        assert all(map(operator.is_, report.scale, entries)), m
    elif type(report.witness) is DegenerateTuple:
        assert all(type(k) is int for k in report.witness.indices), m
        assert type(report.witness.product) is F, m
    else:
        assert type(report.witness.value) is F, m


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_one_pass_matches_the_two_pass_decision(n):
    rng = random.Random(f"two-pass:{n}")
    for m in _cross_check_matrices(n, rng, 400):
        assert_one_pass_matches_two_passes(m)


def test_one_pass_matches_the_two_pass_decision_at_n64():
    rng = random.Random("two-pass:64")
    for index in range(60):
        rows = _monomial_rows(64, rng)
        if index % 2:
            rows = _perturb(rows, rng, rng.randint(1, 3))
        assert_one_pass_matches_two_passes(RationalMatrix(rows))


def test_permanent_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sympy-per")
    for n in (2, 3, 4, 5, 6):
        for m in _cross_check_matrices(n, rng, 20):
            rows = [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m.rows]
            value = sympy.Matrix(rows).per()
            assert permanent(m) == F(int(value.p), int(value.q)), m


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_permanent_matches_ryser(n):
    rng = random.Random(f"ryser:{n}")
    for m in _cross_check_matrices(n, rng, 100):
        assert permanent(m) == ryser_permanent(m), m


def test_permanent_of_a_tridiagonal_matrix_at_n40():
    # expanding along the last row: p_k = a_k p_(k-1) + b_(k-1) c_(k-1) p_(k-2),
    # with a on the diagonal, b above it and c below it
    n = 40
    rng = random.Random("tridiagonal")
    a = [random_nonzero_rational(rng) for _ in range(n)]
    b = [random_nonzero_rational(rng) for _ in range(n - 1)]
    c = [random_nonzero_rational(rng) for _ in range(n - 1)]
    rows = [[F(0)] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = a[k]
        if k + 1 < n:
            rows[k][k + 1], rows[k + 1][k] = b[k], c[k]
    previous, value = F(1), a[0]
    for k in range(1, n):
        previous, value = value, a[k] * value + b[k - 1] * c[k - 1] * previous
    assert permanent(RationalMatrix(rows)) == value


def test_permanent_of_a_scaled_permutation_at_n64():
    element = random_scaled_perm(64, random.Random("per64"))
    assert permanent(element.to_dense()) == 1


def test_classify_scaled_permutation_at_n64():
    element = random_scaled_perm(64, random.Random("n64"))
    report = invariance_system_check(element.to_dense())
    assert report == Symmetry(element.sigma, element.scale)


def test_oracle_at_n8():
    assert theorem_oracle(8, 100, seed=0).all_passed()


# randomized oracle


def test_oracle_passes_n3():
    report = theorem_oracle(3, 100, seed=42)
    assert report.positives_passed == 100
    assert report.perturbed_rejected == 100
    assert report.all_passed()


def test_oracle_passes_n2():
    # outside the general guarantee, verified by the closed-form 2x2 case
    report = theorem_oracle(2, 100, seed=42)
    assert report.all_passed()


def test_oracle_rejects_bad_trials():
    with pytest.raises(ValueError):
        theorem_oracle(3, 0)


SIZE_RAISES = {
    "theorem_oracle": (lambda: theorem_oracle(1, 1), DimensionMismatch, "the oracle needs n >= 2"),
    "random_permutation": (lambda: random_permutation(0, random.Random(0)), ValueError,
                           "a permutation needs at least one point"),
}


@pytest.mark.parametrize("site", SIZE_RAISES)
def test_oracle_and_sampler_reject_too_few_points(site):
    call, error, message = SIZE_RAISES[site]
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_oracle_cap():
    # n = 9 is past the CLI's default cap of 8, which the library does not apply
    assert theorem_oracle(9, 10).all_passed()


def test_oracle_deterministic():
    assert theorem_oracle(3, 50, seed=9) == theorem_oracle(3, 50, seed=9)


# semantic ground truth: the verdict matches what the metric actually does


@settings(max_examples=25)
@given(scaled_perms(n=3))
def test_symmetry_verdict_preserves_metric(p):
    report = invariance_system_check(p.to_dense())
    assert isinstance(report, Symmetry)
    rng = random.Random(1)
    for _ in range(20):
        y = random_vector(3, rng)
        assert metric_power(report.element().apply(y)) == metric_power(y)


def test_violation_verdict_changes_metric():
    rng = random.Random(2)
    found = 0
    for index in range(40):
        p = random_scaled_perm(3, trial_rng(100, index))
        m = p.to_dense().with_entry(1, p.sigma(2), F(1, 3))
        report = invariance_system_check(m)
        assert isinstance(report, Violation)
        # some sampled y must expose the broken invariance
        for _ in range(100):
            y = random_vector(3, rng)
            image = m.apply(y)
            if metric_power(image) != metric_power(y):
                found += 1
                break
    assert found == 40


# the verdict against the definition, prod_i (Jy)_i = prod_i y_i identically; at
# n = 2, (a y1 + b y2)(c y1 + d y2) = y1 y2 iff ac = 0, bd = 0 and ad + bc = 1
TWO_BY_TWO = [[[1, 0], [0, 1]], [[0, 5], [F(1, 5), 0]], [[0, 1], [1, 0]], [[1, 0], [1, 1]],
              [[1, 1], [0, 1]], [[2, 0], [0, 1]], [[0, 1], [-1, 0]], [[1, 1], [1, -1]]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verdict_matches_the_expanded_product_form(n):
    pytest.importorskip("sympy")
    one = RationalMatrix.identity(n)
    # scale product -1, minus the identity (a symmetry at even n only), a zero
    # row, and one entry off the pattern
    edges = [one.with_entry(1, 1, -1), RationalMatrix([[-v for v in row] for row in one.rows]),
             one.with_entry(n, n, 0), one.with_entry(1, n, F(1, 2))]
    edges += [RationalMatrix(rows) for rows in TWO_BY_TWO if n == 2]
    for m in [*_cross_check_matrices(n, random.Random(f"definition:{n}"), 100), *edges]:
        assert isinstance(invariance_system_check(m), Symmetry) == preserves_product_form(m), m


@pytest.mark.parametrize("n", [5, 8, 16, 64])
def test_oracle_verdicts_match_the_product_form_at_random_points(n):
    rng = random.Random(f"points:{n}")
    for index in range(50):
        trial = trial_rng(0, index)  # theorem_oracle's draws at seed 0
        element = random_scaled_perm(n, trial)
        dense = element.to_dense()
        for m in (dense, _inject_off_pattern(element, dense, trial, random_nonzero_rational)):
            verdict = isinstance(invariance_system_check(m), Symmetry)
            assert verdict == product_form_agrees_at_points(m, rng), (index, m)



def _support_oracles(values, rng, points=3, bound=10**6):
    """Oracles for the matrix of ``values`` kept on any support pattern (a
    bitmask with bit i n + j set for each nonzero entry (i, j)), read off
    tables built once for every pattern: the first degenerate tuple of the
    full n^n scan in lexicographic order (a tuple off the support has product
    0), the permanent as the sum over all n! permutations, and whether
    prod_i (J y)_i == prod_i y_i at ``points`` random y shared by all patterns
    (as ``product_form_agrees_at_points`` draws them)."""
    n = len(values)
    tuples = []  # (mask, 1-based columns, product), in lexicographic order
    for columns in itertools.product(range(n), repeat=n):
        mask = sum(1 << (i * n + j) for i, j in enumerate(columns))
        product = math.prod((values[i][j] for i, j in enumerate(columns)), start=F(1))
        tuples.append((mask, tuple(j + 1 for j in columns), product))
    degenerate = [t for t in tuples if len(set(t[1])) < n]
    perms = [t for t in tuples if len(set(t[1])) == n]
    ys = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(points)]
    # sums[p][i][s] is row i of J y at point p when row i has support s (columns as bits)
    sums = [
        [[sum((values[i][j] * y[j] for j in range(n) if s >> j & 1), start=F(0))
          for s in range(2**n)] for i in range(n)]
        for y in ys
    ]

    def degenerate_on(pattern):
        return next((DegenerateTuple(c, p) for mask, c, p in degenerate if mask & pattern == mask), None)

    def permanent_on(pattern):
        return sum((p for mask, _, p in perms if mask & pattern == mask), start=F(0))

    def agrees_on(pattern):
        rows = [pattern >> (i * n) & (2**n - 1) for i in range(n)]
        return all(
            math.prod(row[s] for row, s in zip(table, rows)) == math.prod(y)
            for table, y in zip(sums, ys)
        )

    return degenerate_on, permanent_on, agrees_on


def _filled_permutation_patterns(n, rng):
    """Each permutation pattern at n, filled once with scale product 1 and once
    with scale product 2, with whether the product is 1."""
    for image in itertools.permutations(range(n)):
        head = [random_nonzero_rational(rng) for _ in range(n - 1)]
        for product in (1, 2):
            scale = (*head, product / math.prod(head, start=F(1)))
            rows = [[scale[i] if j == image[i] else F(0) for j in range(n)] for i in range(n)]
            yield RationalMatrix(rows), product == 1


def _assert_matches_the_definition(m, report, agrees, degenerate, expanded_permanent):
    """The verdict is the definition's (``agrees``), and its witness is the
    first degenerate tuple of the n^n scan, else a permanent that is not 1."""
    assert isinstance(report, Symmetry) == agrees, m
    if type(report) is Symmetry:
        assert degenerate is None and expanded_permanent() == 1, m
    elif type(report.witness) is DegenerateTuple:
        assert report.witness == degenerate, m
    else:
        assert degenerate is None and report.witness.value == expanded_permanent() != 1, m


def _filled_patterns(n, rng):
    """Every one of the 2^(n^2) support patterns at n, each filled with seeded
    nonzero values."""
    for mask in range(2 ** (n * n)):
        yield RationalMatrix([
            [random_nonzero_rational(rng) if mask >> (i * n + j) & 1 else F(0) for j in range(n)]
            for i in range(n)
        ])


def _kept_on(values, pattern):
    """The matrix of ``values`` kept on the support ``pattern``, zero elsewhere."""
    n = len(values)
    return RationalMatrix([
        [values[i][j] if pattern >> (i * n + j) & 1 else F(0) for j in range(n)] for i in range(n)
    ])


# every support pattern at n = 2, 3 and 4 (16, 512 and 65,536).  At n <= 3 each
# pattern gets its own seeded nonzero filling and the per-matrix n^n, n! and
# product-form oracles; those are too slow for 65,536 matrices, so at n = 4 all
# patterns share one seeded filling and are read off tables built once (checked
# against the per-matrix oracles below).  Random values never have scale product
# 1, so each permutation pattern is filled once more with scale product 1 (and
# once with 2) to reach the symmetry branch.
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_support_pattern_matches_the_definition(n):
    rng = random.Random(f"patterns:{n}")
    checked = 0
    if n == 4:
        values = [[random_nonzero_rational(rng) for _ in range(n)] for _ in range(n)]
        degenerate_on, permanent_on, agrees_on = _support_oracles(values, rng)
        for pattern in range(2 ** (n * n)):
            m = _kept_on(values, pattern)
            _assert_matches_the_definition(m, invariance_system_check(m), agrees_on(pattern),
                                           degenerate_on(pattern), lambda: permanent_on(pattern))
            checked += 1
    cases = [(m, None) for m in _filled_patterns(n, rng)] if n <= 3 else []
    cases += _filled_permutation_patterns(n, rng)
    for m, unit in cases:
        report = invariance_system_check(m)
        if unit is not None:  # a permutation pattern: its scale product decides
            assert isinstance(report, Symmetry) == unit, m
        _assert_matches_the_definition(m, report, product_form_agrees_at_points(m, rng),
                                       brute_force_degenerate(m), lambda: enumerated_permanent(m))
        checked += 1
    assert checked == {2: 16 + 4, 3: 512 + 12, 4: 65536 + 48}[n]


# the tables the n = 4 sweep reads agree with the per-matrix oracles on every
# support pattern of one seeded filling at n = 2 and 3
@pytest.mark.parametrize("n", [2, 3])
def test_support_oracles_match_the_per_matrix_oracles(n):
    rng = random.Random(f"support-oracles:{n}")
    values = [[random_nonzero_rational(rng) for _ in range(n)] for _ in range(n)]
    degenerate_on, permanent_on, agrees_on = _support_oracles(values, rng)
    for pattern in range(2 ** (n * n)):
        m = _kept_on(values, pattern)
        assert degenerate_on(pattern) == brute_force_degenerate(m), m
        assert permanent_on(pattern) == enumerated_permanent(m), m
        assert agrees_on(pattern) == product_form_agrees_at_points(m, rng), m


# the permanent, and so the permanent witness's re-check, is read off the row
# scan for a zero row or a monomial, the two shapes the classifier issues that
# witness for, and expanded over the row supports otherwise


def witness_shapes(n, rng):
    """(shape, matrix, whether witness_violates may expand its permanent)."""
    unit = random_scaled_perm(n, rng)
    zero_row = [list(row) for row in unit.to_dense().rows]
    zero_row[rng.randrange(n)] = [0] * n
    doubled = unit.to_dense().with_entry(1, unit.sigma(1), 2 * unit.scale[0])
    small = [F(k) for k in (-3, -2, -1, 1, 2, 3)] + [F(1, 2), F(-2, 3)]
    dense = RationalMatrix([[rng.choice(small) for _ in range(n)] for _ in range(n)])
    off = _inject_off_pattern(unit, unit.to_dense(), rng, random_nonzero_rational)
    return [
        ("zero_row", RationalMatrix(zero_row), False),
        ("unit_monomial", unit.to_dense(), False),
        ("monomial", doubled, False),
        ("dense", dense, True),
        ("off_pattern", off, True),
    ]


def _no_expansion(*args, **kwargs):
    raise AssertionError("the permanent was expanded")


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_permanent_witness_recheck_agrees_with_the_expanded_permanent(n, monkeypatch):
    rng = random.Random(f"witness-recheck:{n}")
    for shape, matrix, expands in witness_shapes(n, rng) + witness_shapes(n, rng):
        value = permanent(matrix)
        assert value == enumerated_permanent(matrix), shape
        if not expands:  # read off the scan: the expansion must not run
            monkeypatch.setattr(classify_module, "_expand_over_supports", _no_expansion)
        for claimed in (value, value + 1, value - F(1, 2), F(1), F(0)):
            got = witness_violates(matrix, PermanentMismatch(claimed))
            assert got is (claimed != 1 and claimed == value), (shape, claimed)
        monkeypatch.undo()


def test_permanent_witness_recheck_agrees_with_the_permanent_at_n9():
    # past the CLI's default cap of 8, which the library does not apply
    rng = random.Random("witness-recheck:9")
    for shape, matrix, _ in witness_shapes(9, rng):
        value = permanent(matrix)
        assert value == ryser_permanent(matrix), shape
        for claimed in (value, value + 1, F(1)):
            got = witness_violates(matrix, PermanentMismatch(claimed))
            assert got is (claimed != 1 and claimed == value), (shape, claimed)


# the oracle judges the classifier: a wrong decision must lower its counts


def test_oracle_counts_a_wrong_permutation_as_a_failed_positive(monkeypatch):
    scan = classify_module._scan

    def wrong_sigma(matrix):
        found = scan(matrix)
        if type(found) is tuple:  # a monomial: swap two points of sigma
            image = found[0].image
            return Permutation((image[1], image[0], *image[2:])), found[1]
        return found

    monkeypatch.setattr(classify_module, "_scan", wrong_sigma)
    report = theorem_oracle(4, 20, seed=5)
    assert (report.positives_passed, report.perturbed_rejected) == (0, 20)


def test_oracle_counts_an_accepted_perturbation_as_a_failed_rejection(monkeypatch):
    scan = classify_module._scan

    def accept_all(matrix):
        found = scan(matrix)
        if type(found) is tuple:
            return found
        return Permutation.identity(matrix.n), (F(1),) * matrix.n  # a unit-product monomial

    monkeypatch.setattr(classify_module, "_scan", accept_all)
    report = theorem_oracle(4, 20, seed=5)
    assert (report.positives_passed, report.perturbed_rejected) == (20, 0)


def test_oracle_counts_a_witness_that_does_not_recheck_as_a_failed_rejection(monkeypatch):
    scan = classify_module._scan

    def wrong_product(matrix):
        found = scan(matrix)
        if type(found) is DegenerateTuple:
            return DegenerateTuple(found.indices, found.product + 1)
        return found

    monkeypatch.setattr(classify_module, "_scan", wrong_product)
    report = theorem_oracle(4, 20, seed=5)
    assert (report.positives_passed, report.perturbed_rejected) == (20, 0)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_oracle_judges_exactly_the_constructed_matrices(n, monkeypatch):
    judged, decide = [], classify_module._decide

    def spy(matrix):
        judged.append(matrix)
        return decide(matrix)

    monkeypatch.setattr(classify_module, "_decide", spy)
    seed, trials = 11, 6
    assert theorem_oracle(n, trials, seed).all_passed()
    expected = []
    for index in range(trials):
        rng = trial_rng(seed, index)
        element = constructed_random_scaled_perm(n, rng)
        expected += [element.to_dense(), constructed_off_pattern(element, rng)]
    assert judged == expected
