"""Classify linear/affine coordinate changes against the invariance system.

A square Jacobian J preserves the product form y^1 ... y^n exactly when

  (1) the permanent of J is 1:  sum over all permutations tau of
      prod_i J[i, tau(i)] equals 1, and
  (2) every degenerate product vanishes:  for any column tuple
      (k_1..k_n) with a repeated index, prod_i J[i, k_i] = 0.

Together the two conditions force J to be a scaled permutation matrix with
unit scale product.  The argument needs a third row to play indices against
for n >= 3; the 2x2 system (ac = 0, bd = 0, ad + bc = 1) yields the same
conclusion by direct case analysis, so the classifier accepts n >= 2.

Both conditions are decided from the per-row supports (the columns with
nonzero entries) in O(n^2), without enumeration.  A tuple with an
off-support index has product 0, so the first degenerate tuple in
lexicographic order is built greedily over the supports, which by
pigeonhole has a closed form (`_first_degenerate`).  Without one, J has a
zero row (permanent 0) or is monomial (permanent = scale product), so the
verdict needs no permanent.  `permanent`, kept to re-check witnesses, is
Ryser's formula; the dimension cap (DEFAULT_MAX_N) is a policy limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .errors import DEFAULT_MAX_N, DimensionCapExceeded, DimensionMismatch, NotMonomial
from .group import AffineSymmetry, ScaledPerm
from .matrix import ONE, ZERO, RationalMatrix, as_vector
from .permutation import Permutation
from .sampling import random_nonzero_rational, random_scaled_perm, trial_rng


@dataclass(frozen=True)
class DegenerateTuple:
    """A repeated-index column tuple (1-based) whose entry product is nonzero."""

    indices: tuple[int, ...]
    product: Fraction


@dataclass(frozen=True)
class PermanentMismatch:
    """The permanent of the matrix, which differs from 1."""

    value: Fraction


Witness = DegenerateTuple | PermanentMismatch


@dataclass(frozen=True)
class Symmetry:
    """Positive verdict with the recovered scaled-permutation data."""

    sigma: Permutation
    scale: tuple[Fraction, ...]

    def element(self) -> ScaledPerm:
        return ScaledPerm(self.sigma, self.scale)


@dataclass(frozen=True)
class Violation:
    """Negative verdict carrying a re-checkable counterexample."""

    witness: Witness


InvarianceReport = Symmetry | Violation


@dataclass(frozen=True)
class OracleReport:
    """Counts from a randomized soundness/completeness run."""

    n: int
    trials: int
    positives_passed: int
    perturbed_rejected: int
    seed: int

    def all_passed(self) -> bool:
        return self.positives_passed == self.trials and self.perturbed_rejected == self.trials


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise DimensionCapExceeded(f"dimension {n} exceeds the dimension cap {max_n}")


def permanent(matrix: RationalMatrix, *, max_n: int = DEFAULT_MAX_N) -> Fraction:
    """Exact permanent by Ryser's formula, column subsets in Gray-code order.

    perm(A) = (-1)^n * sum over column subsets S of
    (-1)^|S| * prod_i sum_{j in S} A[i, j].  Each row is scaled to integers
    first, so the 2^n loop runs on ints; the scaling is divided out at the end.
    """
    n = matrix.n
    _check_cap(n, max_n)
    rows = []
    denominator = 1
    for row in matrix.rows:
        lcm = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (lcm // v.denominator) for v in row])
        denominator *= lcm
    columns = list(zip(*rows))
    sums = [0] * n
    subset = 0
    sign = 1  # (-1)^|S|
    total = 0
    for k in range(1, 1 << n):
        bit = k & -k  # the column that enters or leaves S at step k
        subset ^= bit
        step = add if subset & bit else sub
        sums = list(map(step, sums, columns[bit.bit_length() - 1]))
        sign = -sign
        total += sign * math.prod(sums)
    return Fraction(-total if n % 2 else total, denominator)


def _supports(matrix: RationalMatrix) -> list[list[int]]:
    """The nonzero columns (0-based) of each row."""
    return [[j for j, v in enumerate(row) if v] for row in matrix.rows]


def _first_degenerate(
    matrix: RationalMatrix, supports: list[list[int]]
) -> DegenerateTuple | None:
    """The first repeated-index support tuple in lexicographic order, for
    supports that are all nonempty; None exactly when J is monomial."""
    n = matrix.n
    columns = [support[0] for support in supports]  # the least support tuple
    if len(set(columns)) == n:
        # A permutation: moving any one position to a larger support column
        # makes it repeat, and moving the last movable one gives the least.
        i = next((i for i in reversed(range(n)) if len(supports[i]) > 1), None)
        if i is None:
            return None
        columns[i] = supports[i][1]
    product = math.prod((matrix.rows[i][j] for i, j in enumerate(columns)), start=ONE)
    return DegenerateTuple(tuple(j + 1 for j in columns), product)


def degenerate_products_zero(
    matrix: RationalMatrix, *, max_n: int = DEFAULT_MAX_N
) -> DegenerateTuple | None:
    """None if every repeated-index column tuple has zero product.

    Otherwise the first violating tuple in lexicographic order, with its
    (necessarily nonzero) product.
    """
    _check_cap(matrix.n, max_n)
    supports = _supports(matrix)
    if not all(supports):
        return None  # a zero row zeroes every product
    return _first_degenerate(matrix, supports)


def extract_pattern(matrix: RationalMatrix) -> tuple[Permutation, tuple[Fraction, ...]]:
    """Read (sigma, scales) off a monomial sparsity pattern.

    Raises NotMonomial when some row does not have exactly one nonzero entry
    or the nonzero columns repeat.  The scale product is not checked here.
    """
    image = []
    scale = []
    for i, row in enumerate(matrix.rows):
        nonzero = [(j, v) for j, v in enumerate(row) if v]
        if len(nonzero) != 1:
            raise NotMonomial(f"row {i + 1} has {len(nonzero)} nonzero entries, expected 1")
        j, v = nonzero[0]
        image.append(j + 1)
        scale.append(v)
    if len(set(image)) != matrix.n:
        raise NotMonomial(f"nonzero columns {image} repeat")
    return Permutation(tuple(image)), tuple(scale)


def invariance_system_check(
    matrix: RationalMatrix, *, max_n: int = DEFAULT_MAX_N
) -> InvarianceReport:
    """Full decision: Symmetry with recovered (sigma, scales), or a witness."""
    n = matrix.n
    if n < 2:
        raise DimensionMismatch("classification needs n >= 2")
    _check_cap(n, max_n)
    supports = _supports(matrix)
    if not all(supports):
        return Violation(PermanentMismatch(ZERO))  # a zero row zeroes every product
    witness = _first_degenerate(matrix, supports)
    if witness is not None:
        return Violation(witness)
    # J is monomial, and its permanent is the scale product of its pattern.
    columns = [support[0] for support in supports]
    scale = tuple(row[j] for row, j in zip(matrix.rows, columns))
    value = math.prod(scale, start=ONE)
    if value != 1:
        return Violation(PermanentMismatch(value))
    return Symmetry(Permutation(tuple(j + 1 for j in columns)), scale)


def classify_affine(
    matrix: RationalMatrix, translation, *, max_n: int = DEFAULT_MAX_N
) -> AffineSymmetry | Violation:
    """Classify x -> J x + t; the translation is unconstrained."""
    translation = as_vector(translation)
    if len(translation) != matrix.n:
        raise DimensionMismatch(
            f"translation length {len(translation)} for a {matrix.n}x{matrix.n} matrix"
        )
    report = invariance_system_check(matrix, max_n=max_n)
    if isinstance(report, Violation):
        return report
    return AffineSymmetry(report.element(), translation)


def membership_test(matrix: RationalMatrix, sigma: Permutation) -> bool:
    """True iff matrix @ E_sigma is diagonal with determinant 1.

    E_sigma is the unscaled permutation matrix for sigma.  Equivalently the
    matrix is monomial with permutation sigma^{-1} and unit scale product.
    The eigenvector condition on the standard basis is exactly "the product
    is diagonal", so no eigensolver is involved.
    """
    if matrix.n != sigma.n:
        raise DimensionMismatch(f"matrix size {matrix.n} vs permutation on {sigma.n} points")
    e_sigma = ScaledPerm(sigma, (ONE,) * sigma.n).to_dense()
    product = matrix @ e_sigma
    if not product.is_diagonal():
        return False
    return math.prod(product.diagonal(), start=ONE) == 1


def witness_violates(
    matrix: RationalMatrix, witness: Witness, *, max_n: int = DEFAULT_MAX_N
) -> bool:
    """Re-evaluate a witness against the matrix it was issued for."""
    if isinstance(witness, DegenerateTuple):
        if len(witness.indices) != matrix.n:
            return False
        if len(set(witness.indices)) == matrix.n:
            return False  # not degenerate
        product = ONE
        for i, k in enumerate(witness.indices):
            product = product * matrix.rows[i][k - 1]
        return product != 0 and product == witness.product
    if isinstance(witness, PermanentMismatch):
        return witness.value != 1 and permanent(matrix, max_n=max_n) == witness.value
    raise TypeError(f"unknown witness type: {witness!r}")


def _inject_off_pattern(element: ScaledPerm, rng) -> RationalMatrix:
    """Dense form of element with one extra nonzero entry off the pattern."""
    n = element.n
    row = rng.randrange(n) + 1
    on_column = element.sigma(row)
    column = rng.choice([j for j in range(1, n + 1) if j != on_column])
    return element.to_dense().with_entry(row, column, random_nonzero_rational(rng))


def theorem_oracle(
    n: int, trials: int, seed: int = 0, *, max_n: int = DEFAULT_MAX_N
) -> OracleReport:
    """Randomized two-sided check of the classifier at one dimension.

    Soundness: every sampled scaled permutation must come back as Symmetry
    with its exact (sigma, scales).  Completeness (sampled): injecting one
    off-pattern nonzero entry must produce a Violation whose witness
    re-evaluates as genuine.  Each trial draws its randomness from
    (seed, trial index) only, so the report is schedule-independent.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise DimensionMismatch("the oracle needs n >= 2")
    _check_cap(n, max_n)
    positives_passed = 0
    perturbed_rejected = 0
    for index in range(trials):
        rng = trial_rng(seed, index)
        element = random_scaled_perm(n, rng)
        report = invariance_system_check(element.to_dense(), max_n=max_n)
        if (
            isinstance(report, Symmetry)
            and report.sigma == element.sigma
            and report.scale == element.scale
        ):
            positives_passed += 1
        perturbed = _inject_off_pattern(element, rng)
        perturbed_report = invariance_system_check(perturbed, max_n=max_n)
        if isinstance(perturbed_report, Violation) and witness_violates(
            perturbed, perturbed_report.witness, max_n=max_n
        ):
            perturbed_rejected += 1
    return OracleReport(n, trials, positives_passed, perturbed_rejected, seed)
