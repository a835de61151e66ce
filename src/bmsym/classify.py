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

Both conditions are decided in one O(n^2) pass over the rows (`_scan`),
without enumeration.  A tuple with an off-support index (a column where
its row is zero) has product 0, so the first degenerate tuple in
lexicographic order is built greedily over the supports, which by
pigeonhole has a closed form.  Without one, J has a zero row (permanent 0)
or is monomial (permanent = scale product), so the verdict needs no
permanent.  `permanent`, kept to re-check witnesses, expands along the row
supports (O(n) on a monomial); the dimension cap (DEFAULT_MAX_N) is a
policy limit.
Verdicts are built unchecked: the decision proved distinct support columns
and a unit scale product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_MAX_N, DimensionCapExceeded, DimensionMismatch, NotMonomial
from .group import AffineSymmetry, Permutation, ScaledPerm
from .matrix import ZERO, RationalMatrix, _prod, _sized_vector, _unchecked


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
    """Exact permanent by expansion along the rows, over each row's support.

    ``sums`` maps each set of columns used so far (a bitmask) to the sum of
    the entry products onto it, on rows scaled to integers; the scaling is
    divided out at the end.  O(n) on a monomial, n 2^(n-1) steps when dense.
    """
    _check_cap(matrix.n, max_n)
    sums = {0: 1}
    denominator = 1
    for row in matrix.rows:
        support = [j for j, v in enumerate(row) if v._numerator]
        lcm = math.lcm(*(row[j]._denominator for j in support))
        denominator *= lcm
        terms = [(1 << j, row[j]._numerator * (lcm // row[j]._denominator)) for j in support]
        extended = {}
        for used, total in sums.items():
            for bit, entry in terms:
                if not used & bit:
                    key = used | bit
                    extended[key] = extended.get(key, 0) + total * entry
        if not extended:
            return ZERO
        sums = extended
    (total,) = sums.values()  # the one set of all n columns
    return Fraction(total, denominator)


def _scan(matrix: RationalMatrix):
    """The decision, in one pass that reads each row up to its second support
    column: the permanent 0 at a zero row, else the first degenerate tuple,
    else the (sigma, scales) of the monomial J."""
    columns = []  # each row's least support column, 1-based
    entries = []  # the entry there
    wide = None  # (row, second support column, entry) of the last row with one
    for i, row in enumerate(matrix.rows):
        least = 0
        for j, v in enumerate(row, 1):
            if v._numerator:
                if least:
                    wide = i, j, v
                    break
                least, entry = j, v
        if not least:
            return PermanentMismatch(ZERO)  # a zero row zeroes every product
        columns.append(least)
        entries.append(entry)
    if len(set(columns)) == len(columns):
        if wide is None:
            return _unchecked(Permutation, image=tuple(columns)), tuple(entries)
        # The least columns are a permutation: moving any one row to a larger
        # support column makes them repeat, and moving the last gives the least.
        i, columns[i], entries[i] = wide
    return DegenerateTuple(tuple(columns), _prod(entries))


def degenerate_products_zero(
    matrix: RationalMatrix, *, max_n: int = DEFAULT_MAX_N
) -> DegenerateTuple | None:
    """None if every repeated-index column tuple has zero product.

    Otherwise the first violating tuple in lexicographic order, with its
    (necessarily nonzero) product.
    """
    _check_cap(matrix.n, max_n)
    found = _scan(matrix)
    return found if type(found) is DegenerateTuple else None


def extract_pattern(matrix: RationalMatrix) -> tuple[Permutation, tuple[Fraction, ...]]:
    """Read (sigma, scales) off a monomial sparsity pattern.

    Raises NotMonomial when some row does not have exactly one nonzero entry
    or the nonzero columns repeat.  The scale product is not checked here.
    """
    found = _scan(matrix)
    if type(found) is tuple:
        return found
    for i, row in enumerate(matrix.rows, 1):
        count = len(row) - row.count(ZERO)
        if count != 1:
            raise NotMonomial(f"row {i} has {count} nonzero entries, expected 1")
    raise NotMonomial(f"nonzero columns {list(found.indices)} repeat")


def _decide(matrix: RationalMatrix, max_n: int):
    """A Violation, or the (sigma, scales) of a symmetry."""
    if matrix.n < 2:
        raise DimensionMismatch("classification needs n >= 2")
    _check_cap(matrix.n, max_n)
    found = _scan(matrix)
    if type(found) is not tuple:
        return Violation(found)
    value = _prod(found[1])  # the permanent of the monomial J, reduced
    if value._numerator != 1 or value._denominator != 1:
        return Violation(PermanentMismatch(value))
    return found


def invariance_system_check(
    matrix: RationalMatrix, *, max_n: int = DEFAULT_MAX_N
) -> InvarianceReport:
    """Full decision: Symmetry with recovered (sigma, scales), or a witness."""
    found = _decide(matrix, max_n)
    return found if type(found) is Violation else Symmetry(*found)


def classify_affine(
    matrix: RationalMatrix, translation, *, max_n: int = DEFAULT_MAX_N
) -> AffineSymmetry | Violation:
    """Classify x -> J x + t; the translation is unconstrained."""
    translation = _sized_vector(translation, matrix.n, "translation")
    found = _decide(matrix, max_n)
    if type(found) is Violation:
        return found
    linear = _unchecked(ScaledPerm, sigma=found[0], scale=found[1])
    return _unchecked(AffineSymmetry, linear=linear, translation=translation)


def membership_test(matrix: RationalMatrix, sigma: Permutation) -> bool:
    """True iff matrix @ E_sigma is diagonal with determinant 1.

    E_sigma is the unscaled permutation matrix for sigma.  Entry (i, j) of
    the product is matrix[i, sigma^{-1}(j)], so it is diagonal exactly when
    row i is zero off column sigma^{-1}(i), and it has determinant 1 only if
    that entry is nonzero too.  So the classifier's O(n^2) scan decides, with
    no matrix product and no eigensolver.
    """
    if matrix.n != sigma.n:
        raise DimensionMismatch(f"matrix size {matrix.n} vs permutation on {sigma.n} points")
    found = _scan(matrix)
    return type(found) is tuple and found[0].image == sigma.inverse().image and _prod(found[1]) == 1


def witness_violates(
    matrix: RationalMatrix, witness: Witness, *, max_n: int = DEFAULT_MAX_N
) -> bool:
    """Re-evaluate a witness against the matrix it was issued for."""
    if isinstance(witness, DegenerateTuple):
        n, indices = matrix.n, witness.indices
        if len(indices) != n or not all(type(k) is int and 1 <= k <= n for k in indices):
            return False  # not n column indices of the matrix (a bool is not an int)
        if len(set(indices)) == n:
            return False  # not degenerate
        product = _prod(matrix.rows[i][k - 1] for i, k in enumerate(indices))
        return product != 0 and product == witness.product
    if isinstance(witness, PermanentMismatch):
        return witness.value != 1 and permanent(matrix, max_n=max_n) == witness.value
    raise TypeError(f"unknown witness type: {witness!r}")


def _inject_off_pattern(element: ScaledPerm, dense: RationalMatrix, rng, draw) -> RationalMatrix:
    """``dense``, element's dense form, plus one nonzero entry ``draw(rng)`` off its pattern."""
    n = element.n
    row = rng.randrange(n) + 1
    on_column = element.sigma.image[row - 1]
    column = rng.choice([j for j in range(1, n + 1) if j != on_column])
    return dense.with_entry(row, column, draw(rng))


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
    from .sampling import random_nonzero_rational, random_scaled_perm, trial_rng

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise DimensionMismatch("the oracle needs n >= 2")
    _check_cap(n, max_n)
    positives_passed = perturbed_rejected = 0
    for index in range(trials):
        rng = trial_rng(seed, index)
        element = random_scaled_perm(n, rng)
        dense = element.to_dense()
        report = invariance_system_check(dense, max_n=max_n)
        positives_passed += report == Symmetry(element.sigma, element.scale)
        perturbed = _inject_off_pattern(element, dense, rng, random_nonzero_rational)
        perturbed_report = invariance_system_check(perturbed, max_n=max_n)
        if isinstance(perturbed_report, Violation) and witness_violates(
            perturbed, perturbed_report.witness, max_n=max_n
        ):
            perturbed_rejected += 1
    return OracleReport(n, trials, positives_passed, perturbed_rejected, seed)
