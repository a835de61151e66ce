"""Decide whether a rational Jacobian is a symmetry of the product form.

The theorem decided: for n >= 2, a square J preserves y^1 ... y^n
identically exactly when (1) its permanent is 1 and (2) every degenerate
product vanishes, prod_i J[i, k_i] = 0 for each column tuple (k_1..k_n)
with a repeated index; that is, exactly when J is a scaled permutation
matrix with unit scale product.  For n >= 3 the argument plays a third row
against the indices; the 2x2 system (ac = 0, bd = 0, ad + bc = 1) gives the
same conclusion by direct case analysis.

Validates: the dimension (n >= 2 for a verdict), a translation's length,
and a re-checked witness's indices.  Every n is decided; the dimension cap
is the CLI's policy.  Trusts: ``RationalMatrix`` entries are exact
``Fraction``s.  Verdicts are built unchecked, since the decision proved
distinct support columns and a unit scale product.

The decision, ``permanent`` and the witness re-check all read one row scan,
``_scan``: a zero row (permanent 0), else the first degenerate tuple (a
tuple off the supports has product 0), else a monomial's (sigma, scales),
whose permanent is the scale product.  Only ``permanent`` of any other
matrix expands, over the row supports.

Imports ``errors``, ``group`` and ``matrix``.  ``classify_affine`` loads
``affine``, and ``dataclasses`` with it, on its first symmetry verdict, into
a module global, so CLI classifier calls never load it and a later verdict
runs no import statement; ``theorem_oracle`` imports ``sampling``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch, NotMonomial
from .group import Permutation, ScaledPerm
from .matrix import ZERO, RationalMatrix, _Record, _prod, _sized_vector, _unchecked

TYPE_CHECKING = False  # true to a type checker; the run time imports no typing
if TYPE_CHECKING:
    from .affine import AffineSymmetry


class DegenerateTuple(_Record):
    """A repeated-index column tuple (1-based) whose entry product is nonzero."""

    __slots__ = __match_args__ = ("indices", "product")


class PermanentMismatch(_Record):
    """The permanent of the matrix, which differs from 1."""

    __slots__ = __match_args__ = ("value",)


Witness = DegenerateTuple | PermanentMismatch


class Symmetry(_Record):
    """Positive verdict with the recovered scaled-permutation data."""

    __slots__ = __match_args__ = ("sigma", "scale")

    def element(self) -> ScaledPerm:
        return ScaledPerm(self.sigma, self.scale)


class Violation(_Record):
    """Negative verdict carrying a re-checkable counterexample."""

    __slots__ = __match_args__ = ("witness",)


InvarianceReport = Symmetry | Violation


class OracleReport(_Record):
    """Counts from a randomized soundness/completeness run."""

    __slots__ = __match_args__ = ("n", "trials", "positives_passed", "perturbed_rejected", "seed")

    def all_passed(self) -> bool:
        return self.positives_passed == self.trials and self.perturbed_rejected == self.trials


def permanent(matrix: RationalMatrix) -> Fraction:
    """The exact permanent: 0 at a zero row and the scale product of a
    monomial, both read off ``_scan``, else ``_expand_over_supports``,
    which takes at most n 2^(n-1) steps, on a dense matrix."""
    found = _scan(matrix)
    if type(found) is tuple:
        return _prod(found[1])
    if type(found) is PermanentMismatch:
        return found.value
    return _expand_over_supports(matrix)


def _expand_over_supports(matrix: RationalMatrix) -> Fraction:
    """The permanent by expansion along the rows, over each row's support.

    ``sums`` maps each set of columns used so far (a bitmask) to the sum of
    the entry products onto it, on rows scaled to integers; the scaling is
    divided out at the end.
    """
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
            return _unchecked(Permutation, tuple(columns)), tuple(entries)
        # The least columns are a permutation: moving any one row to a larger
        # support column makes them repeat, and moving the last gives the least.
        i, columns[i], entries[i] = wide
    return DegenerateTuple(tuple(columns), _prod(entries))


def degenerate_products_zero(matrix: RationalMatrix) -> DegenerateTuple | None:
    """None if every repeated-index column tuple has zero product.

    Otherwise the first violating tuple in lexicographic order, with its
    (necessarily nonzero) product.
    """
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


def _decide(matrix: RationalMatrix):
    """A Violation, or the (sigma, scales) of a symmetry."""
    if matrix.n < 2:
        raise DimensionMismatch("classification needs n >= 2")
    found = _scan(matrix)
    if type(found) is not tuple:
        return Violation(found)
    value = _prod(found[1])  # the permanent of the monomial J, reduced
    if value._numerator != 1 or value._denominator != 1:
        return Violation(PermanentMismatch(value))
    return found


def invariance_system_check(matrix: RationalMatrix) -> InvarianceReport:
    """Full decision: Symmetry with recovered (sigma, scales), or a witness."""
    found = _decide(matrix)
    return found if type(found) is Violation else Symmetry(*found)


_AffineSymmetry = None  # affine.AffineSymmetry, once classify_affine has returned one


def classify_affine(matrix: RationalMatrix, translation) -> AffineSymmetry | Violation:
    """Classify x -> J x + t; the translation is unconstrained."""
    global _AffineSymmetry
    translation = _sized_vector(translation, matrix.n, "translation")
    found = _decide(matrix)
    if type(found) is Violation:
        return found
    if _AffineSymmetry is None:  # the first symmetry loads affine, and dataclasses with it
        from .affine import AffineSymmetry as _AffineSymmetry
    return _unchecked(_AffineSymmetry, _unchecked(ScaledPerm, *found), translation)


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


def witness_violates(matrix: RationalMatrix, witness: Witness) -> bool:
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
        return witness.value != 1 and permanent(matrix) == witness.value
    raise TypeError(f"unknown witness type: {witness!r}")


def _inject_off_pattern(element: ScaledPerm, dense: RationalMatrix, rng, draw) -> RationalMatrix:
    """``dense``, element's dense form, with one nonzero entry ``draw(rng)`` set off its pattern."""
    n = element.n
    row = rng.randrange(n) + 1
    on_column = element.sigma.image[row - 1]
    column = rng.choice([j for j in range(1, n + 1) if j != on_column])
    return dense.with_entry(row, column, draw(rng))


def theorem_oracle(n: int, trials: int, seed: int = 0) -> OracleReport:
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
    positives_passed = perturbed_rejected = 0
    for index in range(trials):
        rng = trial_rng(seed, index)
        element = random_scaled_perm(n, rng)
        dense = element.to_dense()
        found = _decide(dense)
        positives_passed += (
            type(found) is tuple
            and found[0].image == element.sigma.image
            and found[1] == element.scale
        )
        perturbed = _inject_off_pattern(element, dense, rng, random_nonzero_rational)
        found = _decide(perturbed)
        if type(found) is Violation and witness_violates(perturbed, found.witness):
            perturbed_rejected += 1
    return OracleReport(n, trials, positives_passed, perturbed_rejected, seed)
