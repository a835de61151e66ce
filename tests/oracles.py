"""Reference implementations that the fast code is checked against.

The enumerations follow the definition directly and cost n! or n^n, so they
only run on small matrices in the tests; Ryser's formula, at 2^n n steps,
checks the permanent at a few larger n; membership is checked against the
dense product it reads off, the samplers against the same draws built
through the validating constructors, the Lie bracket and structure
constants, zero by the theorem, against numpy's dense matrix products and
the exact expansion of the commutator, the unit-product tolerance test
against the ``Fraction`` operators, the Lie group and algebra operations and
exp/log, which complete the chart of their result, against the entrywise
formulas (each result re-checked by its validating constructor), and the
classifier's one row pass against the two-pass decision it replaced, the
fused group law and action against the chained kernels they replaced, and
``@`` and ``apply`` against the sums of ``Fraction`` products, and the
rational literal reader against the regex check followed by ``Fraction``'s
own string grammar that it replaced, the Lie basis against its summed trace,
and the classifier's verdicts against the definition, expanded or at points.  The
determinant and the diagonal read-off of a RationalMatrix live here too,
since only the tests use them.
"""

import itertools
import math
import re
from fractions import Fraction
from operator import add, sub

import numpy as np

from bmsym import (
    AffineSymmetry,
    DegenerateTuple,
    DiagonalGroupElement,
    DimensionMismatch,
    MalformedInput,
    NotIdentityComponent,
    NotMonomial,
    PermanentMismatch,
    Permutation,
    ScaledPerm,
    Symmetry,
    TracelessDiagonal,
    Violation,
    basis,
    extract_pattern,
)
from bmsym.lie import _traceless
from bmsym.matrix import _inv, _unchecked, as_fraction


def _product(m, columns):
    product = Fraction(1)
    for i, j in enumerate(columns):
        entry = m.rows[i][j]
        if not entry:
            return Fraction(0)
        product *= entry
    return product


def brute_force_degenerate(m):
    """Scan all n^n column tuples in lexicographic order."""
    n = m.n
    for columns in itertools.product(range(n), repeat=n):
        if len(set(columns)) == n:
            continue
        product = _product(m, columns)
        if product != 0:
            return DegenerateTuple(tuple(j + 1 for j in columns), product)
    return None


def support_scan_degenerate(m):
    """Scan the column tuples drawn from the per-row supports, in
    lexicographic order: the full scan minus tuples of product zero."""
    n = m.n
    supports = [tuple(j for j in range(n) if m.rows[i][j]) for i in range(n)]
    for columns in itertools.product(*supports):
        if len(set(columns)) < n:
            return DegenerateTuple(tuple(j + 1 for j in columns), _product(m, columns))
    return None


def enumerated_permanent(m):
    """Sum of the entry products over all n! column permutations."""
    return sum(
        (_product(m, columns) for columns in itertools.permutations(range(m.n))),
        start=Fraction(0),
    )


def ryser_permanent(m):
    """Ryser's formula, column subsets in Gray-code order.

    perm(A) = (-1)^n * sum over column subsets S of
    (-1)^|S| * prod_i sum_{j in S} A[i, j].  Each row is scaled to integers
    first, so the 2^n loop runs on ints; the scaling is divided out at the end.
    """
    n = m.n
    rows = []
    denominator = 1
    for row in m.rows:
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


def enumerated_check(m):
    """invariance_system_check by definition: the first degenerate tuple,
    else the permanent, and the pattern when the permanent is 1."""
    witness = support_scan_degenerate(m)
    if witness is not None:
        return Violation(witness)
    value = enumerated_permanent(m)
    if value != 1:
        return Violation(PermanentMismatch(value))
    return Symmetry(*extract_pattern(m))


# The classifier's decision in two passes: the whole support of every row
# first, then the first degenerate tuple from the supports, then the
# monomial read-off.


def _supports(m):
    return [[j for j, v in enumerate(row) if v] for row in m.rows]


def _first_degenerate(m, supports):
    """For supports that are all nonempty; None exactly when m is monomial."""
    n = m.n
    columns = [support[0] for support in supports]
    if len(set(columns)) == n:
        i = next((i for i in reversed(range(n)) if len(supports[i]) > 1), None)
        if i is None:
            return None
        columns[i] = supports[i][1]
    product = math.prod((m.rows[i][j] for i, j in enumerate(columns)), start=Fraction(1))
    return DegenerateTuple(tuple(j + 1 for j in columns), product)


def _pattern(m, supports):
    columns = [support[0] for support in supports]
    scale = tuple(m.rows[i][j] for i, j in enumerate(columns))
    return Permutation(tuple(j + 1 for j in columns)), scale


def two_pass_degenerate(m):
    """degenerate_products_zero in two passes."""
    supports = _supports(m)
    if not all(supports):
        return None
    return _first_degenerate(m, supports)


def two_pass_pattern(m):
    """extract_pattern in two passes, with its NotMonomial messages."""
    supports = _supports(m)
    for i, support in enumerate(supports):
        if len(support) != 1:
            raise NotMonomial(f"row {i + 1} has {len(support)} nonzero entries, expected 1")
    if len({support[0] for support in supports}) != m.n:
        raise NotMonomial(f"nonzero columns {[support[0] + 1 for support in supports]} repeat")
    return _pattern(m, supports)


def two_pass_check(m):
    """invariance_system_check in two passes."""
    supports = _supports(m)
    if not all(supports):
        return Violation(PermanentMismatch(Fraction(0)))
    witness = _first_degenerate(m, supports)
    if witness is not None:
        return Violation(witness)
    sigma, scale = _pattern(m, supports)
    value = math.prod(scale, start=Fraction(1))
    if value != 1:
        return Violation(PermanentMismatch(value))
    return Symmetry(sigma, scale)


def preserves_product_form(m):
    """Whether prod_i sum_j m_ij y_j - prod_i y_i expands to 0 (sympy)."""
    import sympy

    y = sympy.symbols(f"y1:{m.n + 1}")
    image = [sum(sympy.Rational(v.numerator, v.denominator) * s for v, s in zip(row, y))
             for row in m.rows]
    return sympy.expand(sympy.Mul(*image) - sympy.Mul(*y)) == 0


def product_form_agrees_at_points(m, rng, points=3, bound=10**6):
    """Whether prod_i (m y)_i == prod_i y_i at ``points`` random y in [-bound, bound]^n,
    exactly.  By Schwartz-Zippel a nonzero degree-n difference vanishes at each with
    probability at most n / (2 bound + 1): a false agreement at n <= 64 is below 1e-12."""
    for _ in range(points):
        y = [rng.randint(-bound, bound) for _ in range(m.n)]
        if math.prod(m.apply(y)) != math.prod(y):
            return False
    return True


def numpy_bracket(x, y):
    """Diagonal of the commutator XY - YX of the dense float matrices, by numpy."""
    dense_x = np.diag([float(v) for v in x.diag])
    dense_y = np.diag([float(v) for v in y.diag])
    commutator = dense_x @ dense_y - dense_y @ dense_x
    assert not np.any(commutator - np.diag(np.diag(commutator)))
    return tuple(float(v) for v in np.diag(commutator))


def expanded_bracket(x, y):
    """The commutator's chart entries x_i y_i - y_i x_i as exact products,
    rounded to floats and completed by minus their trace."""
    head = [float(Fraction(a) * Fraction(b) - Fraction(b) * Fraction(a))
            for a, b in zip(x.diag[:-1], y.diag[:-1])]
    return TracelessDiagonal((*head, 0.0 - math.fsum(head)))


def summed_basis(n, i):
    """lie.basis as the chart's unit vector i completed by minus its summed trace."""
    return _traceless(tuple(Fraction(j == i) for j in range(1, n)))


def expanded_structure_constants(n):
    """c[i][j][k]: the bracket of basis pair (i, j), read off positions 1..n-1."""
    vectors = [basis(n, i) for i in range(1, n)]
    return [[list(expanded_bracket(e_i, e_j).diag[:-1]) for e_j in vectors] for e_i in vectors]


def near_unit_product(values, tolerance):
    """Whether the product of ``values`` lies within ``tolerance`` of 1, by
    the ``Fraction`` operators; false when a float entry is infinite or NaN."""
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        return False
    product = math.prod(map(Fraction, values), start=Fraction(1))
    return abs(product - 1) <= Fraction(tolerance)


# The group law and action as the chains of whole-vector kernels that the fused
# kernels replaced: a cross-cancelled product per entry, then an entrywise sum
# or negation, each step building its own Fractions.


def cross_cancel_gather(scale, image, vec):
    """``tuple(scale[i] * vec[image[i] - 1])``, cancelling across before multiplying."""
    gcd, new, out = math.gcd, object.__new__, []
    for a, s in zip(scale, image):
        b = vec[s - 1]
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g = gcd(na, db)
        if g > 1:
            na //= g
            db //= g
        g = gcd(nb, da)
        if g > 1:
            nb //= g
            da //= g
        f = new(Fraction)
        f._numerator, f._denominator = na * nb, da * db
        out.append(f)
    return tuple(out)


def vec_add(u, v):
    """``tuple(u[i] + v[i])``, reducing by the gcd of the denominators first."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    gcd, new, out = math.gcd, object.__new__, []
    for a, b in zip(u, v):
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g = gcd(da, db)
        if g == 1:
            na, da = na * db + da * nb, da * db
        else:
            s = da // g
            na, da = na * (db // g) + nb * s, s * db
            g = gcd(na, g)
            if g > 1:
                na //= g
                da //= g
        f = new(Fraction)
        f._numerator, f._denominator = na, da
        out.append(f)
    return tuple(out)


def vec_neg(u):
    return tuple(-a for a in u)


def _act(p, vec):
    return cross_cancel_gather(p.scale, p.sigma.image, vec)


def chained_scaled_apply(p, y):
    """``ScaledPerm.apply``, validating ``y`` entry by entry."""
    vec = tuple(as_fraction(v) for v in y)
    if len(vec) != p.n:
        raise DimensionMismatch(f"vector length {len(vec)}, expected {p.n}")
    return _act(p, vec)


def chained_scaled_compose(p, q):
    if p.n != q.n:
        raise DimensionMismatch(f"cannot compose sizes {p.n} and {q.n}")
    scale = cross_cancel_gather(p.scale, p.sigma.image, q.scale)
    return _unchecked(ScaledPerm, sigma=q.sigma.compose(p.sigma), scale=scale)


def chained_scaled_inverse(p):
    inv = p.sigma.inverse()
    return _unchecked(ScaledPerm, sigma=inv, scale=tuple(_inv(p.scale[j - 1]) for j in inv.image))


def chained_affine_apply(s, x):
    return vec_add(chained_scaled_apply(s.linear, x), s.translation)


def chained_affine_compose(s, t):
    linear = chained_scaled_compose(s.linear, t.linear)
    translation = vec_add(_act(s.linear, t.translation), s.translation)
    return _unchecked(AffineSymmetry, linear=linear, translation=translation)


def chained_affine_inverse(s):
    linear = chained_scaled_inverse(s.linear)
    translation = vec_neg(_act(linear, s.translation))
    return _unchecked(AffineSymmetry, linear=linear, translation=translation)


# The Lie operations entry by entry, each result re-checked by its validating
# constructor.


def entrywise_multiply(a, b):
    return DiagonalGroupElement(tuple(x * y for x, y in zip(a.diag, b.diag)))


def entrywise_inverse(a):
    return DiagonalGroupElement(tuple(1 / v for v in a.diag))


def entrywise_mu(a, b):
    """a^{-1} b as b_i / a_i."""
    return DiagonalGroupElement(tuple(y / x for x, y in zip(a.diag, b.diag)))


def entrywise_add(x, y):
    return TracelessDiagonal(tuple(a + b for a, b in zip(x.diag, y.diag)))


def entrywise_scaled(x, factor):
    factor = factor if isinstance(factor, float) else Fraction(factor)
    return TracelessDiagonal(tuple(factor * v for v in x.diag))


def entrywise_exp(x):
    """exp of every entry, the last one included."""
    return DiagonalGroupElement(tuple(math.exp(float(v)) for v in x.diag))


def entrywise_log(a):
    """log of every entry, the last one included; on the all-positive component only."""
    if any(v <= 0 for v in a.diag):
        raise NotIdentityComponent("logarithm needs all diagonal entries positive")
    return TracelessDiagonal(tuple(math.log(float(v)) for v in a.diag))


def operator_matmul(a, b):
    """The rows of ``a @ b`` as sums of ``Fraction`` products; a zero term,
    which changes no sum, is skipped."""
    columns = tuple(zip(*b.rows))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col) if x and y), Fraction(0)) for col in columns)
        for row in a.rows
    )


def operator_apply(m, vec):
    return tuple(sum(a * x for a, x in zip(row, vec)) for row in m.rows)


def cofactor_det(m):
    """Determinant of a RationalMatrix by cofactor expansion along the first
    row; zero entries are skipped."""
    return _cofactor_det(m.rows)


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, coefficient in enumerate(rows[0]):
        if not coefficient:
            continue
        minor = tuple(row[:j] + row[j + 1 :] for row in rows[1:])
        term = coefficient * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def is_diagonal(m):
    return all(not v for i, row in enumerate(m.rows) for j, v in enumerate(row) if i != j)


def diagonal(m):
    return tuple(m.rows[i][i] for i in range(m.n))


def dense_membership(m, sigma):
    """membership_test by definition: m @ E_sigma, the dense product with
    the unscaled permutation matrix, is diagonal with unit product."""
    if m.n != sigma.n:
        raise DimensionMismatch(f"matrix size {m.n} vs permutation on {sigma.n} points")
    product = m @ ScaledPerm(sigma, (Fraction(1),) * sigma.n).to_dense()
    return is_diagonal(product) and math.prod(diagonal(product), start=Fraction(1)) == 1


NONZERO = [v for v in range(-9, 10) if v != 0]
POSITIVE = list(range(1, 10))


def drawn_ratio(rng, ints):
    """The sampler's ratio of two integers drawn from ``ints``, built by ``Fraction``."""
    return Fraction(rng.choice(ints), rng.choice(ints))


def constructed_random_scaled_perm(n, rng, *, positive=False):
    """random_scaled_perm through the validating constructors, with the same
    draws from rng in the same order."""
    ints = POSITIVE if positive else NONZERO
    head = [drawn_ratio(rng, ints) for _ in range(n - 1)]
    product = math.prod(head, start=Fraction(1))
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return ScaledPerm(Permutation(tuple(image)), (*head, 1 / product))


def constructed_off_pattern(element, rng):
    """The classifier's _inject_off_pattern through with_entry, with the
    same draws from rng in the same order."""
    n = element.n
    row = rng.randrange(n) + 1
    on_column = element.sigma(row)
    column = rng.choice([j for j in range(1, n + 1) if j != on_column])
    return element.to_dense().with_entry(row, column, drawn_ratio(rng, NONZERO))


_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def two_grammar_parse_rational(text):
    """serialize.parse_rational checking the literal with its regex, then
    building the value by ``Fraction``'s own string grammar."""
    if isinstance(text, bool):
        raise MalformedInput(f"expected a rational string, got {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise MalformedInput(f"not a rational literal: {text!r}")
    return Fraction(text)
