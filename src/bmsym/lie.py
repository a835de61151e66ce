"""The commutative Lie group of determinant-one diagonal matrices.

Elements are diag(a_1..a_n) with product 1, charted by the first n - 1
entries; the algebra is the traceless diagonals, with exp and log acting
componentwise on the chart.  Entries are floats or exact rationals; exp and
log give floats.

Validates: the constructors check the unit product or zero trace, exactly,
or within TOLERANCE if an entry is a float.  Trusts: every operation
computes its result's chart and completes it unchecked, by ``dn1_new``
(the reciprocal product) or ``_traceless`` (minus the trace), so a float
result cannot fail by accumulated rounding.  Exact group laws run on the
kernels of ``matrix``.  The algebra is abelian, so the bracket and the
structure constants are zero by the theorem; the tests hold the expansion.

Imports ``errors`` and ``matrix``; ``array`` and ``group`` in the one
function that uses each.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NotIdentityComponent,
    TraceNotZero,
    UnitProductViolation,
    ZeroCoordinate,
)
from .matrix import ONE, ZERO, _Record, _inv, _prod, _scaled_gather, _unchecked, as_fraction

TYPE_CHECKING = False  # true to a type checker; the run time imports no typing
if TYPE_CHECKING:
    from .group import ScaledPerm

TOLERANCE = 1e-12


def _as_number(value):
    """Floats pass through; ints and Fractions stay exact."""
    return value if isinstance(value, float) else as_fraction(value)


def _ratio_product(values) -> tuple[int, int]:
    """The exact product of floats (or Fractions) as an unreduced
    ``(numerator, denominator)`` with a positive denominator, ``(1, 1)`` when
    empty.  Each enters as its exact integer ratio, so no partial product
    overflows; an infinite or NaN entry raises OverflowError or ValueError."""
    numerator = denominator = 1
    for v in values:
        n, d = v.as_integer_ratio()
        numerator *= n
        denominator *= d
    return numerator, denominator


def _near_unit_product(values) -> bool:
    """Whether the exact product of ``values`` lies within TOLERANCE of 1;
    false when an entry is infinite or NaN."""
    try:
        num, den = _ratio_product(values)
    except (OverflowError, ValueError):
        return False
    tol_num, tol_den = TOLERANCE.as_integer_ratio()
    return abs(num - den) * tol_den <= tol_num * den


class _Diagonal(_Record):
    """diag(d_1..d_n), n >= 2; each subclass checks its condition in ``_check``."""

    __slots__ = __match_args__ = ("diag",)

    def __init__(self, diag) -> None:
        diag = tuple(_as_number(v) for v in diag)
        if len(diag) < 2:
            raise DimensionMismatch("need at least 2 diagonal entries")
        self._check(diag)
        self._store(diag)

    @property
    def n(self) -> int:
        return len(self.diag)


class DiagonalGroupElement(_Diagonal):
    """diag(a_1..a_n), nonzero, product 1 (within TOLERANCE for floats)."""

    __slots__ = ()

    def _check(self, diag: tuple) -> None:
        if len({isinstance(v, float) for v in diag}) > 1:
            raise TypeError(f"entries must be all floats or all exact, got {diag!r}")
        if any(v == 0 for v in diag):
            raise ZeroCoordinate("diagonal entries must be nonzero")
        if not (_near_unit_product(diag) if isinstance(diag[0], float) else _prod(diag) == 1):
            product = math.prod(diag)
            if not 0 < abs(product) < math.inf and all(map(math.isfinite, diag)):
                # the float product left the range; the exact one says which way
                num, den = _ratio_product(diag)
                product = f"{'above' if abs(num) > den else 'below'} the float range"
            raise UnitProductViolation(f"entry product is {product}, expected 1")

    @classmethod
    def identity(cls, n: int) -> "DiagonalGroupElement":
        return cls((Fraction(1),) * n)

    def is_identity(self) -> bool:
        return all(v == 1 for v in self.diag)

    def inverse(self) -> "DiagonalGroupElement":
        if type(self.diag[0]) is Fraction:
            return _exact_element(tuple(map(_inv, self.diag[:-1])))
        return dn1_new(tuple(1 / v for v in self.diag[:-1]))

    def multiply(self, other: "DiagonalGroupElement") -> "DiagonalGroupElement":
        if self.n != other.n:
            raise DimensionMismatch(f"sizes differ: {self.n} vs {other.n}")
        a, b = self.diag, other.diag
        if type(a[0]) is Fraction and type(b[0]) is Fraction:
            return _exact_element(_scaled_gather(a, range(1, len(a)), b))
        return dn1_new(tuple(x * y for x, y in zip(a[:-1], b[:-1])))

    def __mul__(self, other: "DiagonalGroupElement") -> "DiagonalGroupElement":
        if not isinstance(other, DiagonalGroupElement):
            return NotImplemented
        return self.multiply(other)


class TracelessDiagonal(_Diagonal):
    """diag(t_1..t_n), trace 0 (within TOLERANCE if any is a float); tangent data for exp."""

    __slots__ = ()

    def _check(self, diag: tuple) -> None:
        floats = any(isinstance(v, float) for v in diag)
        trace = _trace(diag)  # NaN for a NaN entry, which "not <=" fails
        if not abs(trace) <= (TOLERANCE if floats else 0):
            if floats and type(trace) is Fraction:  # fsum overflowed: the exact sum
                beyond = abs(trace) > sys.float_info.max
                trace = "beyond the float range" if beyond else float(trace)
            raise TraceNotZero(f"trace is {trace}, expected 0")

    @classmethod
    def zero(cls, n: int) -> "TracelessDiagonal":
        return cls((Fraction(0),) * n)

    def __add__(self, other: "TracelessDiagonal") -> "TracelessDiagonal":
        if not isinstance(other, TracelessDiagonal):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"sizes differ: {self.n} vs {other.n}")
        return _traceless(tuple(a + b for a, b in zip(self.diag[:-1], other.diag[:-1])))

    def __neg__(self) -> "TracelessDiagonal":
        return _unchecked(TracelessDiagonal, tuple(-v for v in self.diag))

    def scaled(self, factor) -> "TracelessDiagonal":
        factor = _as_number(factor)
        return _traceless(tuple(factor * v for v in self.diag[:-1]))

    __rmul__ = scaled


def _trace(diag):
    """The sum of ``diag``: exact if no entry is a float, else correctly
    rounded, or NaN or infinite when a float entry is."""
    floats = [v for v in diag if isinstance(v, float)]
    if not all(map(math.isfinite, floats)):
        return sum(floats)
    try:
        return math.fsum(diag) if floats else sum(diag)
    except OverflowError:  # a partial sum or an exact entry beyond the float range
        return sum(map(Fraction, diag))


def _traceless(head: tuple) -> TracelessDiagonal:
    """``head`` completed by minus its trace, rounded once if a float (never -0.0)."""
    trace = _trace(head)
    if not any(isinstance(v, float) for v in head):
        return _unchecked(TracelessDiagonal, (*head, -trace))
    try:
        last = 0.0 - trace
    except OverflowError:  # an exact trace beyond the float range
        last = math.inf
    if not math.isfinite(last):
        raise TraceNotZero(f"chart {head!r} has no finite traceless completion")
    return _unchecked(TracelessDiagonal, (*head, last))


def _exact_element(head: tuple) -> DiagonalGroupElement:
    """The element whose chart is ``head``, nonzero ``Fraction``s, unchecked."""
    return _unchecked(DiagonalGroupElement, (*head, _inv(_prod(head))))


def dn1_new(first) -> DiagonalGroupElement:
    """Element from its first n-1 entries; the last is the reciprocal product.

    The group operations complete their results here.  The product is exact,
    so it cannot overflow midway; for floats the last entry is rounded once
    and must keep the product within TOLERANCE, as any normal float does.
    """
    entries = tuple(_as_number(v) for v in first)
    if not entries:
        raise DimensionMismatch("need at least one leading entry")
    if any(v == 0 for v in entries):
        raise ZeroCoordinate("chart coordinates must be nonzero")
    if not any(isinstance(v, float) for v in entries):
        return _exact_element(entries)
    if not all(isinstance(v, float) for v in entries):  # the constructor's check
        raise TypeError(f"entries must be all floats or all exact, got {entries!r}")
    if not all(map(math.isfinite, entries)):
        raise UnitProductViolation(f"chart coordinates must be finite, got {entries!r}")
    numerator, denominator = _ratio_product(entries)
    try:
        last = denominator / numerator  # correctly rounded
    except OverflowError:
        raise UnitProductViolation("last entry is above the float range") from None
    if not (abs(last) >= sys.float_info.min or _near_unit_product((*entries, last))):
        raise UnitProductViolation("last entry is below the float range")
    return _unchecked(DiagonalGroupElement, (*entries, last))


def chart(a: DiagonalGroupElement) -> tuple:
    """Local coordinates: the first n-1 diagonal entries."""
    return a.diag[:-1]


def mu(a: DiagonalGroupElement, b: DiagonalGroupElement) -> DiagonalGroupElement:
    """The division map a^{-1} b: the chart b_i / a_i, completed as in ``dn1_new``."""
    if a.n != b.n:
        raise DimensionMismatch(f"sizes differ: {a.n} vs {b.n}")
    if type(a.diag[0]) is Fraction and type(b.diag[0]) is Fraction:
        return _exact_element(_scaled_gather(b.diag, range(1, a.n), tuple(map(_inv, a.diag[:-1]))))
    return dn1_new(tuple(y / x for x, y in zip(a.diag[:-1], b.diag[:-1])))


def lie_exp(x: TracelessDiagonal) -> DiagonalGroupElement:
    """Componentwise exponential of the chart, completed by ``dn1_new``."""
    chart = []
    for i, v in enumerate(map(float, x.diag[:-1]), 1):
        try:
            chart.append(math.exp(v))
        except OverflowError:
            raise UnitProductViolation(f"entry {i} is above the float range") from None
    return dn1_new(chart)


def lie_log(a: DiagonalGroupElement) -> TracelessDiagonal:
    """Componentwise logarithm of the chart, completed by ``_traceless``;
    defined on the all-positive component only."""
    if any(v <= 0 for v in a.diag):
        raise NotIdentityComponent("logarithm needs all diagonal entries positive")
    return _traceless(tuple(math.log(float(v)) for v in a.diag[:-1]))


def basis(n: int, i: int) -> TracelessDiagonal:
    """e_i - e_n (1-based, i <= n-1): the chart's unit vector i completed by -1."""
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    if not 1 <= i <= n - 1:
        raise IndexError(f"basis index {i} outside 1..{n - 1}")
    diag = [ZERO] * n
    diag[i - 1], diag[-1] = ONE, -ONE
    return _unchecked(TracelessDiagonal, tuple(diag))


def bracket(x: TracelessDiagonal, y: TracelessDiagonal) -> TracelessDiagonal:
    """Commutator XY - YX of the diagonal matrices: zero by the theorem, since
    diagonal matrices commute.  Every entry is finite, so the exact expansion
    x_i y_i - y_i x_i is 0.0 too; the tests check the result against it."""
    if x.n != y.n:
        raise DimensionMismatch(f"sizes differ: {x.n} vs {y.n}")
    return _unchecked(TracelessDiagonal, (0.0,) * x.n)


def structure_constants(n: int) -> memoryview:
    """Tensor c[i, j, k] with [E_i, E_j] = sum_k c[i, j, k] E_k: zero by the
    theorem, as the algebra is abelian (the tests expand each basis pair's
    bracket).  It is a ``memoryview`` of format ``"d"`` and shape
    (n-1, n-1, n-1) over a stdlib ``array``: it has ``.shape``, ``.tolist()``
    and ``c[i, j, k]``, and array libraries wrap it without a copy.
    """
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    from array import array  # imported here so that only this function loads it

    flat = array("d", bytes(8 * (n - 1) ** 3))
    return memoryview(flat).cast("B").cast("d", (n - 1,) * 3)


def component_signature(a: DiagonalGroupElement) -> tuple[int, ...]:
    """Sign pattern of the diagonal; an even number of entries is negative."""
    return tuple(1 if v > 0 else -1 for v in a.diag)


def as_scaled_perm(a: DiagonalGroupElement) -> ScaledPerm:
    """Exact crossover into the monomial-matrix group (identity permutation).

    Requires rational entries with exact unit product; floats are rejected.
    """
    from .group import Permutation, ScaledPerm

    return ScaledPerm(Permutation.identity(a.n), a.diag)
