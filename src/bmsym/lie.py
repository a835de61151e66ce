"""The commutative Lie group of determinant-one diagonal matrices.

Group elements are diag(a_1..a_n) with entry product 1; the chart drops the
last entry, which is redundant.  The tangent space at the identity consists
of traceless diagonals, with exp/log acting componentwise.  Entries may be
floats or exact rationals: rational elements keep all group arithmetic
exact, while exp/log always produce floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    DimensionMismatch,
    NotIdentityComponent,
    TraceNotZero,
    UnitProductViolation,
    ZeroCoordinate,
)

if TYPE_CHECKING:
    import numpy as np

    from .group import ScaledPerm

TOLERANCE = 1e-12


def _as_number(value):
    """Floats pass through; ints and Fractions stay exact."""
    if isinstance(value, float):
        return value
    return Fraction(value)


def _ratio_product(values) -> tuple[int, int]:
    """The exact product of ``values`` as (numerator, denominator).

    Floats convert exactly to integer ratios, so no partial product can
    overflow the way a float product does; an infinite or NaN entry has no
    ratio and raises OverflowError or ValueError.
    """
    num = den = 1
    for v in values:
        p, q = v.as_integer_ratio()
        num, den = num * p, den * q
    return num, den


def _near_unit_product(values) -> bool:
    """Whether the exact product of ``values`` lies within TOLERANCE of 1;
    false when an entry is infinite or NaN."""
    try:
        num, den = _ratio_product(values)
    except (OverflowError, ValueError):
        return False
    tol_num, tol_den = TOLERANCE.as_integer_ratio()
    return abs(num - den) * tol_den <= tol_num * den


@dataclass(frozen=True)
class DiagonalGroupElement:
    """diag(a_1..a_n) with nonzero entries and product 1 (within TOLERANCE)."""

    diag: tuple

    def __post_init__(self) -> None:
        diag = tuple(_as_number(v) for v in self.diag)
        object.__setattr__(self, "diag", diag)
        if len(diag) < 2:
            raise DimensionMismatch("need at least 2 diagonal entries")
        if any(v == 0 for v in diag):
            raise ZeroCoordinate("diagonal entries must be nonzero")
        if not _near_unit_product(diag):
            raise UnitProductViolation(f"entry product is {math.prod(diag)}, expected 1")

    @property
    def n(self) -> int:
        return len(self.diag)

    @classmethod
    def identity(cls, n: int) -> "DiagonalGroupElement":
        return cls((Fraction(1),) * n)

    def is_identity(self) -> bool:
        return all(v == 1 for v in self.diag)

    def inverse(self) -> "DiagonalGroupElement":
        return DiagonalGroupElement(tuple(1 / v for v in self.diag))

    def multiply(self, other: "DiagonalGroupElement") -> "DiagonalGroupElement":
        if self.n != other.n:
            raise DimensionMismatch(f"sizes differ: {self.n} vs {other.n}")
        return DiagonalGroupElement(tuple(a * b for a, b in zip(self.diag, other.diag)))

    def __mul__(self, other: "DiagonalGroupElement") -> "DiagonalGroupElement":
        if not isinstance(other, DiagonalGroupElement):
            return NotImplemented
        return self.multiply(other)


@dataclass(frozen=True)
class TracelessDiagonal:
    """diag(t_1..t_n) with zero trace (within TOLERANCE); tangent data for exp."""

    diag: tuple

    def __post_init__(self) -> None:
        diag = tuple(_as_number(v) for v in self.diag)
        object.__setattr__(self, "diag", diag)
        if len(diag) < 2:
            raise DimensionMismatch("need at least 2 diagonal entries")
        trace = sum(diag)
        # "not <=" also fails a NaN or infinite entry, whose trace is NaN or infinite
        if not abs(trace) <= TOLERANCE:
            raise TraceNotZero(f"trace is {trace}, expected 0")

    @property
    def n(self) -> int:
        return len(self.diag)

    @classmethod
    def zero(cls, n: int) -> "TracelessDiagonal":
        return cls((Fraction(0),) * n)

    def __add__(self, other: "TracelessDiagonal") -> "TracelessDiagonal":
        if not isinstance(other, TracelessDiagonal):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"sizes differ: {self.n} vs {other.n}")
        return TracelessDiagonal(tuple(a + b for a, b in zip(self.diag, other.diag)))

    def __neg__(self) -> "TracelessDiagonal":
        return TracelessDiagonal(tuple(-v for v in self.diag))

    def scaled(self, factor) -> "TracelessDiagonal":
        factor = _as_number(factor)
        return TracelessDiagonal(tuple(factor * v for v in self.diag))

    def __rmul__(self, factor) -> "TracelessDiagonal":
        return self.scaled(factor)


def dn1_new(first) -> DiagonalGroupElement:
    """Element from its first n-1 entries; the last is the reciprocal product.

    The product is formed exactly, so it cannot overflow midway; the last
    entry is a float, rounded once, when any leading entry is a float.
    """
    entries = tuple(_as_number(v) for v in first)
    if not entries:
        raise DimensionMismatch("need at least one leading entry")
    if any(v == 0 for v in entries):
        raise ZeroCoordinate("chart coordinates must be nonzero")
    num, den = _ratio_product(entries)
    if any(isinstance(v, float) for v in entries):
        return DiagonalGroupElement((*entries, den / num))
    return DiagonalGroupElement((*entries, Fraction(den, num)))


def chart(a: DiagonalGroupElement) -> tuple:
    """Local coordinates: the first n-1 diagonal entries."""
    return a.diag[:-1]


def mu(a: DiagonalGroupElement, b: DiagonalGroupElement) -> DiagonalGroupElement:
    """The division map a^{-1} b, componentwise b_i / a_i."""
    if a.n != b.n:
        raise DimensionMismatch(f"sizes differ: {a.n} vs {b.n}")
    return DiagonalGroupElement(tuple(bv / av for av, bv in zip(a.diag, b.diag)))


def lie_exp(x: TracelessDiagonal) -> DiagonalGroupElement:
    """Componentwise exponential; lands in the group since the trace is 0."""
    return DiagonalGroupElement(tuple(math.exp(float(v)) for v in x.diag))


def lie_log(a: DiagonalGroupElement) -> TracelessDiagonal:
    """Componentwise logarithm, defined on the all-positive component only."""
    if any(v <= 0 for v in a.diag):
        raise NotIdentityComponent("logarithm needs all diagonal entries positive")
    return TracelessDiagonal(tuple(math.log(float(v)) for v in a.diag))


def basis(n: int, i: int) -> TracelessDiagonal:
    """Basis element with +1 at position i (1-based, i <= n-1) and -1 at position n."""
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    if not 1 <= i <= n - 1:
        raise IndexError(f"basis index {i} outside 1..{n - 1}")
    diag = [Fraction(0)] * n
    diag[i - 1] = Fraction(1)
    diag[n - 1] = Fraction(-1)
    return TracelessDiagonal(tuple(diag))


def bracket(x: TracelessDiagonal, y: TracelessDiagonal) -> TracelessDiagonal:
    """Commutator XY - YX computed on the dense float matrices; diagonal
    matrices commute."""
    if x.n != y.n:
        raise DimensionMismatch(f"sizes differ: {x.n} vs {y.n}")
    dense_x = _dense_diagonal(x)
    dense_y = _dense_diagonal(y)
    commutator = [
        [p - q for p, q in zip(row_xy, row_yx)]
        for row_xy, row_yx in zip(_matmul(dense_x, dense_y), _matmul(dense_y, dense_x))
    ]
    if any(v for i, row in enumerate(commutator) for j, v in enumerate(row) if i != j):
        raise RuntimeError("commutator of diagonal matrices is not diagonal")
    return TracelessDiagonal(tuple(row[i] for i, row in enumerate(commutator)))


def _dense_diagonal(x: TracelessDiagonal) -> list[list[float]]:
    return [[float(v) if i == j else 0.0 for j in range(x.n)] for i, v in enumerate(x.diag)]


def _matmul(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """Dense product that skips zero entries, like RationalMatrix.__matmul__."""
    out = [[0.0] * len(a) for _ in a]
    for row, acc in zip(a, out):
        for u, b_row in zip(row, b):
            if u:
                for j, v in enumerate(b_row):
                    if v:
                        acc[j] += u * v
    return out


def _structure_lists(n: int) -> list[list[list[float]]]:
    """structure_constants(n) as nested float lists, without numpy."""
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    vectors = [basis(n, i) for i in range(1, n)]
    tensor = []
    for e_i in vectors:
        plane = []
        for e_j in vectors:
            b = bracket(e_i, e_j)
            coefficients = [float(v) for v in b.diag[:-1]]
            # The expansion is faithful only if the dropped last entry agrees.
            if float(b.diag[-1]) != -sum(coefficients):
                raise RuntimeError("bracket does not lie in the span of the basis")
            plane.append(coefficients)
        tensor.append(plane)
    return tensor


def structure_constants(n: int) -> np.ndarray:
    """Tensor c[i, j, k] with [E_i, E_j] = sum_k c[i, j, k] E_k.

    Computed by expanding each dense commutator in the basis (coefficients
    read off positions 1..n-1), not assumed; the algebra is abelian, so the
    result is the zero tensor.
    """
    tensor = _structure_lists(n)
    import numpy as np  # imported here so that only this function loads numpy

    return np.array(tensor, dtype=float)


def component_signature(a: DiagonalGroupElement) -> tuple[int, ...]:
    """Sign pattern of the diagonal; an even number of entries is negative."""
    return tuple(1 if v > 0 else -1 for v in a.diag)


def as_scaled_perm(a: DiagonalGroupElement) -> ScaledPerm:
    """Exact crossover into the monomial-matrix group (identity permutation).

    Requires rational entries with exact unit product; floats are rejected.
    """
    from .group import ScaledPerm
    from .matrix import as_fraction
    from .permutation import Permutation

    scale = tuple(as_fraction(v) for v in a.diag)
    return ScaledPerm(Permutation.identity(a.n), scale)
