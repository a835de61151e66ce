"""The linear symmetry group: permutations and scaled permutations.

A permutation of {1..n} is in one-line notation (1-based throughout).  A
scaled permutation carries ``scale[i]`` in row ``i``, column ``sigma(i)``,
and zeros elsewhere.  With scale product 1 these are exactly the linear maps
that preserve ``y^1 ... y^n``; ``affine.AffineSymmetry`` adds translations.

Validates: the constructors (a bijection of integers; nonzero exact scales
of product 1) and ``apply``'s vector, each length through
``matrix._sized_vector``.  Trusts: ``compose``, ``inverse`` and ``to_dense``
build their results unchecked, valid by algebra (bijections compose and
invert to bijections; unit products multiply and invert to 1), each in one
pass of a fused kernel of ``matrix``.

Imports ``errors`` and ``matrix``; no ``dataclasses``.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import DimensionMismatch, UnitProductViolation, ZeroScale
from .matrix import ONE, ZERO, RationalMatrix, _inverse_gather, _prod
from .matrix import _Record, _scaled_gather, _sized_vector, _unchecked


class Permutation(_Record):
    """A bijection of {1..n}; ``image[i-1]`` is the value at ``i``."""

    __slots__ = __match_args__ = ("image",)

    def __init__(self, image) -> None:
        image = tuple(image)
        if not all(type(v) is int for v in image):
            raise TypeError(f"permutation entries must be integers, got {image!r}")
        n = len(image)
        if n == 0:
            raise ValueError("a permutation needs at least one point")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {image}")
        self._store(image)

    @property
    def n(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"point {i} outside 1..{self.n}")
        return self.image[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i)): other acts first."""
        if self.n != other.n:
            raise DimensionMismatch(f"cannot compose on {self.n} and {other.n} points")
        return _unchecked(Permutation, tuple(self.image[j - 1] for j in other.image))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return _unchecked(Permutation, tuple(inv))

    def sign(self) -> int:
        """+1 for even, -1 for odd, via the cycle decomposition."""
        seen = [False] * self.n
        transpositions = 0
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            cursor = start
            while not seen[cursor]:
                seen[cursor] = True
                cursor = self.image[cursor] - 1
                length += 1
            transpositions += length - 1
        return 1 if transpositions % 2 == 0 else -1

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


class ScaledPerm(_Record):
    """Monomial matrix with exact rational scales of product 1."""

    __slots__ = __match_args__ = ("sigma", "scale")

    def __init__(self, sigma: Permutation, scale) -> None:
        scale = _sized_vector(scale, sigma.n, "scale")
        if any(v == 0 for v in scale):
            raise ZeroScale("scale entries must be nonzero")
        product = _prod(scale)
        if product != 1:
            raise UnitProductViolation(f"scale product is {product}, expected 1")
        self._store(sigma, scale)

    @property
    def n(self) -> int:
        return self.sigma.n

    @classmethod
    def identity(cls, n: int) -> "ScaledPerm":
        return cls(Permutation.identity(n), (ONE,) * n)

    def is_identity(self) -> bool:
        return self.sigma.is_identity() and all(v == 1 for v in self.scale)

    def to_dense(self) -> RationalMatrix:
        n = len(self.scale)
        row, rows = [ZERO] * n, []
        for a, s in zip(self.scale, self.sigma.image):
            row[s - 1] = a  # one row buffer, set and cleared around each copy
            rows.append(tuple(row))
            row[s - 1] = ZERO
        return _unchecked(RationalMatrix, n, tuple(rows))

    def compose(self, other: "ScaledPerm") -> "ScaledPerm":
        """Group product; the dense form is to_dense(self) @ to_dense(other)."""
        if self.n != other.n:
            raise DimensionMismatch(f"cannot compose sizes {self.n} and {other.n}")
        perm = other.sigma.compose(self.sigma)
        scale = _scaled_gather(self.scale, self.sigma.image, other.scale)
        return _unchecked(ScaledPerm, perm, scale)

    def __mul__(self, other: "ScaledPerm") -> "ScaledPerm":
        if not isinstance(other, ScaledPerm):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "ScaledPerm":
        inv = self.sigma.inverse()
        scale, _ = _inverse_gather(self.scale, inv.image)
        return _unchecked(ScaledPerm, inv, scale)

    def det(self) -> int:
        """The determinant collapses to the permutation sign: the scales multiply to 1."""
        return self.sigma.sign()

    def apply(self, y: Sequence) -> tuple[Fraction, ...]:
        """Componentwise action: result[i] = scale[i] * y[sigma(i)]."""
        return _scaled_gather(self.scale, self.sigma.image, _sized_vector(y, self.n, "vector"))

