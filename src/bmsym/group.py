"""The symmetry group: permutations, scaled permutations and affine symmetries.

A permutation of {1..n} is in one-line notation (1-based throughout).  A
scaled permutation (monomial) matrix carries the value ``scale[i]`` in row
``i``, column ``sigma(i)``, and zeros elsewhere.  With the scale product
pinned to 1 these matrices are exactly the linear maps preserving the product
form ``y^1 y^2 ... y^n``; adding an arbitrary translation gives the affine
symmetry group of the metric ``F(y) = (y^1 ... y^n)^(1/n)``.

Validation contract: the constructors check everything (a bijection, nonzero
scales of product 1, exact entries), and ``apply`` checks a caller's vector;
each length goes through ``matrix._sized_vector``.  ``compose``, ``inverse``
and ``to_dense`` build their results unchecked: bijections compose and invert
to bijections, the scales of a product multiply to 1 * 1 and those of an
inverse to 1 / 1, so validity follows by algebra.  Past the constructors every
entry is an exact ``Fraction``, so each group-law and action method of a
scaled permutation is one pass of a fused kernel of ``matrix`` (one gcd per
entry, no intermediate vector).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, UnitProductViolation, ZeroScale
from .matrix import ONE, ZERO, RationalMatrix, _affine_gather, _inverse_gather, _prod
from .matrix import _scaled_gather, _sized_vector, _unchecked


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``image[i-1]`` is the value at ``i``."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        if not all(type(v) is int for v in image):
            raise TypeError(f"permutation entries must be integers, got {image!r}")
        object.__setattr__(self, "image", image)
        n = len(image)
        if n == 0:
            raise ValueError("a permutation needs at least one point")
        if sorted(image) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {image}")

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
        return _unchecked(Permutation, image=tuple(self.image[j - 1] for j in other.image))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return _unchecked(Permutation, image=tuple(inv))

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


@dataclass(frozen=True)
class ScaledPerm:
    """Monomial matrix with exact rational scales of product 1."""

    sigma: Permutation
    scale: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        scale = _sized_vector(self.scale, self.sigma.n, "scale")
        object.__setattr__(self, "scale", scale)
        if any(v == 0 for v in scale):
            raise ZeroScale("scale entries must be nonzero")
        product = _prod(scale)
        if product != 1:
            raise UnitProductViolation(f"scale product is {product}, expected 1")

    @property
    def n(self) -> int:
        return self.sigma.n

    @classmethod
    def identity(cls, n: int) -> "ScaledPerm":
        return cls(Permutation.identity(n), (ONE,) * n)

    def is_identity(self) -> bool:
        return self.sigma.is_identity() and all(v == 1 for v in self.scale)

    def to_dense(self) -> RationalMatrix:
        zeros = (ZERO,) * self.n
        rows = tuple(
            zeros[: s - 1] + (a,) + zeros[s:] for a, s in zip(self.scale, self.sigma.image)
        )
        return _unchecked(RationalMatrix, n=self.n, rows=rows)

    def compose(self, other: "ScaledPerm") -> "ScaledPerm":
        """Group product; the dense form is to_dense(self) @ to_dense(other)."""
        if self.n != other.n:
            raise DimensionMismatch(f"cannot compose sizes {self.n} and {other.n}")
        perm = other.sigma.compose(self.sigma)
        scale = _scaled_gather(self.scale, self.sigma.image, other.scale)
        return _unchecked(ScaledPerm, sigma=perm, scale=scale)

    def __mul__(self, other: "ScaledPerm") -> "ScaledPerm":
        if not isinstance(other, ScaledPerm):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "ScaledPerm":
        inv = self.sigma.inverse()
        scale, _ = _inverse_gather(self.scale, inv.image)
        return _unchecked(ScaledPerm, sigma=inv, scale=scale)

    def det(self) -> int:
        """The determinant collapses to the permutation sign: the scales multiply to 1."""
        return self.sigma.sign()

    def apply(self, y: Sequence) -> tuple[Fraction, ...]:
        """Componentwise action: result[i] = scale[i] * y[sigma(i)]."""
        return _scaled_gather(self.scale, self.sigma.image, _sized_vector(y, self.n, "vector"))


@dataclass(frozen=True)
class AffineSymmetry:
    """x -> linear @ x + translation, with a scaled-permutation linear part."""

    linear: ScaledPerm
    translation: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        translation = _sized_vector(self.translation, self.linear.n, "translation")
        object.__setattr__(self, "translation", translation)

    @property
    def n(self) -> int:
        return self.linear.n

    @classmethod
    def identity(cls, n: int) -> "AffineSymmetry":
        return cls(ScaledPerm.identity(n), (ZERO,) * n)

    @classmethod
    def linear_only(cls, linear: ScaledPerm) -> "AffineSymmetry":
        return cls(linear, (ZERO,) * linear.n)

    def is_identity(self) -> bool:
        return self.linear.is_identity() and all(v == 0 for v in self.translation)

    def apply(self, x: Sequence) -> tuple[Fraction, ...]:
        lin, vec = self.linear, _sized_vector(x, self.linear.n, "vector")
        return _affine_gather(lin.scale, lin.sigma.image, vec, self.translation)

    def compose(self, other: "AffineSymmetry") -> "AffineSymmetry":
        """self after other: apply(compose(s, t), x) == apply(s, apply(t, x))."""
        lin = self.linear
        linear = lin.compose(other.linear)  # the size check, before the gather indexes
        shift = _affine_gather(lin.scale, lin.sigma.image, other.translation, self.translation)
        return _unchecked(AffineSymmetry, linear=linear, translation=shift)

    def __mul__(self, other: "AffineSymmetry") -> "AffineSymmetry":
        if not isinstance(other, AffineSymmetry):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "AffineSymmetry":
        inv = self.linear.sigma.inverse()
        scale, translation = _inverse_gather(self.linear.scale, inv.image, self.translation)
        linear = _unchecked(ScaledPerm, sigma=inv, scale=scale)
        return _unchecked(AffineSymmetry, linear=linear, translation=translation)

