"""Scaled permutation matrices, the affine symmetry group, and the metric.

A scaled permutation (monomial) matrix carries the value ``scale[i]`` in row
``i``, column ``sigma(i)``, and zeros elsewhere.  With the scale product
pinned to 1 these matrices are exactly the linear maps preserving the product
form ``y^1 y^2 ... y^n``; adding an arbitrary translation gives the affine
symmetry group of the metric ``F(y) = (y^1 ... y^n)^(1/n)``.

Validation contract: the constructors check everything (a bijection, nonzero
scales of product 1, matching lengths, exact entries), and so does ``apply``
on a caller's vector.  ``compose``, ``inverse`` and ``to_dense`` build their
results unchecked: the scales of a product multiply to 1 * 1 and those of an
inverse to 1 / 1, so validity follows by algebra.  Past the constructors
every entry is an exact ``Fraction``, so each group-law and action method
is one pass of a fused kernel of ``matrix`` (one gcd per entry, no
intermediate vector) and ``metric_power`` is one ``_prod``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence

from .errors import (
    DimensionMismatch,
    NegativeRadicand,
    UnitProductViolation,
    ZeroScale,
)
from .matrix import ONE, ZERO, RationalMatrix, _affine_gather, _inverse_gather, _prod
from .matrix import _scaled_gather, _unchecked, as_vector
from .permutation import Permutation


@dataclass(frozen=True)
class ScaledPerm:
    """Monomial matrix with exact rational scales of product 1."""

    sigma: Permutation
    scale: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        scale = as_vector(self.scale)
        object.__setattr__(self, "scale", scale)
        if len(scale) != self.sigma.n:
            raise DimensionMismatch(
                f"{len(scale)} scales for a permutation of {self.sigma.n} points"
            )
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
        return _scaled_gather(self.scale, self.sigma.image, self._checked_vector(y))

    def _checked_vector(self, y: Sequence) -> tuple[Fraction, ...]:
        vec = as_vector(y)
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector length {len(vec)}, expected {self.n}")
        return vec


@dataclass(frozen=True)
class AffineSymmetry:
    """x -> linear @ x + translation, with a scaled-permutation linear part."""

    linear: ScaledPerm
    translation: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        translation = as_vector(self.translation)
        object.__setattr__(self, "translation", translation)
        if len(translation) != self.linear.n:
            raise DimensionMismatch(
                f"translation length {len(translation)}, expected {self.linear.n}"
            )

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
        lin = self.linear
        return _affine_gather(lin.scale, lin.sigma.image, lin._checked_vector(x), self.translation)

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


def metric_power(y: Sequence) -> Fraction:
    """Exact product y^1 * ... * y^n (the n-th power of the metric).

    This polynomial form is what the group preserves identically, so all
    exact invariance checks go through it rather than the real root.
    """
    vec = as_vector(y)
    if len(vec) < 2:
        raise DimensionMismatch("the metric needs n >= 2 coordinates")
    return _prod(vec)


def metric(y: Sequence) -> float:
    """Real n-th root of the product; signed for odd n.

    Even n with a negative product has no real value and raises
    NegativeRadicand.  When a running product of nonzero coordinates leaves
    the normal float range at any step, the float product gives only the
    sign, and the root comes from the coordinates' mantissas and exponents.
    """
    values, exact_zero = [], False
    for i, v in enumerate(y, 1):
        try:
            values.append(float(v))
        except OverflowError:
            raise OverflowError(f"coordinate {i} is above the float range") from None
        exact_zero = exact_zero or v == 0
    if 0.0 in values and not exact_zero:
        raise OverflowError("a nonzero coordinate is below the float range")
    n = len(values)
    if n < 2:
        raise DimensionMismatch("the metric needs n >= 2 coordinates")
    partials = list(accumulate(values, mul))
    product = partials[-1]
    if 0.0 in values or all(sys.float_info.min <= abs(p) < math.inf for p in partials):
        root = abs(product) ** (1.0 / n)
    else:
        mantissa, exponent = 1.0, 0
        for v in values:
            m, e = math.frexp(v)
            mantissa, carry = math.frexp(mantissa * m)
            exponent += e + carry
        # |product| = |mantissa| * 2**exponent = (|mantissa| * 2**remainder)
        # * 2**(n * quotient); the first factor is a float while remainder
        # < 1024, and past that (only for n > 1024) is rooted in two parts
        quotient, remainder = divmod(exponent, n)
        if remainder < 1024:
            base = math.ldexp(abs(mantissa), remainder) ** (1.0 / n)
        else:
            base = abs(mantissa) ** (1.0 / n) * 2.0 ** (remainder / n)
        root = math.ldexp(base, quotient)
    if n % 2 == 0:
        # the sign bit, not "< 0", so that an underflow to -0.0 counts too
        if math.copysign(1.0, product) < 0 and 0.0 not in values:
            shown = product or "below the float range, negative"
            raise NegativeRadicand(f"even order {n} with product {shown}")
        return root
    return math.copysign(root, product)
