"""Affine symmetries x -> linear @ x + translation of the product form.

Validates: the constructor coerces the translation and checks its length
against the linear part, a ``group.ScaledPerm``.  Trusts: ``compose`` and
``inverse`` build their results unchecked, each in one pass of a fused
gather of ``matrix``.

``AffineSymmetry`` is the package's last frozen dataclass (``perfbench``'s
checks build a wrong one with ``dataclasses.replace``), given the generated
store that ``_unchecked`` calls.  It has a module of its own so that only
the paths that build one import ``dataclasses``.

Imports ``dataclasses``, ``group`` and ``matrix``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .group import ScaledPerm
from .matrix import ZERO, _affine_gather, _inverse_gather, _sized_vector, _store_for, _unchecked


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
        return _unchecked(AffineSymmetry, linear, shift)

    def __mul__(self, other: "AffineSymmetry") -> "AffineSymmetry":
        if not isinstance(other, AffineSymmetry):
            return NotImplemented
        return self.compose(other)

    def inverse(self) -> "AffineSymmetry":
        inv = self.linear.sigma.inverse()
        scale, translation = _inverse_gather(self.linear.scale, inv.image, self.translation)
        linear = _unchecked(ScaledPerm, inv, scale)
        return _unchecked(AffineSymmetry, linear, translation)


AffineSymmetry._store = _store_for(AffineSymmetry)  # what _unchecked calls
