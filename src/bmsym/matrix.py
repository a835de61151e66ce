"""Dense square matrices and vectors over exact rationals.

Validation contract: constructors check and coerce everything they are
given; operations on already-valid values (here ``@``, in ``group`` the
group law and ``to_dense``) build their results with ``_unchecked``,
because validity follows by algebra.  Every stored entry is exactly a
``Fraction`` either way.

Kernels: ``_mul``, ``_inv``, ``_add``, ``_neg`` and ``_prod`` do the
scalar arithmetic of those operations (and of ``group``, ``classify``,
``sampling`` and ``lie``); ``_scaled_gather`` (the group law and action of
``group``) and ``vec_add`` do a whole vector in one loop, with no call per
entry.  They take validated ``Fraction``s and read each integer ratio
straight from the ``_numerator`` and ``_denominator`` slots (present on
Python 3.10+), since ``as_integer_ratio`` is a Python-level method call.
Each result is built from a ratio already in lowest terms with a positive
denominator, so nothing is type-checked or reduced twice, and is exactly
the ``Fraction`` (value, numerator, denominator, hash and type) that the
operator it replaces returns; ``_inv`` raises ``ZeroDivisionError`` on 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotSquare

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints/Fractions/strings; floats are rejected to stay exact."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"floats are not exact rationals: {value!r}")
    return Fraction(value)


def as_vector(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def _unchecked(cls, **fields):
    """``cls`` holding ``fields`` as given, unchecked: only for values valid by algebra."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _fraction(numerator: int, denominator: int) -> Fraction:
    """``numerator / denominator`` for coprime ints with ``denominator > 0``,
    unchecked."""
    obj = object.__new__(Fraction)
    obj._numerator = numerator
    obj._denominator = denominator
    return obj


def _mul(a: Fraction, b: Fraction) -> Fraction:
    """``a * b``: cancel across (a's numerator with b's denominator and the
    converse), so the products are already in lowest terms."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g = math.gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = math.gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    return _fraction(na * nb, da * db)


def _inv(a: Fraction) -> Fraction:
    """``1 / a``; raises ZeroDivisionError when a is 0."""
    n, d = a._numerator, a._denominator
    if n > 0:
        return _fraction(d, n)
    if n < 0:
        return _fraction(-d, -n)
    raise ZeroDivisionError("Fraction(1, 0)")


def _add(a: Fraction, b: Fraction) -> Fraction:
    """``a + b``, reducing by the gcd of the denominators first (the method
    of ``Fraction._add``)."""
    na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
    g = math.gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


def _neg(a: Fraction) -> Fraction:
    """``-a``."""
    return _fraction(-a._numerator, a._denominator)


def _prod(values: Iterable[Fraction]) -> Fraction:
    """The product, as integer products of the numerators and of the
    denominators reduced by one gcd; ``1`` when empty."""
    numerator = denominator = 1
    for v in values:
        numerator *= v._numerator
        denominator *= v._denominator
    g = math.gcd(numerator, denominator)
    return _fraction(numerator // g, denominator // g)


def _scaled_gather(
    scale: Sequence[Fraction], image: Sequence[int], vec: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """``tuple(scale[i] * vec[image[i] - 1])``, each entry by ``_mul``'s rule."""
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


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """``tuple(u[i] + v[i])``, each entry by ``_add``'s rule."""
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


def vec_neg(u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(map(_neg, u))


class RationalMatrix:
    """Immutable n x n matrix of Fractions, row-major."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = tuple(tuple(as_fraction(x) for x in row) for row in rows)
        n = len(data)
        if n == 0 or any(len(row) != n for row in data):
            raise NotSquare(f"expected a square matrix, got row lengths {[len(r) for r in data]}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        """1-based entry access; IndexError outside 1..n."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def with_entry(self, i: int, j: int, value) -> "RationalMatrix":
        """Copy with the 1-based (i, j) entry replaced."""
        self.entry(i, j)  # the index check
        value = as_fraction(value)
        rows = [list(row) for row in self.rows]
        rows[i - 1][j - 1] = value
        return RationalMatrix(rows)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")
        n = self.n
        out = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            row = self.rows[i]
            acc = out[i]
            for k in range(n):
                a = row[k]
                if not a:
                    continue
                other_row = other.rows[k]
                for j in range(n):
                    b = other_row[j]
                    if b:
                        acc[j] = _add(acc[j], _mul(a, b))
        return _unchecked(RationalMatrix, n=n, rows=tuple(map(tuple, out)))

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        vec = as_vector(vector)
        if len(vec) != self.n:
            raise DimensionMismatch(f"vector length {len(vec)} for a {self.n}x{self.n} matrix")
        return tuple(
            reduce(_add, (_mul(a, x) for a, x in zip(row, vec) if a), ZERO) for row in self.rows
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

