"""Dense square matrices and vectors over exact rationals.

Validation contract: constructors check and coerce everything they are
given; operations on already-valid values (here ``@``, in ``group`` the
group law and ``to_dense``) build their results with ``_unchecked``,
because validity follows by algebra.  Every stored entry is exactly a
``Fraction`` either way.

Kernels: ``_mul``, ``_inv``, ``_add``, ``_neg`` and ``_prod`` do the
scalar arithmetic of ``@``, ``classify``, ``sampling`` and ``lie``.  The
group law and action of ``group`` run on fused kernels, one loop each:
``_scaled_gather`` (``s * y``), ``_affine_gather`` (``s * y + t``, formed as
``(ns*ny*dt + ds*dy*nt) / (ds*dy*dt)``) and ``_inverse_gather`` (``1 / s``
and ``-t / s``), each entry reduced by one gcd.  All read the integer ratios
of validated ``Fraction``s from the ``_numerator`` and ``_denominator`` slots
(Python 3.10+; ``as_integer_ratio`` is a method call) and build each result
once, in lowest terms with a positive denominator: exactly the ``Fraction``
(value, numerator, denominator, hash and type) that the operators return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .errors import DimensionMismatch, NotSquare

ZERO = Fraction(0)
ONE = Fraction(1)
Vec = Sequence[Fraction]


def as_fraction(value) -> Fraction:
    """Coerce ints/Fractions/strings; floats are rejected to stay exact."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"floats are not exact rationals: {value!r}")
    return Fraction(value)


def as_vector(values: Iterable) -> tuple[Fraction, ...]:
    if type(values) in (tuple, list) and set(map(type, values)) == {Fraction}:
        return tuple(values)  # already exact: one C-speed pass, no call per entry
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


def _scaled_gather(scale: Vec, image: Sequence[int], vec: Vec) -> tuple[Fraction, ...]:
    """``tuple(scale[i] * vec[image[i] - 1])``."""
    gcd, new, out = math.gcd, object.__new__, []
    for a, s in zip(scale, image):
        b = vec[s - 1]
        n, d = a._numerator * b._numerator, a._denominator * b._denominator
        g = gcd(n, d)
        f = new(Fraction)
        f._numerator, f._denominator = n // g, d // g
        out.append(f)
    return tuple(out)


def _affine_gather(scale: Vec, image: Sequence[int], vec: Vec, shift: Vec) -> tuple[Fraction, ...]:
    """``tuple(scale[i] * vec[image[i] - 1] + shift[i])``."""
    gcd, new, out = math.gcd, object.__new__, []
    for a, s, t in zip(scale, image, shift):
        b, dt = vec[s - 1], t._denominator
        d = a._denominator * b._denominator
        n, d = a._numerator * b._numerator * dt + d * t._numerator, d * dt
        g = gcd(n, d)
        f = new(Fraction)
        f._numerator, f._denominator = n // g, d // g
        out.append(f)
    return tuple(out)


def _inverse_gather(scale: Vec, image: Sequence[int], shift: Vec | None = None) -> tuple:
    """Inverse scales ``1 / scale[j - 1]`` and shift ``-shift[j - 1] / scale[j - 1]``, j in image."""
    gcd, new, inverses, quotients = math.gcd, object.__new__, [], []
    for j in image:
        a = scale[j - 1]
        n, d = a._denominator, a._numerator
        if d < 0:
            n, d = -n, -d
        f = new(Fraction)
        f._numerator, f._denominator = n, d
        inverses.append(f)
        if shift is not None:  # -t / s = -t * (n / d), with d > 0 already
            t = shift[j - 1]
            n, d = -t._numerator * n, t._denominator * d
            g = gcd(n, d)
            f = new(Fraction)
            f._numerator, f._denominator = n // g, d // g
            quotients.append(f)
    return tuple(inverses), tuple(quotients)


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

