"""Exact rational vectors and square matrices, their kernels, and the product form.

Validates: ``as_fraction`` and ``as_vector`` coerce ints, ``Fraction``s and
strings and reject floats; ``_sized_vector`` is the one length check on a
caller's vector; ``RationalMatrix(...)`` checks every entry, and
``with_entry``, the one way to replace an entry, its index and new entry.
Trusts: ``_unchecked(Cls, *fields)`` stores fields in ``__match_args__``
order as given, for results valid by algebra and for copies and pickles.
Both paths end in the class's one generated ``_store``.  ``_Record`` is the
base of every value record but the dataclass ``affine.AffineSymmetry``.

The kernels (``_fraction``, ``_inv``, ``_prod``, ``_dot``, ``@`` and the
gathers) read validated ``Fraction``s through their ``_numerator`` and
``_denominator`` slots (``as_integer_ratio`` is a method call) and build
each result once: exactly the ``Fraction`` the operators return, which
``tests/check_kernels.py`` checks with the standard library alone.
``metric_power`` is the exact y^1 ... y^n that the symmetry group
preserves, and ``metric`` its real n-th root in floats.

Imports ``errors`` and the standard library.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import accumulate
from operator import attrgetter, mul
from types import MemberDescriptorType

from .errors import DimensionMismatch, NegativeRadicand, NotSquare

ZERO = Fraction(0)
ONE = Fraction(1)
Vec = Sequence[Fraction]
_new = object.__new__


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


def _sized_vector(values: Iterable, n: int, what: str) -> tuple[Fraction, ...]:
    """``as_vector(values)``, checked to have length ``n``."""
    vec = as_vector(values)
    if len(vec) != n:
        raise DimensionMismatch(f"{what} length {len(vec)}, expected {n}")
    return vec


def _unchecked(cls, *fields):
    """``cls`` holding ``fields``, in ``__match_args__`` order, as given: the one
    trusted builder, only for values already valid (by algebra, or as a copy)."""
    obj = _new(cls)
    cls._store(obj, *fields)
    return obj


_STORE_CODE = {}  # a store's source -> its compiled code


def _store_for(cls):
    """``_store(obj, *fields)``: sets ``cls``'s fields on ``obj``, in
    ``__match_args__`` order, past ``__setattr__``, and raises ``TypeError``
    unless there is one value per field.

    Generated from source, as ``dataclasses`` builds an ``__init__``, so that
    it runs as fast as a hand-written store: one unpacking, then one setter
    per field, the slot's own descriptor (``object.__setattr__`` for a field
    without a slot, as in the dataclass ``AffineSymmetry``).  Classes with
    the same number and kind of fields share one compiled code object.
    """
    names = cls.__match_args__
    env, sets = {"_set": object.__setattr__}, ""
    for i, name in enumerate(names):
        slot = getattr(cls, name, None)
        if type(slot) is MemberDescriptorType:
            env[f"_set{i}"] = slot.__set__
            sets += f"    _set{i}(self, f{i})\n"
        else:
            sets += f"    _set(self, {name!r}, f{i})\n"
    targets = "".join(f"f{i}, " for i in range(len(names)))
    message = f"{{type(self).__name__}} takes {len(names)} fields, got {{len(fields)}}"
    source = (
        "def _store(self, *fields):\n"
        "    try:\n"
        f"        {targets}= fields\n"
        "    except ValueError:\n"
        f"        raise TypeError(f{message!r}) from None\n" + sets
    )
    code = _STORE_CODE.get(source)
    if code is None:  # compiling costs far more than running the def
        code = _STORE_CODE[source] = compile(source, "<record store>", "exec")
    exec(code, env)
    store = env["_store"]
    store.__qualname__ = f"{cls.__qualname__}._store"
    return store


class _Record:
    """An immutable value with slotted fields, named in ``__match_args__``.

    Equal to a value of the same type with equal fields, hashed by the field
    tuple, shown as ``Name(field=value, ...)``, and copied or pickled through
    ``_unchecked``, skipping the constructor's checks, which the value already
    passed.  Each class that names its fields gets one generated ``_store``
    (``_store_for``) and a function ``_fields(value)`` that reads the field
    tuple with one ``attrgetter``.  ``_store`` is the default ``__init__``,
    which takes the fields by position, unchecked; a checked constructor ends
    in ``self._store(...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "__match_args__" not in cls.__dict__:
            return  # a subclass that adds no field shares its base's
        cls._store = _store_for(cls)
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._store
        get = attrgetter(*cls.__match_args__)
        # attrgetter returns a lone field bare, not in a tuple
        cls._fields = staticmethod(get if len(cls.__match_args__) > 1 else lambda v: (get(v),))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return _unchecked, (type(self), *self._fields(self))


def _fraction(numerator: int, denominator: int) -> Fraction:
    """``numerator / denominator`` for coprime ints with ``denominator > 0``,
    unchecked."""
    obj = object.__new__(Fraction)
    obj._numerator = numerator
    obj._denominator = denominator
    return obj


def _inv(a: Fraction) -> Fraction:
    """``1 / a``; raises ZeroDivisionError when a is 0."""
    n, d = a._numerator, a._denominator
    if n > 0:
        return _fraction(d, n)
    if n < 0:
        return _fraction(-d, -n)
    raise ZeroDivisionError("Fraction(1, 0)")


def _dot(u: Vec, v: Vec) -> Fraction:
    """``sum(a * b for a, b in zip(u, v))``, skipping zero terms; ``ZERO`` when
    the sum is 0."""
    gcd, num, den = math.gcd, 0, 1
    for a, b in zip(u, v):
        n = a._numerator * b._numerator
        if n:  # add n / d over lcm(den, d)
            d = a._denominator * b._denominator
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
    if not num:
        return ZERO
    g = gcd(num, den)
    return _fraction(num // g, den // g)


def _prod(values: Iterable[Fraction]) -> Fraction:
    """The product, as integer products of the numerators and of the
    denominators reduced by one gcd; ``1`` when empty."""
    numerator = denominator = 1
    for v in values:
        numerator *= v._numerator
        denominator *= v._denominator
    g = math.gcd(numerator, denominator)
    return _fraction(numerator // g, denominator // g)


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


class RationalMatrix(_Record):
    """Immutable n x n matrix of Fractions, row-major."""

    __slots__ = __match_args__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = tuple(as_vector(row) for row in rows)
        n = len(data)
        if n == 0 or any(len(row) != n for row in data):
            raise NotSquare(f"expected a square matrix, got row lengths {[len(r) for r in data]}")
        self._store(n, data)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        """1-based entry access; IndexError outside 1..n."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i}, {j}) outside 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def with_entry(self, i: int, j: int, value) -> "RationalMatrix":
        """Copy with the 1-based (i, j) entry replaced; only the new entry is checked."""
        self.entry(i, j)  # the index check
        rows = list(self.rows)
        row = rows[i - 1]
        rows[i - 1] = row[: j - 1] + (as_fraction(value),) + row[j:]
        return _unchecked(RationalMatrix, self.n, tuple(rows))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch(f"matrix sizes differ: {self.n} vs {other.n}")
        n, gcd, out = self.n, math.gcd, []
        for row in self.rows:
            nums, dens, acc = [0] * n, [1] * n, [ZERO] * n  # entry j is nums[j] / dens[j]
            for a, other_row in zip(row, other.rows):
                na, da = a._numerator, a._denominator
                if not na:
                    continue
                for j, b in enumerate(other_row):  # _dot's step
                    nb = b._numerator
                    if nb:
                        t, d, den = na * nb, da * b._denominator, dens[j]
                        g = gcd(den, d)
                        nums[j], dens[j] = nums[j] * (d // g) + t * (den // g), den // g * d
            for j, t in enumerate(nums):
                if t:
                    g = gcd(t, dens[j])
                    acc[j] = _fraction(t // g, dens[j] // g)
            out.append(tuple(acc))
        return _unchecked(RationalMatrix, n, tuple(out))

    def apply(self, vector: Sequence) -> tuple[Fraction, ...]:
        vec = _sized_vector(vector, self.n, "vector")
        return tuple(_dot(row, vec) for row in self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"RationalMatrix[{body}]"

