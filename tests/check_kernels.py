"""Check the slot-reading kernels of ``bmsym.matrix`` against the ``Fraction``
operators, with the standard library alone (no pytest, hypothesis or sympy).

The kernels read and build ``Fraction``s through its private ``_numerator``
and ``_denominator`` slots, so a change to ``fractions`` in a new CPython
shows here first.  Each case draws seeded operands, zero included, with
numerators and denominators up to 2**128 and either sign, and compares each
result entry with the operators' by type, value, numerator, denominator and
hash.  Run it on any interpreter that can import bmsym:

    PYTHONPATH=src python tests/check_kernels.py [--cases N]

It prints one line per mismatch and exits 1 if there is any, else prints a
summary and exits 0.
"""

import argparse
import math
import random
import sys
from fractions import Fraction

from bmsym import matrix

WIDE = 2**128
ZERO, ONE = Fraction(0), Fraction(1)


def draw(rng, nonzero=False):
    """A rational with numerator and denominator up to 9, 2**64 or 2**128."""
    if not nonzero and rng.random() < 0.2:
        return ZERO
    bound = rng.choice((9, 2**64, WIDE))
    return Fraction(rng.choice((1, -1)) * rng.randint(1, bound), rng.randint(1, bound))


def same(got, want):
    return (
        type(got) is type(want) is Fraction
        and got == want
        and (got.numerator, got.denominator) == (want.numerator, want.denominator)
        and hash(got) == hash(want)
    )


def cases(rng):
    """(kernel name, arguments, kernel results, operator results) for one draw."""
    n = rng.randint(1, 6)
    u, v = [draw(rng) for _ in range(n)], [draw(rng) for _ in range(n)]
    scale = [draw(rng, nonzero=True) for _ in range(n)]
    image = rng.sample(range(1, n + 1), n)
    a = draw(rng, nonzero=True)
    yield "_fraction", (a,), [matrix._fraction(a.numerator, a.denominator)], [a]
    yield "_inv", (a,), [matrix._inv(a)], [1 / a]
    yield "_prod", (u,), [matrix._prod(u)], [math.prod(u, start=ONE)]
    yield "_dot", (u, v), [matrix._dot(u, v)], [sum((x * y for x, y in zip(u, v)), ZERO)]
    yield (
        "_scaled_gather", (scale, image, v),
        list(matrix._scaled_gather(scale, image, v)),
        [s * v[k - 1] for s, k in zip(scale, image)],
    )
    yield (
        "_affine_gather", (scale, image, v, u),
        list(matrix._affine_gather(scale, image, v, u)),
        [s * v[k - 1] + t for s, k, t in zip(scale, image, u)],
    )
    inverses, quotients = matrix._inverse_gather(scale, image, u)
    yield (
        "_inverse_gather", (scale, image, u),
        [*inverses, *quotients],
        [1 / scale[k - 1] for k in image] + [-u[k - 1] / scale[k - 1] for k in image],
    )
    left = [[draw(rng) for _ in range(n)] for _ in range(n)]
    right = [[draw(rng) for _ in range(n)] for _ in range(n)]
    got = matrix.RationalMatrix(left) @ matrix.RationalMatrix(right)
    want = [sum((left[i][k] * right[k][j] for k in range(n)), ZERO)
            for i in range(n) for j in range(n)]
    yield "@", (left, right), [x for row in got.rows for x in row], want


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=2000, help="draws (default %(default)s)")
    args = parser.parse_args(argv)
    rng = random.Random(0)
    checked = mismatches = 0
    for _ in range(args.cases):
        for name, operands, got, want in cases(rng):
            checked += 1
            if len(got) != len(want) or not all(map(same, got, want)):
                mismatches += 1
                print(f"mismatch in {name}{operands!r}: {got!r} != {want!r}")
    try:
        matrix._inv(ZERO)
    except ZeroDivisionError:
        pass
    else:
        mismatches += 1
        print("mismatch in _inv(0): no ZeroDivisionError")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{checked} kernel results on Python {version}: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
