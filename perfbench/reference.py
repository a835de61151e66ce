"""The benchmark's own computations, made apart from the package.

Every check the workloads run compares a package result with a value
computed here on plain ints, Fractions, floats and lists, or with a
property the method must have.  Nothing in this module imports bmsym.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

TOLERANCE = 1e-12


def compose_perm(p, q):
    """(p . q)(i) = p(q(i)) on 1-based one-line tuples: q acts first."""
    return tuple(p[j - 1] for j in q)


def inverse_perm(p):
    inv = [0] * len(p)
    for i, v in enumerate(p, start=1):
        inv[v - 1] = i
    return tuple(inv)


def compose_scaled(a, b):
    """(sigma, scale) of the monomial product dense(a) @ dense(b)."""
    sigma_a, scale_a = a
    sigma_b, scale_b = b
    sigma = tuple(sigma_b[s - 1] for s in sigma_a)
    scale = tuple(x * scale_b[s - 1] for x, s in zip(scale_a, sigma_a))
    return sigma, scale


def inverse_scaled(a):
    sigma, scale = a
    inv = inverse_perm(sigma)
    return inv, tuple(1 / scale[inv[i] - 1] for i in range(len(sigma)))


def apply_scaled(a, y):
    sigma, scale = a
    return tuple(x * y[s - 1] for x, s in zip(scale, sigma))


def apply_affine(a, t, y):
    return tuple(u + v for u, v in zip(apply_scaled(a, y), t))


def compose_affine(a, ta, b, tb):
    """(linear, translation) of x -> a(b(x) + tb) + ta."""
    return compose_scaled(a, b), apply_affine(a, ta, tb)


def inverse_affine(a, t):
    inv = inverse_scaled(a)
    return inv, tuple(-v for v in apply_scaled(inv, t))


def dense(a):
    """Dense rows (lists of Fractions) of the monomial matrix a."""
    sigma, scale = a
    n = len(sigma)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, (x, s) in enumerate(zip(scale, sigma)):
        rows[i][s - 1] = x
    return rows


def matmul(x, y):
    n = len(x)
    return [[sum((x[i][k] * y[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def product(values):
    return math.prod(values, start=Fraction(1))


def monomial_pattern(rows):
    """(sigma, scales) when every row and column has one nonzero entry, else None."""
    sigma, scale = [], []
    for row in rows:
        nonzero = [(j, v) for j, v in enumerate(row, start=1) if v]
        if len(nonzero) != 1:
            return None
        sigma.append(nonzero[0][0])
        scale.append(nonzero[0][1])
    if len(set(sigma)) != len(sigma):
        return None
    return tuple(sigma), tuple(scale)


def monomial_permanent(rows):
    """Permanent of a matrix that is monomial apart from rows of zeros.

    Only the pattern permutation can contribute, so the permanent is the
    product of the nonzero entries, or 0 when some row is empty.
    """
    if any(not any(row) for row in rows):
        return Fraction(0)
    pattern = monomial_pattern(rows)
    if pattern is None:
        raise ValueError("not a monomial matrix")
    return product(pattern[1])


def first_degenerate_tuple(rows):
    """Lexicographically first column tuple (1-based) with a repeated index
    and a nonzero product, found by backtracking over the row supports;
    None when there is none."""
    n = len(rows)
    supports = [[j for j in range(n) if rows[i][j]] for i in range(n)]
    if any(not s for s in supports):
        return None

    def search(i, prefix, used):
        if len(used) < i:  # the prefix repeats: the least completion is first
            return prefix + [s[0] for s in supports[i:]]
        if i == n:
            return None
        for j in supports[i]:
            found = search(i + 1, prefix + [j], used | {j})
            if found is not None:
                return found
        return None

    columns = search(0, [], frozenset())
    if columns is None:
        return None
    return tuple(j + 1 for j in columns)


def tuple_product(rows, indices):
    return product(rows[i][k - 1] for i, k in enumerate(indices))


def membership(rows, sigma):
    """True iff rows @ E_sigma is diagonal with product 1: the matrix is
    monomial with pattern sigma^-1 and unit scale product."""
    pattern = monomial_pattern(rows)
    if pattern is None:
        return False
    return pattern[0] == inverse_perm(sigma) and product(pattern[1]) == 1


def real_metric(y):
    """Real n-th root of the coordinate product, signed for odd n."""
    p = math.prod(float(v) for v in y)
    root = abs(p) ** (1.0 / len(y))
    return math.copysign(root, p)


def close(x, y):
    return abs(x - y) <= TOLERANCE * max(1.0, abs(y))


def rational(value):
    """Lowest-terms "p" or "p/q" text of a rational."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def canonical(value) -> str:
    """Canonical JSON: compact separators, keys in insertion order, floats
    with 17 significant digits and a '.0' on integral values."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value!r}")
        text = format(value, ".17g")
        return text if ("." in text or "e" in text) else text + ".0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(k) + ":" + canonical(v) for k, v in value.items()) + "}"
    raise TypeError(f"cannot encode {type(value).__name__}")
