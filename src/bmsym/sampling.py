"""Seeded random generation of exact group elements.

Every generator takes an explicit ``random.Random``, and ``trial_rng``
derives an independent stream per (seed, index) pair, so batch runs are
schedule-independent.  Trusts its own construction: a shuffle of 1..n is a
bijection, and the last scale is the reciprocal of the running product, so
sampled permutations and scaled permutations are built unchecked.  Scales
are ratios p/q of integers in [-9, 9] without zero, read off a table built
at import as row p, then column q: the draws of ``Fraction(rng.choice(ints),
rng.choice(ints))``, without building a ``Fraction``.

Imports ``group``, ``matrix`` and ``random``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .group import Permutation, ScaledPerm
from .matrix import _inv, _prod, _unchecked

_NONZERO = tuple(tuple(Fraction(p, q) for q in range(-9, 10) if q) for p in range(-9, 10) if p)
_POSITIVE = tuple(tuple(Fraction(p, q) for q in range(1, 10)) for p in range(1, 10))


def trial_rng(seed: int, index: int) -> random.Random:
    """Deterministic stream for one trial; string seeding is hash-independent."""
    return random.Random(f"{seed}:{index}")


def random_nonzero_rational(rng: random.Random) -> Fraction:
    return rng.choice(rng.choice(_NONZERO))


def random_permutation(n: int, rng: random.Random) -> Permutation:
    if n < 1:
        raise ValueError("a permutation needs at least one point")
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return _unchecked(Permutation, tuple(image))


def random_scaled_perm(n: int, rng: random.Random, *, positive: bool = False) -> ScaledPerm:
    table, choice = _POSITIVE if positive else _NONZERO, rng.choice
    # a row, then one of its entries, as random_nonzero_rational draws
    head = [choice(choice(table)) for _ in range(n - 1)]
    sigma = random_permutation(n, rng)
    return _unchecked(ScaledPerm, sigma, (*head, _inv(_prod(head))))


def random_vector(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """Nonzero entries, so product-form checks stay generic."""
    return tuple(random_nonzero_rational(rng) for _ in range(n))
