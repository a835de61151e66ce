"""Seeded random generation of exact group elements.

Scales are ratios of integers in [-9, 9] without zero; the last scale is the
reciprocal of the running product, so unit products hold exactly by
construction.  A ratio p/q is drawn as row p, then column q, of a table
built at import: the draws of ``Fraction(rng.choice(ints),
rng.choice(ints))``, without building a Fraction.  A shuffle of 1..n is a
bijection, so sampled permutations and scaled permutations are built
unchecked.  Every generator takes an explicit random.Random so callers
control reproducibility; trial_rng derives an independent stream per
(seed, index) pair, making batch runs schedule-independent.
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


def random_positive_rational(rng: random.Random) -> Fraction:
    return rng.choice(rng.choice(_POSITIVE))


def random_permutation(n: int, rng: random.Random) -> Permutation:
    if n < 1:
        raise ValueError("a permutation needs at least one point")
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return _unchecked(Permutation, image=tuple(image))


def random_scaled_perm(n: int, rng: random.Random, *, positive: bool = False) -> ScaledPerm:
    draw = random_positive_rational if positive else random_nonzero_rational
    head = [draw(rng) for _ in range(n - 1)]
    sigma = random_permutation(n, rng)
    return _unchecked(ScaledPerm, sigma=sigma, scale=(*head, _inv(_prod(head))))


def random_vector(n: int, rng: random.Random, *, positive: bool = False) -> tuple[Fraction, ...]:
    """Nonzero entries, so product-form checks stay generic."""
    draw = random_positive_rational if positive else random_nonzero_rational
    return tuple(draw(rng) for _ in range(n))
