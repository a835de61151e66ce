"""Enumerating reference implementations that the fast code is checked against.

Each one follows the definition directly and costs n! or n^n, so they only
run on small matrices in the tests.
"""

import itertools
from fractions import Fraction

from bmsym import DegenerateTuple, PermanentMismatch, Symmetry, Violation, extract_pattern


def _product(m, columns):
    product = Fraction(1)
    for i, j in enumerate(columns):
        entry = m.rows[i][j]
        if not entry:
            return Fraction(0)
        product *= entry
    return product


def brute_force_degenerate(m):
    """Scan all n^n column tuples in lexicographic order."""
    n = m.n
    for columns in itertools.product(range(n), repeat=n):
        if len(set(columns)) == n:
            continue
        product = _product(m, columns)
        if product != 0:
            return DegenerateTuple(tuple(j + 1 for j in columns), product)
    return None


def support_scan_degenerate(m):
    """Scan the column tuples drawn from the per-row supports, in
    lexicographic order: the full scan minus tuples of product zero."""
    n = m.n
    supports = [tuple(j for j in range(n) if m.rows[i][j]) for i in range(n)]
    for columns in itertools.product(*supports):
        if len(set(columns)) < n:
            return DegenerateTuple(tuple(j + 1 for j in columns), _product(m, columns))
    return None


def enumerated_permanent(m):
    """Sum of the entry products over all n! column permutations."""
    return sum(
        (_product(m, columns) for columns in itertools.permutations(range(m.n))),
        start=Fraction(0),
    )


def enumerated_check(m):
    """invariance_system_check by definition: the first degenerate tuple,
    else the permanent, and the pattern when the permanent is 1."""
    witness = support_scan_degenerate(m)
    if witness is not None:
        return Violation(witness)
    value = enumerated_permanent(m)
    if value != 1:
        return Violation(PermanentMismatch(value))
    return Symmetry(*extract_pattern(m))

