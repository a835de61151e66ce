"""Deciding whether an arbitrary rational Jacobian preserves the metric.

The decision has two exact conditions: the permanent must be 1, and every
repeated-index column tuple must have a zero entry product.  Both are read
off the support pattern without enumeration: a greedy scan finds the first
repeated-index tuple with a nonzero product, and without one the matrix is
either monomial (permanent = scale product) or has a zero row (permanent
0).  A failing matrix comes back with a machine-checkable witness; a
passing one comes back with its recovered (permutation, scales) data.
`permanent` (an expansion over the row supports) is only needed to re-check
a witness.
"""

from fractions import Fraction as F

from bmsym import (
    RationalMatrix,
    Symmetry,
    Violation,
    invariance_system_check,
    membership_test,
    permanent,
    theorem_oracle,
    witness_violates,
)


def describe(matrix):
    report = invariance_system_check(matrix)
    if isinstance(report, Symmetry):
        print("  symmetry: sigma =", report.sigma.image,
              "scales =", [str(a) for a in report.scale])
    else:
        print("  violation:", report.witness)
        print("  witness re-evaluates:", witness_violates(matrix, report.witness))
    return report


def main():
    monomial = RationalMatrix([[0, 2, 0], [0, 0, 3], [F(1, 6), 0, 0]])
    print("a scaled permutation matrix:")
    describe(monomial)
    print()

    leaky = RationalMatrix.identity(3).with_entry(1, 2, F(1, 2))
    print("identity with one extra off-pattern entry:")
    describe(leaky)
    print()

    stretched = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    print("diagonal with product 2 (permanent", str(permanent(stretched)) + "):")
    describe(stretched)
    print()

    rotationish = RationalMatrix(
        [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]]
    )
    print("a rotation-like dense block:")
    describe(rotationish)
    print()

    print("membership shortcut: x @ E_sigma must be diagonal with unit product")
    sigma_image = (2, 3, 1)
    from bmsym import Permutation, ScaledPerm
    sigma = Permutation(sigma_image)
    x = ScaledPerm(sigma.inverse(), (F(6), F(1, 2), F(1, 3))).to_dense()
    print("  member of the sigma =", sigma_image, "class:",
          membership_test(x, sigma))
    print()

    print("randomized soundness/completeness run at n=4:")
    report = theorem_oracle(4, 200, seed=0)
    print("  ", report)


if __name__ == "__main__":
    main()
