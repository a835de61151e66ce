"""The determinant-one diagonal subgroup as a commutative Lie group.

Dropping the last diagonal entry is a global chart, so the group is an
(n-1)-dimensional manifold.  exp and log act componentwise; the bracket
of the (computed, not assumed) basis vanishes identically.
"""

import math
from fractions import Fraction as F

from bmsym import (
    as_scaled_perm,
    basis,
    bracket,
    chart,
    component_signature,
    dn1_new,
    lie_exp,
    lie_log,
    mu,
    structure_constants,
)


def main():
    a = dn1_new((F(2), F(1, 2)))
    print("element from chart coordinates (2, 1/2):", a.diag)
    print("back through the chart:", chart(a))
    print()

    b = dn1_new((F(4), F(1)))
    print("mu(a, b) = a^-1 b =", [str(v) for v in mu(a, b).diag])
    print("the group is commutative: a*b == b*a:",
          (a * b).diag == (b * a).diag)
    print()

    x = lie_log(dn1_new((2.0, 0.5)))
    print("log of diag(2, 1/2, 1):", x.diag)
    back = lie_exp(x)
    print("exp brings it back:",
          all(abs(u - v) < 1e-12 for u, v in zip(back.diag, (2.0, 0.5, 1.0))))
    print("exp always lands on determinant 1:",
          abs(math.prod(lie_exp(basis(5, 2).scaled(0.7)).diag) - 1.0) < 1e-12)
    print()

    n = 5
    print(f"basis of the tangent algebra at n={n} ({n - 1} elements):")
    for i in range(1, n):
        print("  ", [str(v) for v in basis(n, i).diag])
    print("bracket of the first two basis vectors:",
          bracket(basis(n, 1), basis(n, 2)).diag)
    constants = structure_constants(n).tolist()
    print("structure constants are the zero tensor:",
          not any(v for plane in constants for row in plane for v in row))
    print()

    c = dn1_new((F(-2), F(-1, 2)))
    print("sign pattern of diag(-2, -1/2, 1):", component_signature(c))
    print("rational elements cross over to the exact group:",
          as_scaled_perm(a).scale)


if __name__ == "__main__":
    main()
