"""The shifted Gamma-matrix determinant identity, computed independently.

The MGF route of `rayprod.moments` divides its series determinant by the Gram
normalization ``prod_j Gamma(j) Gamma(j + nu1)``.  This module certifies that
constant with its own exact determinant (rational Gaussian elimination with
row pivoting), sharing no code with the fraction-free elimination the MGF
route uses.
"""

import math
from fractions import Fraction


def det_exact(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= factor * a[k][j]
    assert det.denominator == 1
    return det.numerator


def gamma_det_identity(k0: int, nu1: int, m: int) -> tuple[float, float]:
    """Both sides of the shifted Gamma-matrix determinant identity.

    ``lhs`` is the determinant of the ``k0 x k0`` matrix whose first
    ``k0 - 1`` columns are ``Gamma(i + j + nu1 - 1)`` and whose last column is
    ``Gamma(i + k0 + nu1 + m - 1)``; ``rhs`` is the closed form

        Gamma(m + nu1 + k0) * Gamma(m + k0) / Gamma(m + 1)
        * prod_{i=1..k0-1} Gamma(i) * Gamma(i + nu1).

    With ``m = 0`` this reduces to the classical Gram identity
    ``det(Gamma(i + j + nu1 - 1)) = prod_j Gamma(j) Gamma(j + nu1)``.  All
    arguments are integers, so both sides are computed exactly and rounded
    once.
    """
    fact = math.factorial
    rows = [
        [fact(i + j + nu1 - 2) for j in range(1, k0)] + [fact(i + k0 + nu1 + m - 2)]
        for i in range(1, k0 + 1)
    ]
    rhs = (
        fact(m + nu1 + k0 - 1)
        * fact(m + k0 - 1)
        // fact(m)
        * math.prod(fact(i - 1) * fact(i + nu1 - 1) for i in range(1, k0))
    )
    return float(det_exact(rows)), float(rhs)
