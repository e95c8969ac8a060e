"""Exact special-function identities behind the moment normalization.

`gamma_det_identity` certifies the prod Gamma(j) Gamma(j + nu1) constant of
`moments.py`; `det_exact` is the independent integer determinant it is
computed with.
"""

import math

import numpy as np

from gamma_identity import det_exact, gamma_det_identity


def _cofactor_det(a):
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _cofactor_det(minor)
    return total


class TestDetDense:
    def test_identity(self):
        assert det_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_hand_values(self):
        assert det_exact([[1, 2], [3, 4]]) == -2
        # Gamma Gram matrix for K0 = 2, offset 0: [[G(1),G(2)],[G(2),G(3)]]
        assert det_exact([[1, 1], [1, 2]]) == 1
        # a zero leading pivot takes a row swap
        assert det_exact([[0, 1], [1, 0]]) == -1

    def test_integer_exact_vs_cofactor(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            mat = rng.integers(-5, 6, size=(3, 3)).tolist()
            assert det_exact(mat) == _cofactor_det(mat)

    def test_structurally_singular(self):
        assert det_exact([[1, 2], [2, 4]]) == 0
        assert det_exact([[0] * 4 for _ in range(4)]) == 0


class TestGammaDetIdentity:
    def test_known_cases(self):
        assert gamma_det_identity(2, 0, 0) == (1.0, 1.0)
        lhs, rhs = gamma_det_identity(1, 3, 2)
        assert rhs == math.factorial(5)  # Gamma(m+nu+1)
        assert lhs == rhs
        assert gamma_det_identity(2, 0, 1) == (4.0, 4.0)

    def test_grid(self):
        for k0 in range(1, 7):
            for nu1 in range(0, 5):
                for m in range(0, 7):
                    lhs, rhs = gamma_det_identity(k0, nu1, m)
                    assert abs(lhs / rhs - 1.0) <= 1e-9

    def test_gram_identity_m0(self):
        # classical case: det(Gamma(i+j+nu-1)) = prod_j Gamma(j) Gamma(j+nu)
        for k0 in range(1, 7):
            for nu1 in range(0, 5):
                lhs, rhs = gamma_det_identity(k0, nu1, 0)
                expected = math.prod(
                    math.factorial(j - 1) * math.factorial(j + nu1 - 1)
                    for j in range(1, k0 + 1)
                )
                assert abs(lhs / expected - 1.0) <= 1e-9
                assert abs(rhs / expected - 1.0) <= 1e-12
