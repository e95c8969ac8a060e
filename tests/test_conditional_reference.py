"""The conditional Monte-Carlo reference against exact and sampled CDFs."""

import functools
import math

import pytest

from conditional_reference import conditional_cdf
from rayprod import ChannelConfig, Ecdf, sample_frobenius

_ECDF_SEED = 11  # the 10^5 sampler draws
_REFERENCE_SEED = 5  # the 10^4 draws of A


@pytest.mark.parametrize("x", [1.0, 4.0, 8.0, 16.0])
def test_single_factor_is_the_exact_gamma_cdf(x):
    # (2, 4): A is the identity, so X is Gamma(8) and every draw gives the same value
    exact = 1.0 - math.exp(-x) * sum(x**j / math.factorial(j) for j in range(8))
    value, error, remainder = conditional_cdf((2, 4), x, 3, _REFERENCE_SEED)
    assert value == pytest.approx(exact, rel=0.0, abs=1e-12)
    assert error < 1e-15 and remainder < 1e-15


_ECDF_DRAWS = 10**5
_CONFIGS = [(2, 7, 8, 4), (2, 30, 40, 4), (4, 8, 4), (4, 8, 8, 4), (2, 6, 8, 4), (2, 15, 20, 4),
            (4, 4), (8, 7, 8, 4), (4, 7, 8, 4), (4, 8, 8, 8, 4), (2, 4), (8, 4)]


@functools.lru_cache(maxsize=None)
def _ecdf(dims):
    return Ecdf(sample_frobenius(ChannelConfig(dims), _ECDF_DRAWS, _ECDF_SEED).values)


def _assert_agrees_at_ecdf_quantile(dims, p):
    ecdf = _ecdf(dims)
    x = ecdf.quantile(p)
    value, error, remainder = conditional_cdf(dims, x, 10**4, _REFERENCE_SEED)
    # F at the ECDF's p-quantile has variance about p (1 - p) / draws (a uniform order statistic)
    combined = math.hypot(error, math.sqrt(p * (1.0 - p) / _ECDF_DRAWS))
    assert abs(value - ecdf(x)) <= 3.0 * combined, (value, ecdf(x), combined)
    assert remainder < 0.01 * value


@pytest.mark.parametrize("dims", _CONFIGS)
def test_agrees_with_the_ecdf_at_its_one_percent_quantile(dims):
    _assert_agrees_at_ecdf_quantile(dims, 0.01)


@pytest.mark.parametrize("dims", _CONFIGS)
def test_agrees_with_the_ecdf_at_its_one_per_mille_quantile(dims):
    _assert_agrees_at_ecdf_quantile(dims, 1e-3)
