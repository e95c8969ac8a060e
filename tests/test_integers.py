"""Every integer argument is read by one rule.

Dimensions, moment orders, antenna and symbol counts, draw counts and
scatterer counts accept an integral number, so ``3.0`` and ``np.int64(3)``
act as ``3``.  A fractional part, NaN, an infinity, ``None`` or a string is a
:class:`ParameterError`, never a silent truncation.
"""

import math

import numpy as np
import pytest

from rayprod import (
    ChannelConfig,
    OstbcScheme,
    ParameterError,
    closed_form_moment,
    exact_moment,
    leading_order_moment,
    mgf_moments,
    moment_set,
    ostbc_catalog,
    rayleigh_limit_distance,
    sample_frobenius,
)

_CONFIG = ChannelConfig((2, 3))

# argument -> the call with that argument set to k; 3 is a valid value of each
_CALLS = {
    "ChannelConfig dims": lambda k: ChannelConfig((2, k)),
    "exact_moment m": lambda k: exact_moment(_CONFIG, k),
    "closed_form_moment m": lambda k: closed_form_moment(_CONFIG, k),
    "leading_order_moment m": lambda k: leading_order_moment(_CONFIG, k),
    "mgf_moments max_m": lambda k: mgf_moments(_CONFIG, k),
    "moment_set q": lambda k: moment_set(_CONFIG, k),
    "ostbc_catalog k0": lambda k: ostbc_catalog(k),
    "OstbcScheme tx_antennas": lambda k: OstbcScheme(k, 3, 4),
    "OstbcScheme symbols": lambda k: OstbcScheme(4, k, 4),
    "OstbcScheme block_length": lambda k: OstbcScheme(2, 2, k),
    "sample_frobenius count": lambda k: sample_frobenius(_CONFIG, k, 0).values.tolist(),
    "rayleigh_limit_distance k0": lambda k: rayleigh_limit_distance(k, 3, 4, [1.0], 10, 0),
    "rayleigh_limit_distance kn": lambda k: rayleigh_limit_distance(2, k, 4, [1.0], 10, 0),
    "rayleigh_limit_distance scatterers":
        lambda k: rayleigh_limit_distance(2, 3, k, [1.0], 10, 0),
    "rayleigh_limit_distance count": lambda k: rayleigh_limit_distance(2, 3, 4, [1.0], k, 0),
}


@pytest.mark.parametrize("argument", _CALLS)
def test_integer_argument(argument):
    call = _CALLS[argument]
    for value in (2.5, math.nan, math.inf, None, "3"):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(value)
    expected = call(3)
    assert call(3.0) == expected
    assert call(np.int64(3)) == expected


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
def test_rayleigh_ratio_must_be_finite(ratio):
    with pytest.raises(ParameterError, match="ratios"):
        rayleigh_limit_distance(2, 3, 4, [1.0, ratio], 10, 0)
