"""Property tests of the moments, the sampler and the fitted CDF model over
random channel dims.

The domains are fixed: one to four factors, every dim in 1..10 (1..6 for the
moments), q = 6 for the model.  The examples are derandomized, so a run is
reproducible and a failure names the dims that produced it.
"""

import math
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import rayprod.moments as moments
from rayprod import (ChannelConfig, cdf, cdf_inverse, closed_form_moment, fit, mgf_moments,
                     moment_set)
from rayprod.montecarlo import _frobenius_values


def _dims(top):
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(*[st.integers(1, top)] * (n + 1)))


_DIMS = _dims(10)
_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def _model(dims):
    with warnings.catch_warnings():
        # degenerate dims (many of 1) warn about large correction weights
        warnings.simplefilter("ignore", RuntimeWarning)
        return fit(moment_set(ChannelConfig(dims), 6))


@_SETTINGS
@given(dims=_DIMS,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
def test_regularized_cdf_monotone_in_unit_interval(dims, fractions):
    model = _model(dims)
    x = np.sort(np.asarray(fractions)) * (model.mean + 20.0 * model.std)
    _, reg = cdf(model, x)
    assert np.all((reg >= 0.0) & (reg <= 1.0)), dims
    assert np.all(np.diff(reg) >= 0.0), dims


@_SETTINGS
@given(dims=_DIMS, p=st.floats(1e-4, 0.999))
def test_quantile_round_trip(dims, p):
    model = _model(dims)
    x = cdf_inverse(model, p)
    value = cdf(model, x)[1]
    assert abs(value - p) <= 1e-10, (dims, p, x)
    # the float where the computed CDF crosses p, not a point near it
    assert value == p or cdf(model, math.nextafter(x, 0.0))[1] < p <= value, (dims, p, x)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(dims=_dims(6), data=st.data())
def test_mgf_moments_equal_the_rational_partition_sum(dims, data):
    c = ChannelConfig(dims)
    shuffled = ChannelConfig(tuple(data.draw(st.permutations(dims))))
    batch = mgf_moments(c, 12)
    assert batch[0] == 1.0
    # the three routes as exact integers, before their one rounding
    with mock.patch.object(moments, "_to_float", lambda value, config, m: value):
        exact = mgf_moments(c, 12)
        for m in range(1, 13):
            assert batch[m] == float(exact[m])
            assert exact[m] == moments._partition_sum(c.canonical_dims, m), (dims, m)
            assert exact[m] == closed_form_moment(c, m) == closed_form_moment(shuffled, m), (
                dims, shuffled.dims, m)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(dims=_DIMS, seed=st.integers(0, 2**64 - 1),
       splits=st.lists(st.integers(1, 199), max_size=6, unique=True))
def test_sampler_splits_concatenate_to_the_whole_run(dims, seed, splits):
    c = ChannelConfig(dims)
    bounds = [0] + sorted(splits) + [200]
    parts = [_frobenius_values(c, a, b, seed) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), _frobenius_values(c, 0, 200, seed)), dims
