"""Property tests of the fitted CDF model over random channel dims.

The domain is fixed: one to four factors, every dim in 1..10, q = 6.  The
examples are derandomized, so a run is reproducible and a failure names the
dims that produced it.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rayprod import ChannelConfig, cdf, cdf_inverse, fit, moment_set

_DIMS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.integers(1, 10)] * (n + 1)))
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
    assert abs(cdf(model, x)[1] - p) <= 1e-10, (dims, p, x)
