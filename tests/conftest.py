import numpy as np
import pytest

from rayprod import ChannelConfig, sample_frobenius


@pytest.fixture(scope="session")
def samples_2784():
    """10^6 seeded draws of X for dims [2,7,8,4]; shared across modules."""
    return sample_frobenius(ChannelConfig((2, 7, 8, 4)), 10**6, 0)


def sup_distance(cdf, xs: np.ndarray, block: int = 1000) -> float:
    """Sup distance between a nondecreasing CDF and the ECDF of sorted samples.

    Equals ``max_i max(|F(x_i) - i/n|, |F(x_i) - (i-1)/n|)`` to the last bit,
    without calling ``cdf`` at every sample.  ``F`` at the two ends of a
    block of ``block`` samples bounds every term of the block, because ``F``
    and the ranks are nondecreasing and float subtraction is monotone; only
    blocks whose bound exceeds the best exact term so far are evaluated in
    full, largest bound first.
    """
    n = xs.size
    ranks = np.arange(1, n + 1) / n
    below = ranks - 1.0 / n
    starts = np.arange(0, n, block)
    stops = np.minimum(starts + block, n)
    bounds = np.maximum(cdf(xs[stops - 1]) - below[starts], ranks[stops - 1] - cdf(xs[starts]))
    best = 0.0
    for a, b, bound in sorted(zip(starts, stops, bounds), key=lambda t: -t[2]):
        if bound <= best:
            break
        f = cdf(xs[a:b])
        best = max(best, np.max(np.abs(f - ranks[a:b])), np.max(np.abs(f - below[a:b])))
    return float(best)
