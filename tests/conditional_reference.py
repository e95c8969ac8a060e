"""A conditional Monte-Carlo reference for the CDF of X, computed independently.

The law of ``X = ||H_n ... H_1||_F**2`` does not change when the dims are
permuted, so write ``X = ||H A||_F**2``: ``H`` is the Gaussian factor with
``K_j`` rows for one chosen dim ``K_j``, and ``A`` is the product of the
factors of the other dims.  Given ``A``, each row of ``H`` adds ``sum_i
lambda_i |g_i|**2``, so ``X = sum_i lambda_i G_i`` with ``lambda_1 <= ... <=
lambda_r`` the nonzero eigenvalues of ``A^H A`` (``r`` is the smallest other
dim) and independent ``G_i ~ Gamma(K_j, 1)``.

``K_j`` is ``K_min`` unless that leaves ``A`` a smallest Bartlett shape
``d_1 - d_0 + 1`` below 3, with ``d_0 <= d_1 <= ...`` the other dims; then
``lambda_1`` is often tiny, ``y = x / lambda_1`` huge, and the series runs
past ``_MAX_TERMS``.  In that case ``K_j`` is the dim whose removal leaves the
largest shape: on (8, 7, 8, 4) that is 7, with shape 5 and ``r = 4``.

The CDF of that sum is Moschopoulos' positive series (Ann. Inst. Stat. Math.
37 (1985) 541-544).  With ``theta_i = 1 - lambda_1 / lambda_i``, ``rho = r
K_j`` and ``y = x / lambda_1``,

    F(x | A) = sum_m pois(rho + m; y) W_m,

where ``W_m`` is coefficient ``m`` of ``C prod_i (1 - theta_i z)**-K_j / (1 -
z)`` with ``C = prod_i (lambda_1 / lambda_i)**K_j``: the cumulative weights of
a mixture of ``Gamma(rho + m, lambda_1)`` laws.  Each factor ``1 / (1 - theta
z)`` is one pass ``c_m += theta c_(m-1)``, so a term costs ``r K_j + 1`` vector
updates.  Since ``W_m <= 1``, the remainder after ``M`` terms is at most
``P(Poisson(y) >= rho + M)``, which is at most ``pois(rho + M; y) / (1 - y /
(rho + M + 1))`` once ``rho + M + 1 > y``.  Each draw stops at the first term
count whose bound is below ``_TOL``.

The mean of ``F(x | A)`` over draws of ``A`` is unbiased for ``F(x)``, and
its variance is never above the ECDF's (Rao-Blackwell).  ``A`` is a product
of plain numpy Gaussians, so the reference shares no code with rayprod's
Bartlett sampler.
"""

import functools
import math

import numpy as np

_TOL = 1e-15  # each draw's remainder bound stops its series below this
_MAX_TERMS = 100_000  # a draw still running here keeps its larger bound
_BATCH = 500  # draws of A per batch: the (40, 30) factors take 9.6 MB


def _smallest_shape(others) -> float:
    """``d_1 - d_0 + 1`` of the sorted other dims; a single other dim has no limit."""
    return others[1] - others[0] + 1 if len(others) > 1 else math.inf


@functools.lru_cache(maxsize=None)
def eigenvalue_draws(dims: tuple, draws: int, seed: int):
    """``K_j`` and the ``(draws, r)`` ascending eigenvalues of ``A^H A``.

    ``K_j`` follows the split rule above.  The other dims go in ascending
    order, ``d_0 <= d_1 <= ...``, so ``A`` is ``d_last x d_0`` and ``A^H A``
    is ``r x r`` with ``r = d_0``; a single other dim leaves ``A`` the
    identity.  The result is cached, so the array is read-only.
    """
    dims = sorted(dims)
    splits = [(dims[i], dims[:i] + dims[i + 1 :]) for i in range(len(dims))]
    kj, others = splits[0]
    if _smallest_shape(others) < 3:
        kj, others = max(splits, key=lambda split: _smallest_shape(split[1]))
    rng = np.random.default_rng(seed)
    out = []
    for s in range(0, draws, _BATCH):
        b = min(_BATCH, draws - s)
        a = np.broadcast_to(np.eye(others[0], dtype=complex), (b, others[0], others[0]))
        for rows, cols in zip(others[1:], others[:-1]):
            g = rng.standard_normal((b, rows, cols, 2)).view(complex)[..., 0]
            a = g @ a / math.sqrt(2.0)  # CN(0, 1) entries
        out.append(np.linalg.eigvalsh(a.conj().transpose(0, 2, 1) @ a))
    lam = np.concatenate(out)
    lam.flags.writeable = False
    return kj, lam


def gamma_sum_cdf(lam: np.ndarray, kj: int, x: float):
    """``P(sum_i lam[d, i] G_i <= x)`` per draw ``d``, ``G_i ~ Gamma(kj, 1)``.

    Returns the values, the term count of each draw and its remainder bound.
    """
    count, r = lam.shape
    rho = r * kj
    lam1 = lam[:, 0]
    log_c = kj * np.log(lam1[:, None] / lam[:, 1:]).sum(axis=1)
    assert np.all(np.exp(log_c) > 0.0), "mixture weight C underflows"
    # one row per pass c_m += theta c_(m-1); the last, theta = 1, accumulates
    thetas = np.concatenate([np.repeat(1.0 - lam1 / lam[:, 1:].T, kj, axis=0),
                             np.ones((1, count))])
    stages = np.zeros_like(thetas)  # coefficient m - 1 of each partial product
    y = x / lam1
    log_y = np.log(y)
    total = np.zeros(count)
    source = np.exp(log_c)  # the constant series C: C at m = 0, then 0
    active = np.arange(count)
    values, terms, bounds = np.empty(count), np.zeros(count, dtype=int), np.empty(count)
    log_pois = -y + rho * log_y - math.lgamma(rho + 1)
    for m in range(_MAX_TERMS):
        w = source
        for stage, theta in zip(stages, thetas):
            stage *= theta
            stage += w
            w = stage
        total += np.exp(log_pois) * w
        source = 0.0
        k = rho + m + 1  # the first Poisson index left out
        log_pois = -y + k * log_y - math.lgamma(k + 1)
        with np.errstate(divide="ignore"):
            bound = np.where(k + 1 > y, np.exp(log_pois) / (1.0 - y / (k + 1)), np.inf)
        done = (bound <= _TOL) if m + 1 < _MAX_TERMS else np.ones(active.size, dtype=bool)
        if done.any():
            idx = active[done]
            values[idx], terms[idx], bounds[idx] = total[done], m + 1, bound[done]
            keep = ~done
            if not keep.any():
                break
            active, y, log_y, total, log_pois = (
                v[keep] for v in (active, y, log_y, total, log_pois))
            stages, thetas = stages[:, keep], thetas[:, keep]
    return values, terms, bounds


def conditional_cdf(dims, x: float, draws: int, seed: int):
    """The reference ``F(x)``: the mean of ``F(x | A)`` over ``draws >= 2``
    seeded draws of ``A``, its standard error and the mean remainder bound."""
    kj, lam = eigenvalue_draws(dims, draws, seed)
    values, _, bounds = gamma_sum_cdf(lam, kj, x)
    return values.mean(), values.std(ddof=1) / math.sqrt(draws), bounds.mean()
