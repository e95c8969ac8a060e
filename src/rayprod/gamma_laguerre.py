"""Moment-matched Gamma base plus Laguerre-type correction for the CDF of X.

The approximation is ``F(x) ~= P(alpha, x/beta) + eps(x)`` with ``P`` the
regularized lower incomplete Gamma function (evaluated here a point at a
time by one plain-Python loop, :func:`_reg_lower_gamma`), ``(alpha, beta)``
matched to the first two moments, and ``eps`` a finite correction series
driven by moments three and up.  :func:`fit` folds the whole series into
one incomplete Gamma at the top shape plus a polynomial (see
:func:`_raw_cdf`), so a CDF point costs one prefactor, one Horner pass and
one incomplete-Gamma loop.  Matching forces the first- and
second-order correction weights to vanish; for a single-factor channel
(n = 1) every correction weight vanishes and the model is the exact
distribution of X.

Numerically the weights are assembled from the ratios ``mu_l = E[X^l] /
((alpha)_l beta^l)`` of the channel moments to the Gamma moments, so the
enormous cancellations of the textbook weight formula never materialize:
each weight is an alternating binomial sum of ``mu_l - 1`` terms.

The truncated correction series need not be monotone or stay inside
``[0, 1]``.  The regularized CDF therefore applies a running maximum and a
clamp.  The running maximum is exact: the derivative of the raw CDF is
``u**(alpha-1) * exp(-u)`` times a polynomial of degree q in ``u = x/beta``,
so every interior local maximum sits at a positive real root of that
polynomial, and the supremum over ``[0, x]`` is the larger of the raw value
at ``x`` and the raw values at the roots below ``x``.
"""

from __future__ import annotations

import math
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import FitError, NumericError, ParameterError
from .moments import MomentSet

__all__ = ["GammaLaguerreModel", "fit", "cdf", "cdf_inverse"]

_WEIGHT_WARN_MAGNITUDE = 1e6
_INVERSE_TOL_P = 1e-10
_INVERSE_TOL_REL = 1e-6
_MAX_BRACKET_DOUBLINGS = 60
_CDF_FLOOR = 1e-14  # regularized values at or below snap to 0: no quantile there

_EPS = sys.float_info.epsilon
_MAX = sys.float_info.max
_TINY = 1e-300  # Lentz guard against a zero denominator
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling series lgamma(a) - ((a - 1/2) log a - a + log(2 pi)/2) =
# sum_k B_2k / (2k (2k - 1) a^(2k - 1)); seven terms reach 3e-17 at a = 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN_A = 10.0


@dataclass(frozen=True)
class GammaLaguerreModel:
    """Fitted CDF model; immutable and safe to share across threads.

    ``weights_scaled[i] = (alpha)_i * Gamma(alpha) * w_i``, with ``w_i``
    the textbook correction weights, are the well-conditioned quantities
    the basis weights come from.
    ``top``, ``total``, ``horner`` and ``poch_top`` are the folded series
    :func:`_raw_cdf` evaluates, and ``peak_max[i]`` the largest raw value at
    the interior peaks ``peak_x[:i + 1]``.
    """

    alpha: float
    beta: float
    q: int
    weights_scaled: tuple[float, ...]
    source_moments: MomentSet
    eps_basis: tuple[float, ...]
    top: int
    total: float
    horner: tuple[float, ...]
    poch_top: float
    peak_x: tuple[float, ...] = ()
    peak_max: tuple[float, ...] = ()

    @property
    def mean(self) -> float:
        return self.source_moments.mean

    @property
    def std(self) -> float:
        return math.sqrt(self.source_moments.variance)

    def cdf(self, x):
        """Regularized CDF at ``x``; see :func:`cdf` for the raw series too."""
        return cdf(self, x)[1]

    def quantile(self, p: float) -> float:
        """Quantile of the regularized CDF; see :func:`cdf_inverse`."""
        return cdf_inverse(self, p)


def _stirling_remainder(a: float) -> float:
    r = 1.0 / (a * a)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * r + c
    return acc / a


def _prefactor(a: float, u: float) -> float:
    """``u**a * exp(-u) / Gamma(a)`` for ``a > 0``, zero unless ``0 < u < inf``.

    Near the peak of a large shape, the log ``a log u - u - lgamma(a)``
    cancels terms of size ``a log a``; there the Stirling form keeps only the
    small difference ``a (log1p(x) - x)`` with ``x = (u - a) / a``.  The
    ``exp`` and logs are numpy's: :mod:`math` rounds some differently, and
    ``exp`` of a log of size 200 turns that one ulp into a hundred in ``P``,
    so a switch would move the model's outputs.
    """
    if not 0.0 < u < math.inf:
        return 0.0
    x = (u - a) / a
    if a >= _STIRLING_MIN_A and abs(x) <= 0.5:
        log_scale = (a * (float(np.log1p(x)) - x) + 0.5 * math.log(a) - _HALF_LOG_2PI
                     - _stirling_remainder(a))
    else:
        log_scale = a * float(np.log(u)) - u - math.lgamma(a)
    return float(np.exp(log_scale))


def _reg_lower_gamma(a: float, u: float, scale: float) -> float:
    """Regularized lower incomplete Gamma ``P(a, u)``, ``a > 0``, ``u >= 0``.

    For ``u < a + 1`` the series ``P = u^a e^-u / Gamma(a + 1) * sum_n u^n /
    ((a + 1) ... (a + n))`` adds positive terms; otherwise ``Q = 1 - P``
    comes from its continued fraction by the modified Lentz method.  Both
    stop once a step changes the result by less than one unit in the last
    place.  This one plain-Python loop serves grids and the quantile alike.
    ``scale`` is :func:`_prefactor` at ``(a, u)``.
    """
    if u == 0.0:
        return 0.0
    if u == math.inf:
        return 1.0
    if 0.0 < u < a + 1.0:
        ap = a
        term = total = 1.0 / a
        while term > total * _EPS:
            ap += 1.0
            term *= u / ap
            total += term
        return total * scale
    b = u + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    delta = 2.0
    i = 0
    while abs(delta - 1.0) > _EPS:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
    return 1.0 - scale * h


def _raw_cdf(model: GammaLaguerreModel, x: float) -> float:
    """The truncated series at ``x``: ``total * P(alpha + top, u) + pref * S(u)``.

    ``P(alpha + j, u)`` recurs down to ``P(alpha + top, u)`` plus the positive
    terms ``pref u^k / (alpha)_(k+1)``, ``j <= k < top``, with ``pref`` the
    prefactor at ``alpha``; summed over the basis, the terms are the
    polynomial ``S`` whose coefficients :func:`fit` precomputes.
    """
    u = x / model.beta
    if u > _MAX:  # the clamp keeps u = inf (P = 1, zero prefactor) out of 0 * inf
        u = _MAX
    pref = _prefactor(model.alpha, u)
    s = scale = 0.0
    if pref:  # where the prefactor underflows, u**top may overflow
        for c in model.horner:
            s = s * u + c
        scale = pref * u**model.top / model.poch_top
    return model.total * _reg_lower_gamma(model.alpha + model.top, u, scale) + pref * s


def _derivative_poly(alpha: float, eps_basis) -> np.ndarray:
    """Coefficients (ascending) of the polynomial factor of d(raw)/du."""
    q = len(eps_basis) - 1
    coeffs = np.zeros(q + 1)
    coeffs[0] = 1.0
    poch = 1.0
    for j in range(q + 1):
        if j > 0:
            poch *= alpha + j - 1
        coeffs[j] += eps_basis[j] / poch
    return coeffs


def _positive_real_roots(coeffs: np.ndarray) -> list[float]:
    # np.roots drops zero leading coefficients itself (none left: no roots)
    return sorted(float(r.real) for r in np.roots(coeffs[::-1])
                  if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)) and r.real > 0.0)


def fit(moments: MomentSet) -> GammaLaguerreModel:
    """Match a Gamma base to the first two moments and weight the corrections.

    Raises :class:`FitError` when the implied variance is not positive.
    """
    if moments.q < 2:
        raise ParameterError("fit needs at least the first two moments")
    e1 = moments.values[0]
    var = moments.variance
    if not var > 0:
        raise FitError(f"nonpositive variance {var} from moments {moments.values[:2]}")
    alpha = float(e1 * e1 / var)
    beta = float(var / e1)

    q = moments.q
    # mu_l - 1 with mu_l = E[X^l] / ((alpha)_l beta^l); exact zero when the
    # moments coincide with the Gamma moments (single-factor channels).
    mu_excess = [0.0] * (q + 1)
    gamma_l = 1.0
    for l in range(1, q + 1):
        gamma_l *= (alpha + l - 1) * beta
        mu_excess[l] = (moments.values[l - 1] - gamma_l) / gamma_l

    weights_scaled = [0.0] * (q + 1)
    weights_scaled[0] = 1.0
    poch = 1.0
    for i in range(1, q + 1):
        poch *= alpha + i - 1
        s_i = math.fsum(
            (-1.0) ** l * math.comb(i, l) * mu_excess[l] for l in range(1, i + 1)
        )
        weights_scaled[i] = poch * s_i
        if abs(weights_scaled[i]) > _WEIGHT_WARN_MAGNITUDE:
            warnings.warn(
                f"correction weight {i} has large magnitude "
                f"{weights_scaled[i]:.3e}; the moment-matched series may be "
                f"unreliable for dims {moments.config.dims}",
                RuntimeWarning,
                stacklevel=2,
            )

    # Collapse the double correction sum into one basis weight per Gamma term:
    # eps(x) = sum_j eps_basis[j] * P(alpha + j, x/beta).
    eps_basis = [0.0] * (q + 1)
    for j in range(q + 1):
        acc = 0.0
        for i in range(max(3, j), q + 1):
            acc += weights_scaled[i] / math.factorial(i - j)
        sign = 1.0 if j % 2 == 0 else -1.0
        eps_basis[j] = sign * acc / math.factorial(j)
    eps_basis = tuple(eps_basis)

    # Fold the series: raw = total * P(alpha + top, u) + pref(alpha, u) * S(u)
    # with S(u) = sum_{k<top} c_k u^k, c_k = (1 + sum_{j<=k} b_j) / (alpha)_(k+1).
    top = max((j for j, b in enumerate(eps_basis) if b != 0.0), default=0)
    total = 1.0
    coeffs = []
    poch = 1.0
    for k, b in enumerate(eps_basis):
        if b != 0.0:
            total += b
        if k < top:
            poch *= alpha + k
            coeffs.append(total / poch)
    model = GammaLaguerreModel(
        alpha=alpha,
        beta=beta,
        q=q,
        weights_scaled=tuple(weights_scaled),
        source_moments=moments,
        eps_basis=eps_basis,
        top=top,
        total=total,
        horner=tuple(reversed(coeffs)),
        poch_top=poch,
    )

    # Interior stationary points of the raw CDF: positive real roots of the
    # derivative polynomial.  All of them become running-max candidates.
    candidates = _positive_real_roots(_derivative_poly(alpha, eps_basis))
    peak_x = tuple(beta * u for u in candidates)
    peak_max = tuple(accumulate((_raw_cdf(model, xp) for xp in peak_x), max))
    return replace(model, peak_x=peak_x, peak_max=peak_max)


def _cdf_point(model: GammaLaguerreModel, x: float) -> tuple[float, float]:
    """Raw and regularized CDF at one point; see :func:`cdf`."""
    if not x >= 0.0:
        raise ParameterError(f"cdf requires x >= 0, got {x}")
    raw = reg = _raw_cdf(model, x)
    # The running maximum: raw(x) or the largest raw value at a peak below x.
    k = bisect_right(model.peak_x, x)
    if k and model.peak_max[k - 1] > raw:
        reg = model.peak_max[k - 1]
    # Snap the saturated boundaries, which clamps to [0, 1]: within these
    # bands the series value is cancellation round-off (the correction terms
    # are orders of magnitude less accurate), so the wiggle has no meaning
    # and snapping keeps the regularized values monotone on the plateaus.
    if reg >= 1.0 - 1e-10:
        reg = 1.0
    elif reg <= _CDF_FLOOR:
        reg = 0.0
    return raw, reg


def cdf(model: GammaLaguerreModel, x):
    """Raw and regularized CDF values at ``x``.

    ``raw`` is the truncated series as-is; ``regularized`` clamps it to
    ``[0, 1]`` and applies the exact running maximum, so it is nondecreasing
    and invertible.  A scalar ``x`` gives two floats, an array two arrays of
    its shape.
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        return _cdf_point(model, float(x))
    arr = np.asarray(x, dtype=float)
    raw, reg = [], []
    for v in arr.ravel().tolist():
        r, g = _cdf_point(model, v)
        raw.append(r)
        reg.append(g)
    return np.array(raw).reshape(arr.shape), np.array(reg).reshape(arr.shape)


def cdf_inverse(model: GammaLaguerreModel, p: float) -> float:
    """Quantile of the regularized CDF at ``1e-14 < p < 1``, by bisection.

    Stops once ``|F(x) - p| <= min(1e-10, 1e-6 p)`` or the bracket is one
    part in ``1e15`` wide; a quantile below the smallest double raises
    :class:`NumericError`.
    """
    if not _CDF_FLOOR < p < 1.0:
        raise ParameterError(f"the model quantile needs {_CDF_FLOOR:g} < p < 1, got {p}")
    tol = min(_INVERSE_TOL_P, _INVERSE_TOL_REL * p)
    hi = model.mean + 10.0 * model.std
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if cdf(model, hi)[1] > p:
            break
        hi *= 2.0
    else:
        raise NumericError(
            f"could not bracket p={p} after {_MAX_BRACKET_DOUBLINGS} doublings"
        )
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise NumericError(f"cannot resolve the quantile at p={p}: the bracket "
                               f"[{lo:g}, {hi:g}] cannot shrink")
        val = cdf(model, mid)[1]
        if abs(val - p) <= tol:
            return mid
        if val < p:
            lo = mid
        else:
            hi = mid
        # Relative stop: quantiles of configs with several dims of 1 can lie
        # far below 1e-15, where an absolute bracket width would stop early.
        if hi - lo <= 1e-15 * hi:
            return 0.5 * (lo + hi)
