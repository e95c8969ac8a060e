"""Moment-matched Gamma base plus Laguerre-type correction for the CDF of X.

The approximation is ``F(x) ~= P(alpha, x/beta) + eps(x)`` with ``P`` the
regularized lower incomplete Gamma function (evaluated here, see
:func:`_reg_lower_gamma`), ``(alpha, beta)`` matched to the
first two moments, and ``eps`` a finite correction series driven by moments
three and up.  Matching forces the first- and second-order correction
weights to vanish; for a single-factor channel (n = 1) every correction
weight vanishes and the model is the exact distribution of X.

Numerically the weights are assembled from the ratios ``mu_l = E[X^l] /
((alpha)_l beta^l)`` of the channel moments to the Gamma moments, so the
enormous cancellations of the textbook weight formula never materialize:
each weight is an alternating binomial sum of ``mu_l - 1`` terms.

The truncated correction series need not be monotone or stay inside
``[0, 1]``.  The regularized CDF therefore applies a clamp and a running
maximum.  The running maximum is exact: the derivative of the raw CDF is
``u**(alpha-1) * exp(-u)`` times a polynomial of degree q in ``u = x/beta``,
so every interior local maximum sits at a positive real root of that
polynomial, and the supremum over ``[0, x]`` is the larger of the raw value
at ``x`` and the raw values at the roots below ``x``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitError, NumericError, ParameterError
from .moments import MomentSet

__all__ = ["GammaLaguerreModel", "fit", "cdf", "cdf_inverse"]

_WEIGHT_WARN_MAGNITUDE = 1e6
_INVERSE_TOL_P = 1e-10
_MAX_BRACKET_DOUBLINGS = 60

_EPS = sys.float_info.epsilon
_TINY = 1e-300  # Lentz guard against a zero denominator
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling series lgamma(a) - ((a - 1/2) log a - a + log(2 pi)/2) =
# sum_k B_2k / (2k (2k - 1) a^(2k - 1)); seven terms reach 3e-17 at a = 10.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_MIN_A = 10.0


@dataclass(frozen=True)
class GammaLaguerreModel:
    """Fitted CDF model; immutable and safe to share across threads.

    ``weights`` are the textbook correction weights ``w_0 .. w_q`` (kept for
    diagnostics).  ``weights_scaled[i] = (alpha)_i * Gamma(alpha) * w_i``
    are the well-conditioned quantities the evaluator uses.
    """

    alpha: float
    beta: float
    q: int
    weights: tuple[float, ...]
    weights_scaled: tuple[float, ...]
    source_moments: MomentSet
    eps_basis: tuple[float, ...]
    peak_x: tuple[float, ...]
    peak_cdf: tuple[float, ...]

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


def _log_prefactor(a: float, u: float) -> float:
    """``log(u**a * exp(-u) / Gamma(a))`` for ``a > 0`` and finite ``u > 0``.

    Near the peak of a large shape, ``a log u - u - lgamma(a)`` cancels
    terms of size ``a log a``; there the Stirling form keeps only the small
    difference ``a (log1p(x) - x)`` with ``x = (u - a) / a``.  The logs are
    numpy's, as in :func:`_log_prefactor_array`: :mod:`math` rounds some
    differently, and ``exp`` of a log-prefactor of size 200 turns that one
    ulp into a hundred in ``P``.
    """
    x = (u - a) / a
    if a >= _STIRLING_MIN_A and abs(x) <= 0.5:
        return (a * (float(np.log1p(x)) - x) + 0.5 * math.log(a) - _HALF_LOG_2PI
                - _stirling_remainder(a))
    return a * float(np.log(u)) - u - math.lgamma(a)


def _log_prefactor_array(a: float, u: np.ndarray) -> np.ndarray:
    """:func:`_log_prefactor` over an array of finite ``u > 0``."""
    out = a * np.log(u) - u - math.lgamma(a)
    if a >= _STIRLING_MIN_A:
        x = (u - a) / a
        near = np.abs(x) <= 0.5
        xn = x[near]
        out[near] = (a * (np.log1p(xn) - xn) + 0.5 * math.log(a) - _HALF_LOG_2PI
                     - _stirling_remainder(a))
    return out


def _prefactor(a: float, u):
    """``u**a * exp(-u) / Gamma(a)``, zero unless ``0 < u < inf``.

    A float for a float ``u``, else an array.
    """
    if isinstance(u, float):
        return float(np.exp(_log_prefactor(a, u))) if 0.0 < u < math.inf else 0.0
    out = np.zeros(u.shape)
    mid = (u > 0.0) & (u < np.inf)
    out[mid] = np.exp(_log_prefactor_array(a, u[mid]))
    return out


def _reg_lower_gamma(a: float, u, scale=None):
    """Regularized lower incomplete Gamma ``P(a, u)``, ``a > 0``, ``u >= 0``.

    For ``u < a + 1`` the series ``P = u^a e^-u / Gamma(a + 1) * sum_n u^n /
    ((a + 1) ... (a + n))`` adds positive terms; otherwise ``Q = 1 - P``
    comes from its continued fraction by the modified Lentz method.  Both
    stop once a step changes the result by less than one unit in the last
    place.  A float ``u`` runs a plain Python loop, an array a masked numpy
    loop; both do the same arithmetic with the same ``exp``/``log``, so they
    agree bit for bit.  ``scale`` is :func:`_prefactor` at ``(a, u)``, for a
    caller that already has it.
    """
    if isinstance(u, float):
        return _reg_lower_gamma_scalar(a, u, _prefactor(a, u) if scale is None else scale)
    u = np.asarray(u, dtype=float)
    return _reg_lower_gamma_array(a, u, _prefactor(a, u) if scale is None else scale)


def _reg_lower_gamma_scalar(a: float, u: float, scale: float) -> float:
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
    if not u >= a + 1.0:
        return math.nan
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


def _reg_lower_gamma_array(a: float, u: np.ndarray, scale: np.ndarray) -> np.ndarray:
    # Each loop runs the scalar iteration on every point at once; a point
    # that has met its stop is frozen (no term added, no factor applied).
    out = np.full(u.shape, np.nan)
    out[u == 0.0] = 0.0
    out[u == np.inf] = 1.0

    series = (u > 0.0) & (u < a + 1.0)
    v = u[series]
    ap = a
    term = np.full(v.shape, 1.0 / a)
    total = term.copy()
    while term.any():
        ap += 1.0
        term *= v / ap
        total += term
        term[~(term > total * _EPS)] = 0.0
    out[series] = total * scale[series]

    fraction = (u >= a + 1.0) & (u < np.inf)
    b = u[fraction] + 1.0 - a
    c = np.full(b.shape, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    live = np.ones(b.shape, dtype=bool)
    i = 0
    while live.any():
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = np.where(live, d * c, 1.0)
        h *= delta
        live &= np.abs(delta - 1.0) > _EPS
    out[fraction] = 1.0 - scale[fraction] * h
    return out


def _raw_cdf(alpha: float, beta: float, eps_basis, x):
    """The truncated series at ``x``: a float for a float, else an array."""
    # The clamp keeps u = inf (P = 1, zero prefactor) out of 0 * inf below.
    if isinstance(x, float):
        u = min(x / beta, sys.float_info.max)
    else:
        u = np.minimum(np.asarray(x, dtype=float) / beta, sys.float_info.max)
    # P(alpha + j, u) for j = top .. 0 from one incomplete-Gamma evaluation,
    # recurring down with P(a, u) = P(a + 1, u) + u^a e^-u / Gamma(a + 1):
    # every added term is positive, so no tail is left to cancellation.  The
    # prefactor climbs from a = alpha alongside the terms.
    top = max((j for j, b in enumerate(eps_basis) if b != 0.0), default=0)
    scale = _prefactor(alpha, u)
    terms = []
    for j in range(top):
        terms.append(scale / (alpha + j))
        scale = terms[-1] * u
    p = [None] * top + [_reg_lower_gamma(alpha + top, u, scale)]
    for j in reversed(range(top)):
        p[j] = p[j + 1] + terms[j]
    out = p[0]
    for j, b in enumerate(eps_basis):
        if b != 0.0:
            out = out + b * p[j]
    return out


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
    c = np.array(coeffs, dtype=float)
    while c.size > 1 and c[-1] == 0.0:
        c = c[:-1]
    if c.size <= 1:
        return []
    roots = np.roots(c[::-1])
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)) and r.real > 0.0:
            out.append(float(r.real))
    return sorted(out)


def fit(moments: MomentSet) -> GammaLaguerreModel:
    """Match a Gamma base to the first two moments and weight the corrections.

    Raises :class:`FitError` when the implied variance is not positive and
    :class:`ParameterError` when any moment is a ``"leading_order"``
    approximation: the correction weights amplify its error, so the fit
    takes only exact moments.
    """
    if moments.q < 2:
        raise ParameterError("fit needs at least the first two moments")
    if "leading_order" in moments.methods:
        exact = moments.methods.index("leading_order")
        raise ParameterError(
            f"fit takes exact moments only, which exist up to order {exact}; "
            f"order {exact + 1} is a leading-order approximation, so use q <= {exact}"
        )
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

    weights = [0.0] * (q + 1)
    weights_scaled = [0.0] * (q + 1)
    inv_gamma_alpha = math.exp(-math.lgamma(alpha))
    weights[0] = inv_gamma_alpha
    weights_scaled[0] = 1.0
    poch = 1.0
    for i in range(1, q + 1):
        poch *= alpha + i - 1
        s_i = math.fsum(
            (-1.0) ** l * math.comb(i, l) * mu_excess[l] for l in range(1, i + 1)
        )
        weights[i] = s_i * inv_gamma_alpha
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

    # Interior stationary points of the raw CDF: positive real roots of the
    # derivative polynomial.  All of them become running-max candidates.
    candidates = _positive_real_roots(_derivative_poly(alpha, eps_basis))
    peak_x = tuple(beta * u for u in candidates)
    return GammaLaguerreModel(
        alpha=alpha,
        beta=beta,
        q=q,
        weights=tuple(weights),
        weights_scaled=tuple(weights_scaled),
        source_moments=moments,
        eps_basis=eps_basis,
        peak_x=peak_x,
        peak_cdf=tuple(float(_raw_cdf(alpha, beta, eps_basis, xp)) for xp in peak_x),
    )


def cdf(model: GammaLaguerreModel, x):
    """Raw and regularized CDF values at ``x`` (scalar or array).

    ``raw`` is the truncated series as-is; ``regularized`` clamps it to
    ``[0, 1]`` and applies the exact running maximum, so it is nondecreasing
    and invertible.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("cdf requires x >= 0")
    raw = _raw_cdf(model.alpha, model.beta, model.eps_basis,
                   float(arr) if arr.ndim == 0 else arr)
    if model.peak_x:
        px = np.asarray(model.peak_x)
        prefix = np.maximum.accumulate(np.asarray(model.peak_cdf))
        idx = np.searchsorted(px, arr, side="right")
        best = np.where(idx > 0, prefix[np.maximum(idx - 1, 0)], -np.inf)
        reg = np.maximum(raw, best)
    else:
        reg = raw
    reg = np.clip(reg, 0.0, 1.0)
    # Snap the saturated boundaries: within these bands the series value is
    # dominated by cancellation round-off (the correction terms are orders of
    # magnitude less accurate than this), so the wiggle has no meaning and
    # snapping keeps the regularized values monotone across the plateaus.
    reg = np.where(reg >= 1.0 - 1e-10, 1.0, reg)
    reg = np.where(reg <= 1e-14, 0.0, reg)
    if np.isscalar(x) or arr.ndim == 0:
        return float(raw), float(reg)
    return raw, reg


def cdf_inverse(model: GammaLaguerreModel, p: float) -> float:
    """Quantile of the regularized CDF, bisected to ``1e-10`` in probability."""
    if not 0.0 < p < 1.0:
        raise ParameterError(f"cdf_inverse requires 0 < p < 1, got {p}")
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = cdf(model, mid)[1]
        if abs(val - p) <= _INVERSE_TOL_P:
            return mid
        if val < p:
            lo = mid
        else:
            hi = mid
        # Relative stop: quantiles of configs with several dims of 1 can lie
        # far below 1e-15, where an absolute bracket width would stop early.
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)
