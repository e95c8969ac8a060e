"""Moment-matched Gamma base plus Laguerre-type correction for the CDF of X.

The approximation is ``F(x) ~= P(alpha, x/beta) + eps(x)`` with ``P`` the
regularized lower incomplete Gamma function, ``(alpha, beta)`` matched to the
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

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .channel import ChannelConfig
from .errors import FitError, NumericError, ParameterError
from .moments import MomentSet

__all__ = ["GammaLaguerreModel", "fit", "cdf", "cdf_inverse"]

_WEIGHT_WARN_MAGNITUDE = 1e6
_INVERSE_TOL_P = 1e-10
_MAX_BRACKET_DOUBLINGS = 60


@dataclass(frozen=True)
class GammaLaguerreModel:
    """Fitted CDF model; immutable and safe to share across threads.

    ``weights`` are the textbook correction weights ``w_0 .. w_q`` (kept for
    diagnostics and serialization).  ``weights_scaled[i] = (alpha)_i * Gamma
    (alpha) * w_i`` are the well-conditioned quantities the evaluator uses.
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

    def to_json(self) -> str:
        """Serialize everything needed to rebuild the model bit-for-bit."""
        return json.dumps(
            {
                "alpha": self.alpha,
                "beta": self.beta,
                "q": self.q,
                "dims": list(self.source_moments.config.dims),
                "weights": list(self.weights),
                "weights_scaled": list(self.weights_scaled),
                "moment_values": list(self.source_moments.values),
                "moment_methods": list(self.source_moments.methods),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GammaLaguerreModel":
        d = json.loads(text)
        moments = MomentSet(
            ChannelConfig(tuple(d["dims"])),
            tuple(d["moment_values"]),
            tuple(d["moment_methods"]),
        )
        return _assemble(
            float(d["alpha"]),
            float(d["beta"]),
            int(d["q"]),
            tuple(d["weights"]),
            tuple(d["weights_scaled"]),
            moments,
        )


def _raw_cdf(alpha: float, beta: float, eps_basis, x):
    u = np.asarray(x, dtype=float) / beta
    out = gammainc(alpha, u)
    for j, b in enumerate(eps_basis):
        if b != 0.0:
            out = out + b * gammainc(alpha + j, u)
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


def _assemble(alpha, beta, q, weights, weights_scaled, moments) -> GammaLaguerreModel:
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
    peak_cdf = tuple(
        float(_raw_cdf(alpha, beta, eps_basis, xp)) for xp in peak_x
    )
    return GammaLaguerreModel(
        alpha=float(alpha),
        beta=float(beta),
        q=int(q),
        weights=tuple(float(w) for w in weights),
        weights_scaled=tuple(float(w) for w in weights_scaled),
        source_moments=moments,
        eps_basis=eps_basis,
        peak_x=peak_x,
        peak_cdf=peak_cdf,
    )


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
    alpha = e1 * e1 / var
    beta = var / e1

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
    inv_gamma_alpha = math.exp(-float(gammaln(alpha)))
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
    return _assemble(alpha, beta, q, weights, weights_scaled, moments)


def cdf(model: GammaLaguerreModel, x):
    """Raw and regularized CDF values at ``x`` (scalar or array).

    ``raw`` is the truncated series as-is; ``regularized`` clamps it to
    ``[0, 1]`` and applies the exact running maximum, so it is nondecreasing
    and invertible.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ParameterError("cdf requires x >= 0")
    raw = _raw_cdf(model.alpha, model.beta, model.eps_basis, arr)
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
