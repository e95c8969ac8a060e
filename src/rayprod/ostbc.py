"""Outage quantities for orthogonal space-time block coded transmission.

An OSTBC turns the MIMO link into parallel scalar channels whose common SNR
is proportional to ``X = ||P||_F**2``, so outage probability and outage
capacity are plain CDF/quantile evaluations of a distribution of ``X`` (the
fitted model or a Monte-Carlo ECDF) after an SNR change of variables.
Capacity is in nats/s/Hz throughout; dB conversion happens at the interfaces
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ChannelConfig
from .errors import ParameterError

__all__ = [
    "OstbcScheme",
    "ostbc_catalog",
    "outage_probability",
    "outage_capacity",
    "db_to_linear",
]


def db_to_linear(x_db):
    """``10 ** (x_db / 10)``; a scalar gives a float, an array-like an array.

    Raises :class:`ParameterError` where the linear value is not finite
    (above about 3083 dB).
    """
    if np.ndim(x_db) == 0:
        try:
            linear = 10.0 ** (float(x_db) / 10.0)
        except OverflowError:
            linear = math.inf
        finite = math.isfinite(linear)
    else:
        with np.errstate(over="ignore"):
            linear = 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
        finite = np.all(np.isfinite(linear))
    if not finite:
        # the largest input is the one that overflows (or NaN, if any is)
        raise ParameterError(f"an SNR of {np.max(x_db):g} dB has no finite linear value")
    return linear


@dataclass(frozen=True)
class OstbcScheme:
    """An orthogonal design sending ``symbols`` symbols over ``block_length``
    uses of ``tx_antennas`` transmit antennas."""

    tx_antennas: int
    symbols: int
    block_length: int

    def __post_init__(self):
        if self.tx_antennas < 1 or self.symbols < 1 or self.block_length < 1:
            raise ParameterError(f"invalid OSTBC parameters {self}")
        if self.symbols > self.block_length:
            raise ParameterError("code rate above one is not an orthogonal design")

    @property
    def rate(self) -> Fraction:
        """Code rate ``R = S/T``, exact."""
        return Fraction(self.symbols, self.block_length)


def ostbc_catalog(k0: int) -> OstbcScheme:
    """Best-known complex-constellation OSTBC for ``k0`` transmit antennas.

    k0 = 1 is the trivial SISO entry; k0 = 2 the full-rate Alamouti code;
    three and four antennas use the rate-3/4 designs; five or more fall back
    to the generic half-rate construction (4 symbols over 8 uses).
    """
    k0 = int(k0)
    if k0 < 1:
        raise ParameterError(f"need at least one transmit antenna, got {k0}")
    if k0 == 1:
        return OstbcScheme(1, 1, 1)
    if k0 == 2:
        return OstbcScheme(2, 2, 2)
    if k0 in (3, 4):
        return OstbcScheme(k0, 3, 4)
    return OstbcScheme(k0, 4, 8)


def _snr_denominator(scheme: OstbcScheme, config: ChannelConfig, gamma) -> float:
    """Check the scheme against the channel and the SNR; return ``R * K0 * N``.

    The post-decoder SNR is ``gamma * x / (R * K0 * N)``; every SNR <-> channel
    energy conversion in the package divides by this one denominator.
    """
    if scheme.tx_antennas != config.dims[0]:
        raise ParameterError(
            f"scheme is for {scheme.tx_antennas} transmit antennas but dims "
            f"start with {config.dims[0]}"
        )
    if not np.all(gamma > 0):
        raise ParameterError(f"transmit SNR must be positive, got {gamma}")
    return float(scheme.rate) * config.dims[0] * config.normalization


def outage_probability(
    dist,
    scheme: OstbcScheme,
    config: ChannelConfig,
    gamma,
    z,
):
    """Probability that the instantaneous capacity falls below rate ``z``.

    ``dist`` is any distribution of ``X`` with a ``cdf(x)`` method (the
    fitted :class:`GammaLaguerreModel` or a Monte-Carlo :class:`Ecdf`).
    ``z`` is in nats/s/Hz and may be a scalar or array; ``gamma`` is the
    linear transmit SNR, a scalar or array-like.
    """
    gamma = np.asarray(gamma, dtype=float)
    denominator = _snr_denominator(scheme, config, gamma)
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise ParameterError("rate z must be >= 0")
    r = float(scheme.rate)
    # A rate too high for a finite threshold is certain outage: cdf(inf) = 1.
    with np.errstate(over="ignore"):
        threshold = denominator / gamma * np.expm1(z_arr / r)
    return dist.cdf(threshold)


def outage_capacity(
    dist,
    scheme: OstbcScheme,
    config: ChannelConfig,
    gamma,
    p: float,
):
    """Largest rate (nats/s/Hz) guaranteed for a ``1 - p`` fraction of fades.

    ``dist`` is any distribution of ``X`` with a ``quantile(p)`` method.
    ``gamma`` (linear transmit SNR) may be a scalar, which returns a float,
    or an array-like; the quantile is taken once for all SNRs.
    """
    gamma = np.asarray(gamma, dtype=float)
    denominator = _snr_denominator(scheme, config, gamma)
    r = float(scheme.rate)
    out = r * np.log1p(gamma * dist.quantile(p) / denominator)
    return float(out) if np.ndim(out) == 0 else out
