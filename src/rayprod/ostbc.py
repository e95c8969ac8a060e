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

from .channel import ChannelConfig, _Record
from .errors import ParameterError
from .gamma_laguerre import _is_scalar

__all__ = [
    "OstbcScheme",
    "ostbc_catalog",
    "outage_probability",
    "outage_capacity",
    "db_to_linear",
]


def _linear(x_db: float) -> float:
    """``10 ** (x_db / 10)`` for one float, refused where it is not finite."""
    try:
        linear = 10.0 ** (x_db / 10.0)
    except OverflowError:
        linear = math.inf
    if not math.isfinite(linear):
        raise ParameterError(f"an SNR of {x_db:g} dB has no finite linear value")
    return linear


def _elementwise(func, *args):
    """``func``, which maps lists of floats to a list, on scalars or arrays.

    With every argument a scalar, ``func`` gets one-element lists and its one
    value comes back as a float.  Otherwise the arguments broadcast as float
    arrays and the values come back as an array of their shape; numpy is
    imported here only, for array arguments.
    """
    if all(map(_is_scalar, args)):
        return func(*([float(a)] for a in args))[0]
    import numpy as np

    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    out = func(*(a.ravel().tolist() for a in arrays))
    return np.array(out, dtype=float).reshape(arrays[0].shape)


def db_to_linear(x_db):
    """``10 ** (x_db / 10)``; a scalar gives a float, an array-like an array.

    Raises :class:`ParameterError` where the linear value is not finite
    (above about 3083 dB).
    """
    return _elementwise(lambda xs: [_linear(x) for x in xs], x_db)


class OstbcScheme(_Record):
    """An orthogonal design sending ``symbols`` symbols over ``block_length``
    uses of ``tx_antennas`` transmit antennas."""

    __slots__ = ("tx_antennas", "symbols", "block_length")  # all int

    def _check(self):
        if self.tx_antennas < 1 or self.symbols < 1 or self.block_length < 1:
            raise ParameterError(f"invalid OSTBC parameters {self}")
        if self.symbols > self.block_length:
            raise ParameterError("code rate above one is not an orthogonal design")

    @property
    def rate(self) -> Fraction:
        """Code rate ``R = S/T``, exact."""
        from fractions import Fraction  # on first use: it imports decimal

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


def _snr_denominator(
    scheme: OstbcScheme, config: ChannelConfig, gammas: list[float]
) -> tuple[float, float]:
    """Check the scheme against the channel and the SNRs; return ``R`` and
    ``R * K0 * N``.

    The post-decoder SNR is ``gamma * x / (R * K0 * N)``; every SNR <-> channel
    energy conversion in the package divides by this one denominator.
    """
    if scheme.tx_antennas != config.dims[0]:
        raise ParameterError(
            f"scheme is for {scheme.tx_antennas} transmit antennas but dims "
            f"start with {config.dims[0]}"
        )
    for gamma in gammas:
        if not gamma > 0:  # NaN fails the comparison too
            raise ParameterError(f"transmit SNR must be positive, got {gamma}")
    r = scheme.symbols / scheme.block_length  # float(scheme.rate), correctly rounded
    return r, r * config.dims[0] * config.normalization


def _outage_probabilities(dist, scheme, config, gammas: list[float], zs: list[float]):
    """:func:`outage_probability` at each pair of floats ``(gamma, z)``, as a list."""
    r, denominator = _snr_denominator(scheme, config, gammas)
    out = []
    for gamma, z in zip(gammas, zs):
        if z < 0:
            raise ParameterError("rate z must be >= 0")
        try:
            growth = math.expm1(z / r)
        except OverflowError:
            # A rate too high for a finite threshold is certain outage: cdf(inf) = 1.
            growth = math.inf
        out.append(dist.cdf(denominator / gamma * growth))
    return out


def _outage_capacities(dist, scheme, config, gammas: list[float], p: float):
    """:func:`outage_capacity` at each float ``gamma``, as a list; one quantile."""
    r, denominator = _snr_denominator(scheme, config, gammas)
    x = dist.quantile(p)
    return [r * math.log1p(gamma * x / denominator) for gamma in gammas]


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
    ``z`` is in nats/s/Hz; ``gamma`` is the linear transmit SNR.  Scalars
    give a float; otherwise ``gamma`` and ``z`` broadcast to an array.
    """
    return _elementwise(
        lambda gammas, zs: _outage_probabilities(dist, scheme, config, gammas, zs), gamma, z)


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
    return _elementwise(
        lambda gammas: _outage_capacities(dist, scheme, config, gammas, p), gamma)
