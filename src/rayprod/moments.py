"""Integer moments of ``X = ||P||_F**2`` for a product of Gaussian matrices.

Three independent routes are implemented and cross-checked in the test
suite:

* :func:`exact_moment` enumerates all weak compositions ``a_1 + ... + a_K0
  = m`` of the partition-sum representation.  Every term carries a sign from
  the integer product ``prod_{i<j} ((a_j + j) - (a_i + i))`` and a magnitude
  assembled from Gamma factors.  Small cases run in exact rational
  arithmetic (the terms are ratios of factorials), large cases in the signed
  log domain with exactly rounded summation.
* :func:`closed_form_moment` evaluates the closed products known for
  ``m = 1, 2, 3``.
* :func:`mgf_moment` expands the moment generating function, a determinant
  of truncated power series, and reads the moment off the ``s**m``
  coefficient.  The determinant is computed division-free by expansion over
  row subsets.

:func:`leading_order_moment` provides the dominant term ``prod_i (K_i)_m /
m!``, exact in the limit of many clusters and the fallback wherever the
partition sum is too expensive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .channel import ChannelConfig
from .errors import ParameterError, ResourceError

__all__ = [
    "MomentSet",
    "exact_moment",
    "closed_form_moment",
    "mgf_moment",
    "mgf_moments",
    "leading_order_moment",
    "moment_set",
    "composition_count",
    "gamma_det_identity",
]

_MAX_ORDER = 12
_MAX_COMPOSITIONS = 10**7
_RATIONAL_TERM_CAP = 60_000  # below this the partition sum runs exactly
_MGF_MAX_ORDER = 8
_MGF_MAX_K0 = 8


@dataclass(frozen=True)
class MomentSet:
    """Moments ``E[X^1] .. E[X^q]`` with per-entry method provenance.

    ``methods[i]`` is one of ``"exact_partition"``, ``"closed_form"``,
    ``"mgf_series"``, ``"leading_order"`` and records how ``values[i]`` was
    obtained.
    """

    config: ChannelConfig
    values: tuple[float, ...]
    methods: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) != len(self.methods):
            raise ParameterError("values and methods must have equal length")
        if len(self.values) < 1:
            raise ParameterError("a MomentSet needs at least one moment")
        if any(not v > 0 for v in self.values):
            raise ParameterError("moments of X must be strictly positive")

    @property
    def q(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return self.values[0]

    @property
    def variance(self) -> float:
        if self.q < 2:
            raise ParameterError("variance needs at least two moments")
        return self.values[1] - self.values[0] ** 2


def composition_count(m: int, k0: int) -> int:
    """Number of weak compositions of ``m`` into ``k0`` parts."""
    return math.comb(m + k0 - 1, k0 - 1)


@functools.lru_cache(maxsize=None)
def _compositions(m: int, k: int) -> np.ndarray:
    """All weak compositions of ``m`` into ``k`` parts, lexicographic rows."""
    if k == 1:
        out = np.array([[m]], dtype=np.int64)
    else:
        blocks = []
        for first in range(m + 1):
            rest = _compositions(m - first, k - 1)
            block = np.empty((rest.shape[0], k), dtype=np.int64)
            block[:, 0] = first
            block[:, 1:] = rest
            blocks.append(block)
        out = np.vstack(blocks)
    out.setflags(write=False)
    return out


def _guard(config: ChannelConfig, m: int) -> None:
    if m > _MAX_ORDER:
        raise ResourceError(
            f"exact_moment order guard (m <= {_MAX_ORDER}) exceeded for m={m}; "
            "use leading_order_moment instead"
        )
    count = composition_count(m, config.k_min)
    if count > _MAX_COMPOSITIONS:
        raise ResourceError(
            f"composition count {count} exceeds {_MAX_COMPOSITIONS} for "
            f"dims {config.dims}, m={m}; use leading_order_moment instead"
        )


@functools.lru_cache(maxsize=None)
def _exact_moment_rational(cdims: tuple[int, ...], m: int) -> Fraction:
    """Partition sum in exact rational arithmetic (canonical dims)."""
    k0 = cdims[0]
    n = len(cdims) - 1
    nu = [k - k0 for k in cdims]
    fact = [math.factorial(i) for i in range(k0 + m + max(nu) + 1)]
    # Per-(column, part) factor tables: numerator and denominator integers.
    numf = [[math.prod(fact[j + a + nu[i] - 1] for i in range(1, n + 1))
             for a in range(m + 1)] for j in range(1, k0 + 1)]
    denf = [[fact[a] * math.prod(fact[j + nu[i] - 1] for i in range(2, n + 1))
             for a in range(m + 1)] for j in range(1, k0 + 1)]
    total = Fraction(0)
    for comp in _compositions(m, k0).tolist():
        pos = [a + j for j, a in enumerate(comp, start=1)]
        v = 1
        for jj in range(1, k0):
            for ii in range(jj):
                v *= pos[jj] - pos[ii]
            if v == 0:
                break
        if v == 0:
            continue
        num = v
        den = 1
        for j in range(k0):
            num *= numf[j][comp[j]]
            den *= denf[j][comp[j]]
        total += Fraction(num, den)
    norm = math.prod(fact[j - 1] * fact[j + nu[1] - 1] for j in range(1, k0 + 1))
    return total * fact[m] / norm


@functools.lru_cache(maxsize=None)
def _exact_moment_float(cdims: tuple[int, ...], m: int) -> float:
    """Partition sum in the signed log domain (canonical dims)."""
    k0 = cdims[0]
    n = len(cdims) - 1
    nu = np.array([k - k0 for k in cdims])
    comps = _compositions(m, k0)
    pos = comps + np.arange(1, k0 + 1, dtype=np.int64)

    pairs_i, pairs_j = np.triu_indices(k0, k=1)
    if pairs_i.size:
        diffs = pos[:, pairs_j] - pos[:, pairs_i]
        zero = (diffs == 0).any(axis=1)
        sign = np.where((diffs < 0).sum(axis=1) % 2 == 0, 1.0, -1.0)
        log_v = np.log(np.abs(np.where(diffs == 0, 1, diffs))).sum(axis=1)
    else:
        zero = np.zeros(comps.shape[0], dtype=bool)
        sign = np.ones(comps.shape[0])
        log_v = np.zeros(comps.shape[0])

    # G[j-1, a] = sum_i lnGamma(j+a+nu_i) - lnGamma(a+1) - sum_{i>=2} lnGamma(j+nu_i)
    j_col = np.arange(1, k0 + 1)[:, None]
    a_row = np.arange(m + 1)[None, :]
    g = -gammaln(a_row + 1.0) * np.ones((k0, 1))
    for i in range(1, n + 1):
        g = g + gammaln(j_col + a_row + nu[i])
    for i in range(2, n + 1):
        g = g - gammaln(j_col + nu[i])

    log_terms = log_v + g[np.arange(k0)[None, :], comps].sum(axis=1)
    keep = ~zero
    if not keep.any():
        return 0.0
    log_terms = log_terms[keep]
    peak = log_terms.max()
    # Exactly rounded signed sum of the scaled terms.
    acc = math.fsum((sign[keep] * np.exp(log_terms - peak)).tolist())
    log_norm = math.fsum(
        float(gammaln(j) + gammaln(j + nu[1])) for j in range(1, k0 + 1)
    )
    return acc * math.exp(peak + float(gammaln(m + 1)) - log_norm)


def exact_moment(config: ChannelConfig, m: int) -> float:
    """``E[X^m]`` by enumerating the partition sum over weak compositions.

    Runs the exact rational path when the composition count is small enough,
    the signed log-domain path otherwise.  Raises :class:`ResourceError`
    above the ``m <= 12`` / composition-count guards and suggests
    :func:`leading_order_moment`.
    """
    m = int(m)
    if m < 1:
        raise ParameterError(f"moment order must be >= 1, got {m}")
    _guard(config, m)
    cdims = config.canonical_dims
    if composition_count(m, config.k_min) <= _RATIONAL_TERM_CAP:
        return float(_exact_moment_rational(cdims, m))
    return _exact_moment_float(cdims, m)


def closed_form_moment(config: ChannelConfig, m: int) -> float:
    """First three moments as closed products over the dims."""
    dims = config.dims
    if m == 1:
        return float(math.prod(dims))
    if m == 2:
        total = math.prod(dims) * (
            math.prod(k + 1 for k in dims) + math.prod(k - 1 for k in dims)
        )
        return float(Fraction(total, 2))
    if m == 3:
        total = math.prod(dims) * (
            math.prod((k + 2) * (k + 1) for k in dims)
            + 4 * math.prod((k + 1) * (k - 1) for k in dims)
            + math.prod((k - 1) * (k - 2) for k in dims)
        )
        return float(Fraction(total, 6))
    raise ParameterError(f"closed_form_moment covers m in {{1, 2, 3}}, got {m}")


def _int_to_longdouble(value: int) -> np.longdouble:
    """Arbitrary nonnegative int to extended precision (top 64 bits kept)."""
    bits = value.bit_length()
    if bits <= 63:
        return np.longdouble(value)
    shift = bits - 64
    return np.longdouble(value >> shift) * np.longdouble(2.0) ** shift


def _mgf_entries(cdims: tuple[int, ...], cap: int) -> np.ndarray:
    """Truncated-series matrix entries in extended precision.

    Entry (i, j) has coefficients ``Gamma(i+j+nu_1+t-1) * prod_q (j+nu_q)_t
    / t!`` for ``t = 0 .. cap``; numerators are exact integers, so the only
    rounding is the final extended-precision quotient.  Matrix determinants
    of these series cancel heavily, which is why double-precision entries
    are not good enough here.
    """
    k0 = cdims[0]
    n = len(cdims) - 1
    nu = [k - k0 for k in cdims]
    fact = [math.factorial(t) for t in range(cap + 1)]
    entries = np.empty((k0, k0, cap + 1), dtype=np.longdouble)
    for i in range(1, k0 + 1):
        for j in range(1, k0 + 1):
            for t in range(cap + 1):
                num = math.factorial(i + j + nu[1] + t - 2)
                for q in range(2, n + 1):
                    num *= math.prod(range(j + nu[q], j + nu[q] + t))
                entries[i - 1, j - 1, t] = _int_to_longdouble(num) / np.longdouble(
                    fact[t]
                )
    return entries


def _series_det(entries: np.ndarray, cap: int) -> np.ndarray:
    """Division-free determinant of a matrix of truncated power series.

    ``entries`` has shape (k, k, cap+1).  Expands over row subsets (the
    dynamic-programming form of the Leibniz expansion): ``f[S]`` is the
    minor determinant using rows ``S`` and the first ``|S|`` columns.
    """
    k = entries.shape[0]
    full = (1 << k) - 1
    zero = np.zeros(cap + 1, dtype=entries.dtype)
    f = [None] * (full + 1)
    f[0] = zero.copy()
    f[0][0] = 1.0
    masks_by_size = [[] for _ in range(k + 1)]
    for mask in range(1, full + 1):
        masks_by_size[mask.bit_count()].append(mask)
    for size in range(1, k + 1):
        col = size - 1
        for mask in masks_by_size[size]:
            acc = zero.copy()
            pos = 0
            rest = mask
            while rest:
                row = (rest & -rest).bit_length() - 1
                term = np.convolve(entries[row, col], f[mask ^ (1 << row)])[: cap + 1]
                if (pos + size - 1) % 2 == 0:
                    acc += term
                else:
                    acc -= term
                rest &= rest - 1
                pos += 1
            f[mask] = acc
    return f[full]


@functools.lru_cache(maxsize=None)
def _mgf_coefficients(cdims: tuple[int, ...], cap: int) -> np.ndarray:
    """Series coefficients of the MGF determinant (extended precision)."""
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _series_det(_mgf_entries(cdims, cap), cap)
    if not np.all(np.isfinite(coeffs)):
        raise ResourceError(
            f"mgf series overflow for canonical dims {cdims}; the partition "
            "sum or leading_order_moment handle this range"
        )
    coeffs.setflags(write=False)
    return coeffs


def mgf_moments(config: ChannelConfig, max_m: int) -> list[float]:
    """``E[X^m]`` for ``m = 0 .. max_m`` from one series-determinant expansion."""
    max_m = int(max_m)
    if max_m < 0:
        raise ParameterError(f"max_m must be >= 0, got {max_m}")
    k0 = config.k_min
    if max_m > _MGF_MAX_ORDER or k0 > _MGF_MAX_K0:
        raise ResourceError(
            f"mgf series guard (m <= {_MGF_MAX_ORDER}, K0 <= {_MGF_MAX_K0}) "
            f"exceeded for dims {config.dims}, m={max_m}"
        )
    cdims = config.canonical_dims
    nu1 = cdims[1] - cdims[0]
    coeffs = _mgf_coefficients(cdims, max_m)
    norm = math.prod(
        math.factorial(j - 1) * math.factorial(j + nu1 - 1)
        for j in range(1, k0 + 1)
    )
    norm_ld = _int_to_longdouble(norm)
    out = [
        float(coeffs[m] * np.longdouble(math.factorial(m)) / norm_ld)
        for m in range(max_m + 1)
    ]
    out[0] = 1.0  # MGF at s = 0, exact by definition
    return out


def _det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free pivoted elimination; exact for integer matrices."""
    n = len(rows)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def gamma_det_identity(k0: int, nu1: int, m: int) -> tuple[float, float]:
    """Both sides of the shifted Gamma-matrix determinant identity.

    ``lhs`` is the determinant of the ``k0 x k0`` matrix whose first
    ``k0 - 1`` columns are ``Gamma(i + j + nu1 - 1)`` and whose last column is
    ``Gamma(i + k0 + nu1 + m - 1)``; ``rhs`` is the closed form

        Gamma(m + nu1 + k0) * Gamma(m + k0) / Gamma(m + 1)
        * prod_{i=1..k0-1} Gamma(i) * Gamma(i + nu1).

    With ``m = 0`` this reduces to the classical Gram identity
    ``det(Gamma(i + j + nu1 - 1)) = prod_j Gamma(j) Gamma(j + nu1)``, the
    normalization of :func:`mgf_moments` and of the partition sum.  All
    arguments are integers, so both sides are computed exactly (factorial
    entries, fraction-free elimination) and rounded once.
    """
    k0, nu1, m = int(k0), int(nu1), int(m)
    if not (1 <= k0 <= 12 and 0 <= nu1 <= 12 and 0 <= m <= 12):
        raise ParameterError(
            f"gamma_det_identity range guard: need 1<=k0<=12, 0<=nu1<=12, 0<=m<=12, "
            f"got ({k0}, {nu1}, {m})"
        )
    fact = math.factorial
    rows = [
        [fact(i + j + nu1 - 2) for j in range(1, k0)] + [fact(i + k0 + nu1 + m - 2)]
        for i in range(1, k0 + 1)
    ]
    rhs = (
        fact(m + nu1 + k0 - 1)
        * fact(m + k0 - 1)
        // fact(m)
        * math.prod(fact(i - 1) * fact(i + nu1 - 1) for i in range(1, k0))
    )
    return float(_det_bareiss(rows)), float(rhs)


def mgf_moment(config: ChannelConfig, m: int) -> float:
    """``E[X^m]`` extracted from the truncated-series MGF determinant."""
    m = int(m)
    if m < 0:
        raise ParameterError(f"moment order must be >= 0, got {m}")
    if m == 0:
        return 1.0
    return mgf_moments(config, m)[m]


def leading_order_moment(config: ChannelConfig, m: int) -> float:
    """Dominant higher-moment term ``prod_i (K_i)_m / m!``."""
    m = int(m)
    if m < 1:
        raise ParameterError(f"moment order must be >= 1, got {m}")
    dims = config.dims
    total = math.comb(dims[0] + m - 1, m)  # (K0)_m / m!, an integer
    for k in dims[1:]:
        total *= math.prod(range(k, k + m))
    return float(total)


def moment_set(config: ChannelConfig, q: int, policy: str = "auto") -> MomentSet:
    """Moments ``m = 1 .. q`` with per-entry provenance.

    ``policy`` selects the route: ``"auto"`` uses the exact partition sum
    wherever its guards allow and falls back to the leading-order term,
    ``"exact"`` never falls back (guard errors propagate), and
    ``"leading_order"`` forces the cheap approximation for every order.
    """
    q = int(q)
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    if policy not in ("auto", "exact", "leading_order"):
        raise ParameterError(f"unknown policy {policy!r}")
    values, methods = [], []
    for m in range(1, q + 1):
        if policy == "leading_order":
            values.append(leading_order_moment(config, m))
            methods.append("leading_order")
            continue
        try:
            values.append(exact_moment(config, m))
            methods.append("exact_partition")
        except ResourceError:
            if policy == "exact":
                raise
            values.append(leading_order_moment(config, m))
            methods.append("leading_order")
    return MomentSet(config, tuple(values), tuple(methods))
