"""Integer moments of ``X = ||P||_F**2`` for a product of Gaussian matrices.

Three independent routes are implemented and cross-checked in the test
suite:

* :func:`mgf_moments` expands the moment generating function, a determinant
  of truncated power series with integer coefficients, and reads the
  moments off its ``s**m`` coefficients.  The determinant is computed by
  fraction-free elimination over the series, in exact integers.  It is the
  route :func:`moment_set`, and so every fitted model, takes.
* :func:`exact_moment` enumerates all weak compositions ``a_1 + ... + a_K0
  = m`` of the partition-sum representation.  Every term carries a sign from
  the integer product ``prod_{i<j} ((a_j + j) - (a_i + i))`` and a magnitude
  that is a ratio of factorials; the sum runs in exact rational arithmetic,
  up to 60,000 compositions.
* :func:`closed_form_moment` evaluates the closed products known for
  ``m = 1, 2, 3``.

Both exact routes round each moment once, so they agree bit for bit.
:func:`leading_order_moment` provides the dominant term ``prod_i (K_i)_m /
m!``, exact in the limit of many clusters and the fallback past the order
guard ``m <= 12``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ChannelConfig
from .errors import NumericError, ParameterError, ResourceError

__all__ = [
    "MomentSet",
    "exact_moment",
    "closed_form_moment",
    "mgf_moments",
    "leading_order_moment",
    "moment_set",
    "composition_count",
    "gamma_det_identity",
]

_MAX_ORDER = 12
_RATIONAL_TERM_CAP = 60_000  # the partition sum's composition count limit


@dataclass(frozen=True)
class MomentSet:
    """Moments ``E[X^1] .. E[X^q]`` with per-entry method provenance.

    ``methods[i]`` records how ``values[i]`` was obtained: ``"mgf_series"``
    (exact, orders ``m <= 12``) or ``"leading_order"`` (past the order
    guard).
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


def _compositions(m: int, k: int) -> np.ndarray:
    """All weak compositions of ``m`` into ``k`` parts, lexicographic rows.

    Stars and bars: a composition puts ``m`` stars and ``k - 1`` bars in a
    row, and a star's part is the number of bars before it.  Star positions
    in lexicographic order give the compositions in reverse lexicographic
    order, so the rows are filled from the last.
    """
    count = composition_count(m, k)
    stars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m + k - 1), m)),
        dtype=np.int64,
        count=count * m,
    ).reshape(count, m)
    stars -= np.arange(m, dtype=np.int64)
    out = np.zeros((count, k), dtype=np.int64)
    rows = np.arange(count - 1, -1, -1)
    for j in range(m):
        out[rows, stars[:, j]] += 1
    return out


def _order_guard(route: str, m: int) -> None:
    if m > _MAX_ORDER:
        raise ResourceError(
            f"{route} order guard (m <= {_MAX_ORDER}) exceeded for m={m}; "
            "use leading_order_moment instead"
        )


def _to_float(value: int | Fraction, config: ChannelConfig, m: int) -> float:
    """An exact moment rounded once; :class:`NumericError` past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise NumericError(
            f"E[X^{m}] for dims {config.dims} exceeds the float range"
        ) from None


@functools.lru_cache(maxsize=None)
def _exact_moment_rational(cdims: tuple[int, ...], m: int) -> Fraction:
    """Partition sum in exact rational arithmetic (canonical dims)."""
    k0 = cdims[0]
    n = len(cdims) - 1
    nu = [k - k0 for k in cdims]
    fact = functools.cache(math.factorial)  # only the factorials near each nu_i
    # Per-(column, part) factor tables: numerator and denominator integers.
    numf = [[math.prod(fact(j + a + nu[i] - 1) for i in range(1, n + 1))
             for a in range(m + 1)] for j in range(1, k0 + 1)]
    denf = [[fact(a) * math.prod(fact(j + nu[i] - 1) for i in range(2, n + 1))
             for a in range(m + 1)] for j in range(1, k0 + 1)]
    comps = _compositions(m, k0)
    # The Vandermonde factor vanishes unless the shifted parts a_j + j are
    # distinct; for K0 = 30, m = 4 that leaves 17 of 40,920 rows.
    shifted = np.sort(comps + np.arange(1, k0 + 1), axis=1)
    distinct = (shifted[:, 1:] != shifted[:, :-1]).all(axis=1)
    total = Fraction(0)
    for comp in comps[distinct].tolist():
        pos = [a + j for j, a in enumerate(comp, start=1)]
        num = math.prod(pos[jj] - pos[ii] for jj in range(1, k0) for ii in range(jj))
        den = 1
        for j in range(k0):
            num *= numf[j][comp[j]]
            den *= denf[j][comp[j]]
        total += Fraction(num, den)
    norm = math.prod(fact(j - 1) * fact(j + nu[1] - 1) for j in range(1, k0 + 1))
    return total * fact(m) / norm


def exact_moment(config: ChannelConfig, m: int) -> float:
    """``E[X^m]`` by enumerating the partition sum over weak compositions.

    The sum runs in exact rational arithmetic and is rounded once.  Raises
    :class:`ResourceError` above the ``m <= 12`` order guard (suggesting
    :func:`leading_order_moment`) and above 60,000 compositions (suggesting
    :func:`mgf_moments`, which is exact at any ``K_min``).
    """
    m = int(m)
    if m < 1:
        raise ParameterError(f"moment order must be >= 1, got {m}")
    _order_guard("exact_moment", m)
    count = composition_count(m, config.k_min)
    if count > _RATIONAL_TERM_CAP:
        raise ResourceError(
            f"partition sum guard: {count} compositions exceed "
            f"{_RATIONAL_TERM_CAP} for dims {config.dims}, m={m}; "
            "use mgf_moments instead"
        )
    return _to_float(_exact_moment_rational(config.canonical_dims, m), config, m)


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


def _bareiss(rows: list[list[list[int]]], cap: int) -> list[int]:
    """Determinant of a matrix of integer power series truncated after ``s**cap``.

    Entries are coefficient lists of length ``cap + 1``; ``cap = 0`` is an
    integer matrix.  Bareiss's fraction-free elimination replaces entry
    (i, j) at step k by ``(a_ij a_kk - a_ik a_kj) / p``, with ``p`` the
    previous pivot.  By Sylvester's identity the quotient is a minor of the
    matrix, hence an integer series, and because ``p`` has a nonzero
    constant term, series division recovers it exactly.

    Only the integer case swaps in a row below a zero pivot (none left means
    the determinant is 0).  A series matrix is not pivoted: its
    constant-term matrix must have nonzero leading principal minors, as the
    binomial matrix of :func:`_mgf_coefficients` has (they are all 1).
    """
    n = len(rows)
    sign = 1
    prev = [1] + [0] * cap
    for k in range(n - 1):
        if cap == 0 and rows[k][k][0] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k][0]), None)
            if swap is None:
                return [0]
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            left = rows[i][k]
            for j in range(k + 1, n):
                top, a = rows[k][j], rows[i][j]
                out = []
                for t in range(cap + 1):
                    c = sum(a[u] * pivot[t - u] - left[u] * top[t - u] for u in range(t + 1))
                    c -= sum(prev[u] * out[t - u] for u in range(1, t + 1))
                    out.append(c // prev[0])
                rows[i][j] = out
        prev = pivot
    return [sign * c for c in rows[n - 1][n - 1]]


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix: :func:`_bareiss` at ``cap = 0``."""
    return _bareiss([[[x] for x in row] for row in rows], 0)[0]


@functools.lru_cache(maxsize=None)
def _mgf_coefficients(cdims: tuple[int, ...], cap: int) -> tuple[int, ...]:
    """``s**0 .. s**cap`` coefficients of the normalized MGF determinant.

    Entry (i, j) of the MGF matrix has coefficients ``(i+j+nu_1+t-2)! / t!
    * prod_{q>=2} (j+nu_q)_t``.  Row i is divided by ``(i-1)!`` and column
    j by ``(j+nu_1-1)!``, which divides the determinant by its Gram
    normalization ``prod_j Gamma(j) Gamma(j+nu_1)`` (see
    :func:`gamma_det_identity`) and leaves the integer entries
    ``C(i+j+nu_1+t-2, i-1) * C(j+nu_1+t-1, t) * prod_{q>=2} (j+nu_q)_t``.
    Their constant terms form a binomial matrix whose leading principal
    minors are all 1, so the determinant's constant term is 1.
    """
    k0 = cdims[0]
    nu = [k - k0 for k in cdims]
    rows = [[[math.comb(i + j + nu[1] + t - 2, i - 1)
              * math.comb(j + nu[1] + t - 1, t)
              * math.prod(math.prod(range(j + v, j + v + t)) for v in nu[2:])
              for t in range(cap + 1)]
             for j in range(1, k0 + 1)]
            for i in range(1, k0 + 1)]
    return tuple(_bareiss(rows, cap))


def mgf_moments(config: ChannelConfig, max_m: int) -> list[float]:
    """``E[X^m]`` for ``m = 0 .. max_m`` from one series-determinant expansion.

    The moment generating function of ``X`` is a normalized ``K_min x
    K_min`` determinant of power series, and ``E[X^m]`` is ``m!`` times its
    ``s**m`` coefficient.  The determinant is taken in exact integers, so
    each moment is an exact integer rounded once to a float and equals the
    rational partition sum wherever both run.  The cost grows like
    ``K_min**3 max_m**2``, with no composition count in it.
    """
    max_m = int(max_m)
    if max_m < 0:
        raise ParameterError(f"max_m must be >= 0, got {max_m}")
    _order_guard("mgf_moments", max_m)
    coeffs = _mgf_coefficients(config.canonical_dims, max_m)
    return [_to_float(c * math.factorial(m), config, m) for m, c in enumerate(coeffs)]


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


def moment_set(config: ChannelConfig, q: int) -> MomentSet:
    """Moments ``m = 1 .. q`` with per-entry provenance.

    Orders ``m <= 12`` come from one exact :func:`mgf_moments` expansion
    (``"mgf_series"``); orders past 12 take :func:`leading_order_moment`
    (``"leading_order"``), which :func:`~rayprod.gamma_laguerre.fit`
    refuses.  The partition sum and the closed forms are the independent
    cross-checks of the MGF route and are not used here.
    """
    q = int(q)
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    exact = mgf_moments(config, min(q, _MAX_ORDER))[1:]
    tail = [leading_order_moment(config, m) for m in range(_MAX_ORDER + 1, q + 1)]
    methods = ("mgf_series",) * len(exact) + ("leading_order",) * len(tail)
    return MomentSet(config, tuple(exact + tail), methods)
