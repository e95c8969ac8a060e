"""Integer moments of ``X = ||P||_F**2`` for a product of Gaussian matrices.

Three independent routes are implemented and cross-checked in the test
suite:

* :func:`closed_form_moment` evaluates the character sum over the partitions
  of ``m`` in 1..12 (Macdonald, *Symmetric Functions and Hall Polynomials*,
  ch. I and VII) in integers, at a cost that does not grow with ``K_min``.
  It is the route :func:`moment_set`, and so every fitted model, takes.
* :func:`mgf_moments` expands the moment generating function, a determinant
  of truncated power series with integer coefficients, and reads the
  moments off its ``s**m`` coefficients.  The determinant is computed by
  fraction-free elimination over the series, in exact integers.
* :func:`exact_moment` sums the partition-sum representation over the weak
  compositions ``a_1 + ... + a_K0 = m``.  Each term is an integer: the signed
  product ``prod_{i<j} ((a_j + j) - (a_i + i))`` times rising factorials and
  ``m! / prod_j a_j!``.  A walk fills the parts column by column and drops a
  branch once two positions ``a_j + j`` repeat, where that product is 0.  One
  exact division ends the sum, up to 60,000 compositions.

All three round each exact moment once, so they agree bit for bit.  The two
cross-checks cost more as ``K_min`` grows and refuse ``K_min`` above 200
(partition sum) and 36 (MGF).  :func:`leading_order_moment` provides the
dominant term ``prod_i (K_i)_m / m!``, exact in the limit of many clusters;
it is tabulated next to the exact moments and never fitted.
"""

from __future__ import annotations

import functools
import math

from .channel import ChannelConfig, _Record
from .errors import NumericError, ParameterError, ResourceError

__all__ = [
    "MomentSet",
    "exact_moment",
    "closed_form_moment",
    "mgf_moments",
    "leading_order_moment",
    "moment_set",
    "composition_count",
]

_MAX_ORDER = 12
_COMPOSITION_CAP = 60_000  # the partition sum's composition count limit
# K_min bounds of the two cross-check routes: the slowest call each allows takes
# about 0.1 s for (200,)*4 at m = 2 and 2 s for (36,1000,1000) at m = 12 (2-core Xeon)
_K_MIN_BOUND = {"exact_moment": 200, "mgf_moments": 36}


class MomentSet(_Record):
    """Moments ``E[X^1] .. E[X^q]`` of ``X`` for one channel."""

    __slots__ = ("config", "values")  # ChannelConfig, tuple[float, ...]

    def _check(self):
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


def _order_guard(route: str, m: int, k_min: int = 1) -> None:
    if m > _MAX_ORDER:
        raise ResourceError(
            f"{route} order guard (m <= {_MAX_ORDER}) exceeded for m={m}; "
            "use leading_order_moment instead"
        )
    bound = _K_MIN_BOUND.get(route, k_min)
    if k_min > bound:
        raise ResourceError(
            f"{route} K_min guard (K_min <= {bound}) exceeded for K_min={k_min}; "
            "use closed_form_moment instead"
        )


def _to_float(value: int, config: ChannelConfig, m: int) -> float:
    """An exact moment rounded once; :class:`NumericError` past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise NumericError(
            f"E[X^{m}] for dims {config.dims} exceeds the float range"
        ) from None


@functools.lru_cache(maxsize=None)
def _partition_sum(cdims: tuple[int, ...], m: int) -> int:
    """Partition sum in exact integers (canonical dims): column ``j = 1..K0``
    with part ``a`` contributes ``prod_{i>=1} (j+nu_i)_a`` and ``C(left, a)``,
    and one exact division by ``prod_j (j-1)!`` ends the sum."""
    k0 = cdims[0]
    nu = [k - k0 for k in cdims[1:]]
    # rise[j][a] = prod_{i>=1} (j+1+nu_i)_a, the rising factorials of column j+1
    rise = [[math.prod(math.prod(range(j + v, j + v + a)) for v in nu)
             for a in range(m + 1)] for j in range(1, k0 + 1)]
    # Column j puts part a at position a + j; a repeated position makes the
    # Vandermonde factor 0, so that branch is dropped.  The stack is explicit
    # so that K0 in the thousands stays clear of the recursion limit.
    total = 0
    stack = [((), m, 1)]
    while stack:
        pos, left, term = stack.pop()
        j = len(pos)
        if j == k0:
            total += term
            continue
        for a in (left,) if j == k0 - 1 else range(left + 1):
            p = a + j
            if p not in pos:
                stack.append((pos + (p,), left - a, term * math.prod(p - q for q in pos)
                              * rise[j][a] * math.comb(left, a)))
    return total // math.prod(math.factorial(j) for j in range(k0))


def exact_moment(config: ChannelConfig, m: int) -> float:
    """``E[X^m]`` by enumerating the partition sum over weak compositions.

    The sum runs in exact integers and is rounded once.  Raises
    :class:`ResourceError` above the ``m <= 12`` order guard (suggesting
    :func:`leading_order_moment`), and above ``K_min = 200`` or 60,000
    compositions (suggesting :func:`closed_form_moment`).
    """
    m = int(m)
    if m < 1:
        raise ParameterError(f"moment order must be >= 1, got {m}")
    _order_guard("exact_moment", m, config.k_min)
    count = composition_count(m, config.k_min)
    if count > _COMPOSITION_CAP:
        raise ResourceError(
            f"partition sum guard: {count} compositions exceed "
            f"{_COMPOSITION_CAP} for dims {config.dims}, m={m}; "
            "use closed_form_moment instead"
        )
    return _to_float(_partition_sum(config.canonical_dims, m), config, m)


@functools.cache
def _partition_table(m: int) -> tuple[tuple[int, int, int, tuple[int, ...]], ...]:
    """``(f^lambda, H_lambda, rows, box contents c - r)`` for each partition of ``m``."""
    table, stack = [], [((), m, m)]  # parts so far, what is left, the largest next part
    while stack:
        parts, left, top = stack.pop()
        stack += [(parts + (p,), left - p, p) for p in range(1, min(left, top) + 1)]
        if not left:
            boxes = [(r, c) for r, p in enumerate(parts) for c in range(p)]
            cols = [sum(p > c for p in parts) for c in range(parts[0])]
            hook = math.prod(parts[r] - c + cols[c] - r - 1 for r, c in boxes)
            table.append((math.factorial(m) // hook, hook, len(parts),
                          tuple(c - r for r, c in boxes)))
    return tuple(table)


def closed_form_moment(config: ChannelConfig, m: int) -> float:
    """``E[X^m] = sum_lambda f^lambda s_lambda(1^K0) prod_{i>=1} [K_i]_lambda``, m in 1..12.

    The sum runs over the partitions ``lambda`` of ``m``, with ``[K]_lambda =
    prod_boxes (K + c - r)`` and ``s_lambda(1^K0) = [K0]_lambda / H_lambda``,
    so every term is an integer.  A partition with more rows than ``K_min``
    has a zero factor and is skipped.
    """
    m = int(m)
    if m < 1:
        raise ParameterError(f"moment order must be >= 1, got {m}")
    _order_guard("closed_form_moment", m)
    total = 0
    for f, hook, rows, contents in _partition_table(m):
        if rows <= config.k_min:
            brackets = (math.prod(k + c for c in contents) for k in config.dims)
            total += f * math.prod(brackets) // hook
    return _to_float(total, config, m)


def _bareiss(rows: list[list[list[int]]], cap: int) -> list[int]:
    """Determinant of a matrix of integer power series truncated after ``s**cap``.

    Entries are coefficient lists of length ``cap + 1``.  Bareiss's
    fraction-free elimination replaces entry (i, j) at step k by ``(a_ij
    a_kk - a_ik a_kj) / p``, with ``p`` the previous pivot.  By Sylvester's
    identity the quotient is a minor of the matrix, hence an integer series,
    and because ``p`` has a nonzero constant term, series division recovers
    it exactly.  There is no pivoting: the constant-term matrix must have
    nonzero leading principal minors, as the binomial matrix of
    :func:`_mgf_coefficients` has (they are all 1).
    """
    n = len(rows)
    prev = [1] + [0] * cap
    for k in range(n - 1):
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
    return rows[n - 1][n - 1]


@functools.lru_cache(maxsize=None)
def _mgf_coefficients(cdims: tuple[int, ...], cap: int) -> tuple[int, ...]:
    """``s**0 .. s**cap`` coefficients of the normalized MGF determinant.

    Entry (i, j) of the MGF matrix has coefficients ``(i+j+nu_1+t-2)! / t!
    * prod_{q>=2} (j+nu_q)_t``.  Row i is divided by ``(i-1)!`` and column
    j by ``(j+nu_1-1)!``, which divides the determinant by its Gram
    normalization ``prod_j Gamma(j) Gamma(j+nu_1)`` and leaves the integer
    entries ``C(i+j+nu_1+t-2, i-1) * C(j+nu_1+t-1, t) * prod_{q>=2}
    (j+nu_q)_t``.
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
    integer partition sum wherever both run.  The cost grows like
    ``K_min**3 max_m**2``, so ``K_min`` above 36 raises :class:`ResourceError`.
    """
    max_m = int(max_m)
    if max_m < 0:
        raise ParameterError(f"max_m must be >= 0, got {max_m}")
    _order_guard("mgf_moments", max_m, config.k_min)
    coeffs = _mgf_coefficients(config.canonical_dims, max_m)
    return [_to_float(c * math.factorial(m), config, m) for m, c in enumerate(coeffs)]


def leading_order_moment(config: ChannelConfig, m: int) -> float:
    """Dominant higher-moment term ``prod_i (K_i)_m / m!``."""
    m = int(m)
    if m < 1:
        raise ParameterError(f"moment order must be >= 1, got {m}")
    dims = config.dims
    total = math.comb(dims[0] + m - 1, m)  # (K0)_m / m!, an integer
    for k in dims[1:]:
        total *= math.prod(range(k, k + m))
    return _to_float(total, config, m)


def moment_set(config: ChannelConfig, q: int) -> MomentSet:
    """Exact moments ``m = 1 .. q`` from the character sum, :func:`closed_form_moment`."""
    q = int(q)
    if not 1 <= q <= _MAX_ORDER:
        raise ParameterError(
            f"q must be in 1..{_MAX_ORDER}, got {q}: "
            f"exact moments exist up to order {_MAX_ORDER}"
        )
    return MomentSet(config, tuple(closed_form_moment(config, m) for m in range(1, q + 1)))
