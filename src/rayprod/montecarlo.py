"""Seeded Monte-Carlo simulation of the product channel.

Sampler
-------
The law of ``X = ||H_n ... H_1||_F**2`` is invariant under rotating the
dims, so draws use ``config.canonical_dims = (k, m_1, ..., m_n)`` with
``k = K_min`` first and every ``m_i >= k``.  An ``m x k`` complex Gaussian
matrix is ``Q T`` with ``Q`` an isometry and ``T`` a ``k x k`` Bartlett
triangle: diagonal entry ``j`` is ``sqrt(Gamma(m - j, 1))``, the strict
upper part is i.i.d. CN(0, 1), all independent of ``Q``.  By unitary
invariance the next factor times ``Q`` is again Gaussian and independent
of ``T``, so ``X`` has the law of ``||T_n ... T_1||_F**2`` with independent
triangles ``T_i`` built with ``m = m_i``.  The triangle chain costs
``O(n k**3)`` per draw, but the Gamma diagonals read ``sum_i sum_{j<k} (m_i
- j)`` uniforms, so a draw still grows with the cluster sizes: on a 2-core
Xeon, 10^5 draws take about 0.1 / 0.3 / 4.3 s at (2,6,8,4) / (2,30,40,4) /
(2,300,400,4).  ``rayleigh_limit_distance`` takes its cluster layers from
the same chain, as the matrix ``T_n ... T_1`` in place of its norm.

Reproducibility contract (sample file version 2)
------------------------------------------------
Draws come from counter-based Philox streams keyed by the seed.  Sample
``i`` owns the uniform doubles at absolute stream positions ``[i * D4, (i+1)
* D4)`` where ``D4`` is the per-sample double count ``D`` rounded up to a
multiple of four (one Philox block is four 64-bit words), and

    D = sum_i sum_{j<k} (m_i - j) + n k (k - 1).

Within a sample the first part feeds the diagonals, factor by factor and
``j = 0 .. k-1`` within a factor: ``Gamma(a, 1) = -sum log(1 - u)`` over the
next ``a`` uniforms (``1 - u`` is exact for the 53-bit uniforms).  The rest
feeds the strict upper parts, factor by factor in row-major order, one
uniform pair ``(u1, u2)`` per entry through the Box-Muller transform
``(re, im) = (r cos(2 pi u2), r sin(2 pi u2)) / sqrt(2)`` with ``r =
sqrt(-2 log(1 - u1))``.

Because stream positions depend only on the sample index, any partition of
the index range generates bit-identical values, independent of batch or
worker layout.

Batches
-------
The sampler walks the index range in cache-sized batches of about
``_TARGET_WORDS_PER_BATCH`` uniform doubles (2 MB) and reuses one uniform
buffer and one batch-minor buffer of that size for every batch.  Its working
memory therefore does not depend on the draw count (only the output of 8
bytes per draw does), and by the contract above the output does not depend
on the batch size.
"""

from __future__ import annotations

import math
import operator
import struct

import numpy as np

from .channel import ChannelConfig, _Record
from .errors import ParameterError

__all__ = [
    "SampleSet",
    "Ecdf",
    "sample_frobenius",
    "variance_recursion",
    "rayleigh_limit_distance",
    "save_samples",
    "load_samples",
]

_TARGET_WORDS_PER_BATCH = 2**18
_HEADER = struct.Struct("<8sIQQ4x")  # magic, version, count, seed; 32 bytes
_MAGIC = b"RPSAMPLE"
_VERSION = 2


class SampleSet(_Record):
    """Seeded draws of ``X = ||P||_F**2`` for one channel configuration;
    compared by identity, and its ``repr`` leaves the draws out."""

    __slots__ = ("config", "seed", "values")  # ChannelConfig, int, np.ndarray
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"SampleSet(config={self.config!r}, seed={self.seed!r})"

    def _check(self):
        _check_seed(self.seed)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ParameterError("values must be a non-empty 1-d array")

    @property
    def count(self) -> int:
        return self.values.size


class Ecdf:
    """Right-continuous empirical CDF: ``F(x) = #{samples <= x} / count``."""

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ParameterError("empirical CDF needs at least one sample")
        if math.isnan(arr[-1]):  # the sort puts NaN last
            raise ParameterError("empirical CDF samples must not be NaN")
        self._sorted = arr

    def __call__(self, x):
        if type(x) is float:  # the outage maps' per-point call skips numpy's dispatch
            return int(self._sorted.searchsorted(x, side="right")) / self._sorted.size
        idx = np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="right")
        out = idx / self._sorted.size
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def cdf(self, x):
        """Same as calling the ECDF; the distribution interface of ``ostbc``."""
        return self(x)

    def quantile(self, p: float) -> float:
        """Linearly interpolated sample quantile, ``0 < p < 1``, as ``numpy.quantile``."""
        if not 0.0 < p < 1.0:
            raise ParameterError(f"quantile requires 0 < p < 1, got {p}")
        v = self._sorted
        h = (v.size - 1) * p
        i = math.floor(h)
        a, b = float(v[i]), float(v[min(i + 1, v.size - 1)])
        t, d = h - i, b - a
        return b - d * (1.0 - t) if t >= 0.5 else a + d * t


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent standard normals ``(r cos(2 pi u2), r sin(2 pi u2))``.

    ``r = sqrt(-2 log(1 - u1))``.  Cosine and sine come from the half-angle
    tangent ``t = tan(pi u2)`` as ``(1 - t**2, 2 t) / (1 + t**2)``: one
    tangent is several times cheaper than numpy's float64 cosine and sine,
    and the formula is stable over the whole circle (``t`` stays finite
    because no double equals ``pi / 2``).
    """
    t = np.tan(np.pi * u2)
    scale = np.sqrt(-2.0 * np.log(1.0 - u1)) / (1.0 + t * t)
    return scale * (1.0 - t * t), scale * (2.0 * t)


def _check_seed(seed) -> int:
    """``seed`` as an int; anything but an integer in ``[0, 2**64)`` is refused."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if not 0 <= value < 2**64:
        raise ParameterError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return value


def _philox(seed: int, tag: int) -> np.random.Philox:
    """Independent Philox stream ``tag`` derived from the 64-bit seed."""
    return np.random.Philox(key=(_check_seed(seed) << 16) | tag)


def _padded(doubles: int) -> int:
    """Per-sample stream length ``D4``: ``doubles`` rounded up to whole Philox blocks."""
    return (doubles + 3) // 4 * 4


def _uniform_rows(
    seed: int, start: int, count: int, doubles: int, tag: int = 0, out=None
) -> np.ndarray:
    """Uniform doubles for samples ``start .. start+count-1``, ``doubles`` each.

    Sample ``i`` reads stream positions ``[i * D4, i * D4 + doubles)`` with
    ``D4`` the double count rounded up to whole Philox blocks.  The rows are
    a view of ``out`` (a flat buffer of at least ``count * D4`` doubles)
    when it is given.
    """
    d4 = _padded(doubles)
    bitgen = _philox(seed, tag)
    if start:
        bitgen.advance(start * (d4 // 4))
    buf = np.empty(count * d4) if out is None else out[: count * d4]
    np.random.Generator(bitgen).random(out=buf)
    return buf.reshape(count, d4)[:, :doubles]


def _triangle_chains(config: ChannelConfig, start: int, stop: int, seed: int):
    """Chains ``sqrt(2)**n T_n ... T_1`` for sample indices ``[start, stop)``.

    Yields ``(s, prod)`` per batch ``[s, s + b)``: ``prod[r, c]``, ``r <=
    c``, holds entry ``(r, c)`` of the batch's chains as one contiguous
    length-``b`` vector (real on the diagonal), in row-major order.  The
    ``sqrt(2)`` per factor is that of the chi diagonals and standard normal
    upper parts; the product costs ``k (k+1) (k+2) / 6`` vector
    multiply-adds per factor.
    """
    dims = config.canonical_dims
    k, n = dims[0], config.n
    shapes = [m - j for m in dims[1:] for j in range(k)]
    ends = np.cumsum(shapes).tolist()
    gamma_doubles = ends[-1]
    pairs = k * (k - 1) // 2  # strict upper entries per factor
    doubles = gamma_doubles + 2 * n * pairs
    pos = {rc: t for t, rc in enumerate(zip(*np.triu_indices(k, 1)))}
    entries = [(r, c) for r in range(k) for c in range(r, k)]
    batch = max(1, min(_TARGET_WORDS_PER_BATCH // doubles, stop - start))
    rows_buf = np.empty(batch * _padded(doubles))
    u_buf = np.empty(batch * doubles)
    starts = [0] + ends[:-1]
    for s in range(start, stop, batch):
        b = min(batch, stop - s)
        rows = _uniform_rows(seed, s, b, doubles, out=rows_buf)
        # batch-minor copy, one contiguous row per stream position; a prefix
        # of the buffer, so a short last batch keeps every ufunc operand
        # contiguous (numpy may pick another SIMD loop for strided ones)
        u = u_buf[: doubles * b].reshape(doubles, b)
        u[...] = rows.T
        logs = u[:gamma_doubles]
        np.subtract(1.0, logs, out=logs)
        np.log(logs, out=logs)
        # row by row in a fixed order: numpy's reductions sum pairwise along
        # a single row, so a batch of one sample would round differently
        for lo, hi in zip(starts, ends):
            for r in range(lo + 1, hi):
                np.add(logs[lo], logs[r], out=logs[lo])
        diag = np.sqrt(-2.0 * logs[starts]).reshape(n, k, b)
        pair_rows = u[gamma_doubles:]
        upper = np.empty((n * pairs, b), dtype=complex)
        upper.real, upper.imag = _box_muller(pair_rows[0::2], pair_rows[1::2])
        upper = upper.reshape(n, pairs, b)
        prod = {(r, c): diag[0, r] if r == c else upper[0, pos[r, c]] for r, c in entries}
        for i in range(1, n):
            prod = {
                (r, c): sum(
                    (upper[i, pos[r, l]] * prod[l, c] for l in range(r + 1, c + 1)),
                    diag[i, r] * prod[r, c],
                )
                for r, c in entries
            }
        yield s, prod


def _frobenius_values(
    config: ChannelConfig, start: int, stop: int, seed: int
) -> np.ndarray:
    """Draws of X for sample indices ``[start, stop)``; partition-invariant."""
    out = np.empty(stop - start)
    for s, prod in _triangle_chains(config, start, stop, seed):
        chain = sum(
            p**2 if r == c else p.real**2 + p.imag**2 for (r, c), p in prod.items()
        )
        # the chain is sqrt(2)**n T_n ... T_1, so X is its squared norm / 2**n
        out[s - start : s - start + chain.size] = chain * 0.5**config.n
    return out


def sample_frobenius(config: ChannelConfig, count: int, seed: int) -> SampleSet:
    """``count`` seeded draws of ``X = ||H_n ... H_1||_F**2``."""
    count = int(count)
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    values = _frobenius_values(config, 0, count, seed)
    values.setflags(write=False)
    return SampleSet(config=config, seed=int(seed), values=values)


def variance_recursion(config: ChannelConfig) -> list[tuple[int, float, float, float]]:
    """Analytic mean and variance of ``Y_n = X / (K0 * N)`` per prefix.

    Returns rows ``(n, mean, variance, increment)`` for ``n = 1 ..
    config.n``.  The mean is identically one; the variance grows by

        (1 / (2 K_n)) * (prod_{i<n} (1 + 1/K_i) - prod_{i<n} (1 - 1/K_i))

    at every added factor, so it is strictly increasing in ``n``.
    """
    dims = config.dims
    rows = []
    variance = 0.0
    for n in range(1, config.n + 1):
        plus = math.prod(1.0 + 1.0 / k for k in dims[:n])
        minus = math.prod(1.0 - 1.0 / k for k in dims[:n])
        increment = (plus - minus) / (2.0 * dims[n])
        variance += increment
        rows.append((n, 1.0, variance, increment))
    return rows


def rayleigh_limit_distance(
    k0: int,
    kn: int,
    scatterers: int,
    ratios,
    count: int,
    seed: int,
) -> float:
    """KS distance of the normalized product channel entries to a standard normal.

    Builds ``H = P_n / sqrt(prod of cluster sizes)`` for the configuration
    ``[k0, ceil(r_1 * scatterers), ..., ceil(r_m * scatterers), kn]``, pools
    real and imaginary parts of all entries of all ``count`` draws scaled by
    ``sqrt(2)``, and returns the Kolmogorov-Smirnov statistic against the
    standard normal CDF.  As the scatterer count grows the entries approach
    i.i.d. complex Gaussians and the distance falls at rate
    ``scatterers**-0.5``.

    Every cluster must hold at least ``k0`` scatterers.  The cluster layers
    then multiply to ``Q T_m ... T_1`` with ``Q`` an isometry and ``T_i``
    the Bartlett triangles of ``ChannelConfig((k0, c_1, ..., c_m))``, and
    the receive layer times ``Q`` is again i.i.d. Gaussian, so ``P`` has the
    law of ``G T_m ... T_1`` with a ``kn x k0`` Gaussian ``G``: no matrix
    larger than ``kn x k0`` is ever drawn.

    Seed policy: the triangles are exactly the draws behind
    ``sample_frobenius(ChannelConfig((k0, c_1, ..., c_m)), count, seed)``,
    and the receive layer reads a Philox substream of its own that does not
    depend on the clusters.  Runs with the same seed and count therefore
    share their receive layer, so the KS distances of runs with different
    scatterer counts differ by the cluster layers alone.  Cluster layers of
    different sizes are not nested: the per-sample stream layout of the
    triangles depends on the sizes.
    """
    k0, kn, scatterers, count = int(k0), int(kn), int(scatterers), int(count)
    if k0 < 1 or kn < 1 or scatterers < 1 or count < 1:
        raise ParameterError("k0, kn, scatterers and count must all be >= 1")
    clusters = [int(math.ceil(r * scatterers - 1e-9)) for r in ratios]
    if any(c < k0 for c in clusters):
        raise ParameterError(
            f"ratios {list(ratios)} give clusters {clusters}; each needs at least k0 = {k0}"
        )
    scale = math.sqrt(math.prod(clusters)) if clusters else 1.0

    factor = None  # the k0 x k0 product T_m ... T_1 of every draw
    if clusters:
        factor = np.zeros((count, k0, k0), dtype=complex)
        for s, prod in _triangle_chains(ChannelConfig((k0, *clusters)), 0, count, seed):
            for (r, c), entry in prod.items():
                factor[s : s + entry.size, r, c] = entry
        factor *= 2.0 ** (-len(clusters) / 2)

    # Receive layer: Box-Muller normals interleaved per sample, the first
    # kn * k0 of them real parts and the rest imaginary parts.
    entries = kn * k0
    batch = max(1, _TARGET_WORDS_PER_BATCH // (2 * entries))
    parts = []
    for s in range(0, count, batch):
        b = min(batch, count - s)
        u = _uniform_rows(seed, s, b, 2 * entries, tag=1)
        z = np.empty_like(u)
        z[:, 0::2], z[:, 1::2] = _box_muller(u[:, 0::2], u[:, 1::2])
        g_rx = (z[:, :entries] + 1j * z[:, entries:]).reshape(-1, kn, k0) / np.sqrt(2.0)
        h = (g_rx if factor is None else g_rx @ factor[s : s + b]) / scale
        parts += [h.real.ravel(), h.imag.ravel()]
    # The statistic sorts its input, so the pool order is immaterial.
    return _ks_normal_statistic(np.concatenate(parts) * np.sqrt(2.0))


def _ks_normal_statistic(values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the standard normal.

    ``max(D+, D-)`` over the sorted values, with the same arithmetic as
    ``scipy.stats.kstest(values, "norm").statistic``.
    """
    # Imported here so that importing the package does not load scipy.
    from scipy.special import ndtr

    x = np.sort(values)
    n = x.size
    cdf = ndtr(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def save_samples(samples: SampleSet, path) -> None:
    """Write a SampleSet as a 32-byte header plus little-endian float64 values."""
    header = _HEADER.pack(_MAGIC, _VERSION, samples.count, samples.seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(samples.values, dtype="<f8").tobytes())


def load_samples(path, config: ChannelConfig) -> SampleSet:
    """Read a SampleSet written by :func:`save_samples`.

    The file header stores only count and seed, so the channel configuration
    must be supplied by the caller.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ParameterError(f"{path}: truncated sample file header")
        magic, version, count, seed = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ParameterError(f"{path}: not a sample file (bad magic {magic!r})")
        if version != _VERSION:
            raise ParameterError(f"{path}: unsupported sample file version {version}")
        raw = fh.read()
    values = np.frombuffer(raw, dtype="<f8")
    if values.size != count:
        raise ParameterError(
            f"{path}: header promises {count} samples, file holds {values.size}"
        )
    values = values.astype(float)
    values.setflags(write=False)
    return SampleSet(config=config, seed=seed, values=values)
