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
triangles ``T_i`` built with ``m = m_i``.  A draw costs ``O(n k**3)``,
independent of the cluster sizes.

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
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig
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


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Seeded draws of ``X = ||P||_F**2`` for one channel configuration."""

    config: ChannelConfig
    seed: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
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


def _triangle_chain_norm(diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``||T_n ... T_1||_F**2`` for batches of upper-triangular factors.

    ``diag[i, j]`` holds the real diagonal entry ``j`` of ``T_(i+1)`` and
    ``upper[i, t]`` its ``t``-th strict upper entry in row-major order; the
    batch axis is last, so every matrix entry is one contiguous vector and
    the product costs ``k (k+1) (k+2) / 6`` vector multiply-adds per factor.
    """
    n, k, _ = diag.shape
    pos = {rc: t for t, rc in enumerate(zip(*np.triu_indices(k, 1)))}
    entries = [(r, c) for r in range(k) for c in range(r, k)]
    prod = {(r, c): diag[0, r] if r == c else upper[0, pos[r, c]] for r, c in entries}
    for i in range(1, n):
        prod = {
            (r, c): sum(
                (upper[i, pos[r, l]] * prod[l, c] for l in range(r + 1, c + 1)),
                diag[i, r] * prod[r, c],
            )
            for r, c in entries
        }
    return sum(
        prod[r, c] ** 2 if r == c else prod[r, c].real ** 2 + prod[r, c].imag ** 2
        for r, c in entries
    )


def _frobenius_values(
    config: ChannelConfig, start: int, stop: int, seed: int
) -> np.ndarray:
    """Draws of X for sample indices ``[start, stop)``; partition-invariant."""
    dims = config.canonical_dims
    k, n = dims[0], config.n
    shapes = [m - j for m in dims[1:] for j in range(k)]
    ends = np.cumsum(shapes).tolist()
    gamma_doubles = ends[-1]
    pairs = k * (k - 1) // 2  # strict upper entries per factor
    doubles = gamma_doubles + 2 * n * pairs
    out = np.empty(stop - start)
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
        # sqrt(2) times the Bartlett factors: chi_{2(m-j)} diagonals and
        # standard normal parts, so X = ||T_n ... T_1||_F**2 / 2**n exactly
        diag = np.sqrt(-2.0 * logs[starts]).reshape(n, k, b)
        pair_rows = u[gamma_doubles:]
        upper = np.empty((n * pairs, b), dtype=complex)
        upper.real, upper.imag = _box_muller(pair_rows[0::2], pair_rows[1::2])
        chain = _triangle_chain_norm(diag, upper.reshape(n, pairs, b))
        out[s - start : s - start + b] = chain * 0.5**n
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

    Sampling exploits that, conditioned on the partial product ``A`` with
    ``K0`` columns, the next product ``H A`` equals ``G C`` in distribution,
    where ``G`` is i.i.d. complex Gaussian with ``K0`` columns and ``C^H C =
    A^H A``.  Only the ``K0 x K0`` Gram matrices of the partial products are
    ever accumulated, so the per-draw cost stays far below materializing the
    largest factor while the law of ``H`` is unchanged.

    Seed policy (common random numbers): every layer draws from its own
    Philox substream, and cluster layers are laid out entry-major with the
    sample index minor, so for a fixed seed and count a run with a smaller
    cluster uses exactly the leading sub-block of the draws of a run with a
    larger cluster, and the receive-side layer is shared outright.  KS
    distances of same-seed runs are therefore directly comparable: their
    difference reflects the convergence in the cluster size rather than
    independent resampling noise.
    """
    k0, kn, scatterers, count = int(k0), int(kn), int(scatterers), int(count)
    if k0 < 1 or kn < 1 or scatterers < 1 or count < 1:
        raise ParameterError("k0, kn, scatterers and count must all be >= 1")
    clusters = [int(math.ceil(r * scatterers - 1e-9)) for r in ratios]
    if any(c < 1 for c in clusters):
        raise ParameterError(f"ratios {list(ratios)} give empty clusters")
    scale = math.sqrt(math.prod(clusters)) if clusters else 1.0

    factor = None  # running K0 x K0 factor C with C^H C = A^H A
    for layer, rows in enumerate(clusters, start=2):
        gram = _nested_layer_gram(seed, layer, rows, k0, count)
        if factor is not None:
            gram = factor.conj().transpose(0, 2, 1) @ gram @ factor
        w, v = np.linalg.eigh(gram)
        factor = np.sqrt(np.clip(w, 0.0, None))[:, :, None] * (
            v.conj().transpose(0, 2, 1)
        )

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


def _nested_layer_gram(
    seed: int, tag: int, rows: int, k0: int, count: int
) -> np.ndarray:
    """Gram matrices ``G^H G`` of i.i.d. complex Gaussian ``rows x k0`` layers.

    Draws are indexed (entry, sample) with the sample index minor: entry
    ``t`` of sample ``i`` consumes the uniform pair at stream positions
    ``2 * (t * count + i)``.  A run with fewer rows therefore uses exactly
    the leading entries of a run with more rows (same seed and count), which
    couples different cluster sizes for common-random-number comparisons.
    The Gram is accumulated row-chunk by row-chunk, so the full layer matrix
    is never materialized.
    """
    gen = np.random.Generator(_philox(seed, tag))
    gram = np.zeros((count, k0, k0), dtype=complex)
    chunk = max(2, (_TARGET_WORDS_PER_BATCH // (2 * k0 * count) + 1) // 2 * 2)
    for r0 in range(0, rows, chunk):
        r1 = min(r0 + chunk, rows)
        u = gen.random(2 * (r1 - r0) * k0 * count).reshape(-1, count, 2)
        re, im = _box_muller(u[..., 0], u[..., 1])
        block = ((re + 1j * im) / np.sqrt(2.0)).reshape(
            r1 - r0, k0, count
        )
        block = block.transpose(2, 0, 1)  # (count, rows_chunk, k0)
        gram += np.einsum("bij,bik->bjk", block.conj(), block)
    return gram


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
