"""Seeded Monte-Carlo simulation of the product channel.

Reproducibility contract
------------------------
Draws come from counter-based Philox streams keyed by ``(seed << 1) |
substream``.  Sample ``i`` owns the uniform doubles at absolute stream
positions ``[i * D4, (i+1) * D4)`` where ``D4`` is the per-sample double
count rounded up to a multiple of four (one Philox block is four 64-bit
words).  Normals are produced from consecutive uniform pairs ``(u1, u2)``
by the Box-Muller transform ``r = sqrt(-2 log(1 - u1))``, ``z = (r cos(2 pi
u2), r sin(2 pi u2))``, which consumes a fixed number of uniforms per
normal.  Within a sample the normals fill the factor matrices in order
``H_1 .. H_n``, one matrix at a time, all real parts row-major first, then
all imaginary parts.

Because stream positions depend only on the sample index, any partition of
the index range generates bit-identical values, independent of batch or
worker layout.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

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

_TARGET_WORDS_PER_BATCH = 4_000_000
_HEADER = struct.Struct("<8sIQQ4x")  # magic, version, count, seed; 32 bytes
_MAGIC = b"RPSAMPLE"
_VERSION = 1


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Seeded draws of ``X = ||P||_F**2`` for one channel configuration."""

    config: ChannelConfig
    seed: int
    count: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.count < 1:
            raise ParameterError(f"count must be >= 1, got {self.count}")
        if self.values.shape != (self.count,):
            raise ParameterError("values length must equal count")


class Ecdf:
    """Right-continuous empirical CDF: ``F(x) = #{samples <= x} / count``."""

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float))
        if arr.size == 0:
            raise ParameterError("empirical CDF needs at least one sample")
        self._sorted = arr

    @classmethod
    def from_samples(cls, samples: SampleSet) -> "Ecdf":
        return cls(samples.values)

    @property
    def sorted_values(self) -> np.ndarray:
        return self._sorted

    def __call__(self, x):
        idx = np.searchsorted(self._sorted, np.asarray(x, dtype=float), side="right")
        out = idx / self._sorted.size
        return float(out) if np.isscalar(x) or out.ndim == 0 else out

    def cdf(self, x):
        """Same as calling the ECDF; the distribution interface of ``ostbc``."""
        return self(x)

    def quantile(self, p: float) -> float:
        """Linearly interpolated sample quantile (``numpy.quantile``), ``0 < p < 1``."""
        if not 0.0 < p < 1.0:
            raise ParameterError(f"quantile requires 0 < p < 1, got {p}")
        return float(np.quantile(self._sorted, p))


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from uniform pairs along the last axis (even length)."""
    u1 = u[..., 0::2]
    u2 = u[..., 1::2]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = (2.0 * np.pi) * u2
    z = np.empty_like(u)
    z[..., 0::2] = radius * np.cos(angle)
    z[..., 1::2] = radius * np.sin(angle)
    return z


def _philox(seed: int, tag: int) -> np.random.Philox:
    """Independent Philox stream ``tag`` derived from the 64-bit seed."""
    return np.random.Philox(key=((seed & (2**64 - 1)) << 16) | tag)


def _normal_rows(
    seed: int, start: int, count: int, doubles: int, tag: int = 0
) -> np.ndarray:
    """Standard normals for samples ``start .. start+count-1``, ``doubles`` each."""
    d4 = ((doubles + 3) // 4) * 4
    bitgen = _philox(seed, tag)
    if start:
        bitgen.advance(start * (d4 // 4))
    u = np.random.Generator(bitgen).random(count * d4).reshape(count, d4)[:, :doubles]
    return _box_muller(u)


def _complex_block(z: np.ndarray, offset: int, rows: int, cols: int):
    """Unit-variance complex Gaussian matrices from a block of normals."""
    cnt = rows * cols
    re = z[:, offset : offset + cnt].reshape(-1, rows, cols)
    im = z[:, offset + cnt : offset + 2 * cnt].reshape(-1, rows, cols)
    return (re + 1j * im) / np.sqrt(2.0), offset + 2 * cnt


def _frobenius_values(
    config: ChannelConfig, start: int, stop: int, seed: int
) -> np.ndarray:
    """Draws of X for sample indices ``[start, stop)``; partition-invariant."""
    dims = config.dims
    layer_sizes = [(dims[i], dims[i - 1]) for i in range(1, len(dims))]
    doubles = 2 * sum(r * c for r, c in layer_sizes)
    out = np.empty(stop - start)
    batch = max(1, _TARGET_WORDS_PER_BATCH // max(doubles, 1))
    for s in range(start, stop, batch):
        b = min(batch, stop - s)
        z = _normal_rows(seed, s, b, doubles)
        offset = 0
        prod = None
        for rows, cols in layer_sizes:
            h, offset = _complex_block(z, offset, rows, cols)
            prod = h if prod is None else h @ prod
        out[s - start : s - start + b] = np.einsum(
            "bij,bij->b", prod, prod.conj()
        ).real
    return out


def sample_frobenius(config: ChannelConfig, count: int, seed: int) -> SampleSet:
    """``count`` seeded draws of ``X = ||H_n ... H_1||_F**2``."""
    count = int(count)
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    values = _frobenius_values(config, 0, count, seed)
    values.setflags(write=False)
    return SampleSet(config=config, seed=int(seed), count=count, values=values)


def variance_recursion(
    config: ChannelConfig, upto_n: int | None = None
) -> list[tuple[int, float, float, float]]:
    """Analytic mean and variance of ``Y_n = X / (K0 * N)`` per prefix.

    Returns rows ``(n, mean, variance, increment)`` for ``n = 1 ..
    upto_n``.  The mean is identically one; the variance grows by

        (1 / (2 K_n)) * (prod_{i<n} (1 + 1/K_i) - prod_{i<n} (1 - 1/K_i))

    at every added factor, so it is strictly increasing in ``n``.
    """
    upto = config.n if upto_n is None else int(upto_n)
    if not 1 <= upto <= config.n:
        raise ParameterError(f"upto_n must be in 1..{config.n}, got {upto}")
    dims = config.dims
    rows = []
    variance = 0.0
    for n in range(1, upto + 1):
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

    doubles_rx = 2 * k0 * kn
    pooled = np.empty(doubles_rx * count)
    batch = max(1, _TARGET_WORDS_PER_BATCH // doubles_rx)
    pos = 0
    for s in range(0, count, batch):
        b = min(batch, count - s)
        z_rx = _normal_rows(seed, s, b, doubles_rx, tag=1)
        g_rx, _ = _complex_block(z_rx, 0, kn, k0)
        h = (g_rx if factor is None else g_rx @ factor[s : s + b]) / scale
        flat = h.reshape(b, -1)
        block = np.empty((b, doubles_rx))
        block[:, : doubles_rx // 2] = flat.real * np.sqrt(2.0)
        block[:, doubles_rx // 2 :] = flat.imag * np.sqrt(2.0)
        pooled[pos : pos + b * doubles_rx] = block.ravel()
        pos += b * doubles_rx
    return _ks_normal_statistic(pooled)


def _ks_normal_statistic(values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the standard normal.

    ``max(D+, D-)`` over the sorted values, with the same arithmetic as
    ``scipy.stats.kstest(values, "norm").statistic``.
    """
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
        z = _box_muller(u)
        block = ((z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)).reshape(
            r1 - r0, k0, count
        )
        block = block.transpose(2, 0, 1)  # (count, rows_chunk, k0)
        gram += np.einsum("bij,bik->bjk", block.conj(), block)
    return gram


def save_samples(samples: SampleSet, path) -> None:
    """Write a SampleSet as a 32-byte header plus little-endian float64 values."""
    header = _HEADER.pack(
        _MAGIC, _VERSION, samples.count, samples.seed & (2**64 - 1)
    )
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
    return SampleSet(config=config, seed=seed, count=count, values=values)
