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
import struct

import numpy as np

from . import _MONTECARLO
from .channel import ChannelConfig, _check_seed, _integer, _Record
from .errors import ParameterError
from .gamma_laguerre import _horner

__all__ = sorted(_MONTECARLO)

_TARGET_WORDS_PER_BATCH = 2**18
_HEADER = struct.Struct("<8sIQQ4x")  # magic, version, count, seed; 32 bytes
_MAGIC = b"RPSAMPLE"
_VERSION = 2


class SampleSet(_Record):
    """Seeded draws of ``X = ||P||_F**2`` for one channel configuration;
    compared by identity, and its ``repr`` leaves the draws out."""

    __slots__ = _fields = ("config", "seed", "values")  # ChannelConfig, int, np.ndarray
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
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("empirical CDF needs a non-empty 1-d array of samples")
        self._sorted = np.sort(arr)
        if math.isnan(self._sorted[-1]):  # the sort puts NaN last
            raise ParameterError("empirical CDF samples must not be NaN")

    def __call__(self, x):
        if np.isnan(x).any():  # searchsorted would put NaN above every sample
            raise ParameterError("empirical CDF requires x that is not NaN")
        out = self._sorted.searchsorted(x, side="right") / self._sorted.size
        return out if out.ndim else float(out)

    def cdf(self, x):
        """Same as calling the ECDF; the distribution interface of ``ostbc``."""
        return self(x)

    def quantile(self, p: float) -> float:
        """``numpy.quantile``'s default linear method, ``0 < p < 1``; O(n) per call."""
        if not 0.0 < p < 1.0:
            raise ParameterError(f"quantile requires 0 < p < 1, got {p}")
        return float(np.quantile(self._sorted, p))


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


def _philox(seed: int, tag: int) -> np.random.Philox:
    """Independent Philox stream ``tag`` derived from the 64-bit seed."""
    return np.random.Philox(key=(seed << 16) | tag)


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

    Yields ``(s, chain)`` per batch ``[s, s + b)``: ``chain`` is a complex
    ``(k, k, b)`` array, upper triangular with exact zeros below, and its
    entry ``chain[r, c]`` is one contiguous length-``b`` vector.  The
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
    upper_rc = np.triu_indices(k, 1)
    pos = np.zeros((k, k), dtype=int)
    pos[upper_rc] = range(pairs)  # T_i[r, c] is upper[i, pos[r, c]] for r < c
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
        chain = np.zeros((k, k, b), dtype=complex)
        chain[range(k), range(k)] = diag[0]
        chain[upper_rc] = upper[0]
        for i in range(1, n):
            # in place, top-down: entry (r, c) reads only rows >= r, not yet overwritten
            for r in range(k):
                for c in range(r, k):
                    np.multiply(diag[i, r], chain[r, c], out=chain[r, c])
                    for l in range(r + 1, c + 1):
                        chain[r, c] += upper[i, pos[r, l]] * chain[l, c]
        yield s, chain


def _frobenius_values(
    config: ChannelConfig, start: int, stop: int, seed: int
) -> np.ndarray:
    """Draws of X for sample indices ``[start, stop)``, partition-invariant: the
    squared moduli of each chain's upper entries, summed row-major one at a time."""
    out = np.empty(stop - start)
    for s, chain in _triangle_chains(config, start, stop, seed):
        norm = sum(p.real**2 + p.imag**2 for r in range(len(chain)) for p in chain[r, r:])
        # the chain is sqrt(2)**n T_n ... T_1, so X is its squared norm / 2**n
        out[s - start : s - start + norm.size] = norm * 0.5**config.n
    return out


def sample_frobenius(config: ChannelConfig, count: int, seed: int) -> SampleSet:
    """``count`` seeded draws of ``X = ||H_n ... H_1||_F**2``."""
    count = _integer(count, "count", 1)
    seed = _check_seed(seed)
    values = _frobenius_values(config, 0, count, seed)
    values.setflags(write=False)
    return SampleSet(config=config, seed=seed, values=values)


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
    k0, kn, scatterers, count = (_integer(value, name, 1) for value, name in (
        (k0, "k0"), (kn, "kn"), (scatterers, "scatterers"), (count, "count")))
    seed = _check_seed(seed)
    sizes = [r * scatterers - 1e-9 for r in ratios]
    if not all(map(math.isfinite, sizes)):  # NaN fails too
        raise ParameterError(f"ratios must be finite, got {list(ratios)}")
    clusters = [math.ceil(size) for size in sizes]
    if any(c < k0 for c in clusters):
        raise ParameterError(
            f"ratios {list(ratios)} give clusters {clusters}; each needs at least k0 = {k0}"
        )

    # Receive layer: Box-Muller normals interleaved per sample, the first
    # kn * k0 of them real parts and the rest imaginary parts.
    entries = kn * k0
    batch = max(1, _TARGET_WORDS_PER_BATCH // (2 * entries))
    pool = np.empty((count, 2, kn, k0))  # draw i's real and imaginary parts at pool[i]
    for s in range(0, count, batch):
        b = min(batch, count - s)
        u = _uniform_rows(seed, s, b, 2 * entries, tag=1)
        z = pool[s : s + b].reshape(b, 2 * entries)
        z[:, 0::2], z[:, 1::2] = _box_muller(u[:, 0::2], u[:, 1::2])
        if clusters:  # times T_m ... T_1 of the same draws, row-major as BLAS takes it
            for c, chain in _triangle_chains(ChannelConfig((k0, *clusters)), s, s + b, seed):
                g = pool[c : c + chain.shape[2]]
                p = (g[:, 0] + 1j * g[:, 1]) @ np.ascontiguousarray(chain.transpose(2, 0, 1))
                g[:, 0], g[:, 1] = p.real, p.imag
    # G's parts have unit variance; undo each chain factor's sqrt(2) and P's cluster sizes
    pool *= (2.0 ** len(clusters) * math.prod(clusters)) ** -0.5
    # The statistic sorts its input, so the pool order is immaterial.
    return _ks_normal_statistic(pool.ravel())


# cephes ndtr.c coefficients as cephes lists them, highest power first (Q, S and
# U are monic), reversed for _horner
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)[::-1]
_NDTR_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)[::-1]
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)[::-1]
_NDTR_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)[::-1]
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)[::-1]
_NDTR_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)[::-1]
_SQRT1_2, _MAXLOG = 7.07106781186547524401E-1, 7.09782712893383996843E2  # log(DBL_MAX)


def _erf(x: np.ndarray) -> np.ndarray:
    """cephes ``erf`` for ``|x| <= 1``; odd in ``x`` bit for bit."""
    return x * _horner(_NDTR_T, x * x) / _horner(_NDTR_U, x * x)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF with the bits of ``scipy.special.ndtr``, a
    term-for-term port of cephes: with ``x = a / sqrt(2)`` and ``z = |x|``,
    ``(1 + erf(x)) / 2`` below ``z = 1/sqrt(2)``, else ``erfc(z) / 2``
    reflected for ``x > 0``.  ``erfc(z)`` is ``1 - erf(z)`` below 1,
    ``exp(-z**2)`` times ``P/Q`` below 8 and ``R/S`` from 8 on, and 0 once
    ``z**2`` passes ``MAXLOG``.  ``math.exp`` is libm's, as in scipy;
    numpy's SIMD ``exp`` rounds some points differently."""
    x = a * _SQRT1_2
    z = np.abs(x)
    y = np.where(z >= 27.0, 0.0, np.nan)  # 27**2 > MAXLOG; NaN stays NaN
    mid = (z >= _SQRT1_2) & (z < 1.0)
    y[mid] = 0.5 * (1.0 - _erf(z[mid]))
    tail = (z >= 1.0) & (z < 27.0)
    t = z[tail]
    e = np.array([math.exp(-v) if v <= _MAXLOG else 0.0 for v in (t * t).tolist()])
    y[tail] = 0.5 * np.where(t < 8.0, e * _horner(_NDTR_P, t) / _horner(_NDTR_Q, t),
                             e * _horner(_NDTR_R, t) / _horner(_NDTR_S, t))
    y = np.where(x > 0.0, 1.0 - y, y)
    small = z < _SQRT1_2
    y[small] = 0.5 + 0.5 * _erf(x[small])
    return y


def _ks_normal_statistic(values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic against the standard normal.

    ``max(D+, D-)`` over the sorted values, with the same arithmetic as
    ``scipy.stats.kstest(values, "norm").statistic``.
    """
    x = np.sort(values)
    d = []
    for lo in range(0, x.size, 2**16):  # slices bound _ndtr's per-element lists
        cdf = _ndtr(x[lo : lo + 2**16])
        ranks = np.arange(lo, lo + cdf.size, dtype=float)
        d += [((ranks + 1.0) / x.size - cdf).max(), (cdf - ranks / x.size).max()]
    return float(np.max(d))  # not max(): a NaN must propagate


def save_samples(samples: SampleSet, path) -> None:
    """Write a SampleSet as a 32-byte header plus little-endian float64 values."""
    header = _HEADER.pack(_MAGIC, _VERSION, samples.count, samples.seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(samples.values, dtype="<f8").tobytes())


def load_samples(path, config: ChannelConfig) -> SampleSet:
    """Read a SampleSet written by :func:`save_samples`.

    The file header stores only count and seed, so the channel configuration
    must be supplied by the caller.  A bad header or a payload of the wrong
    length raises :class:`ParameterError` naming the path.
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
    if len(raw) != 8 * count:
        raise ParameterError(f"{path}: header promises {count} samples ({8 * count} "
                             f"bytes), file holds {len(raw)} bytes")
    values = np.frombuffer(raw, dtype="<f8")
    values = values.astype(float)
    values.setflags(write=False)
    return SampleSet(config=config, seed=seed, values=values)
