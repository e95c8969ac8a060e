import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammainc, ndtr
from scipy.stats import ks_2samp, kstest

import rayprod
import rayprod.montecarlo as montecarlo
from rayprod import (
    ChannelConfig,
    Ecdf,
    ParameterError,
    closed_form_moment,
    exact_moment,
    load_samples,
    rayleigh_limit_distance,
    sample_frobenius,
    save_samples,
    variance_recursion,
)
from rayprod.montecarlo import (
    _box_muller,
    _frobenius_values,
    _ks_normal_statistic,
    _ndtr,
    _triangle_chains,
    _uniform_rows,
)


def _dense_reference(dims, count, seed):
    """Draws of X from an explicit product ``H_n @ ... @ H_1`` of Gaussian matrices."""
    rng = np.random.default_rng(seed)
    prod = None
    for rows, cols in zip(dims[1:], dims[:-1]):
        shape = (count, rows, cols)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
        prod = h if prod is None else h @ prod
    return np.sum(np.abs(prod) ** 2, axis=(1, 2))


def _stream_chains(config, count, seed):
    """``sqrt(2)**n T_n ... T_1`` per draw, rebuilt from the version-2 stream
    layout one uniform at a time, with ``cos``/``sin`` Box-Muller and matmul."""
    k, ms = config.canonical_dims[0], config.canonical_dims[1:]
    doubles = sum(m - j for m in ms for j in range(k)) + len(ms) * k * (k - 1)
    chains = []
    for row in _uniform_rows(seed, 0, count, doubles):
        u = iter(row.tolist())
        factors = []  # every factor's diagonal first, then every factor's upper part
        for m in ms:
            chi = [math.sqrt(-2.0 * sum(math.log(1.0 - next(u)) for _ in range(m - j)))
                   for j in range(k)]
            factors.append(np.diag(chi).astype(complex))
        chain = np.eye(k)
        for t in factors:
            for r, c in zip(*np.triu_indices(k, 1)):
                radius = math.sqrt(-2.0 * math.log(1.0 - next(u)))
                angle = 2.0 * math.pi * next(u)
                t[r, c] = complex(radius * math.cos(angle), radius * math.sin(angle))
            chain = t @ chain
        chains.append(chain)
    return chains


class TestSampleFrobenius:
    @pytest.mark.parametrize("dims", [(2, 3, 4), (4, 8, 8, 4)])
    def test_chain_is_the_triangle_product(self, dims):
        # matmul adds in another order than the walker, hence rtol
        config = ChannelConfig(dims)
        k = config.canonical_dims[0]
        expected = _stream_chains(config, 6, 5)
        for start, stop in [(0, 5), (5, 6)]:  # a batch of five, then one of one
            for s, chain in _triangle_chains(config, start, stop, 5):
                assert chain.dtype == complex and chain.shape == (k, k, stop - start)
                assert np.all(chain[np.tril_indices(k, -1)] == 0.0)
                for j in range(chain.shape[2]):
                    np.testing.assert_allclose(chain[..., j], expected[s + j], rtol=1e-12)

    def test_scalar_channel_is_exponential(self):
        samples = sample_frobenius(ChannelConfig((1, 1)), 10**6, 0)
        v = samples.values
        se = v.std(ddof=1) / math.sqrt(v.size)
        assert abs(v.mean() - 1.0) <= 4.0 * se
        assert kstest(v, "expon").pvalue > 0.001

    def test_moments_match_closed_form(self):
        for dims in [(2, 3, 4), (1, 5, 2, 3)]:
            config = ChannelConfig(dims)
            v = sample_frobenius(config, 10**6, 1).values
            for m in (1, 2, 3):
                powers = v**m
                se = powers.std(ddof=1) / math.sqrt(v.size)
                assert abs(powers.mean() - closed_form_moment(config, m)) <= 4.0 * se

    def test_deterministic(self):
        config = ChannelConfig((2, 3))
        a = sample_frobenius(config, 5000, 42)
        b = sample_frobenius(config, 5000, 42)
        assert np.array_equal(a.values, b.values)

    def test_partition_independent(self):
        # per-index counter streams: any split reproduces the full run
        config = ChannelConfig((2, 3, 4))
        whole = _frobenius_values(config, 0, 2000, 7)
        parts = np.concatenate(
            [
                _frobenius_values(config, 0, 123, 7),
                _frobenius_values(config, 123, 1500, 7),
                _frobenius_values(config, 1500, 2000, 7),
            ]
        )
        assert np.array_equal(whole, parts)

    def test_pinned_values(self):
        # the version-2 stream: any change to its layout moves these far
        # beyond rel 1e-12; last-bit differences between SIMD loops do not.
        # (2,30,40,4) at 5000 draws spans three batches of 1736.
        for dims, count, pins in [
            ((2, 7, 8, 4), 10, {0: 327.76268315234665, 9: 1220.6050212625141}),
            ((4, 2, 7), 10, {0: 41.9732000198932, 9: 58.113364515378755}),
            ((2, 30, 40, 4), 5000,
             {0: 16657.937426535664, 1736: 7773.972707181405, 4999: 9761.905356878615}),
        ]:
            v = sample_frobenius(ChannelConfig(dims), count, 3).values
            for i, pin in pins.items():
                assert v[i] == pytest.approx(pin, rel=1e-12), (dims, i)

    @pytest.mark.parametrize("dims", [(4, 2, 7), (3, 1, 4), (8, 7, 8, 4)])
    def test_rotated_moments_match_exact(self, dims):
        # K_min is not the first dim: the sampler works on the rotation
        config = ChannelConfig(dims)
        v = sample_frobenius(config, 2 * 10**5, 11).values
        for m in (1, 2, 3, 4):
            powers = v**m
            se = powers.std(ddof=1) / math.sqrt(v.size)
            assert abs(powers.mean() - float(exact_moment(config, m))) <= 4.0 * se

    @pytest.mark.parametrize("dims", [(4, 2, 7), (2, 7, 8, 4)])
    def test_matches_dense_reference(self, dims):
        config = ChannelConfig(dims)
        v = sample_frobenius(config, 20_000, 5).values
        assert ks_2samp(v, _dense_reference(dims, 20_000, 5)).pvalue > 0.001

    @pytest.mark.parametrize("dims", [(4, 2, 7), (2, 30, 40, 4)])
    def test_partition_across_batches(self, dims, monkeypatch):
        config = ChannelConfig(dims)
        whole = _frobenius_values(config, 0, 40, 3)
        for words in (1, 100, 700):  # one sample per batch, then a few
            monkeypatch.setattr(montecarlo, "_TARGET_WORDS_PER_BATCH", words)
            parts = [_frobenius_values(config, a, b, 3)
                     for a, b in [(0, 1), (1, 6), (6, 23), (23, 40)]]
            assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("dims", [(2, 30, 40, 4), (4, 8, 8, 8, 4)])
    def test_batches_match_one_batch(self, dims, monkeypatch):
        # 5000 draws span several batches; the old 4e6-word batch held them all
        config = ChannelConfig(dims)
        batched = _frobenius_values(config, 0, 5000, 3)
        monkeypatch.setattr(montecarlo, "_TARGET_WORDS_PER_BATCH", 4_000_000)
        assert np.array_equal(batched, _frobenius_values(config, 0, 5000, 3))

    def test_memory_independent_of_draw_count(self):
        config = ChannelConfig((2, 30, 40, 4))
        _frobenius_values(config, 0, 10, 0)  # numpy's one-time set-up is not per draw
        peaks = []
        for count in (10**4, 10**5):
            tracemalloc.start()
            try:
                _frobenius_values(config, 0, count, 0)
                peaks.append(tracemalloc.get_traced_memory()[1] - 8 * count)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 2**20
        assert max(peaks) < 24 * 2**20

    def test_box_muller_matches_trig(self):
        u1 = np.array([0.0, 0.3, 0.999, 0.5, 0.5, 0.5, 0.5, 0.7, 1.0 - 2.0**-53])
        u2 = np.array([0.1, 0.0, 0.25, 0.5, 0.5 - 2.0**-53, 0.75, 1.0 - 2.0**-53, 0.3, 0.9])
        re, im = _box_muller(u1, u2)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        np.testing.assert_allclose(re, radius * np.cos(angle), rtol=0, atol=1e-14)
        np.testing.assert_allclose(im, radius * np.sin(angle), rtol=0, atol=1e-14)

    def test_seeds_differ_but_agree_in_law(self):
        config = ChannelConfig((2, 3))
        a = sample_frobenius(config, 50_000, 0).values
        b = sample_frobenius(config, 50_000, 1).values
        assert not np.array_equal(a, b)
        assert ks_2samp(a, b).pvalue > 0.001

    def test_nonnegative(self):
        samples = sample_frobenius(ChannelConfig((3, 2, 5)), 10_000, 3)
        assert np.all(samples.values >= 0.0)

    def test_count_guard(self):
        config = ChannelConfig((2, 3))
        with pytest.raises(ParameterError):
            sample_frobenius(config, 0, 0)
        for count in (2.5, math.nan, math.inf, None, "3"):
            with pytest.raises(ParameterError, match="count must be an integer"):
                sample_frobenius(config, count, 0)
        assert sample_frobenius(config, 3.0, 0).count == 3
        assert sample_frobenius(config, 1e3, 0).count == 1000

    def test_seed_range(self):
        # the stream key holds 64 seed bits and the sample file a uint64, so
        # a seed outside [0, 2**64) has no stream or header of its own
        config = ChannelConfig((2, 3))
        for seed in (-1, 2**64, 2**64 + 5, 1.5, 3.0, "5", None):
            with pytest.raises(ParameterError, match="seed"):
                sample_frobenius(config, 3, seed)
            with pytest.raises(ParameterError, match="seed"):
                rayleigh_limit_distance(2, 3, 4, [1.0], 10, seed)
            with pytest.raises(ParameterError, match="seed"):
                montecarlo.SampleSet(config, seed, np.ones(3))
        top = sample_frobenius(config, 3, 2**64 - 1)
        assert top.seed == 2**64 - 1
        assert not np.array_equal(top.values, sample_frobenius(config, 3, 0).values)
        assert np.array_equal(sample_frobenius(config, 3, np.uint64(5)).values,
                              sample_frobenius(config, 3, 5).values)


class TestSampleSet:
    def test_count_is_the_value_count(self):
        samples = sample_frobenius(ChannelConfig((2, 3)), 17, 0)
        assert samples.count == samples.values.size == 17
        with pytest.raises(AttributeError):
            samples.count = 3

    def test_values_must_be_a_non_empty_vector(self):
        config = ChannelConfig((2, 3))
        for values in (np.ones(0), np.ones((2, 2)), np.float64(1.0)):
            with pytest.raises(ParameterError, match="1-d"):
                montecarlo.SampleSet(config, 0, values)


class TestEcdf:
    def test_basic_evaluation(self):
        e = Ecdf([1.0, 2.0, 3.0])
        assert e(2.0) == pytest.approx(2.0 / 3.0)
        assert e(0.5) == 0.0
        assert e(3.0) == 1.0
        assert e(99.0) == 1.0

    def test_vectorized(self):
        e = Ecdf([1.0, 2.0, 3.0])
        np.testing.assert_allclose(e(np.array([0.0, 1.0, 2.5])), [0.0, 1 / 3, 2 / 3])

    def test_float_call_matches_array_call(self):
        # a scalar gives a float with the bits of the array call
        rng = np.random.default_rng(3)
        for values in ([2.0], [1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 5.0], rng.exponential(size=1001)):
            e = Ecdf(values)
            v = np.sort(np.asarray(values, dtype=float))
            x = np.concatenate([v, np.nextafter(v, -np.inf), (v[:-1] + v[1:]) / 2,
                                [-np.inf, 0.0, np.inf]])
            floats = [e(t) for t in x.tolist()]
            assert all(type(f) is float for f in floats)
            assert floats == e(x).tolist()
            assert e(np.float64(v[0])) == e(float(v[0])) and e(2) == e(2.0)

    def test_empty(self):
        with pytest.raises(ParameterError):
            Ecdf([])

    @pytest.mark.parametrize("values", [np.ones((2, 2)), [[1.0]], np.array(5.0)])
    def test_not_one_dimensional(self, values):
        # as SampleSet refuses them; a sort along the last axis would keep the shape
        with pytest.raises(ParameterError, match="1-d"):
            Ecdf(values)

    def test_nan_samples_rejected(self):
        # numpy.quantile answers NaN there for any p; the interpolation would not
        with pytest.raises(ParameterError, match="NaN"):
            Ecdf([1.0, math.nan, 2.0])

    def test_nan_point_refused(self):
        # as the fitted model's cdf refuses it; searchsorted would answer 1.0
        e = Ecdf([1.0, 2.0, 3.0])
        for x in (math.nan, np.float64(math.nan), [0.5, math.nan], np.full((2, 2), math.nan)):
            with pytest.raises(ParameterError, match="not NaN"):
                e(x)
            with pytest.raises(ParameterError, match="not NaN"):
                e.cdf(x)

    def test_distribution_interface(self):
        values = np.random.default_rng(8).exponential(size=1001)
        e = Ecdf(values)
        x = np.array([0.0, 0.3, 1.0, 7.5])
        np.testing.assert_array_equal(e.cdf(x), e(x))
        assert e.cdf(1.0) == e(1.0)
        for p in (0.01, 0.05, 0.5, 0.99):
            assert e.quantile(p) == float(np.quantile(values, p))
        # the interpolation takes b - d (1 - t) for a fraction t >= 0.5 and
        # a + d t below it, as numpy does; both branches, every small size
        rng = np.random.default_rng(9)
        branches = set()
        for n in (*range(1, 40), 1000, 4097):
            values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            e = Ecdf(values)
            ps = rng.uniform(size=20).tolist()
            if n > 1:
                mid = [(rng.integers(0, n - 1) + f) / (n - 1) for f in (0.5, 0.49, 0.51)]
                ps += [p for p in mid if 0.0 < p < 1.0]
            for p in ps:
                h = (n - 1) * p
                branches.add(h - math.floor(h) >= 0.5)
                assert e.quantile(p) == float(np.quantile(values, p)), (n, p)
        assert branches == {False, True}
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                e.quantile(p)


class TestVarianceRecursion:
    def test_single_factor(self):
        rows = variance_recursion(ChannelConfig((2, 3)))
        assert rows == [(1, 1.0, pytest.approx(1.0 / 6.0, rel=1e-14),
                         pytest.approx(1.0 / 6.0, rel=1e-14))]

    def test_increments_positive_and_mean_one(self):
        rows = variance_recursion(ChannelConfig((4, 8, 8, 8, 4)))
        assert [r[0] for r in rows] == [1, 2, 3, 4]
        assert all(r[1] == 1.0 for r in rows)
        assert all(r[3] > 0.0 for r in rows)
        assert all(b[2] > a[2] for a, b in zip(rows, rows[1:]))

    def test_matches_closed_form_moments(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            dims = tuple(int(k) for k in rng.integers(1, 9, size=rng.integers(2, 6)))
            config = ChannelConfig(dims)
            for n, _, variance, _ in variance_recursion(config):
                prefix = ChannelConfig(config.dims[: n + 1])
                scale = prefix.dims[0] * prefix.normalization
                expected = closed_form_moment(prefix, 2) / scale**2 - 1.0
                assert variance == pytest.approx(expected, rel=1e-10)


class TestRayleighLimit:
    def test_more_scatterers_approach_single_factor_law(self):
        # normalized energy Y = X / (K0 N) of a [2, K1, K2, 4] channel
        # approaches the law of the 2x4 single-factor channel (Gamma with
        # shape 8, mean 1 after the same normalization) as the clusters grow
        sups = {}
        for k1, k2 in [(6, 8), (30, 40)]:
            config = ChannelConfig((2, k1, k2, 4))
            samples = sample_frobenius(config, 2 * 10**5, 0)
            y = np.sort(samples.values / (2 * config.normalization))
            ref = gammainc(8.0, 8.0 * y)
            ranks = np.arange(1, y.size + 1) / y.size
            sups[(k1, k2)] = float(np.max(np.abs(ref - ranks)))
        assert sups[(30, 40)] < sups[(6, 8)]

    def test_no_cluster_is_gaussian(self):
        # without clusters the entries are exactly Gaussian: the distance is
        # pure KS sampling noise (99% null quantile 1.63 / sqrt(N))
        count = 10**4
        for seed in (0, 1):
            d = rayleigh_limit_distance(3, 4, 5, [], count, seed)
            assert d <= 1.63 / math.sqrt(2 * 3 * 4 * count)

    def test_distance_shrinks_with_scatterers(self):
        d10 = rayleigh_limit_distance(2, 4, 10, [1.0, 4.0 / 3.0], 10**4, 10)
        d100 = rayleigh_limit_distance(2, 4, 100, [1.0, 4.0 / 3.0], 10**4, 10)
        assert d100 < d10

    def test_partition_across_batches(self, monkeypatch):
        args = (2, 4, 10, [1.0, 4 / 3], 2000, 10)
        whole = rayleigh_limit_distance(*args)
        for words in (1, 100):  # one draw per batch, then a few
            monkeypatch.setattr(montecarlo, "_TARGET_WORDS_PER_BATCH", words)
            assert rayleigh_limit_distance(*args) == whole

    def test_deterministic(self):
        a = rayleigh_limit_distance(2, 3, 7, [1.0], 2000, 5)
        b = rayleigh_limit_distance(2, 3, 7, [1.0], 2000, 5)
        assert a == b

    def test_pinned_values(self):
        # any change to the stream layout moves these far beyond rel 1e-12;
        # last-bit differences between SIMD loops on other hosts do not
        assert rayleigh_limit_distance(2, 3, 7, [1.0], 2000, 5) == pytest.approx(
            0.014996193756098258, rel=1e-12)
        assert rayleigh_limit_distance(2, 4, 10, [1.0, 4 / 3], 10**4, 10) == pytest.approx(
            0.012985677672347262, rel=1e-12)

    def test_ks_statistic_matches_scipy(self):
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal(n) for n in (1, 2, 17, 1000, 40_000)]
        arrays += [rng.standard_t(3, 5000), 1.1 * rng.standard_normal(5000) + 0.05]
        # past one and three slices of the statistic's 2**16-value walk
        arrays += [rng.standard_normal(n) for n in (65_537, 200_000)]
        for x in arrays:
            assert _ks_normal_statistic(x) == kstest(x, "norm").statistic

    def test_ndtr_matches_scipy_bit_for_bit(self):
        # each cephes branch edge (|a| = 1, sqrt(2), 8 sqrt(2), the MAXLOG
        # cut between 37.5 and 38.5) with the floats on either side
        edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 38.5, 40.0]
        points = [np.nextafter(v, toward) for v in edges for toward in (-np.inf, np.inf)]
        points += edges + [0.0, -0.0, 1e-300, math.nan]
        a = np.array(points + [-v for v in points])
        a = np.concatenate([a, np.random.default_rng(25).standard_normal(10**5)])
        assert np.array_equal(_ndtr(a).view(np.int64), ndtr(a).view(np.int64))

    def test_runs_without_scipy(self):
        code = ("import sys; sys.modules['scipy'] = None; import rayprod; "
                "print(repr(rayprod.rayleigh_limit_distance(2, 4, 10, [1.0, 4 / 3], 10**4, 10)))")
        src = os.path.dirname(os.path.dirname(rayprod.__file__))
        out = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        # the pin of test_pinned_values, at the same tolerance
        assert float(out.stdout) == pytest.approx(0.012985677672347262, rel=1e-12)

    def test_import_leaves_scipy_stats_out(self):
        code = "import sys, rayprod; print('scipy.stats' in sys.modules)"
        src = os.path.dirname(os.path.dirname(rayprod.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_scipy_out(self):
        code = ("import sys, rayprod.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = os.path.dirname(os.path.dirname(rayprod.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"

    def test_domain(self):
        with pytest.raises(ParameterError):
            rayleigh_limit_distance(0, 4, 10, [1.0], 100, 0)
        with pytest.raises(ParameterError):
            rayleigh_limit_distance(2, 4, 10, [0.0], 100, 0)
        with pytest.raises(ParameterError):  # a cluster of 2 below k0 = 4
            rayleigh_limit_distance(4, 4, 2, [1.0], 100, 0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        config = ChannelConfig((2, 3, 4))
        for seed in (99, 2**64 - 1):
            samples = sample_frobenius(config, 1234, seed)
            path = tmp_path / "draws.bin"
            save_samples(samples, path)
            assert path.stat().st_size == 32 + 8 * 1234
            loaded = load_samples(path, config)
            assert loaded.count == 1234
            assert loaded.seed == seed
            assert np.array_equal(loaded.values, samples.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"x" * 64)
        with pytest.raises(ParameterError):
            load_samples(path, ChannelConfig((2, 3)))

    def test_rejects_version_1(self, tmp_path):
        # version 1 files hold draws of the dense sampler of earlier releases
        path = tmp_path / "old.bin"
        header = montecarlo._HEADER.pack(montecarlo._MAGIC, 1, 2, 0)
        path.write_bytes(header + np.zeros(2, dtype="<f8").tobytes())
        with pytest.raises(ParameterError, match="version 1"):
            load_samples(path, ChannelConfig((2, 3)))

    def test_short_header(self, tmp_path):
        path = tmp_path / "draws.bin"
        path.write_bytes(montecarlo._MAGIC)
        with pytest.raises(ParameterError, match="truncated sample file header"):
            load_samples(path, ChannelConfig((2, 3)))

    def test_truncated(self, tmp_path):
        config = ChannelConfig((2, 3))
        samples = sample_frobenius(config, 100, 0)
        path = tmp_path / "draws.bin"
        save_samples(samples, path)
        data = path.read_bytes()
        # whole draws missing, a ragged tail and a ragged surplus
        for payload in (data[:-16], data[:-3], data + b"xyz"):
            path.write_bytes(payload)
            with pytest.raises(ParameterError, match="header promises 100 samples"):
                load_samples(path, config)
