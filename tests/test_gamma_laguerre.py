import json
import math

import numpy as np
import pytest
from scipy.special import gammainc

from conftest import sup_distance
from rayprod import (
    ChannelConfig,
    FitError,
    GammaLaguerreModel,
    MomentSet,
    ParameterError,
    cdf,
    cdf_inverse,
    fit,
    moment_set,
    sample_frobenius,
)


@pytest.fixture(scope="module")
def samples_2884():
    return sample_frobenius(ChannelConfig((2, 8, 8, 4)), 10**6, 0)


class TestFit:
    def test_single_factor_parameters(self):
        model = fit(moment_set(ChannelConfig((2, 3)), 6))
        assert model.alpha == 6.0
        assert model.beta == 1.0

    def test_gamma_round_trip(self):
        # moments of a Gamma(shape 2, scale 3) law: E[X]=6, E[X^2]=54
        ms = MomentSet(ChannelConfig((2, 3)), (6.0, 54.0), ("exact_partition",) * 2)
        model = fit(ms)
        assert model.alpha == pytest.approx(2.0, rel=1e-14)
        assert model.beta == pytest.approx(3.0, rel=1e-14)

    def test_three_factor_parameters(self):
        model = fit(moment_set(ChannelConfig((2, 3, 4)), 6))
        assert model.alpha == pytest.approx(576.0 / 216.0, rel=1e-14)
        assert model.beta == pytest.approx(9.0, rel=1e-14)

    def test_matched_weights_vanish(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            dims = tuple(int(k) for k in rng.integers(1, 9, size=rng.integers(2, 5)))
            model = fit(moment_set(ChannelConfig(dims), 6))
            assert abs(model.weights[1]) <= 1e-10
            assert abs(model.weights[2]) <= 1e-10

    def test_degenerate_variance(self):
        ms = MomentSet(ChannelConfig((1, 1)), (2.0, 4.0), ("exact_partition",) * 2)
        with pytest.raises(FitError):
            fit(ms)

    def test_needs_two_moments(self):
        with pytest.raises(ParameterError):
            fit(moment_set(ChannelConfig((2, 3)), 1))

    def test_degenerate_dims_warn(self):
        with pytest.warns(RuntimeWarning):
            fit(moment_set(ChannelConfig((1,) * 9), 6))


class TestSingleFactorExactness:
    def test_correction_weights_vanish(self):
        for k0, k1 in [(1, 1), (2, 3), (4, 4), (8, 8), (2, 32)]:
            model = fit(moment_set(ChannelConfig((k0, k1)), 6))
            assert all(abs(w) <= 1e-8 for w in model.weights[3:])

    def test_raw_cdf_is_gamma(self):
        for k0, k1 in [(1, 1), (2, 3), (8, 8)]:
            model = fit(moment_set(ChannelConfig((k0, k1)), 6))
            grid = np.linspace(0.0, model.mean + 10.0 * model.std, 100)
            raw, _ = cdf(model, grid)
            ref = gammainc(float(k0 * k1), grid)
            assert np.max(np.abs(raw - ref)) <= 1e-12


class TestCdf:
    def test_zero(self):
        model = fit(moment_set(ChannelConfig((2, 3, 4)), 6))
        raw, reg = cdf(model, 0.0)
        assert raw == 0.0
        assert reg == 0.0

    def test_regularized_monotone_bounded(self):
        rng = np.random.default_rng(21)
        for dims in [(1, 1, 1, 1), (2, 2, 2, 2, 2), (4, 8, 4), (2, 6, 8, 4)]:
            model = fit(moment_set(ChannelConfig(dims), 6))
            hi = model.mean + 20.0 * model.std
            grid = np.sort(np.concatenate([np.linspace(0.0, hi, 2001),
                                           rng.uniform(0.0, hi, 2000)]))
            _, reg = cdf(model, grid)
            # tiny negative slack = double-precision evaluation round-off
            assert np.all(np.diff(reg) >= -1e-13)
            assert np.all((reg >= 0.0) & (reg <= 1.0))
            assert cdf(model, hi)[1] >= 1.0 - 1e-3
            assert cdf(model, model.mean + 40.0 * model.std)[1] >= 1.0 - 1e-6

    def test_regularization_repairs_series_overshoot(self):
        # heavy correction series: raw exceeds one and oscillates, the
        # regularized values do not
        model = fit(moment_set(ChannelConfig((2, 2, 2, 2, 2)), 6))
        grid = np.linspace(0.0, model.mean + 20.0 * model.std, 4001)
        raw, reg = cdf(model, grid)
        assert raw.max() > 1.0
        assert np.any(np.diff(raw) < 0.0)
        assert np.all(np.diff(reg) >= 0.0)
        assert reg.max() == 1.0

    def test_domain(self):
        model = fit(moment_set(ChannelConfig((2, 3)), 6))
        with pytest.raises(ParameterError):
            cdf(model, -1.0)

    def test_monte_carlo_sup_distance(self, samples_2884):
        xs = np.sort(samples_2884.values)
        sups = {}
        for q in (2, 6):
            model = fit(moment_set(ChannelConfig((2, 8, 8, 4)), q))
            sups[q] = sup_distance(cdf(model, xs)[1], xs.size)
        assert sups[6] <= 0.02
        assert sups[6] <= sups[2]


class TestCdfInverse:
    def test_exponential_median(self):
        model = fit(moment_set(ChannelConfig((1, 1)), 6))
        assert cdf_inverse(model, 0.5) == pytest.approx(math.log(2.0), abs=1e-8)

    def test_round_trip(self):
        model = fit(moment_set(ChannelConfig((2, 3, 4)), 6))
        for p in (0.01, 0.05, 0.5, 0.95):
            x = cdf_inverse(model, p)
            assert cdf(model, x)[1] == pytest.approx(p, abs=1e-9)

    def test_against_empirical_quantile(self, samples_2784):
        # The truncated series carries an O(1e-2) CDF error for multi-cluster
        # channels, so the model quantile is compared against the empirical
        # quantile within that accuracy band (a raw order-statistic interval
        # at 10^6 draws would be far tighter than the approximation itself).
        model = fit(moment_set(ChannelConfig((2, 7, 8, 4)), 6))
        x_model = cdf_inverse(model, 0.05)
        v = np.sort(samples_2784.values)
        n = v.size
        x_emp = v[int(n * 0.05)]
        ecdf_at_model = np.searchsorted(v, x_model, side="right") / n
        assert abs(ecdf_at_model - 0.05) <= 0.01
        assert abs(x_model / x_emp - 1.0) <= 0.05

    def test_exact_model_quantile_in_bootstrap_interval(self):
        # for a single factor the model is the exact law, so its quantile
        # falls inside the 99% order-statistic interval of the empirical
        # quantile
        model = fit(moment_set(ChannelConfig((2, 12)), 6))
        x_model = cdf_inverse(model, 0.05)
        v = np.sort(sample_frobenius(ChannelConfig((2, 12)), 2 * 10**5, 0).values)
        n = v.size
        half_width = 2.576 * math.sqrt(n * 0.05 * 0.95)
        lo = v[int(n * 0.05 - half_width)]
        hi = v[int(math.ceil(n * 0.05 + half_width))]
        assert lo <= x_model <= hi

    def test_domain(self):
        model = fit(moment_set(ChannelConfig((2, 3)), 6))
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ParameterError):
                cdf_inverse(model, p)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dims", [(1, 1, 1, 1, 7), (1, 1, 9, 1, 1), (1, 6, 2, 1, 1)])
    def test_tiny_quantiles_meet_tolerance(self, dims):
        # several dims of 1 put the lower quantiles far below 1e-15, where a
        # bracket-width stop in absolute terms ended the bisection early
        model = fit(moment_set(ChannelConfig(dims), 6))
        for p in (1e-3, 0.01, 0.05, 0.5):
            x = cdf_inverse(model, p)
            assert abs(cdf(model, x)[1] - p) <= 1e-10, (dims, p, x)


class TestDistributionMethods:
    def test_methods_match_module_functions(self):
        model = fit(moment_set(ChannelConfig((2, 6, 8, 4)), 6))
        grid = np.linspace(0.0, model.mean + 10.0 * model.std, 33)
        assert np.array_equal(model.cdf(grid), cdf(model, grid)[1])
        assert model.cdf(model.mean) == cdf(model, model.mean)[1]
        for p in (0.01, 0.05, 0.5):
            assert model.quantile(p) == cdf_inverse(model, p)


class TestSerialization:
    def test_json_round_trip(self):
        model = fit(moment_set(ChannelConfig((2, 6, 8, 4)), 6))
        text = model.to_json()
        clone = GammaLaguerreModel.from_json(text)
        assert clone.alpha == model.alpha
        assert clone.beta == model.beta
        assert clone.weights == model.weights
        assert clone.weights_scaled == model.weights_scaled
        assert clone.source_moments.config.dims == (2, 6, 8, 4)
        grid = np.linspace(0.0, model.mean + 10.0 * model.std, 257)
        raw_a, reg_a = cdf(model, grid)
        raw_b, reg_b = cdf(clone, grid)
        assert np.array_equal(raw_a, raw_b)
        assert np.array_equal(reg_a, reg_b)

    def test_schema_fields(self):
        model = fit(moment_set(ChannelConfig((2, 3)), 4))
        payload = json.loads(model.to_json())
        for key in ("alpha", "beta", "q", "dims", "weights"):
            assert key in payload
        assert payload["dims"] == [2, 3]
        assert payload["q"] == 4
        assert len(payload["weights"]) == 5
