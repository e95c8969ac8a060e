import math
import sys

import numpy as np
import pytest
from scipy.special import gammainc

from conftest import sup_distance
from rayprod import (
    ChannelConfig,
    FitError,
    MomentSet,
    ParameterError,
    cdf,
    cdf_inverse,
    fit,
    moment_set,
    sample_frobenius,
)
from rayprod import gamma_laguerre
from rayprod.gamma_laguerre import _reg_lower_gamma


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

    def test_refuses_leading_order_moments(self):
        # (2, 4) is exactly Gamma(8); its leading-order E[X^13] is ~10x too
        # small, and a fit on it gave a raw CDF above 1
        c = ChannelConfig((2, 4))
        assert fit(moment_set(c, 12)).q == 12
        for q in (13, 14):
            with pytest.raises(ParameterError, match="up to order 12"):
                fit(moment_set(c, q))

    def test_degenerate_dims_warn(self):
        with pytest.warns(RuntimeWarning):
            fit(moment_set(ChannelConfig((1,) * 9), 6))


def _shapes():
    extra = [0.5, 1.0, 2.0, 9.5, 10.0, 10.5, 64.0]  # integers and the Stirling switch
    return np.concatenate([np.geomspace(0.1, 200.0, 60), extra])


def _points(a):
    tiny = [0.0, 1e-300, 1e-100, 1e-20]
    return np.concatenate([tiny, np.geomspace(1e-8, 3.0 * a + 50.0, 300)])


class TestRegLowerGamma:
    def test_against_scipy(self):
        for a in _shapes():
            u = _points(a)
            ref = gammainc(a, u)
            small = (ref > 0.0) & (ref < 0.5)
            for got in (_reg_lower_gamma(a, u),
                        np.array([_reg_lower_gamma(a, float(x)) for x in u])):
                assert np.max(np.abs(got - ref)) <= 1e-14, a
                rel = np.abs(got[small] - ref[small]) / ref[small]
                assert np.all(rel <= 1e-12), (a, rel.max())

    def test_scalar_and_array_paths_agree(self):
        for a in _shapes():
            u = _points(a)
            arr = _reg_lower_gamma(a, u)
            scalar = np.array([_reg_lower_gamma(a, float(x)) for x in u])
            assert np.array_equal(arr, scalar), a

    def test_edges(self):
        for a in (0.1, 1.0, 7.5, 200.0):
            assert _reg_lower_gamma(a, 0.0) == 0.0
            for u in (1e300, sys.float_info.max, math.inf):
                assert _reg_lower_gamma(a, u) == 1.0
            edges = np.array([0.0, 1e300, math.inf])
            assert _reg_lower_gamma(a, edges).tolist() == [0.0, 1.0, 1.0]
            for u in (1e-3, 0.7 * a, a + 1.0, 2.0 * a + 3.0):
                zero_d = _reg_lower_gamma(a, np.array(u))
                assert zero_d.shape == ()
                assert float(zero_d) == _reg_lower_gamma(a, u)

    def test_exponential_and_integer_shape(self):
        u = np.geomspace(1e-6, 60.0, 200)
        assert np.allclose(_reg_lower_gamma(1.0, u), -np.expm1(-u), rtol=1e-14, atol=0.0)
        # P(2, u) = 1 - (1 + u) exp(-u)
        assert np.max(np.abs(_reg_lower_gamma(2.0, u) - (1.0 - (1.0 + u) * np.exp(-u)))) <= 1e-15


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

    def test_matches_gammainc_sum(self, monkeypatch):
        # the raw series summed from q + 1 independent gammainc calls, as the
        # model once computed it; the recursion from one call must agree
        def gammainc_sum(alpha, beta, eps_basis, x):
            u = np.asarray(x, dtype=float) / beta
            out = gammainc(alpha, u)
            for j, b in enumerate(eps_basis):
                if b != 0.0:
                    out = out + b * gammainc(alpha + j, u)
            return out

        for dims in [(2, 3), (2, 6, 8, 4), (2, 7, 8, 4), (4, 7, 8, 4), (8, 7, 8, 4), (4, 4),
                     (4, 8, 4), (4, 8, 8, 4), (4, 8, 8, 8, 4), (2, 8, 8, 4)]:
            for q in (2, 6):
                model = fit(moment_set(ChannelConfig(dims), q))
                grid = np.linspace(0.0, model.mean + 20.0 * model.std, 2001)
                points = [float(x) for x in grid[::97]]
                got = cdf(model, grid), [cdf(model, x) for x in points]
                with monkeypatch.context() as patch:
                    patch.setattr(gamma_laguerre, "_raw_cdf", gammainc_sum)
                    ref = cdf(model, grid), [cdf(model, x) for x in points]
                for a, b in zip(got[0], ref[0]):
                    assert np.max(np.abs(a - b)) <= 1e-13, (dims, q)
                assert np.max(np.abs(np.array(got[1]) - np.array(ref[1]))) <= 1e-13, (dims, q)

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
