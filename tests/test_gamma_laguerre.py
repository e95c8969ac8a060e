import itertools
import math
import sys
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc, gammaincinv

from conftest import sup_distance
from rayprod import (
    ChannelConfig,
    FitError,
    MomentSet,
    NumericError,
    ParameterError,
    cdf,
    cdf_inverse,
    fit,
    moment_set,
    sample_frobenius,
)
from rayprod import gamma_laguerre
from rayprod.gamma_laguerre import (
    _derivative_poly,
    _horner,
    _positive_real_roots,
    _prefactor,
    _raw_cdf,
    _reg_lower_gamma,
    _shape_terms,
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
        ms = MomentSet(ChannelConfig((2, 3)), (6.0, 54.0))
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
            assert abs(model.weights_scaled[1]) <= 1e-10
            assert abs(model.weights_scaled[2]) <= 1e-10

    def test_degenerate_variance(self):
        ms = MomentSet(ChannelConfig((1, 1)), (2.0, 4.0))
        with pytest.raises(FitError):
            fit(ms)

    def test_needs_two_moments(self):
        with pytest.raises(ParameterError):
            fit(moment_set(ChannelConfig((2, 3)), 1))

    def test_fits_up_to_order_12_only(self):
        # a fit takes exact moments only, and they stop at order 12
        c = ChannelConfig((2, 4))
        assert fit(moment_set(c, 12)).q == 12
        for q in (13, 14):
            with pytest.raises(ParameterError, match="up to order 12"):
                moment_set(c, q)

    def test_degenerate_dims_warn(self):
        with pytest.warns(RuntimeWarning):
            fit(moment_set(ChannelConfig((1,) * 9), 6))

    def test_large_weight_warning_names_the_caller(self):
        with pytest.warns(RuntimeWarning, match="large magnitude") as record:
            fit(moment_set(ChannelConfig((8, 8)), 12))
        assert {w.filename for w in record} == {__file__}


def _shapes():
    extra = [0.5, 1.0, 2.0, 9.5, 10.0, 10.5, 64.0]  # integers and the Stirling switch
    return np.concatenate([np.geomspace(0.1, 200.0, 60), extra])


def _points(a):
    tiny = [0.0, 1e-300, 1e-100, 1e-20]
    return np.concatenate([tiny, np.geomspace(1e-8, 3.0 * a + 50.0, 300)])


def _p(a, u):
    return _reg_lower_gamma(a, u, _prefactor(a, u, _shape_terms(a)))


def _reg_lower_gamma_on(a, u):
    return np.array([_p(float(a), x) for x in np.asarray(u, dtype=float).tolist()])


class TestRegLowerGamma:
    def test_against_scipy(self):
        for a in _shapes():
            u = _points(a)
            ref = gammainc(a, u)
            small = (ref > 0.0) & (ref < 0.5)
            got = _reg_lower_gamma_on(a, u)
            assert np.max(np.abs(got - ref)) <= 1e-14, a
            rel = np.abs(got[small] - ref[small]) / ref[small]
            assert np.all(rel <= 1e-12), (a, rel.max())

    def test_edges(self):
        for a in (0.1, 1.0, 7.5, 200.0):
            assert _p(a, 0.0) == 0.0
            for u in (1e300, sys.float_info.max, math.inf):
                assert _p(a, u) == 1.0
            # both sides of the series / continued-fraction switch at a + 1
            for u in (1e-3, 0.7 * a, a + 1.0, 2.0 * a + 3.0):
                got = _p(a, u)
                assert type(got) is float
                assert got == pytest.approx(float(gammainc(a, u)), rel=1e-12, abs=1e-14)

    def test_exponential_and_integer_shape(self):
        u = np.geomspace(1e-6, 60.0, 200)
        assert np.allclose(_reg_lower_gamma_on(1.0, u), -np.expm1(-u), rtol=1e-14, atol=0.0)
        # P(2, u) = 1 - (1 + u) exp(-u)
        assert np.max(np.abs(_reg_lower_gamma_on(2.0, u) - (1.0 - (1.0 + u) * np.exp(-u)))) <= 1e-15


class TestShapeTerms:
    @pytest.mark.parametrize("dims", [(2, 7, 8, 4), (4, 8, 4), (2, 12), (5, 9, 9),
                                      (8, 16, 16)])
    def test_stored_terms_equal_fresh_ones(self, dims, monkeypatch):
        # alpha 2.9 and 8 sit below the Stirling switch at 10, alpha 24, 17.6
        # and 51.2 above it; u runs over |u/alpha - 1| = 0.5 and either side
        model = fit(moment_set(ChannelConfig(dims), 6))
        a = model.alpha
        assert (a >= 10.0) == (dims in [(2, 12), (5, 9, 9), (8, 16, 16)])
        us = [f * a for f in (0.5, 1.0, 1.5)]
        us += [math.nextafter(u, d) for u in us for d in (0.0, math.inf)]
        us += [(0.5 - 1e-9) * a, (0.5 + 1e-9) * a, (1.5 - 1e-9) * a, (1.5 + 1e-9) * a]
        stored = [_raw_cdf(model, u * model.beta) for u in us]

        def fresh(shape, u, terms):
            assert terms is model.shape_terms
            return _prefactor(shape, u, _shape_terms(shape))

        with monkeypatch.context() as patch:
            patch.setattr(gamma_laguerre, "_prefactor", fresh)
            assert [_raw_cdf(model, u * model.beta) for u in us] == stored
        assert all(0.0 < v < 1.5 for v in stored)


class TestSingleFactorExactness:
    def test_correction_weights_vanish(self):
        for k0, k1 in [(1, 1), (2, 3), (4, 4), (8, 8), (2, 32)]:
            model = fit(moment_set(ChannelConfig((k0, k1)), 6))
            assert all(abs(w) <= 1e-8 for w in model.weights_scaled[3:])

    def test_raw_cdf_is_gamma(self):
        for k0, k1 in [(1, 1), (2, 3), (8, 8)]:
            model = fit(moment_set(ChannelConfig((k0, k1)), 6))
            grid = np.linspace(0.0, model.mean + 10.0 * model.std, 100)
            raw, _ = cdf(model, grid)
            ref = gammainc(float(k0 * k1), grid)
            assert np.max(np.abs(raw - ref)) <= 1e-12

    @pytest.mark.parametrize("dims", [
        (5000, 5000),
        (8000, 8000),
        # the float moments round unlike the Gamma moments, so the float
        # weights lose every digit: at (7000, 7000) the 0.05 quantile is
        # off by 9e-4 relative, and (10000, 10000) cannot bracket it
        pytest.param((7000, 7000), marks=pytest.mark.xfail(strict=True, reason="ROADMAP K")),
        pytest.param((10000, 10000), marks=pytest.mark.xfail(strict=True, reason="ROADMAP K")),
    ])
    def test_single_factor_wide_dims_is_the_gamma_law(self, dims):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # large weights at wide dims
            model = fit(moment_set(ChannelConfig(dims), 6))
        ref = gammaincinv(dims[0] * dims[1], 0.05)
        assert model.quantile(0.05) == pytest.approx(ref, rel=1e-9)


def _np_positive_roots(coeffs):
    """The positive real roots as ``np.roots`` gives them: the search the
    pure-Python one replaced, which also took near-real pairs as real."""
    roots = np.roots(np.asarray(coeffs, dtype=float)[::-1])
    return sorted(float(r.real) for r in roots
                  if abs(r.imag) <= 1e-8 * (1.0 + abs(r.real)) and r.real > 0.0)


def _mp_positive_roots(coeffs):
    """The positive real roots of the float coefficients, to 50 digits."""
    coeffs = list(coeffs)
    while coeffs[-1] == 0.0:
        coeffs.pop()
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=500, extraprec=500)
        return sorted(float(mpmath.re(r)) for r in roots
                      if abs(mpmath.im(r)) < 1e-30 and mpmath.re(r) > 0)


def _from_roots(*factors):
    """Ascending float coefficients of the product of ascending factors."""
    out = [1.0]
    for f in factors:
        prod = [0.0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _assert_roots(got, expected, rel):
    assert len(got) == len(expected), (got, expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=rel), (got, expected)


def _assert_bisected(coeffs, roots):
    """Each root is an exact zero of the computed ``p`` or a float next to
    which the computed sign of ``p`` changes: no root stops short."""
    for r in roots:
        fr = _horner(coeffs, r)
        neighbours = (math.nextafter(r, -math.inf), math.nextafter(r, math.inf))
        assert fr == 0.0 or any((fr < 0.0) != (_horner(coeffs, n) < 0.0)
                                for n in neighbours), (r, fr)


_DEEP = [(4, 8, 8, 8, 4), (2, 2, 2, 2, 2, 2), (1, 1, 9, 1, 1)]


def _fit_quietly(dims, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # large weights, by design
        return fit(moment_set(ChannelConfig(dims), q))


class TestPositiveRealRoots:
    def test_agrees_with_np_roots(self):
        # criterion 1's grid (n <= 3, dims 1..8) at q = 6, and deep chains
        # at every order np.roots itself resolves to 1e-12
        cases = [(dims, 6) for n in (1, 2, 3)
                 for dims in itertools.product(range(1, 9), repeat=n + 1)]
        cases += [(dims, q) for dims in _DEEP for q in range(2, 9)]
        for dims, q in cases:
            model = _fit_quietly(dims, q)
            coeffs = _derivative_poly(model.alpha, model.eps_basis)
            roots = _positive_real_roots(coeffs)
            _assert_roots(roots, _np_positive_roots(coeffs), 1e-12)
            _assert_bisected(coeffs, roots)

    def test_high_orders_against_mpmath(self):
        # from q = 9 on np.roots drifts past 1e-12 of the exact roots of the
        # float polynomial; the search stays within 1e-10 up to q = 12
        for dims, q in itertools.product(_DEEP + [(2, 7, 8, 4)], range(9, 13)):
            model = _fit_quietly(dims, q)
            coeffs = _derivative_poly(model.alpha, model.eps_basis)
            roots = _positive_real_roots(coeffs)
            _assert_roots(roots, _mp_positive_roots(coeffs), 1e-10)
            _assert_bisected(coeffs, roots)

    def test_hand_built(self):
        tangency = _from_roots([-2.0, 1.0], [-2.0, 1.0], [-5.0, 1.0])
        _assert_roots(_positive_real_roots(tangency), [2.0, 5.0], 1e-14)
        # a pair 1e-6 apart: Horner's rounding near it, about 1e-13, over a
        # slope of about 4e-6 leaves each root of the pair uncertain by ~1e-8
        pair = _from_roots([-3.0, 1.0], [-(3.0 + 1e-6), 1.0], [-7.0, 1.0])
        _assert_roots(_positive_real_roots(pair), _mp_positive_roots(pair), 1e-8)
        _assert_roots(_positive_real_roots(pair), [3.0, 3.0 + 1e-6, 7.0], 1e-8)
        assert _positive_real_roots(_from_roots([1.0, 1.0], [2.0, 1.0], [1.0, 0.0, 1.0])) == []
        positive = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        degree12 = _from_roots(*[[-r, 1.0] for r in positive],
                               [1.0, 0.0, 1.0], [5.0, 2.0, 1.0], [10.0, -2.0, 1.0])
        assert len(degree12) == 13
        _assert_roots(_positive_real_roots(degree12), _mp_positive_roots(degree12), 1e-12)
        _assert_roots(_positive_real_roots(degree12), positive, 1e-13)
        # a root at 0 and zero leading coefficients
        assert _positive_real_roots([0.0, -3.0, 1.0, 0.0, 0.0]) == [3.0]
        assert _positive_real_roots([5.0]) == _positive_real_roots([0.0, 0.0]) == []

    def test_peaks_and_grid_match_np_roots_candidates(self):
        # the peak values and a 201-point regularized grid as the np.roots
        # candidates give them; the raw CDF is flat at a peak, so a root
        # moved within its rounding moves a peak value by rounding only
        for dims in [(2, 7, 8, 4), (2, 2, 2, 2, 2), (4, 8, 8, 4), *_DEEP]:
            model = _fit_quietly(dims, 6)
            with mock.patch.object(gamma_laguerre, "_positive_real_roots", _np_positive_roots):
                reference = _fit_quietly(dims, 6)
            assert reference.peak_x == tuple(model.beta * u for u in _np_positive_roots(
                _derivative_poly(model.alpha, model.eps_basis)))
            assert model.peak_max == pytest.approx(reference.peak_max, rel=0, abs=2e-15)
            grid = np.linspace(0.0, model.mean + 10.0 * model.std, 201)
            assert np.max(np.abs(cdf(model, grid)[1] - cdf(reference, grid)[1])) <= 1e-15


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
        with pytest.raises(ParameterError):
            cdf(model, np.array([1.0, -1.0]))

    def test_nan_raises(self):
        # NaN fails both x < 0 and x >= 0, so it needs a check of its own
        model = fit(moment_set(ChannelConfig((2, 7, 8, 4)), 6))
        for x in (math.nan, np.float64(math.nan), np.array(math.nan),
                  np.array([1.0, math.nan]), [[0.5], [math.nan]]):
            with pytest.raises(ParameterError, match="nan"):
                cdf(model, x)

    def test_containers(self):
        # (2,2,2,2,2) has interior peaks, so the running maximum is exercised
        model = fit(moment_set(ChannelConfig((2, 2, 2, 2, 2)), 6))
        grid = np.linspace(0.0, model.mean + 20.0 * model.std, 60).reshape(3, 20)
        points = [cdf(model, x) for x in grid.ravel().tolist()]
        raw, reg = cdf(model, grid)
        assert raw.shape == reg.shape == (3, 20)
        assert raw.ravel().tolist() == [r for r, _ in points]
        assert reg.ravel().tolist() == [g for _, g in points]
        assert np.any(reg.ravel() != raw.ravel())
        x = float(grid[1, 7])
        for scalar in (x, np.float64(x), np.array(x)):
            got = cdf(model, scalar)
            assert [type(v) for v in got] == [float, float]
            assert got == points[27]
        for empty in (np.array([]), []):
            raw, reg = cdf(model, empty)
            assert raw.shape == reg.shape == (0,)

    def test_matches_gammainc_sum(self, monkeypatch):
        # the raw series summed from q + 1 independent gammainc calls, as the
        # model once computed it; the folded series from one call must agree
        calls = []

        def gammainc_sum(model, x):
            calls.append(x)
            u = x / model.beta
            out = gammainc(model.alpha, u)
            for j, b in enumerate(model.eps_basis):
                if b != 0.0:
                    out = out + b * gammainc(model.alpha + j, u)
            return float(out)

        for dims in [(2, 3), (2, 6, 8, 4), (2, 7, 8, 4), (4, 7, 8, 4), (8, 7, 8, 4), (4, 4),
                     (4, 8, 4), (4, 8, 8, 4), (4, 8, 8, 8, 4), (2, 8, 8, 4)]:
            for q in (2, 6):
                model = fit(moment_set(ChannelConfig(dims), q))
                grid = np.linspace(0.0, model.mean + 20.0 * model.std, 2001)
                points = [float(x) for x in grid[::97]]
                got = cdf(model, grid), [cdf(model, x) for x in points]
                calls.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(gamma_laguerre, "_raw_cdf", gammainc_sum)
                    ref = cdf(model, grid), [cdf(model, x) for x in points]
                assert len(calls) == grid.size + len(points), (dims, q)
                for a, b in zip(got[0], ref[0]):
                    assert np.max(np.abs(a - b)) <= 1e-13, (dims, q)
                assert np.max(np.abs(np.array(got[1]) - np.array(ref[1]))) <= 1e-13, (dims, q)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dims", [(2, 7, 8, 4), (4, 8, 8, 8, 4), (2, 2, 2, 2, 2, 2),
                                      (1, 1, 9, 1, 1)])
    def test_raw_series_against_mpmath(self, dims):
        # the same truncated series (same float alpha, beta and basis weights)
        # summed at 50 digits; (2,2,2,2,2,2) has weights up to 6e8
        model = fit(moment_set(ChannelConfig(dims), 6))
        hi = model.mean + 10.0 * model.std
        grid = np.concatenate([np.geomspace(1e-6 * model.mean, hi, 100),
                               np.linspace(0.0, hi, 101)])
        ref, size = [], []
        with mpmath.workdps(50):
            a = mpmath.mpf(model.alpha)
            for x in grid.tolist():
                u = mpmath.mpf(x) / model.beta
                terms = [mpmath.gammainc(a, 0, u, regularized=True)]
                terms += [b * mpmath.gammainc(a + j, 0, u, regularized=True)
                          for j, b in enumerate(model.eps_basis) if b != 0.0]
                ref.append(float(mpmath.fsum(terms)))
                size.append(float(mpmath.fsum(abs(t) for t in terms)))
        ref, size = np.array(ref), np.array(size)
        err = np.abs(cdf(model, grid)[0] - ref)
        assert err.max() <= 5e-14, err.max()
        # relative 1e-12, except where the terms cancel: there a few ulp of
        # each term is all that double arithmetic can promise (on (2,2,2,2,2,2)
        # at u = 1.4 the terms add to 1.5e5 times the sum)
        above = ref > 1e-14
        assert np.all(err[above] <= 1e-12 * ref[above] + 1e-15 * size[above])

    def test_monte_carlo_sup_distance(self, samples_2884):
        xs = np.sort(samples_2884.values)
        sups = {}
        for q in (2, 6):
            model = fit(moment_set(ChannelConfig((2, 8, 8, 4)), q))
            sups[q] = sup_distance(lambda x: cdf(model, x)[1], xs)
        assert sups[6] <= 0.02
        assert sups[6] <= sups[2]

    def test_sup_distance_matches_full_formula(self):
        # the block bounds skip evaluations, never change the result
        xs = np.sort(np.random.default_rng(3).gamma(2.0, size=503))
        n = xs.size
        ranks = np.arange(1, n + 1) / n
        for shape in (1.7, 2.0, 2.4):
            f = gammainc(shape, xs)
            full = max(np.max(np.abs(f - ranks)), np.max(np.abs(f - (ranks - 1.0 / n))))
            for block in (1, 7, n):
                assert sup_distance(lambda x: gammainc(shape, x), xs, block) == full


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
        # the regularized CDF snaps to 0 at or below 1e-14: no quantile there
        for p in (0.0, 1.0, -0.2, 1.5, 1e-15, 1e-14, math.nan):
            with pytest.raises(ParameterError):
                cdf_inverse(model, p)

    @pytest.mark.parametrize("dims", [(2, 4), (4, 8)])
    def test_small_p_against_exact_gamma(self, dims):
        # a single factor is exactly Gamma(K0 K1, 1); an absolute 1e-10 stop
        # in p accepted almost any point of the tail for p <= 1e-10
        model = fit(moment_set(ChannelConfig(dims), 6))
        for p in (1e-6, 1e-9, 1e-12):
            ref = gammaincinv(float(dims[0] * dims[1]), p)
            assert cdf_inverse(model, p) == pytest.approx(ref, rel=1e-6), (dims, p)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_quantile_below_smallest_double_raises(self):
        # the regularized CDF steps from 0 to 1 between two adjacent
        # subnormal x (where u = x / beta stops underflowing to 0), so no
        # double meets p = 0.01; 200 halvings used to end in a midpoint
        model = fit(moment_set(ChannelConfig((1,) * 9), 6))
        with pytest.raises(NumericError, match="cannot shrink"):
            cdf_inverse(model, 0.01)
        # the median of (1,...,1,9) lies near 6.3e-321, among the subnormals
        model = fit(moment_set(ChannelConfig((1,) * 9 + (9,)), 6))
        with pytest.raises(NumericError, match=r"the bracket \[6\.\d+e-321, .* cannot shrink"):
            cdf_inverse(model, 0.5)

    def test_bracket_doubles_past_ten_deviations(self):
        # the 1 - 1e-10 quantile of Gamma(7) lies past mean + 10 std = 33.46,
        # where the bracket starts, so its upper end doubles first
        model = fit(moment_set(ChannelConfig((1, 7)), 6))
        p = 1.0 - 1e-10
        x = cdf_inverse(model, p)
        assert x > model.mean + 10.0 * model.std
        assert abs(gammainc(7.0, x) - p) <= 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dims", [(1, 1, 1, 1, 7), (1, 1, 9, 1, 1), (1, 6, 2, 1, 1)])
    def test_tiny_quantiles_meet_tolerance(self, dims):
        # several dims of 1 put the lower quantiles far below 1e-15, where a
        # bracket-width stop in absolute terms ended the bisection early; the
        # 1e-9 quantile of (1,1,9,1,1) lies about 600 halvings down, past
        # the 200 the bisection once allowed
        model = fit(moment_set(ChannelConfig(dims), 6))
        for p in (1e-9, 1e-3, 0.01, 0.05, 0.5):
            x = cdf_inverse(model, p)
            assert abs(cdf(model, x)[1] - p) <= min(1e-10, 1e-6 * p), (dims, p, x)


class TestDistributionMethods:
    def test_methods_match_module_functions(self):
        model = fit(moment_set(ChannelConfig((2, 6, 8, 4)), 6))
        grid = np.linspace(0.0, model.mean + 10.0 * model.std, 33)
        assert np.array_equal(model.cdf(grid), cdf(model, grid)[1])
        assert model.cdf(model.mean) == cdf(model, model.mean)[1]
        # a float gives a float with the grid call's value, and is refused below 0
        assert [model.cdf(x) for x in grid.tolist()] == cdf(model, grid)[1].tolist()
        assert type(model.cdf(1.0)) is float and model.cdf(1) == model.cdf(1.0)
        with pytest.raises(ParameterError):
            model.cdf(-1.0)
        for p in (0.01, 0.05, 0.5):
            assert model.quantile(p) == cdf_inverse(model, p)
