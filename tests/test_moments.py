import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rayprod import (
    ChannelConfig,
    MomentSet,
    NumericError,
    ParameterError,
    ResourceError,
    closed_form_moment,
    exact_moment,
    fit,
    leading_order_moment,
    mgf_moments,
    moment_set,
)
from rayprod.moments import (
    _compositions,
    _exact_moment_rational,
    composition_count,
)


class TestChannelConfig:
    def test_derived_quantities(self):
        c = ChannelConfig((4, 2, 3))
        assert c.n == 2
        assert c.k_min == 2
        assert c.canonical_dims == (2, 3, 4)
        assert c.normalization == 6

    def test_validation(self):
        with pytest.raises(ParameterError):
            ChannelConfig((3,))
        with pytest.raises(ParameterError):
            ChannelConfig((2, 0))


class TestCompositions:
    def test_count_matches_binomial(self):
        for m in range(0, 7):
            for k in range(1, 6):
                comps = _compositions(m, k)
                assert comps.shape == (composition_count(m, k), k)
                assert np.all(comps.sum(axis=1) == m)

    def test_lexicographic_order(self):
        comps = [tuple(row) for row in _compositions(4, 3).tolist()]
        assert comps == sorted(comps)

    def test_matches_recursive_table(self):
        # the memoized first-part recursion the table was once built with
        @functools.lru_cache(maxsize=None)
        def recursive(m, k):
            if k == 1:
                return np.array([[m]], dtype=np.int64)
            blocks = []
            for first in range(m + 1):
                rest = recursive(m - first, k - 1)
                block = np.empty((rest.shape[0], k), dtype=np.int64)
                block[:, 0] = first
                block[:, 1:] = rest
                blocks.append(block)
            return np.vstack(blocks)

        for m in range(0, 13):
            for k in range(1, 9):
                if composition_count(m, k) > 20_000:
                    continue
                got = _compositions(m, k)
                assert got.dtype == np.int64
                assert np.array_equal(got, recursive(m, k)), (m, k)


class TestExactMoment:
    def test_known_values(self):
        assert exact_moment(ChannelConfig((2, 3)), 2) == pytest.approx(42.0, rel=1e-12)
        assert exact_moment(ChannelConfig((1, 1, 1)), 1) == pytest.approx(1.0, rel=1e-12)
        assert exact_moment(ChannelConfig((2, 3, 4)), 2) == pytest.approx(792.0, rel=1e-12)

    def test_single_factor_law(self):
        # for n = 1 the m-th moment is the rising factorial (K0*K1)_m
        for k0, k1 in itertools.product(range(1, 5), range(1, 5)):
            kk = k0 * k1
            for m in range(1, 6):
                expected = math.prod(range(kk, kk + m))
                got = exact_moment(ChannelConfig((k0, k1)), m)
                assert got == pytest.approx(expected, rel=1e-10)

    def test_mean_is_product_of_dims(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            dims = tuple(int(k) for k in rng.integers(1, 9, size=rng.integers(2, 5)))
            c = ChannelConfig(dims)
            assert exact_moment(c, 1) / math.prod(dims) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance_sample(self):
        for dims in [(2, 3, 4), (1, 5, 2), (3, 3, 6, 2)]:
            base = [exact_moment(ChannelConfig(dims), m) for m in range(1, 5)]
            for perm in itertools.permutations(dims):
                got = [exact_moment(ChannelConfig(perm), m) for m in range(1, 5)]
                np.testing.assert_allclose(got, base, rtol=1e-9)

    def test_large_dim_matches_other_routes(self):
        # only the factorials near each dim are built, so a dim of 5000 is cheap
        c = ChannelConfig((1, 5000))
        mgf = mgf_moments(c, 3)
        for m in range(1, 4):
            assert exact_moment(c, m) == closed_form_moment(c, m) == mgf[m]

    def test_guards(self):
        with pytest.raises(ResourceError):
            exact_moment(ChannelConfig((2, 3)), 13)
        with pytest.raises(ParameterError):
            exact_moment(ChannelConfig((2, 3)), 0)


class TestClosedFormMoment:
    def test_known_values(self):
        assert closed_form_moment(ChannelConfig((2, 3, 4)), 1) == 24.0
        assert closed_form_moment(ChannelConfig((1, 1)), 2) == 2.0
        assert closed_form_moment(ChannelConfig((2, 3, 4)), 3) == 34560.0

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            closed_form_moment(ChannelConfig((2, 3)), 4)

    def test_matches_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dims = tuple(int(k) for k in rng.integers(1, 9, size=rng.integers(2, 5)))
            c = ChannelConfig(dims)
            for m in (1, 2, 3):
                assert closed_form_moment(c, m) == pytest.approx(
                    exact_moment(c, m), rel=1e-9
                )


class TestMgfMoment:
    def test_known_values(self):
        assert mgf_moments(ChannelConfig((2, 3)), 3)[3] == pytest.approx(336.0, rel=1e-10)
        assert mgf_moments(ChannelConfig((5, 2, 7)), 0)[0] == 1.0
        assert mgf_moments(ChannelConfig((2, 3, 4)), 2)[2] == pytest.approx(
            exact_moment(ChannelConfig((2, 3, 4)), 2), rel=1e-10
        )

    def test_batch_is_consistent(self):
        c = ChannelConfig((3, 2, 5))
        batch = mgf_moments(c, 5)
        assert batch[0] == 1.0
        for m in range(1, 6):
            assert batch[m] == pytest.approx(exact_moment(c, m), rel=1e-8)

    def test_guards(self):
        with pytest.raises(ResourceError):
            mgf_moments(ChannelConfig((2, 3)), 13)
        c = ChannelConfig((9, 9))
        assert mgf_moments(c, 2)[2] == exact_moment(c, 2)

    def test_float_range(self):
        # E[X^12] is about 1e324 for these dims; both exact routes say so
        c = ChannelConfig((1,) + (1000,) * 9)
        with pytest.raises(NumericError):
            mgf_moments(c, 12)
        with pytest.raises(NumericError):
            exact_moment(c, 12)

    def test_equals_partition_sum_over_acceptance_grid(self):
        # both routes are exact and round once, so the floats are equal
        for n in (1, 2, 3):
            for dims in itertools.product(range(1, 9), repeat=n + 1):
                c = ChannelConfig(dims)
                batch = mgf_moments(c, 6)
                for m in range(1, 7):
                    assert batch[m] == exact_moment(c, m), (dims, m)

    def test_equals_partition_sum_to_order_12(self):
        for dims in [(4, 8, 8, 8, 4), (2, 2, 2, 2, 2, 2), (1, 1, 9, 1, 1)]:
            c = ChannelConfig(dims)
            batch = mgf_moments(c, 12)
            for m in range(1, 13):
                assert batch[m] == exact_moment(c, m), (dims, m)


class TestLeadingOrderMoment:
    def test_known_values(self):
        assert leading_order_moment(ChannelConfig((1, 1)), 5) == 120.0
        assert leading_order_moment(ChannelConfig((2, 2)), 2) == 18.0

    def test_past_the_float_range(self):
        # prod_i (K_i)_m / m! outgrows a double long before m = 200
        c = ChannelConfig((2, 4))
        assert leading_order_moment(c, 13) == float(14 * math.prod(range(4, 17)))
        with pytest.raises(NumericError, match="exceeds the float range"):
            leading_order_moment(c, 200)

    def test_dominates_for_many_clusters(self):
        # exact/leading for [2,8(,8)*] at m=4 approaches 1 monotonically in n;
        # the frozen end ratio 1.2015 comes from the exact partition-sum
        # oracle (itself cross-checked against Monte Carlo)
        m = 4
        ratios = []
        for clusters in range(2, 6):
            c = ChannelConfig((2,) + (8,) * clusters)
            ratios.append(exact_moment(c, m) / leading_order_moment(c, m))
        assert all(r > 1.0 for r in ratios)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.2015232882999796, rel=1e-9)


class TestMomentSet:
    def test_exact_fill(self):
        ms = moment_set(ChannelConfig((2, 3)), 3)
        assert ms.values == (6.0, 42.0, 336.0)

    def test_single_moment(self):
        ms = moment_set(ChannelConfig((4, 4)), 1)
        assert ms.values == (16.0,)

    def test_stops_at_order_12(self):
        # every moment is exact, and exact moments stop at order 12
        c = ChannelConfig((2, 3))
        assert moment_set(c, 12).q == 12
        for q in (13, 14, 10**6):
            with pytest.raises(ParameterError, match="up to order 12"):
                moment_set(c, q)
        with pytest.raises(ResourceError):
            exact_moment(c, 13)

    def test_large_single_factor_is_exact_gamma(self):
        # above the partition sum's cap the MGF route still gives (k^2)_m
        for k in (17, 20, 30):
            c = ChannelConfig((k, k))
            ms = moment_set(c, 6)
            assert ms.values == tuple(
                float(math.prod(range(k * k, k * k + m))) for m in range(1, 7)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = fit(ms)
            assert all(w == 0.0 for w in model.weights_scaled[3:]), k

    def test_mgf_fill_above_partition_cap(self):
        c = ChannelConfig((30, 30))
        ms = moment_set(c, 8)
        assert ms.values == tuple(mgf_moments(c, 8)[1:])

    def test_reads_only_the_mgf_route(self, monkeypatch):
        import rayprod.moments as moments

        c = ChannelConfig((2, 7, 8, 4))
        closed = tuple(closed_form_moment(c, m) for m in range(1, 4))

        def refuse(*args):
            raise AssertionError("moment_set left the MGF route")

        for name in ("exact_moment", "_exact_moment_rational", "composition_count",
                     "closed_form_moment"):
            monkeypatch.setattr(moments, name, refuse)
        ms = moment_set(c, 6)
        assert ms.values[:3] == closed

    def test_moments_increase_and_are_log_convex(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dims = tuple(int(k) for k in rng.integers(1, 7, size=rng.integers(2, 5)))
            ms = moment_set(ChannelConfig(dims), 6)
            values = (1.0,) + ms.values  # prepend E[X^0]
            assert all(b > a for a, b in zip(ms.values, ms.values[1:]))
            for m in range(1, len(values) - 1):
                assert values[m + 1] * values[m - 1] >= values[m] ** 2 * (1 - 1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            MomentSet(ChannelConfig((2, 3)), (-6.0,))


def test_sample_moments_match_monte_carlo(samples_2784):
    """Exact moments sit within 3 standard errors of 10^6-draw sample moments."""
    ms = moment_set(ChannelConfig((2, 7, 8, 4)), 6)
    v = samples_2784.values
    for m in range(1, 7):
        powers = v**m
        sample_mean = powers.mean()
        se = powers.std(ddof=1) / math.sqrt(v.size)
        assert abs(ms.values[m - 1] - sample_mean) <= 3.0 * se, f"m={m}"


def test_rational_oracle_small_cases():
    """Spot-check the partition sum against brute-force rational arithmetic."""
    # independent oracle: expand E[(sum lambda)^m] via the known n=1 law and
    # the closed second/third moments, all in exact arithmetic
    c = ChannelConfig((3, 2, 4))
    assert _exact_moment_rational(c.canonical_dims, 1) == Fraction(24)
    assert _exact_moment_rational(c.canonical_dims, 2) == Fraction(792)
    assert _exact_moment_rational(c.canonical_dims, 3) == Fraction(34560)
    c2 = ChannelConfig((4, 5))
    for m in range(1, 7):
        assert _exact_moment_rational(c2.canonical_dims, m) == Fraction(
            math.prod(range(20, 20 + m))
        )
