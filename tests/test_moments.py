import inspect
import itertools
import math
import sys
import time
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
from rayprod.moments import _partition_sum, composition_count


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
        for k in (2.5, math.nan, math.inf, None, "3"):
            with pytest.raises(ParameterError, match="must be an integer"):
                ChannelConfig((2, k))
        assert ChannelConfig((2, 3.0)).dims == (2, 3)
        assert ChannelConfig((2, 1e6)).dims == (2, 10**6)


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
        # every term is a product of small integers, so neither a dim of 5000
        # nor a wide gap between the dims is costly
        for dims, top in [((1, 5000), 3), ((8, 1000, 1000), 12)]:
            c = ChannelConfig(dims)
            mgf = mgf_moments(c, top)
            for m in range(1, top + 1):
                assert exact_moment(c, m) == closed_form_moment(c, m) == mgf[m]
        for dims, top in [((200, 2000), 2), ((36, 2000, 2000), 3)]:
            c = ChannelConfig(dims)
            for m in range(1, top + 1):
                assert exact_moment(c, m) == closed_form_moment(c, m)

    def test_guards(self):
        with pytest.raises(ResourceError):
            exact_moment(ChannelConfig((2, 3)), 13)
        with pytest.raises(ParameterError):
            exact_moment(ChannelConfig((2, 3)), 0)

    def test_composition_cap(self):
        # 40,920 and 50,388 compositions are under the 60,000 cap
        c = ChannelConfig((30, 30))
        assert composition_count(4, 30) == 40_920
        assert [exact_moment(c, m) for m in range(1, 5)] == mgf_moments(c, 4)[1:]
        c = ChannelConfig((8, 8, 8))
        assert composition_count(12, 8) == 50_388
        assert exact_moment(c, 12) == mgf_moments(c, 12)[12]
        with pytest.raises(ResourceError, match="278256 compositions.*closed_form_moment"):
            exact_moment(ChannelConfig((30, 30)), 5)

    def test_k_min_bound(self):
        # (201,)*4 at m = 2 would take about 0.1 s; the guard refuses it at once
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=r"K_min <= 200\).*closed_form_moment"):
            exact_moment(ChannelConfig((201,) * 4), 2)
        assert time.perf_counter() - start < 0.5

    def test_wide_k0_needs_no_recursion(self):
        # the walk keeps its own stack, so K0 = 200 runs under a tight limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            assert exact_moment(ChannelConfig((200, 200)), 1) == 40000.0
        finally:
            sys.setrecursionlimit(limit)


class TestClosedFormMoment:
    def test_known_values(self):
        assert closed_form_moment(ChannelConfig((2, 3, 4)), 1) == 24.0
        assert closed_form_moment(ChannelConfig((1, 1)), 2) == 2.0
        assert closed_form_moment(ChannelConfig((2, 3, 4)), 3) == 34560.0

    def test_out_of_range(self):
        with pytest.raises(ResourceError, match="order guard"):
            closed_form_moment(ChannelConfig((2, 3)), 13)

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

    def test_k_min_bound(self):
        # (37, 1000, 1000) at m = 12 would take about 2 s; the guard refuses it at once
        assert mgf_moments(ChannelConfig((36, 36)), 1)[1] == 1296.0
        start = time.perf_counter()
        with pytest.raises(ResourceError, match=r"K_min <= 36\).*closed_form_moment"):
            mgf_moments(ChannelConfig((37, 1000, 1000)), 12)
        assert time.perf_counter() - start < 0.5

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
        # above the partition sum's cap the character sum still gives (k^2)_m
        for k in (17, 20, 30, 100):
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

    def test_reads_only_the_character_sum(self, monkeypatch):
        import rayprod.moments as moments

        c = ChannelConfig((2, 7, 8, 4))
        mgf = tuple(mgf_moments(c, 6)[1:])

        def refuse(*args):
            raise AssertionError("moment_set left the character sum")

        for name in ("mgf_moments", "_mgf_coefficients", "_bareiss", "exact_moment",
                     "_partition_sum", "composition_count"):
            monkeypatch.setattr(moments, name, refuse)
        moments._partition_table.cache_clear()
        ms = moment_set(c, 6)
        assert ms.values == mgf
        assert moments._partition_table.cache_info().currsize == 6

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
        with pytest.raises(ParameterError, match="at least one moment"):
            MomentSet(ChannelConfig((2, 3)), ())
        with pytest.raises(ParameterError, match="variance needs at least two moments"):
            MomentSet(ChannelConfig((2, 3)), (6.0,)).variance


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
    assert _partition_sum(c.canonical_dims, 1) == Fraction(24)
    assert _partition_sum(c.canonical_dims, 2) == Fraction(792)
    assert _partition_sum(c.canonical_dims, 3) == Fraction(34560)
    c2 = ChannelConfig((4, 5))
    for m in range(1, 7):
        assert _partition_sum(c2.canonical_dims, m) == Fraction(
            math.prod(range(20, 20 + m))
        )
