import math
from fractions import Fraction

import numpy as np
import pytest

from rayprod import (
    ChannelConfig,
    Ecdf,
    OstbcScheme,
    ParameterError,
    db_to_linear,
    effective_snr,
    fit,
    linear_to_db,
    moment_set,
    ostbc_catalog,
    outage_capacity,
    outage_probability,
    sample_frobenius,
)


def _model(dims, q=6):
    return fit(moment_set(ChannelConfig(dims), q))


class TestCatalog:
    def test_rates(self):
        assert ostbc_catalog(1).rate == 1
        assert ostbc_catalog(2).rate == 1
        assert ostbc_catalog(3).rate == Fraction(3, 4)
        assert ostbc_catalog(4).rate == Fraction(3, 4)
        assert ostbc_catalog(5).rate == Fraction(1, 2)
        assert ostbc_catalog(8).rate == Fraction(1, 2)

    def test_rate_is_exact_ratio(self):
        for k0 in range(1, 10):
            s = ostbc_catalog(k0)
            assert s.rate == Fraction(s.symbols, s.block_length)
            assert s.tx_antennas == k0

    def test_override(self):
        s = OstbcScheme(6, 2, 3)
        assert s.rate == Fraction(2, 3)
        with pytest.raises(ParameterError):
            OstbcScheme(2, 3, 2)  # rate above one
        with pytest.raises(ParameterError):
            ostbc_catalog(0)


class TestEffectiveSnr:
    def test_direct_substitution(self):
        scheme = ostbc_catalog(2)  # R = 1
        config = ChannelConfig((2, 3, 4))  # normalization 12
        assert effective_snr(scheme, config, 24.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_energy(self):
        assert effective_snr(ostbc_catalog(2), ChannelConfig((2, 3)), 5.0, 0.0) == 0.0

    def test_algebraic_inverse(self):
        scheme = ostbc_catalog(4)
        config = ChannelConfig((4, 8, 4))
        gamma = 7.3
        x = float(scheme.rate) * 4 * config.normalization / gamma
        assert effective_snr(scheme, config, gamma, x) == pytest.approx(1.0, rel=1e-12)

    def test_mismatched_antennas(self):
        with pytest.raises(ParameterError):
            effective_snr(ostbc_catalog(2), ChannelConfig((4, 4)), 1.0, 1.0)


class TestOutageProbability:
    def test_exponential_channel(self):
        # single 1x1 factor: X ~ Exp(1); at gamma=1, R=1, z=ln 2 the
        # threshold is e^z - 1 = 1, so P_out = 1 - exp(-1)
        model = _model((1, 1))
        p = outage_probability(model, ostbc_catalog(1), ChannelConfig((1, 1)), 1.0, math.log(2.0))
        assert p == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_zero_rate(self):
        model = _model((2, 3, 4))
        assert outage_probability(model, ostbc_catalog(2), ChannelConfig((2, 3, 4)), 2.0, 0.0) == 0.0

    def test_monotone_in_rate_and_snr(self):
        config = ChannelConfig((2, 6, 8, 4))
        model = _model(config.dims)
        scheme = ostbc_catalog(2)
        z = np.linspace(0.0, 3.0, 40)
        p = outage_probability(model, scheme, config, 2.0, z)
        assert np.all(np.diff(p) >= 0.0)
        p_low = outage_probability(model, scheme, config, 1.0, 1.0)
        p_high = outage_probability(model, scheme, config, 4.0, 1.0)
        assert p_high <= p_low

    def test_ecdf_curve(self):
        # the Monte-Carlo curve: the ECDF at the rate's channel-energy threshold
        config = ChannelConfig((2, 6, 8, 4))
        ecdf = Ecdf(sample_frobenius(config, 10_000, 2).values)
        z = np.linspace(0.05, 3.0, 60)
        p = outage_probability(ecdf, ostbc_catalog(2), config, 10.0, z)
        threshold = 2 * config.normalization / 10.0 * np.expm1(z)
        assert np.array_equal(p, ecdf(threshold))

    def test_domain(self):
        model = _model((2, 3))
        with pytest.raises(ParameterError):
            outage_probability(model, ostbc_catalog(2), ChannelConfig((2, 3)), -1.0, 1.0)
        with pytest.raises(ParameterError):
            outage_probability(model, ostbc_catalog(2), ChannelConfig((2, 3)), 1.0, -0.5)


class TestOutageCapacity:
    def test_round_trip(self):
        config = ChannelConfig((2, 7, 8, 4))
        model = _model(config.dims)
        scheme = ostbc_catalog(2)
        for p in (0.01, 0.05, 0.5):
            c = outage_capacity(model, scheme, config, 10.0, p)
            back = outage_probability(model, scheme, config, 10.0, c)
            assert back == pytest.approx(p, abs=1e-8)

    def test_exponential_quantile(self):
        model = _model((1, 1))
        c = outage_capacity(model, ostbc_catalog(1), ChannelConfig((1, 1)), 1.0,
                            1.0 - math.exp(-1.0))
        assert c == pytest.approx(math.log(2.0), abs=1e-8)

    def test_monotone_in_snr_and_p(self):
        config = ChannelConfig((4, 8, 4))
        model = _model(config.dims)
        scheme = ostbc_catalog(4)
        caps = [outage_capacity(model, scheme, config, db_to_linear(s), 0.05)
                for s in (0.0, 5.0, 10.0, 20.0)]
        assert all(b > a for a, b in zip(caps, caps[1:]))
        lo = outage_capacity(model, scheme, config, 1.0, 0.01)
        hi = outage_capacity(model, scheme, config, 1.0, 0.5)
        assert hi > lo

    def test_array_snr_matches_scalar_calls(self):
        config = ChannelConfig((2, 7, 8, 4))
        scheme = ostbc_catalog(2)
        gammas = db_to_linear(np.linspace(-10.0, 40.0, 26))
        ecdf = Ecdf(sample_frobenius(config, 20_000, 3).values)
        for dist in (_model(config.dims), ecdf):
            caps = outage_capacity(dist, scheme, config, gammas, 0.05)
            assert isinstance(caps, np.ndarray) and caps.shape == gammas.shape
            for g, c in zip(gammas, caps):
                scalar = outage_capacity(dist, scheme, config, float(g), 0.05)
                assert isinstance(scalar, float)
                assert abs(c - scalar) <= np.spacing(scalar)

    def test_array_snr_domain(self):
        config = ChannelConfig((2, 3))
        with pytest.raises(ParameterError):
            outage_capacity(_model(config.dims), ostbc_catalog(2), config,
                            np.array([1.0, 0.0]), 0.05)

    def test_ecdf_matches_empirical_quantile(self):
        # the Monte-Carlo curve: the sample quantile through the capacity map
        config = ChannelConfig((4, 8, 4))
        scheme = ostbc_catalog(4)
        values = sample_frobenius(config, 10_000, 1).values
        c = outage_capacity(Ecdf(values), scheme, config, 10.0, 0.05)
        rate = float(scheme.rate)
        x_p = float(np.quantile(values, 0.05))
        assert c == pytest.approx(rate * math.log1p(10.0 * x_p / (rate * 4 * 32)),
                                  rel=1e-15)

    def test_high_snr_slope_tracks_code_rate(self):
        # dC/d(gamma_dB) -> R ln(10) / 10 nats per dB
        config = ChannelConfig((2, 7, 8, 4))
        model = _model(config.dims)
        scheme = ostbc_catalog(2)
        c30 = outage_capacity(model, scheme, config, db_to_linear(30.0), 0.05)
        c40 = outage_capacity(model, scheme, config, db_to_linear(40.0), 0.05)
        slope = (c40 - c30) / 10.0
        assert slope == pytest.approx(float(scheme.rate) * math.log(10.0) / 10.0, rel=0.05)


def test_db_helpers():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
    assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3, rel=1e-12)


def test_normalized_mean_is_one():
    # Y = X / (K0 * N) has unit mean for every configuration
    rng = np.random.default_rng(30)
    for _ in range(20):
        dims = tuple(int(k) for k in rng.integers(1, 9, size=rng.integers(2, 6)))
        config = ChannelConfig(dims)
        ms = moment_set(config, 2)
        assert ms.mean / (dims[0] * config.normalization) == pytest.approx(1.0, abs=1e-12)
