"""The value classes are immutable records.

``ChannelConfig``, ``MomentSet``, ``GammaLaguerreModel`` and ``OstbcScheme``
compare and hash by their fields; ``SampleSet`` compares by identity.  All
five refuse assignment and bad constructor arguments, survive pickle and
``deepcopy``, and print the ``Name(field=value, ...)`` repr that error
messages carry.
"""

import copy
import pickle

import numpy as np
import pytest

from rayprod import (
    ChannelConfig,
    GammaLaguerreModel,
    MomentSet,
    OstbcScheme,
    ParameterError,
    SampleSet,
    fit,
    moment_set,
    sample_frobenius,
)
from rayprod.cli import main


def _records():
    """Two independently built copies of each value-compared record."""
    def build():
        config = ChannelConfig((2, 7, 8, 4))
        moments = moment_set(config, 6)
        return [config, moments, fit(moments), OstbcScheme(4, 3, 4)]
    return zip(build(), build())


def test_equal_fields_give_equal_records_and_hashes():
    for a, b in _records():
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert ChannelConfig((2, 3)) != ChannelConfig((3, 2))
    assert OstbcScheme(4, 3, 4) != OstbcScheme(3, 3, 4)
    # another class with the same field values is not equal
    assert ChannelConfig((2, 3)) != (2, 3)
    assert MomentSet(ChannelConfig((1, 1)), (1.0,)) != SampleSet(
        ChannelConfig((1, 1)), 0, np.ones(1))


def test_fields_cannot_be_assigned_or_deleted():
    samples = sample_frobenius(ChannelConfig((2, 3)), 4, 0)
    for record, field in [*((a, a.__slots__[0]) for a, _ in _records()),
                          (samples, "values"), (samples, "seed")]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.no_such_field = 1  # slotted: no new attributes either


@pytest.mark.parametrize("build, message", [
    (lambda: ChannelConfig(), "missing argument 'dims'"),
    (lambda: ChannelConfig((2, 3), 4), "takes 1 arguments, got 2"),
    (lambda: ChannelConfig(dimz=(2, 3)), "unexpected argument 'dimz'"),
    (lambda: ChannelConfig((2, 3), dims=(2, 3)), "multiple values for argument 'dims'"),
    (lambda: MomentSet(ChannelConfig((2, 3))), "missing argument 'values'"),
    (lambda: OstbcScheme(2, 2), "missing argument 'block_length'"),
    (lambda: OstbcScheme(2, 2, 2, 2), "takes 3 arguments, got 4"),
    (lambda: GammaLaguerreModel(alpha=1.0), "missing argument 'beta'"),
    (lambda: SampleSet(ChannelConfig((2, 3)), 0), "missing argument 'values'"),
    (lambda: ChannelConfig((2, 3)).replace(dimz=(2, 3)), "unexpected argument 'dimz'"),
])
def test_bad_arguments_raise_type_error(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_pickle_and_deepcopy_round_trip():
    for record, _ in _records():
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert clone == record and clone is not record
            assert type(clone) is type(record) and repr(clone) == repr(record)
    samples = sample_frobenius(ChannelConfig((2, 3)), 4, 7)
    for clone in (pickle.loads(pickle.dumps(samples)), copy.deepcopy(samples)):
        assert clone.config == samples.config and clone.seed == 7
        assert clone.values is not samples.values
        np.testing.assert_array_equal(clone.values, samples.values)


def test_sample_set_compares_by_identity():
    config = ChannelConfig((2, 3))
    a, b = sample_frobenius(config, 4, 0), sample_frobenius(config, 4, 0)
    np.testing.assert_array_equal(a.values, b.values)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_replace_builds_a_checked_copy():
    model = GammaLaguerreModel(1.0, 1.0, 1, (), None, (), 0, 1.0, (), 1.0, (0.0, 0.0, 0.0), (), ())
    moved = model.replace(peak_x=(2.0,), peak_max=(0.5,))
    assert (moved.peak_x, moved.peak_max, moved.alpha) == ((2.0,), (0.5,), 1.0)
    assert model.peak_x == ()
    assert ChannelConfig((2, 3)).replace(dims=[4.0, 5]) == ChannelConfig((4, 5))
    with pytest.raises(ParameterError, match="code rate above one"):
        OstbcScheme(2, 2, 2).replace(symbols=3)


def test_pinned_reprs():
    config = ChannelConfig((2, 7, 8, 4))
    assert repr(config) == "ChannelConfig(dims=(2, 7, 8, 4))"
    assert str(config) == "[2,7,8,4]"
    assert repr(moment_set(config, 2)) == (
        "MomentSet(config=ChannelConfig(dims=(2, 7, 8, 4)), values=(448.0, 270144.0))")
    assert repr(OstbcScheme(4, 3, 4)) == str(OstbcScheme(4, 3, 4)) == (
        "OstbcScheme(tx_antennas=4, symbols=3, block_length=4)")
    assert repr(fit(moment_set(ChannelConfig((1, 1)), 2))) == (
        "GammaLaguerreModel(alpha=1.0, beta=1.0, q=2, weights_scaled=(1.0, 0.0, 0.0), "
        "source_moments=MomentSet(config=ChannelConfig(dims=(1, 1)), values=(1.0, 2.0)), "
        "eps_basis=(0.0, -0.0, 0.0), top=0, total=1.0, horner=(), poch_top=1.0, "
        "shape_terms=(0.0, 0.0, 0.0), peak_x=(), peak_max=())")
    # the draws stay out of the repr
    assert repr(sample_frobenius(ChannelConfig((2, 3)), 4, 5)) == (
        "SampleSet(config=ChannelConfig(dims=(2, 3)), seed=5)")


def test_invalid_rate_error_prints_the_scheme(capsys):
    argv = ["outage", "--dims", "2,7,8,4", "--rate", "0/1",
            "--pout", "0.05", "--snr-grid", "0:40:41"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("rayprod: parameter error: invalid OSTBC parameters "
                       "OstbcScheme(tx_antennas=2, symbols=0, block_length=1)\n")
