"""The value classes are immutable records.

``ChannelConfig``, ``MomentSet``, ``GammaLaguerreModel`` and ``OstbcScheme``
compare and hash by their fields; ``SampleSet`` compares by identity.  All
five refuse assignment and bad constructor arguments, survive pickle and
``deepcopy``, and print the ``Name(field=value, ...)`` repr that error
messages carry.  ``GammaLaguerreModel`` has one field, ``source_moments``,
and derives every other attribute from it when it is built.
"""

import copy
import pickle
import warnings

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
    (lambda: GammaLaguerreModel(), "missing argument 'source_moments'"),
    (lambda: GammaLaguerreModel(None), "source_moments must be a MomentSet, got NoneType"),
    (lambda: fit((1.0, 2.0)), "source_moments must be a MomentSet, got tuple"),
    (lambda: SampleSet(ChannelConfig((2, 3)), 0), "missing argument 'values'"),
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


def test_constructor_normalizes_and_checks_the_fields():
    assert ChannelConfig([4.0, 5]) == ChannelConfig((4, 5))
    with pytest.raises(ParameterError, match="code rate above one"):
        OstbcScheme(2, 3, 2)


def test_moment_values_are_kept_as_a_tuple():
    # as ChannelConfig keeps its dims: a list or array of moments compares and hashes
    config = ChannelConfig((2, 3))
    built = [MomentSet(config, v) for v in ((6.0, 48.0), [6.0, 48.0], np.array([6.0, 48.0]))]
    for moments in built:
        assert type(moments.values) is tuple
        assert moments == built[0] and hash(moments) == hash(built[0])
        assert fit(moments) == fit(built[0]) and hash(fit(moments)) == hash(fit(built[0]))
    assert len(set(built)) == 1


_DERIVED = ("alpha", "beta", "q", "weights_scaled", "eps_basis", "top", "total",
            "horner", "poch_top", "shape_terms", "peak_x", "peak_max")


def _derived(model):
    return [getattr(model, key) for key in _DERIVED]


def test_model_is_built_from_its_moments_alone():
    moments = moment_set(ChannelConfig((4, 8, 8, 8, 4)), 6)
    model, fitted = GammaLaguerreModel(moments), fit(moments)
    assert model == fitted and _derived(model) == _derived(fitted)
    assert model.peak_x and model.top == 6
    with pytest.raises(TypeError, match="takes 1 arguments, got 13"):
        GammaLaguerreModel(1.0, 1.0, 1, (), moments, (), 0, 1.0, (), 1.0,
                           (0.0, 0.0, 0.0), (), ())
    for key in ("alpha", "peak_max"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{key}'"):
            setattr(model, key, ())


def test_model_clones_rederive_without_warning():
    with pytest.warns(RuntimeWarning, match="large magnitude"):
        model = fit(moment_set(ChannelConfig((8, 8)), 12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clones = [pickle.loads(pickle.dumps(model)), copy.deepcopy(model)]
    for clone in clones:
        assert clone == model and clone is not model
        assert _derived(clone) == _derived(model)


def test_pinned_reprs():
    config = ChannelConfig((2, 7, 8, 4))
    assert repr(config) == "ChannelConfig(dims=(2, 7, 8, 4))"
    assert str(config) == "[2,7,8,4]"
    assert repr(moment_set(config, 2)) == (
        "MomentSet(config=ChannelConfig(dims=(2, 7, 8, 4)), values=(448.0, 270144.0))")
    assert repr(OstbcScheme(4, 3, 4)) == str(OstbcScheme(4, 3, 4)) == (
        "OstbcScheme(tx_antennas=4, symbols=3, block_length=4)")
    assert repr(fit(moment_set(ChannelConfig((1, 1)), 2))) == (
        "GammaLaguerreModel(source_moments=MomentSet(config=ChannelConfig(dims=(1, 1)), "
        "values=(1.0, 2.0)))")
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
