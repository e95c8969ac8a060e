"""numpy serves the sampler and array arguments only.

``import rayprod``, the model and the analytic CLI commands (``moments``,
``cdf``, ``outage``) run on plain floats; the Monte-Carlo names load
``rayprod.montecarlo``, and numpy with it, on first use.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import rayprod
from rayprod import (
    ChannelConfig,
    cdf,
    db_to_linear,
    fit,
    moment_set,
    ostbc_catalog,
    outage_capacity,
    outage_probability,
)
from rayprod.cli import main

_SRC = os.path.dirname(os.path.dirname(rayprod.__file__))
_WITHOUT_NUMPY = ("import sys; sys.modules['numpy'] = None; "
                  "from rayprod.cli import main; sys.exit(main(sys.argv[1:]))")


def _python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": _SRC})


@pytest.mark.parametrize("module", ["rayprod", "rayprod.cli"])
def test_import_leaves_numpy_out(module):
    # nor dataclasses (with inspect) or fractions (with decimal), which cost
    # milliseconds of cold start; a bare interpreter's modules are the base,
    # so a site .pth file that loads one of them cannot fail the test
    listing = "import sys; print(*sys.modules)"
    bare, out = _python(listing), _python(f"import {module}; {listing}")
    assert bare.returncode == out.returncode == 0, out.stderr
    added = set(out.stdout.split()) - set(bare.stdout.split())
    assert module in added
    assert not added & {"numpy", "dataclasses", "inspect", "fractions", "decimal"}


@pytest.mark.parametrize("argv", [
    ["moments", "--dims", "2,7,8,4"],
    ["cdf", "--dims", "2,7,8,4"],
    ["cdf", "--dims", "2,2,2,2,2", "--format", "json"],
    ["outage", "--dims", "2,7,8,4", "--pout", "0.05", "--snr-grid", "0:40:41"],
    ["outage", "--dims", "2,7,8,4", "--snr-db", "10", "--z-grid", "0:1000:3"],
    ["outage", "--dims", "4,8,4", "--snr-db", "5", "--z-grid", "0.05:3:60", "--bits"],
])
def test_analytic_commands_run_without_numpy(argv, capsys):
    # the same bytes as in a process that has numpy loaded
    out = _python(_WITHOUT_NUMPY, *argv)
    assert out.returncode == 0, out.stderr
    assert main(argv) == 0
    assert out.stdout == capsys.readouterr().out


def test_variance_recursion_runs_without_numpy():
    # plain math, so it is an analytic name and not a simulator one
    code = ("import sys; sys.modules['numpy'] = None; import rayprod; "
            "print(rayprod.variance_recursion(rayprod.ChannelConfig((4, 8, 8, 8, 4)))[-1])")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{rayprod.variance_recursion(ChannelConfig((4, 8, 8, 8, 4)))[-1]}\n"


def test_blocked_numpy_stops_the_sampler():
    # the block above is real: a command that samples exits 3, naming numpy
    for argv in (["simulate", "--dims", "2,3", "--samples", "10"],
                 ["cdf", "--dims", "2,3", "--samples", "10"],
                 ["reproduce", "--figure", "fig4", "--samples", "10", "--out", os.devnull]):
        out = _python(_WITHOUT_NUMPY, *argv)
        assert out.returncode == 3 and out.stdout == "", argv
        assert out.stderr.count("\n") == 1 and "Traceback" not in out.stderr
        assert out.stderr.startswith("rayprod: resource error:") and "numpy" in out.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--dims", "2,3", "--samples", "0"],
    ["cdf", "--dims", "2,3", "--samples", "0"],
    ["reproduce", "--figure", "fig4", "--samples", "0", "--out", os.devnull],
])
def test_draw_count_refused_before_numpy(argv):
    # like the seed, the draw count is read before any fit, draw or numpy import
    out = _python(_WITHOUT_NUMPY, *argv)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == "rayprod: parameter error: --samples must be an integer >= 1, got 0\n"


@pytest.mark.parametrize("snr_db, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf"),
                                            ("4000", "4000")])
@pytest.mark.parametrize("argv", [
    ["reproduce", "--figure", "fig2", "--samples", "10", "--out", os.devnull],
    ["outage", "--dims", "2,7,8,4", "--z-grid", "0:1:3"],
])
def test_snr_refused_before_numpy(argv, snr_db, shown):
    # db_to_linear is the one SNR check, and it runs before any fit, draw or numpy import
    out = _python(_WITHOUT_NUMPY, *argv, "--snr-db", snr_db)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == ("rayprod: parameter error: an SNR of "
                          f"{shown} dB has no finite linear value\n")


@pytest.mark.parametrize("argv,env", [
    (["simulate", "--dims", "2,3", "--seed", "-1"], None),
    (["cdf", "--dims", "2,3", "--seed", str(2**64)], None),
    (["simulate", "--dims", "2,3"], "-1"),
    (["cdf", "--dims", "2,3", "--grid-points", "3", "--samples", "0", "--seed", "-1"], None),
])
def test_seed_refused_before_numpy(argv, env, monkeypatch):
    # the seed is read before any fit, draw or numpy import, and before the
    # draw count; the refused seed is RAYPROD_SEED or else the last argument
    if env is not None:
        monkeypatch.setenv("RAYPROD_SEED", env)
    out = _python(_WITHOUT_NUMPY, *argv)
    got = argv[-1] if env is None else env
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == ("rayprod: parameter error: seed must be an integer in "
                          f"[0, {2**64 - 1}], got {got}\n")


def test_every_public_name_resolves():
    # each module's __all__ joins the package API, so the set is pinned here
    assert rayprod.__all__ == [
        "ChannelConfig", "Ecdf", "FitError", "GammaLaguerreModel", "MomentSet",
        "NumericError", "OstbcScheme", "ParameterError", "RayprodError", "ResourceError",
        "SampleSet", "cdf", "cdf_inverse", "closed_form_moment", "db_to_linear",
        "exact_moment", "fit", "leading_order_moment", "load_samples", "mgf_moments",
        "moment_set", "ostbc_catalog", "outage_capacity", "outage_probability",
        "rayleigh_limit_distance", "sample_frobenius", "save_samples", "variance_recursion",
    ]
    assert "composition_count" not in rayprod.__all__
    for name in rayprod.__all__:
        assert getattr(rayprod, name) is not None, name
    assert set(rayprod.__all__) <= set(dir(rayprod))
    namespace = {}
    exec("from rayprod import *", namespace)
    assert set(rayprod.__all__) <= set(namespace)
    assert rayprod.sample_frobenius is rayprod.montecarlo.sample_frobenius
    with pytest.raises(AttributeError, match="no_such_name"):
        rayprod.no_such_name


class TestScalarsAndArrays:
    """A float gives a float; an ndarray gives an ndarray of its shape."""

    config = ChannelConfig((2, 7, 8, 4))
    scheme = ostbc_catalog(2)

    @pytest.fixture(scope="class")
    def model(self):
        return fit(moment_set(self.config, 6))

    def test_cdf(self, model):
        for x in (25.0, np.float64(25.0), 25):
            assert [type(v) for v in cdf(model, x)] == [float, float]
        grid = np.linspace(0.0, 150.0, 6).reshape(2, 3)
        raw, reg = cdf(model, grid)
        assert isinstance(raw, np.ndarray) and raw.shape == reg.shape == (2, 3)
        assert [cdf(model, x) for x in grid.ravel().tolist()] == list(
            zip(raw.ravel().tolist(), reg.ravel().tolist()))

    def test_outage_probability(self, model):
        args = (model, self.scheme, self.config)
        assert type(outage_probability(*args, 10.0, 0.5)) is float
        z = np.linspace(0.1, 2.0, 6).reshape(2, 3)
        gamma = db_to_linear(np.linspace(0.0, 20.0, 6).reshape(2, 3))
        for g, r in ((10.0, z), (gamma, 0.5), (gamma, z)):
            p = outage_probability(*args, g, r)
            assert isinstance(p, np.ndarray) and p.shape == (2, 3)
            pairs = np.broadcast_arrays(np.asarray(g), np.asarray(r))
            assert p.ravel().tolist() == [
                outage_probability(*args, gi, ri)
                for gi, ri in zip(pairs[0].ravel().tolist(), pairs[1].ravel().tolist())]

    def test_outage_capacity(self, model):
        args = (model, self.scheme, self.config)
        assert type(outage_capacity(*args, 10.0, 0.05)) is float
        gamma = db_to_linear(np.linspace(0.0, 40.0, 6).reshape(3, 2))
        assert isinstance(gamma, np.ndarray) and gamma.shape == (3, 2)
        c = outage_capacity(*args, gamma, 0.05)
        assert isinstance(c, np.ndarray) and c.shape == (3, 2)
        assert c.ravel().tolist() == [outage_capacity(*args, g, 0.05)
                                      for g in gamma.ravel().tolist()]

    def test_db_to_linear(self):
        assert type(db_to_linear(np.float64(3.0))) is float
        assert db_to_linear(np.array(3.0)) == db_to_linear(3.0)
        assert db_to_linear(np.zeros((2, 2))).shape == (2, 2)

    def test_empty_and_0d(self, model):
        args = (model, self.scheme, self.config)
        calls = [db_to_linear,
                 lambda g: outage_probability(*args, g, 0.5),
                 lambda z: outage_probability(*args, 10.0, z),
                 lambda g: outage_capacity(*args, g, 0.05)]
        for call in calls:
            for empty in (np.array([]), []):
                out = call(empty)
                assert isinstance(out, np.ndarray) and out.dtype == float
                assert out.shape == (0,)
            got = call(np.array(3.0))
            assert type(got) is float and got == call(3.0)
