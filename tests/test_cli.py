import csv
import io
import json
import math
import warnings

import pytest

from rayprod import NumericError, ResourceError
from rayprod.cli import main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


class TestMoments:
    def test_table(self, capsys):
        code, out, _ = _run(capsys, ["moments", "--dims", "2,3", "--q", "3"])
        assert code == 0
        header, rows = _rows(out)
        assert header == ["m", "exact", "closed_form", "mgf", "leading_order"]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert [float(r[1]) for r in rows] == [6.0, 42.0, 336.0]

    def test_trivial_channel(self, capsys):
        code, out, _ = _run(capsys, ["moments", "--dims", "1,1", "--q", "1"])
        assert code == 0
        _, rows = _rows(out)
        assert float(rows[0][1]) == 1.0

    def test_three_factor_values(self, capsys):
        code, out, _ = _run(capsys, ["moments", "--dims", "2,3,4", "--q", "3"])
        assert code == 0
        _, rows = _rows(out)
        assert [float(r[1]) for r in rows] == [24.0, 792.0, 34560.0]

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, ["moments", "--dims", "2,3", "--q", "2",
                                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["exact"] == 6.0


class TestCdf:
    def test_curve_with_overlay(self, capsys):
        code, out, _ = _run(capsys, [
            "cdf", "--dims", "2,3,4", "--q", "4", "--grid-points", "41",
            "--simulate", "--samples", "20000", "--seed", "3",
        ])
        assert code == 0
        header, rows = _rows(out)
        assert header == ["x", "raw_cdf", "regularized_cdf", "ecdf"]
        assert len(rows) == 41
        assert float(rows[0][2]) == 0.0
        regs = [float(r[2]) for r in rows]
        assert all(b >= a for a, b in zip(regs, regs[1:]))
        ecdfs = [float(r[3]) for r in rows]
        assert max(abs(a - b) for a, b in zip(regs, ecdfs)) < 0.05


class TestOutage:
    def test_rate_curve(self, capsys):
        code, out, _ = _run(capsys, [
            "outage", "--dims", "1,1", "--q", "2", "--snr-db", "0",
            "--z-grid", "0.1:1.4:14",
        ])
        assert code == 0
        header, rows = _rows(out)
        assert header == ["capacity_nats_per_s_hz", "outage_probability"]
        z, p = zip(*((float(r[0]), float(r[1])) for r in rows))
        # exponential law: P_out = 1 - exp(-(e^z - 1))
        for zi, pi in zip(z, p):
            assert pi == pytest.approx(1.0 - math.exp(-(math.exp(zi) - 1.0)), abs=1e-9)

    def test_capacity_curve_and_bits(self, capsys):
        args = ["outage", "--dims", "2,7,8,4", "--q", "6", "--pout", "0.05",
                "--snr-grid", "0:20:5"]
        code, nats_out, _ = _run(capsys, args)
        assert code == 0
        code, bits_out, _ = _run(capsys, args + ["--bits"])
        assert code == 0
        _, nats_rows = _rows(nats_out)
        header, bits_rows = _rows(bits_out)
        assert header == ["snr_db", "outage_capacity_bits_per_s_hz"]
        for nr, br in zip(nats_rows, bits_rows):
            assert float(br[1]) == pytest.approx(float(nr[1]) / math.log(2.0), rel=1e-12)

    def test_explicit_rate(self, capsys):
        code, out, _ = _run(capsys, [
            "outage", "--dims", "6,8,6", "--q", "4", "--pout", "0.1",
            "--snr-grid", "0:10:3", "--rate", "2/3",
        ])
        assert code == 0

    def test_negative_values_parse(self, capsys):
        # a value starting with "-" is a value, spaced or joined with "="
        base = ["outage", "--dims", "2,7,8,4", "--q", "4", "--pout", "0.05"]
        code, spaced, _ = _run(capsys, base + ["--snr-grid", "-5:30:3"])
        assert code == 0
        code, joined, _ = _run(capsys, base + ["--snr-grid=-5:30:3"])
        assert code == 0
        assert spaced == joined
        assert [r[0] for r in _rows(spaced)[1]] == ["-5.0", "12.5", "30.0"]
        code, out, _ = _run(capsys, ["outage", "--dims", "2,7,8,4", "--q", "4",
                                     "--z-grid", "0.1:1:2", "--snr-db", "-5e-1"])
        assert code == 0
        assert len(_rows(out)[1]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pout_range(self, capsys):
        base = ["outage", "--snr-grid", "0:10:3", "--pout"]
        for dims, pout, status in [("2,4", "1e-15", 2), ("2,4", "0", 2), ("2,4", "1", 2),
                                   ("1,1,1,1,1,1,1,1,1", "0.01", 4)]:
            code, out, err = _run(capsys, base + [pout, "--dims", dims])
            assert code == status, (dims, pout)
            assert out == ""
            assert err.strip().count("\n") == 0, (dims, pout)
        code, out, _ = _run(capsys, base + ["1e-12", "--dims", "2,4"])
        assert code == 0
        assert len(_rows(out)[1]) == 3

    def test_needs_a_target(self, capsys):
        code, _, err = _run(capsys, ["outage", "--dims", "2,3", "--q", "2"])
        assert code == 2
        assert "z-grid" in err or "pout" in err


class TestSimulate:
    def test_summary_and_file(self, capsys, tmp_path):
        out_path = tmp_path / "x.bin"
        code, out, _ = _run(capsys, [
            "simulate", "--dims", "2,3", "--samples", "5000", "--seed", "1",
            "--format", "json", "--out", str(out_path),
        ])
        assert code == 0
        summary = json.loads(out)
        assert summary["count"] == 5000
        assert summary["seed"] == 1
        assert summary["mean"] == pytest.approx(6.0, rel=0.1)
        for key in ("moment1", "moment2", "moment3", "moment4", "q05", "q95"):
            assert key in summary
        assert out_path.stat().st_size == 32 + 8 * 5000

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("RAYPROD_SEED", "77")
        code, via_env, _ = _run(capsys, ["simulate", "--dims", "2,3",
                                         "--samples", "1000", "--format", "json"])
        assert code == 0
        monkeypatch.delenv("RAYPROD_SEED")
        code, via_flag, _ = _run(capsys, ["simulate", "--dims", "2,3",
                                          "--samples", "1000", "--seed", "77",
                                          "--format", "json"])
        assert code == 0
        assert json.loads(via_env) == json.loads(via_flag)


class TestReproduce:
    def test_fig3_bundle(self, capsys, tmp_path):
        out = tmp_path / "fig3.csv"
        code, _, _ = _run(capsys, ["reproduce", "--figure", "fig3",
                                   "--samples", "4000", "--out", str(out)])
        assert code == 0
        header, rows = _rows(out.read_text())
        assert header == ["curve_id", "capacity_nats_per_s_hz", "outage_probability"]
        curves = {r[0] for r in rows}
        model_curves = {c for c in curves if ";model;" in c}
        mc_curves = {c for c in curves if ";mc;" in c}
        assert len(model_curves) == 8  # 4 cluster counts x 2 SNRs
        assert len(mc_curves) == 8

    def test_fig2_bundle(self, capsys, tmp_path):
        out = tmp_path / "fig2.csv"
        code, _, _ = _run(capsys, ["reproduce", "--figure", "fig2",
                                   "--samples", "4000", "--out", str(out)])
        assert code == 0
        _, rows = _rows(out.read_text())
        curves = {r[0] for r in rows}
        assert {c for c in curves if ";rayleigh" in c} == {"[2,4];rayleigh"}
        assert sum(1 for c in curves if ";model;q=2" in c) == 3
        assert sum(1 for c in curves if ";model;q=6" in c) == 3

    def test_fig4_bundle_and_determinism(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            code, _, _ = _run(capsys, ["reproduce", "--figure", "fig4",
                                       "--samples", "3000", "--seed", "5",
                                       "--out", str(path)])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        header, rows = _rows(first.read_text())
        assert header == ["curve_id", "snr_db", "outage_capacity_nats_per_s_hz"]
        curves = {r[0] for r in rows}
        assert len({c for c in curves if ";model;" in c}) == 3
        assert len({c for c in curves if ";rayleigh;" in c}) == 3
        assert len({c for c in curves if ";mc;" in c}) == 3


class TestErrorCodes:
    def test_parameter_error(self, capsys):
        code, _, err = _run(capsys, ["moments", "--dims", "2;3"])
        assert code == 2
        assert err.strip().count("\n") == 0  # single diagnostic line

    def test_invalid_dims_value(self, capsys):
        code, _, _ = _run(capsys, ["moments", "--dims", "2,0"])
        assert code == 2

    def test_unknown_command_flag(self, capsys):
        code, _, _ = _run(capsys, ["moments", "--dims", "2,3", "--bogus"])
        assert code == 2

    def test_moments_q_below_one(self, capsys):
        for q in ("0", "-1"):
            code, out, err = _run(capsys, ["moments", "--dims", "2,3", "--q", q])
            assert code == 2
            assert out == ""
            assert "--q" in err
            assert err.strip().count("\n") == 0

    def test_q_past_exact_moments(self, capsys):
        commands = [["cdf", "--grid-points", "3"],
                    ["outage", "--snr-db", "10", "--z-grid", "0:1:3"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for command, *extra in commands:
                for q in ("13", "14", "1000"):
                    code, out, err = _run(capsys, [command, "--dims", "2,4", "--q", q, *extra])
                    assert code == 2, (command, q)
                    assert out == ""
                    assert "up to order 12" in err
                    assert err.strip().count("\n") == 0
        # the moment table still lists the leading-order column past 12
        code, _, _ = _run(capsys, ["moments", "--dims", "2,4", "--q", "13"])
        assert code == 0

    def test_leading_order_past_the_float_range(self, capsys):
        code, out, err = _run(capsys, ["moments", "--dims", "2,4", "--q", "200"])
        assert code == 4
        assert out == ""
        assert err.startswith("rayprod: numeric error:")
        assert "Traceback" not in err
        assert err.strip().count("\n") == 0

    def test_grid_points_below_two(self, capsys):
        for points in ("-1", "0", "1"):
            code, _, err = _run(capsys, ["cdf", "--dims", "2,3", "--grid-points", points])
            assert code == 2
            assert "--grid-points" in err
            assert err.strip().count("\n") == 0

    def test_non_finite_grid_and_snr(self, capsys):
        base = ["outage", "--dims", "2,4"]
        cases = [
            ["--snr-db", "10", "--z-grid", "0:nan:3"],
            ["--snr-db", "10", "--z-grid", "0:inf:3"],
            ["--snr-db", "10", "--z-grid", "nan:1:3"],
            ["--snr-db", "10", "--z-grid", "-1e308:1e308:3"],
            ["--snr-db", "inf", "--z-grid", "0:1:3"],
            ["--snr-db", "nan", "--z-grid", "0:1:3"],
            ["--snr-db=-inf", "--z-grid", "0:1:3"],
            ["--snr-grid", "0:inf:3", "--pout", "0.05"],
            ["--snr-grid=-inf:0:3", "--pout", "0.05"],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for extra in cases:
                code, out, err = _run(capsys, base + extra)
                assert code == 2, extra
                assert out == ""
                assert err.strip().count("\n") == 0, extra
            code, _, err = _run(capsys, ["reproduce", "--figure", "fig2", "--snr-db", "inf"])
            assert code == 2
            assert "--snr-db" in err

    def test_snr_without_finite_linear_value(self, capsys):
        cases = [
            ["outage", "--dims", "2,4", "--snr-db", "4000", "--z-grid", "0:1:3"],
            ["reproduce", "--figure", "fig2", "--snr-db", "4000"],
            ["outage", "--dims", "2,4", "--snr-grid", "0:4000:3", "--pout", "0.05"],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for argv in cases:
                code, out, err = _run(capsys, argv)
                assert code == 2, argv
                assert out == ""
                assert "4000 dB" in err
                assert err.strip().count("\n") == 0, argv

    def test_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "moments.csv"
        code, _, err = _run(capsys, ["moments", "--dims", "2,3", "--out", str(out)])
        assert code == 2
        assert "--out" in err
        assert err.strip().count("\n") == 0

    def test_resource_and_numeric_mapping(self, capsys, monkeypatch):
        # the dispatcher assigns distinct exit codes per error class
        import rayprod.cli as cli

        monkeypatch.setattr(
            cli, "_cmd_moments", lambda args: (_ for _ in ()).throw(ResourceError("guard"))
        )
        assert cli.main(["moments", "--dims", "2,3"]) == 3
        monkeypatch.setattr(
            cli, "_cmd_moments", lambda args: (_ for _ in ()).throw(NumericError("diverged"))
        )
        assert cli.main(["moments", "--dims", "2,3"]) == 4
        capsys.readouterr()
        monkeypatch.setattr(
            cli, "_cmd_moments", lambda args: (_ for _ in ()).throw(MemoryError("4 GiB"))
        )
        assert cli.main(["moments", "--dims", "2,3"]) == 3
        assert capsys.readouterr().err.strip().count("\n") == 0
