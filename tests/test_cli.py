import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from rayprod import (
    ChannelConfig,
    Ecdf,
    NumericError,
    ResourceError,
    db_to_linear,
    fit,
    moment_set,
    ostbc_catalog,
    outage_capacity,
    outage_probability,
    sample_frobenius,
)
import rayprod
from rayprod.cli import main

_SRC = os.path.dirname(os.path.dirname(rayprod.__file__))


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

    def test_mgf_guard_leaves_its_column_blank(self, capsys):
        code, out, err = _run(capsys, ["moments", "--dims", "40,40", "--q", "2"])
        assert code == 0
        assert err.count("\n") == 1 and err.startswith("mgf: ")
        assert [r[3] for r in _rows(out)[1]] == ["", ""]

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
            "--samples", "20000", "--seed", "3",
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

    def test_draw_options_add_the_overlay(self, capsys):
        code, out, _ = _run(capsys, ["cdf", "--dims", "2,3,4", "--grid-points", "41",
                                     "--samples", "3000", "--seed", "5"])
        assert code == 0
        header, rows = _rows(out)
        assert header[-1] == "ecdf"
        ecdf = Ecdf(sample_frobenius(ChannelConfig((2, 3, 4)), 3000, 5).values)
        assert [float(r[3]) for r in rows] == [ecdf(float(r[0])) for r in rows]

    def test_seed_alone_draws_the_default_count(self, capsys, monkeypatch):
        counts = []

        def record(config, count, seed):
            counts.append(count)
            return sample_frobenius(config, 10, seed)

        monkeypatch.setattr("rayprod.montecarlo.sample_frobenius", record)
        code, out, _ = _run(capsys, ["cdf", "--dims", "2,3", "--grid-points", "3",
                                     "--seed", "4"])
        assert code == 0 and counts == [10**6]
        assert _rows(out)[0][-1] == "ecdf"
        # the CLI never reads RAYPROD_SEED, so it adds no overlay
        monkeypatch.setenv("RAYPROD_SEED", "4")
        code, out, _ = _run(capsys, ["cdf", "--dims", "2,3", "--grid-points", "3"])
        assert code == 0 and counts == [10**6]
        assert _rows(out)[0] == ["x", "raw_cdf", "regularized_cdf"]

    @pytest.mark.parametrize("extra, message", [
        (["--samples", "0", "--seed", "-1"], "seed must be an integer in"),
        (["--samples", "0"], "--samples must be an integer >= 1, got 0"),
        (["--simulate"], "unrecognized arguments: --simulate"),
    ])
    def test_draw_options_are_read_or_refused(self, capsys, extra, message):
        code, out, err = _run(capsys, ["cdf", "--dims", "2,3", "--grid-points", "3", *extra])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err


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

    def test_quantile_below_the_smallest_double(self, capsys):
        argv = ["outage", "--dims", "1,1,1,1,1,1,1,1,1,9", "--pout", "0.5",
                "--snr-grid", "0:10:2"]
        code, out, err = _run(capsys, argv)
        assert code == 4 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("rayprod: numeric error: cannot resolve the quantile at p=0.5")

    def test_quantile_that_cannot_be_bracketed(self, capsys, monkeypatch):
        monkeypatch.setattr("rayprod.gamma_laguerre._MAX_BRACKET_DOUBLINGS", 0)
        argv = ["outage", "--dims", "2,3", "--pout", "0.5", "--snr-grid", "0:1:2"]
        code, out, err = _run(capsys, argv)
        assert code == 4 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("rayprod: numeric error: could not bracket")

    def test_needs_a_target(self, capsys):
        code, _, err = _run(capsys, ["outage", "--dims", "2,3", "--q", "2"])
        assert code == 2
        assert "z-grid" in err or "pout" in err

    def test_rate_without_a_slash_has_block_length_one(self, capsys):
        base = ["outage", "--dims", "2,3", "--q", "2", "--snr-db", "10", "--z-grid", "0:1:3"]
        code, short, _ = _run(capsys, base + ["--rate", "1"])
        assert code == 0
        assert _run(capsys, base + ["--rate", "1/1"]) == (0, short, "")
        assert _run(capsys, base + ["--rate", "3"]) == _run(capsys, base + ["--rate", "3/1"])

    def test_one_curve_per_call(self, capsys):
        code, out, err = _run(capsys, ["outage", "--dims", "2,3", "--z-grid", "0:1:3",
                                       "--snr-db", "10", "--pout", "0.05",
                                       "--snr-grid", "0:10:2"])
        assert code == 2 and out == ""
        assert err == ("rayprod: parameter error: --z-grid and --snr-db (a rate curve) "
                       "do not go with --pout and --snr-grid (an SNR curve)\n")

    @pytest.mark.parametrize("extra, message", [
        (["--z-grid", "0:1:3"], "outage needs either"),
        (["--snr-db", "10"], "outage needs either"),
        (["--pout", "0.05"], "outage needs either"),
        (["--snr-grid", "0:10:2"], "outage needs either"),
        (["--z-grid", "0:1:3", "--pout", "0.05"], "do not go with"),
        (["--z-grid", "0:1", "--snr-db", "10"], "cannot parse grid '0:1'"),
        (["--pout", "0", "--snr-grid", "0:10:3"], "needs 1e-14 < p < 1, got 0.0"),
        (["--pout", "1", "--snr-grid", "0:10:3"], "needs 1e-14 < p < 1, got 1.0"),
        (["--pout", "1e-20", "--snr-grid", "0:10:3"], "needs 1e-14 < p < 1, got 1e-20"),
        (["--pout", "nan", "--snr-grid", "0:10:3"], "needs 1e-14 < p < 1, got nan"),
        (["--snr-db", "10", "--z-grid", "-1:1:3"], "rate z must be >= 0, got -1.0"),
        (["--snr-db", "10", "--z-grid", "a:b:c"], "cannot parse grid 'a:b:c'"),
        (["--pout", "0.05", "--snr-grid", "5:0:3"], "grid '5:0:3' needs stop > start"),
        (["--snr-db", "abc", "--z-grid", "0:1:3"], "invalid float value: 'abc'"),
        (["--snr-db", "10", "--z-grid", "0:1:3", "--rate", "1/2/3"], "cannot parse rate"),
        (["--snr-db", "10", "--z-grid", "0:1:3", "--rate", "3/"], "cannot parse rate '3/'"),
        (["--snr-db", "nan", "--z-grid", "0:1:3"], "has no finite linear value"),
        (["--snr-db", "inf", "--z-grid", "0:1:3"], "has no finite linear value"),
        (["--snr-db", "1e400", "--z-grid", "0:1:3"], "has no finite linear value"),
    ])
    def test_options_checked_before_the_fit(self, capsys, monkeypatch, extra, message):
        def unreachable(*args):
            raise AssertionError("moment_set ran")

        monkeypatch.setattr("rayprod.cli.moment_set", unreachable)
        code, out, err = _run(capsys, ["outage", "--dims", "2,3", *extra])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err


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

    @pytest.mark.parametrize("value", ["77", "abc"])
    def test_environment_seed_is_ignored(self, capsys, monkeypatch, value):
        argv = ["simulate", "--dims", "2,3", "--samples", "1000", "--format", "json"]
        monkeypatch.delenv("RAYPROD_SEED", raising=False)
        code, plain, err = _run(capsys, argv)
        assert code == 0 and err == ""
        monkeypatch.setenv("RAYPROD_SEED", value)
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == ""
        assert out == plain
        assert json.loads(out)["seed"] == 0

    def test_seed_range(self, capsys, tmp_path):
        base = ["simulate", "--dims", "2,3", "--samples", "10"]
        for seed in ("-1", str(2**64), str(2**64 + 5)):
            code, out, err = _run(capsys, base + ["--seed", seed])
            assert code == 2 and out == "", seed
            assert err.startswith("rayprod: parameter error: seed")
            assert err.strip().count("\n") == 0
        path = tmp_path / "x.bin"
        code, out, _ = _run(capsys, base + ["--seed", str(2**64 - 1), "--format", "json",
                                            "--out", str(path)])
        assert code == 0
        assert json.loads(out)["seed"] == 2**64 - 1

    def test_csv_matches_json(self, capsys):
        base = ["simulate", "--dims", "2,3", "--samples", "10", "--seed", str(2**64 - 1)]
        code, out, _ = _run(capsys, base + ["--format", "json"])
        assert code == 0
        summary = json.loads(out)
        code, out, _ = _run(capsys, base)
        assert code == 0
        header, rows = _rows(out)
        assert header == ["statistic", "value"]
        table = dict(rows)
        assert table["count"] == str(summary["count"]) == "10"
        assert table["seed"] == str(summary["seed"]) == str(2**64 - 1)
        assert list(table) == [k for k in summary if k != "dims"]
        for key in table.keys() - {"count", "seed"}:
            assert table[key] == repr(summary[key]), key


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

    @pytest.mark.parametrize("figure,draw_order", [
        ("fig2", [(2, 6, 8, 4), (2, 15, 20, 4), (2, 30, 40, 4)]),
        ("fig3", [(4, 4), (4, 8, 4), (4, 8, 8, 4), (4, 8, 8, 8, 4)]),
        ("fig4", [(2, 7, 8, 4), (4, 7, 8, 4), (8, 7, 8, 4)]),
    ])
    def test_curves_rebuild_from_the_library(self, capsys, tmp_path, figure, draw_order):
        # Monte-Carlo curve k uses seed + k, k counting the configs in the
        # order of their first draw; model and reference curves are fits of
        # the exact moments.  Every value comes back bit for bit.
        seed, samples = 11, 300
        out = tmp_path / f"{figure}.csv"
        code, _, _ = _run(capsys, ["reproduce", "--figure", figure, "--samples",
                                   str(samples), "--seed", str(seed), "--out", str(out)])
        assert code == 0
        curves, drawn = {}, set()
        for curve_id, x, y in _rows(out.read_text())[1]:
            xs, ys = curves.setdefault(curve_id, ([], []))
            xs.append(float(x))
            ys.append(float(y))
        for curve_id, (xs, ys) in curves.items():
            dims, label, *tags = curve_id.split(";")
            config = ChannelConfig(tuple(int(k) for k in dims.strip("[]").split(",")))
            scheme = ostbc_catalog(config.dims[0])
            if label == "mc":
                drawn.add(config.dims)
                k = draw_order.index(config.dims)
                dist = Ecdf(sample_frobenius(config, samples, seed + k).values)
            else:  # fig2 tags its models with q and fits its reference at q = 2
                q = (int(tags[0][2:]) if tags else 2) if figure == "fig2" else 6
                dist = fit(moment_set(config, q))
            if figure == "fig4":
                rebuilt = outage_capacity(dist, scheme, config, db_to_linear(xs), 0.05)
            else:
                snr_db = float(tags[0][4:-2]) if figure == "fig3" else 10.0
                rebuilt = outage_probability(dist, scheme, config, db_to_linear(snr_db), xs)
            assert rebuilt.tolist() == ys, curve_id
        assert drawn == set(draw_order)

    def test_default_file_follows_the_format(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["reproduce", "--figure", "fig4", "--samples", "300", "--seed", "2"]
        assert _run(capsys, argv + ["--format", "json"]) == (0, "", "")
        assert _run(capsys, argv) == (0, "", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig4.csv", "fig4.json"]
        header, rows = _rows((tmp_path / "fig4.csv").read_text())
        text = (tmp_path / "fig4.json").read_text()
        assert text.endswith("]\n")
        assert [list(row.values()) for row in json.loads(text)] == [
            [r[0], float(r[1]), float(r[2])] for r in rows]

    @pytest.mark.parametrize("figure", ["fig3", "fig4"])
    def test_snr_db_is_fig2_only(self, capsys, tmp_path, figure):
        out = tmp_path / f"{figure}.csv"
        code, stdout, err = _run(capsys, ["reproduce", "--figure", figure, "--snr-db", "30",
                                          "--samples", "100", "--out", str(out)])
        assert code == 2 and stdout == ""
        assert err == f"rayprod: parameter error: --snr-db applies to fig2 only, not {figure}\n"
        assert not out.exists()

    @pytest.mark.parametrize("figure,curves", [("fig2", 3), ("fig3", 4), ("fig4", 3)])
    def test_seed_range(self, capsys, tmp_path, figure, curves):
        # curve k draws with seed + k, so the base seed stops at 2**64 - curves
        largest = 2**64 - curves
        for seed, ok in ((largest, True), (largest + 1, False)):
            out = tmp_path / f"{figure}_{seed}.csv"
            code, stdout, err = _run(capsys, ["reproduce", "--figure", figure,
                                              "--samples", "200", "--seed", str(seed),
                                              "--out", str(out)])
            if ok:
                assert code == 0 and err == "" and out.stat().st_size > 0
                continue
            assert code == 2 and stdout == "" and not out.exists()
            assert err.count("\n") == 1
            assert err.startswith("rayprod: parameter error: seed")
            assert f"[0, {largest}]" in err and err.rstrip().endswith(f"got {seed}")


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
            assert err == "rayprod: parameter error: an SNR of inf dB has no finite linear value\n"

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

    def test_snr_underflowing_to_zero(self, capsys):
        # 10 ** (-4000 / 10) is 0.0, which no longer reaches the SNR check as 0.0
        for argv in (["outage", "--dims", "2,7,8,4", "--snr-db", "-4000", "--z-grid", "0:1:3"],
                     ["outage", "--dims", "2,4", "--snr-grid", "-4000:0:3", "--pout", "0.05"]):
            code, out, err = _run(capsys, argv)
            assert code == 2 and out == "", argv
            assert err == "rayprod: parameter error: an SNR of -4000 dB has no nonzero linear value\n"

    def test_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "moments.csv"
        code, _, err = _run(capsys, ["moments", "--dims", "2,3", "--out", str(out)])
        assert code == 2
        assert "--out" in err
        assert err.strip().count("\n") == 0
        # the sample file of simulate is refused with the same line
        code, stdout, err = _run(capsys, ["simulate", "--dims", "2,3", "--samples", "10",
                                          "--seed", "1", "--out", str(out)])
        assert code == 2 and stdout == ""
        assert err == (f"rayprod: parameter error: cannot write --out {str(out)!r}: "
                       f"{os.strerror(errno.ENOENT)}\n")

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


_MOMENTS = ["moments", "--dims", "2,3", "--q", "3"]
_LONG_CDF = ["cdf", "--dims", "2,3", "--grid-points", "50000"]  # 2.8 MB, past any pipe buffer


def _spawn(argv, stdout, unbuffered=False):
    env = {**os.environ, "PYTHONPATH": _SRC}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "rayprod.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env)


def _refused_write(proc, errno_code):
    """Exit 2 and one stderr line: no traceback, no 'Exception ignored'."""
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2, err
    assert err == ("rayprod: parameter error: cannot write standard output: "
                   f"{os.strerror(errno_code)}\n")


class TestWriteFailures:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [_MOMENTS, _LONG_CDF])
    def test_full_device(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            _refused_write(_spawn(argv, full, unbuffered), errno.ENOSPC)

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_pipe_closed_after_ten_bytes(self, unbuffered):
        proc = _spawn(_LONG_CDF, subprocess.PIPE, unbuffered)
        assert proc.stdout.read(10) == b"x,raw_cdf,"
        proc.stdout.close()
        _refused_write(proc, errno.EPIPE)

    def test_pipe_closed_before_the_first_byte(self):
        # a short table fits in the pipe at once, so its reader leaves first
        read, write = os.pipe()
        os.close(read)
        proc = _spawn(_MOMENTS, write)
        os.close(write)
        _refused_write(proc, errno.EPIPE)


class TestLargeWeightWarning:
    """The fit's large-weight warning is one ``rayprod: warning:`` line after a
    command that succeeds, and nothing beside the error line of one that
    fails, whatever ``-W`` says."""

    @staticmethod
    def _cli(flags, argv):
        env = {**os.environ, "PYTHONPATH": _SRC}
        env.pop("PYTHONWARNINGS", None)
        return subprocess.run([sys.executable, *flags, "-m", "rayprod.cli", *argv],
                              capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "W-error"])
    def test_success_prints_one_warning_line(self, flags):
        proc = self._cli(flags, ["cdf", "--dims", "1,1,1,1,1,1,1", "--grid-points", "2"])
        assert proc.returncode == 0, proc.stderr
        assert len(_rows(proc.stdout)[1]) == 2
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("rayprod: warning: correction weight 6 has large magnitude")

    @pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "W-error"])
    def test_failure_prints_only_its_error_line(self, flags):
        proc = self._cli(flags, ["outage", "--dims", "1,1,1,1,1,1,1,1,1", "--pout", "0.01",
                                 "--snr-grid", "0:10:3"])
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("rayprod: numeric error: cannot resolve the quantile")


def test_grids_have_numpy_linspace_bits():
    import numpy as np

    from rayprod.cli import _linspace

    for start, stop, count in [(0.0, 40.0, 41), (0.05, 3.0, 60), (0.05, 4.0, 80),
                               (-5.0, 30.0, 36), (0.0, 1000.0, 3), (0.0, 137.3, 201),
                               (1e-3, 1e-3 + 1e-9, 7), (-1e300, 1e300, 11)]:
        assert _linspace(start, stop, count) == np.linspace(start, stop, count).tolist()
