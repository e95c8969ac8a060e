"""Command-line front end.

Subcommands
-----------
moments     moment table for a channel, all routes side by side
cdf         fitted CDF curve, optionally overlaid with a simulated ECDF
outage      outage probability vs rate, or outage capacity vs SNR
simulate    seeded draws of X to a binary file plus summary statistics
reproduce   multi-curve bundles for the three reference experiments

Exit status: 0 on success, 2 for parameter errors, 3 for resource-guard
errors and exhausted memory, 4 for numeric failures.  All output is
deterministic for a fixed argument list (including the seed), byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

import numpy as np

from .channel import ChannelConfig
from .errors import NumericError, ParameterError, ResourceError
from .gamma_laguerre import cdf, fit
from .moments import (
    _MAX_ORDER,
    closed_form_moment,
    exact_moment,
    leading_order_moment,
    mgf_moments,
    moment_set,
)
from .montecarlo import Ecdf, sample_frobenius, save_samples
from .ostbc import (
    OstbcScheme,
    db_to_linear,
    ostbc_catalog,
    outage_capacity,
    outage_probability,
)

_ENV_SEED = "RAYPROD_SEED"
_NATS_TO_BITS = 1.4426950408889634  # 1 / ln 2

_FIG2_FAMILIES = [(6, 8), (15, 20), (30, 40)]
_FIG3_CLUSTERS = [0, 1, 2, 3]
_FIG4_SCHEMES = [2, 4, 8]

_REPRODUCE_SCHEMA = """\
figures and column schema (long format: one row per curve point):
  fig2  outage probability vs capacity for dims [2, K1, K2, 4] with
        (K1, K2) in {(6,8), (15,20), (30,40)} (a stand-in family with the
        documented 4/3 size ratio), model curves at q=2 and q=6, a seeded
        Monte-Carlo overlay per family, and the single-factor [2,4]
        reference.  Columns: curve_id, capacity_nats_per_s_hz,
        outage_probability.
  fig3  outage probability vs capacity for dims [4, 8 x (n-1), 4],
        n-1 = 0..3 clusters, at 0 dB and 5 dB transmit SNR, rate 3/4;
        model (q=6) plus Monte-Carlo overlay per curve.  Columns as fig2.
  fig4  5%-outage capacity vs transmit SNR for dims [K0, 7, 8, 4] with
        (K0, rate) in {(2, 1), (4, 3/4), (8, 1/2)}, model plus Monte-Carlo
        overlay, and the single-factor [K0, 4] references.  Columns:
        curve_id, snr_db, outage_capacity_nats_per_s_hz.
with --bits the capacity columns are converted to bits/s/Hz and renamed.
Monte-Carlo curve k uses seed (base seed + k); the base seed comes from
--seed or the RAYPROD_SEED environment variable (default 0).
"""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # No option name starts with "-<digit>", so every such token is a
        # value: "--snr-grid -5:30:3" and "--snr-db -5e-1" parse.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ParameterError(message)


def _parse_dims(text: str) -> ChannelConfig:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError(f"cannot parse dims {text!r}; expected e.g. 2,3,4")
    return ChannelConfig(dims)


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"cannot parse grid {text!r}; expected start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParameterError(f"cannot parse grid {text!r}; expected start:stop:count")
    # stop - start is NaN or infinite when either end is, and when it overflows.
    if not math.isfinite(stop - start):
        raise ParameterError(f"grid {text!r} needs finite start, stop and stop - start")
    if count < 2 or stop <= start:
        raise ParameterError(f"grid {text!r} needs stop > start and count >= 2")
    return np.linspace(start, stop, count)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_scheme(args, config: ChannelConfig) -> OstbcScheme:
    if getattr(args, "rate", None):
        parts = args.rate.split("/")
        try:
            if len(parts) == 1:
                symbols, block = int(parts[0]), 1
            elif len(parts) == 2:
                symbols, block = int(parts[0]), int(parts[1])
            else:
                raise ValueError
        except ValueError:
            raise ParameterError(f"cannot parse rate {args.rate!r}; expected e.g. 3/4")
        return OstbcScheme(config.dims[0], symbols, block)
    return ostbc_catalog(config.dims[0])


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"{_ENV_SEED}={env!r} is not an integer")
    return 0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _emit(header: list[str], rows: list[list], fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=1)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
            )
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {out!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _capacity_header(args) -> tuple[str, float]:
    if getattr(args, "bits", False):
        return "bits_per_s_hz", _NATS_TO_BITS
    return "nats_per_s_hz", 1.0


# ----------------------------------------------------------------- commands


def _cmd_moments(args) -> int:
    q = args.q
    if q < 1:
        raise ParameterError(f"--q must be >= 1, got {q}")
    config = _parse_dims(args.dims)
    mgf_vals = mgf_moments(config, min(q, _MAX_ORDER))  # one expansion up to the order guard
    # taken first, so a leading-order moment past the float range fails
    # before any per-order diagnostic is printed
    leading = [leading_order_moment(config, m) for m in range(1, q + 1)]
    rows = []
    for m in range(1, q + 1):
        exact_val = None
        try:
            exact_val = exact_moment(config, m)
        except ResourceError as exc:
            print(f"m={m}: {exc}", file=sys.stderr)
        closed = closed_form_moment(config, m) if m <= 3 else None
        mgf_val = mgf_vals[m] if m < len(mgf_vals) else None
        rows.append([m, exact_val, closed, mgf_val, leading[m - 1]])
    _emit(
        ["m", "exact", "closed_form", "mgf", "leading_order"],
        rows,
        args.format,
        args.out,
    )
    return 0


def _cmd_cdf(args) -> int:
    if args.grid_points < 2:
        raise ParameterError(f"--grid-points must be >= 2, got {args.grid_points}")
    config = _parse_dims(args.dims)
    model = fit(moment_set(config, args.q))
    hi = model.mean + 10.0 * model.std
    grid = np.linspace(0.0, hi, args.grid_points)
    raw, reg = cdf(model, grid)
    header = ["x", "raw_cdf", "regularized_cdf"]
    columns = [grid, raw, reg]
    if args.simulate:
        seed = _resolve_seed(args.seed)
        samples = sample_frobenius(config, args.samples, seed)
        columns.append(Ecdf.from_samples(samples)(grid))
        header.append("ecdf")
    rows = [list(point) for point in zip(*columns)]
    _emit(header, rows, args.format, args.out)
    return 0


def _cmd_outage(args) -> int:
    config = _parse_dims(args.dims)
    scheme = _parse_scheme(args, config)
    model = fit(moment_set(config, args.q))
    unit, factor = _capacity_header(args)
    if args.z_grid is not None:
        if args.snr_db is None:
            raise ParameterError("--z-grid needs --snr-db")
        z = _parse_grid(args.z_grid)
        gamma = db_to_linear(args.snr_db)
        p_out = outage_probability(model, scheme, config, gamma, z)
        rows = [[zi * factor, pi] for zi, pi in zip(z, p_out)]
        _emit([f"capacity_{unit}", "outage_probability"], rows, args.format, args.out)
        return 0
    if args.pout is not None:
        if args.snr_grid is None:
            raise ParameterError("--pout needs --snr-grid")
        snr_db = _parse_grid(args.snr_grid)
        c = outage_capacity(model, scheme, config, db_to_linear(snr_db), args.pout)
        rows = [[s, ci * factor] for s, ci in zip(snr_db, c)]
        _emit(["snr_db", f"outage_capacity_{unit}"], rows, args.format, args.out)
        return 0
    raise ParameterError("outage needs either --z-grid with --snr-db, or --pout with --snr-grid")


def _cmd_simulate(args) -> int:
    config = _parse_dims(args.dims)
    seed = _resolve_seed(args.seed)
    samples = sample_frobenius(config, args.samples, seed)
    if args.out:
        try:
            save_samples(samples, args.out)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {args.out!r}: {exc.strerror}")
    v = samples.values
    quantiles = {f"q{int(100 * p):02d}": float(np.quantile(v, p))
                 for p in (0.05, 0.25, 0.50, 0.75, 0.95)}
    summary = {
        "dims": str(config),
        "count": samples.count,
        "seed": samples.seed,
        "mean": float(v.mean()),
        **{f"moment{m}": float(np.mean(v**m)) for m in (1, 2, 3, 4)},
        **quantiles,
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(summary, indent=1) + "\n")
    else:
        _emit(["statistic", "value"],
              [[k, val if isinstance(val, str) else float(val)]
               for k, val in summary.items() if k != "dims"],
              "csv", None)
    return 0


def _cmd_reproduce(args) -> int:
    seed = _resolve_seed(args.seed)
    unit, factor = _capacity_header(args)
    rows: list[list] = []
    mc_index = 0

    if args.figure == "fig2":
        z = np.linspace(0.05, 3.0, 60)
        scheme = ostbc_catalog(2)
        gamma = db_to_linear(args.snr_db if args.snr_db is not None else 10.0)
        for k1, k2 in _FIG2_FAMILIES:
            config = ChannelConfig((2, k1, k2, 4))
            for q in (2, 6):
                model = fit(moment_set(config, q))
                p = outage_probability(model, scheme, config, gamma, z)
                rows += [[f"{config};model;q={q}", zi * factor, pi]
                         for zi, pi in zip(z, p)]
            ecdf = Ecdf.from_samples(sample_frobenius(config, args.samples, seed + mc_index))
            mc_index += 1
            p = outage_probability(ecdf, scheme, config, gamma, z)
            rows += [[f"{config};mc", zi * factor, pi] for zi, pi in zip(z, p)]
        reference = ChannelConfig((2, 4))
        model = fit(moment_set(reference, 2))
        p = outage_probability(model, scheme, reference, gamma, z)
        rows += [[f"{reference};rayleigh", zi * factor, pi] for zi, pi in zip(z, p)]
        header = ["curve_id", f"capacity_{unit}", "outage_probability"]

    elif args.figure == "fig3":
        z = np.linspace(0.05, 4.0, 80)
        scheme = ostbc_catalog(4)
        for clusters in _FIG3_CLUSTERS:
            config = ChannelConfig((4, *([8] * clusters), 4))
            model = fit(moment_set(config, 6))
            ecdf = Ecdf.from_samples(sample_frobenius(config, args.samples, seed + mc_index))
            mc_index += 1
            for snr_db in (0.0, 5.0):
                gamma = db_to_linear(snr_db)
                p = outage_probability(model, scheme, config, gamma, z)
                rows += [[f"{config};model;snr={snr_db:g}dB", zi * factor, pi]
                         for zi, pi in zip(z, p)]
                p = outage_probability(ecdf, scheme, config, gamma, z)
                rows += [[f"{config};mc;snr={snr_db:g}dB", zi * factor, pi]
                         for zi, pi in zip(z, p)]
        header = ["curve_id", f"capacity_{unit}", "outage_probability"]

    else:  # fig4
        snr_db = np.linspace(0.0, 40.0, 41)
        gamma = db_to_linear(snr_db)
        p_out = 0.05
        for k0 in _FIG4_SCHEMES:
            scheme = ostbc_catalog(k0)
            config = ChannelConfig((k0, 7, 8, 4))
            reference = ChannelConfig((k0, 4))
            ecdf = Ecdf.from_samples(sample_frobenius(config, args.samples, seed + mc_index))
            mc_index += 1
            for curve_config, dist, label in (
                (config, fit(moment_set(config, 6)), "model"),
                (reference, fit(moment_set(reference, 6)), "rayleigh"),
                (config, ecdf, "mc"),
            ):
                c = outage_capacity(dist, scheme, curve_config, gamma, p_out)
                rows += [[f"{curve_config};{label};R={scheme.rate}", float(s), ci * factor]
                         for s, ci in zip(snr_db, c)]
        header = ["curve_id", "snr_db", f"outage_capacity_{unit}"]

    _emit(header, rows, args.format, args.out or f"{args.figure}.csv")
    return 0


# ------------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="rayprod", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dims=True):
        if dims:
            p.add_argument("--dims", required=True,
                           help="channel dimensions K0,...,Kn (transmit to receive)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("moments", help="moment table, all routes per order")
    add_common(p)
    p.add_argument("--q", type=int, default=6, help="highest order (default 6)")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("cdf", help="fitted CDF curve on a uniform grid")
    add_common(p)
    p.add_argument("--q", type=int, default=6,
                   help=f"matched moments, 1..{_MAX_ORDER} (default 6)")
    p.add_argument("--grid-points", type=int, default=201)
    p.add_argument("--simulate", action="store_true", help="overlay a seeded ECDF")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("outage", help="outage probability or outage capacity curve")
    add_common(p)
    p.add_argument("--q", type=int, default=6,
                   help=f"matched moments, 1..{_MAX_ORDER} (default 6)")
    p.add_argument("--snr-db", type=_finite_float, help="transmit SNR in dB (with --z-grid)")
    p.add_argument("--snr-grid", help="SNR grid start:stop:count in dB (with --pout)")
    p.add_argument("--z-grid", help="rate grid start:stop:count in nats/s/Hz")
    p.add_argument("--pout", type=float, help="target outage probability in (1e-14, 1)")
    p.add_argument("--rate", help="explicit code rate S/T (default: catalog)")
    p.add_argument("--bits", action="store_true",
                   help="report capacity in bits/s/Hz instead of nats/s/Hz")
    p.set_defaults(func=_cmd_outage)

    p = sub.add_parser("simulate", help="seeded draws of X plus summary statistics")
    add_common(p)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "reproduce",
        help="multi-curve bundle for a reference experiment",
        epilog=_REPRODUCE_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--figure", choices=("fig2", "fig3", "fig4"), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: <figure>.csv)")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--snr-db", type=_finite_float,
                   help="fig2 transmit SNR in dB (default 10; not stated by the source)")
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"rayprod: parameter error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"rayprod: resource error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"rayprod: resource error: out of memory ({exc})", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"rayprod: numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
