"""Command-line front end.

Subcommands
-----------
moments     moment table for a channel, all routes side by side
cdf         fitted CDF curve, with a seeded ECDF given --samples or --seed
outage      outage probability vs rate, or outage capacity vs SNR
simulate    seeded draws of X to a binary file plus summary statistics
reproduce   multi-curve bundles for the three reference experiments

Exit status: 0 on success, 2 for parameter errors and failed writes, 3 for
resource-guard errors and exhausted memory, 4 for numeric failures.  All output
is deterministic for a fixed argument list (including the seed), byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import re
import sys
import warnings

from .channel import ChannelConfig, _check_seed, _integer
from .errors import NumericError, ParameterError, ResourceError
from .gamma_laguerre import _CDF_FLOOR, _check_probability, cdf, fit
from .moments import (
    _MAX_ORDER,
    closed_form_moment,
    exact_moment,
    leading_order_moment,
    mgf_moments,
    moment_set,
)
from .ostbc import (
    OstbcScheme,
    _check_rate,
    _outage_capacities,
    _outage_probabilities,
    db_to_linear,
    ostbc_catalog,
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
--seed or the RAYPROD_SEED environment variable (default 0), and every
seed + k must stay below 2**64.
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


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` evenly spaced points from ``start`` to ``stop`` with the bits
    of ``numpy.linspace``: point ``i`` is ``start + i * step``, the last is
    ``stop``."""
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ParameterError(f"cannot parse grid {text!r}; expected start:stop:count")
    # stop - start is NaN or infinite when either end is, and when it overflows.
    if not math.isfinite(stop - start):
        raise ParameterError(f"grid {text!r} needs finite start, stop and stop - start")
    if count < 2 or stop <= start:
        raise ParameterError(f"grid {text!r} needs stop > start and count >= 2")
    return _linspace(start, stop, count)


def _parse_scheme(args, config: ChannelConfig) -> OstbcScheme:
    if args.rate:
        symbols, slash, block = args.rate.partition("/")
        try:
            symbols, block = int(symbols), int(block) if slash else 1
        except ValueError:
            raise ParameterError(f"cannot parse rate {args.rate!r}; expected e.g. 3/4")
        return OstbcScheme(config.dims[0], symbols, block)
    return ostbc_catalog(config.dims[0])


def _draws(args, curves: int = 1) -> tuple[int, int]:
    """Checked ``(seed, samples)`` for ``curves`` curves, curve k drawing with seed + k:
    ``--seed``, else ``RAYPROD_SEED``, else 0, and ``--samples``, else 10**6."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(_ENV_SEED, "0")
        try:
            seed = int(env)
        except ValueError:
            raise ParameterError(f"{_ENV_SEED}={env!r} is not an integer")
    samples = 10**6 if args.samples is None else args.samples
    return _check_seed(seed, 2**64 - curves), _integer(samples, "--samples", 1)


def _fmt(cell) -> str:
    if cell is None:
        return ""
    return str(cell) if isinstance(cell, (str, int)) else repr(float(cell))


def _emit(header: list[str], rows: list[list], fmt: str, out: str | None) -> None:
    if fmt == "json":
        return _write(json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n", out)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)
    _write(buf.getvalue(), out)


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to ``out``, else to standard output; refuse a failed write."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.flush()
            # an unbuffered stream ignores a short raw write, so check each count
            data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
            while data:
                written = sys.stdout.buffer.write(data)
                if not written:
                    raise OSError(errno.EIO, "no bytes written")
                data = data[written:]
            sys.stdout.buffer.flush()
    except OSError as exc:
        if not out:  # the flush at exit writes what is left to nowhere
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise _unwritable(out, exc)


def _unwritable(out: str | None, exc: OSError) -> ParameterError:
    where = f"--out {out!r}" if out else "standard output"
    return ParameterError(f"cannot write {where}: {exc.strerror}")


def _capacity_header(args) -> tuple[str, float]:
    if args.bits:
        return "bits_per_s_hz", _NATS_TO_BITS
    return "nats_per_s_hz", 1.0


# ----------------------------------------------------------------- commands


def _cmd_moments(args) -> int:
    q = _integer(args.q, "--q", 1)
    config = _parse_dims(args.dims)
    # taken first, so a leading-order moment past the float range fails
    # before any diagnostic is printed
    leading = [leading_order_moment(config, m) for m in range(1, q + 1)]
    mgf_vals = []
    try:
        mgf_vals = mgf_moments(config, min(q, _MAX_ORDER))  # one expansion up to the order guard
    except ResourceError as exc:
        print(f"mgf: {exc}", file=sys.stderr)
    rows = []
    for m in range(1, q + 1):
        exact_val = None
        try:
            exact_val = exact_moment(config, m)
        except ResourceError as exc:
            print(f"m={m}: {exc}", file=sys.stderr)
        closed = closed_form_moment(config, m) if m <= _MAX_ORDER else None
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
    points = _integer(args.grid_points, "--grid-points", 2)
    config = _parse_dims(args.dims)
    simulate = args.samples is not None or args.seed is not None  # adds the ecdf column
    seed, samples = _draws(args) if simulate else (None, None)  # read before the fit
    model = fit(moment_set(config, args.q))
    hi = model.mean + 10.0 * model.std
    grid = _linspace(0.0, hi, points)
    rows = [[x, *cdf(model, x)] for x in grid]
    header = ["x", "raw_cdf", "regularized_cdf"]
    if simulate:
        from .montecarlo import Ecdf, sample_frobenius

        ecdf = Ecdf(sample_frobenius(config, samples, seed).values)
        for row, value in zip(rows, ecdf(grid)):
            row.append(value)
        header.append("ecdf")
    _emit(header, rows, args.format, args.out)
    return 0


def _cmd_outage(args) -> int:
    # the options given name the curve; read them all before the fit
    rate_curve = args.z_grid is not None or args.snr_db is not None
    if rate_curve and (args.pout is not None or args.snr_grid is not None):
        raise ParameterError("--z-grid and --snr-db (a rate curve) do not go with "
                             "--pout and --snr-grid (an SNR curve)")
    if None in ((args.z_grid, args.snr_db) if rate_curve else (args.pout, args.snr_grid)):
        raise ParameterError("outage needs either --z-grid with --snr-db, "
                             "or --pout with --snr-grid")
    grid = _parse_grid(args.z_grid if rate_curve else args.snr_grid)
    if rate_curve:
        _check_rate(grid[0])  # the grid ascends from its start
    else:
        _check_probability(args.pout)
    gammas = [db_to_linear(s) for s in ([args.snr_db] if rate_curve else grid)]
    config = _parse_dims(args.dims)
    scheme = _parse_scheme(args, config)
    unit, factor = _capacity_header(args)
    model = fit(moment_set(config, args.q))
    if rate_curve:
        p_out = _outage_probabilities(model, scheme, config, gammas * len(grid), grid)
        rows = [[zi * factor, pi] for zi, pi in zip(grid, p_out)]
        _emit([f"capacity_{unit}", "outage_probability"], rows, args.format, args.out)
    else:
        c = _outage_capacities(model, scheme, config, gammas, args.pout)
        rows = [[s, ci * factor] for s, ci in zip(grid, c)]
        _emit(["snr_db", f"outage_capacity_{unit}"], rows, args.format, args.out)
    return 0


def _cmd_simulate(args) -> int:
    config = _parse_dims(args.dims)
    seed, count = _draws(args)
    import numpy as np

    from .montecarlo import sample_frobenius, save_samples

    samples = sample_frobenius(config, count, seed)
    if args.out:
        try:
            save_samples(samples, args.out)
        except OSError as exc:
            raise _unwritable(args.out, exc)
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
        _write(json.dumps(summary, indent=1) + "\n", None)
    else:
        _emit(["statistic", "value"], [[k, val] for k, val in summary.items() if k != "dims"],
              "csv", None)
    return 0


def _cmd_reproduce(args) -> int:
    curves = {"fig2": len(_FIG2_FAMILIES), "fig3": len(_FIG3_CLUSTERS),
              "fig4": len(_FIG4_SCHEMES)}[args.figure]
    if args.snr_db is not None and args.figure != "fig2":
        raise ParameterError(f"--snr-db applies to fig2 only, not {args.figure}")
    seed, samples = _draws(args, curves)
    # fig2's SNR, refused like the seed before any fit, draw or numpy import
    gamma = db_to_linear(args.snr_db if args.snr_db is not None else 10.0)
    from .montecarlo import Ecdf, sample_frobenius

    unit, factor = _capacity_header(args)
    rows: list[list] = []
    seeds = iter(range(seed, seed + curves))
    header = ["curve_id", f"capacity_{unit}", "outage_probability"]

    def probability(config, dist, label, gamma):
        """Rows of one outage curve at the figure's ``scheme`` and rates ``z``."""
        p = _outage_probabilities(dist, scheme, config, [gamma] * len(z), z)
        rows.extend([f"{config};{label}", zi * factor, pi] for zi, pi in zip(z, p))

    if args.figure == "fig2":
        z = _linspace(0.05, 3.0, 60)
        scheme = ostbc_catalog(2)
        for k1, k2 in _FIG2_FAMILIES:
            config = ChannelConfig((2, k1, k2, 4))
            for q in (2, 6):
                probability(config, fit(moment_set(config, q)), f"model;q={q}", gamma)
            ecdf = Ecdf(sample_frobenius(config, samples, next(seeds)).values)
            probability(config, ecdf, "mc", gamma)
        reference = ChannelConfig((2, 4))
        probability(reference, fit(moment_set(reference, 2)), "rayleigh", gamma)

    elif args.figure == "fig3":
        z = _linspace(0.05, 4.0, 80)
        scheme = ostbc_catalog(4)
        for clusters in _FIG3_CLUSTERS:
            config = ChannelConfig((4, *([8] * clusters), 4))
            model = fit(moment_set(config, 6))
            ecdf = Ecdf(sample_frobenius(config, samples, next(seeds)).values)
            for snr_db in (0.0, 5.0):
                gamma = db_to_linear(snr_db)
                probability(config, model, f"model;snr={snr_db:g}dB", gamma)
                probability(config, ecdf, f"mc;snr={snr_db:g}dB", gamma)

    else:  # fig4
        snr_db = _linspace(0.0, 40.0, 41)
        gammas = [db_to_linear(s) for s in snr_db]
        p_out = 0.05
        for k0 in _FIG4_SCHEMES:
            scheme = ostbc_catalog(k0)
            config = ChannelConfig((k0, 7, 8, 4))
            reference = ChannelConfig((k0, 4))
            ecdf = Ecdf(sample_frobenius(config, samples, next(seeds)).values)
            for curve_config, dist, label in (
                (config, fit(moment_set(config, 6)), "model"),
                (reference, fit(moment_set(reference, 6)), "rayleigh"),
                (config, ecdf, "mc"),
            ):
                c = _outage_capacities(dist, scheme, curve_config, gammas, p_out)
                rows += [[f"{curve_config};{label};R={scheme.rate}", s, ci * factor]
                         for s, ci in zip(snr_db, c)]
        header = ["curve_id", "snr_db", f"outage_capacity_{unit}"]

    _emit(header, rows, args.format, args.out or f"{args.figure}.{args.format}")
    return 0


# ------------------------------------------------------------------- parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="rayprod", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dims", required=True,
                       help="channel dimensions K0,...,Kn (transmit to receive)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_draws(p, note=""):
        p.add_argument("--samples", type=int, help=f"draws (default 10**6){note}")
        p.add_argument("--seed", type=int, help=f"seed (default ${_ENV_SEED} or 0){note}")

    p = sub.add_parser("moments", help="moment table, all routes per order")
    add_common(p)
    p.add_argument("--q", type=int, default=6, help="highest order (default 6)")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("cdf", help="fitted CDF curve on a uniform grid")
    add_common(p)
    p.add_argument("--q", type=int, default=6,
                   help=f"matched moments, 2..{_MAX_ORDER} (default 6)")
    p.add_argument("--grid-points", type=int, default=201)
    add_draws(p, "; adds the ecdf column")
    p.set_defaults(func=_cmd_cdf)

    p = sub.add_parser("outage", help="outage probability or outage capacity curve")
    add_common(p)
    p.add_argument("--q", type=int, default=6,
                   help=f"matched moments, 2..{_MAX_ORDER} (default 6)")
    p.add_argument("--snr-db", type=float, help="transmit SNR in dB (with --z-grid)")
    p.add_argument("--snr-grid", help="SNR grid start:stop:count in dB (with --pout)")
    p.add_argument("--z-grid", help="rate grid start:stop:count in nats/s/Hz")
    p.add_argument("--pout", type=float, help=f"target outage probability in ({_CDF_FLOOR:g}, 1)")
    p.add_argument("--rate", help="explicit code rate S/T (default: catalog)")
    p.add_argument("--bits", action="store_true",
                   help="report capacity in bits/s/Hz instead of nats/s/Hz")
    p.set_defaults(func=_cmd_outage)

    p = sub.add_parser("simulate", help="seeded draws of X plus summary statistics")
    add_common(p)
    add_draws(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "reproduce",
        help="multi-curve bundle for a reference experiment",
        epilog=_REPRODUCE_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--figure", choices=("fig2", "fig3", "fig4"), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: <figure>.csv, or <figure>.json "
                                "with --format json)")
    add_draws(p)
    p.add_argument("--snr-db", type=float,
                   help="fig2 transmit SNR in dB (default 10; not stated by the source)")
    p.add_argument("--bits", action="store_true")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # Warnings become one stderr line each after a command that succeeds: the
    # fit's large-weight warning always, others as the interpreter's filters say.
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", "correction weight", RuntimeWarning)
        try:
            args = parser.parse_args(argv)
            code = args.func(args)
        except ParameterError as exc:
            print(f"rayprod: parameter error: {exc}", file=sys.stderr)
            return 2
        except (ResourceError, ModuleNotFoundError) as exc:  # the sampler needs numpy
            print(f"rayprod: resource error: {exc}", file=sys.stderr)
            return 3
        except MemoryError as exc:
            print(f"rayprod: resource error: out of memory ({exc})", file=sys.stderr)
            return 3
        except NumericError as exc:
            print(f"rayprod: numeric error: {exc}", file=sys.stderr)
            return 4
    for warning in caught:
        print(f"rayprod: warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
