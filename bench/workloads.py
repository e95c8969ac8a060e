"""The two workloads, their inputs generated from the seed, and their output checks.

Every workload is a closed loop: one single-threaded client issues its next
op only after the previous one has completed.  A run makes its op list once
from the seed and goes over it in passes until the measured time is up, so
the mix of cheap and expensive ops does not depend on how many passes fit.

The outage workload calls each public function through its module
(``moments.moment_set``, not a name bound at import), so the wrappers a
traced run installs see every call.  Output checks call the functions bound
here at import, before any wrapper exists, so checking records no spans and
is never part of an op's latency.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import gammainc

from rayprod import cli, gamma_laguerre, moments, ostbc
from rayprod.channel import ChannelConfig
from rayprod.gamma_laguerre import cdf as _cdf
from rayprod.gamma_laguerre import fit as _fit
from rayprod.moments import moment_set as _moment_set

import harness
from tracing import FIGURES


class CheckFailed(Exception):
    """An op completed but its output is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def clear_caches() -> None:
    """Empty the package's memo tables, so a replayed op list redoes its work."""
    for module in (moments, gamma_laguerre, ostbc):
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Workload:
    name = ""
    round_size = 1  # ops per round; ``wall_s`` is the median round

    def __init__(self, seed: int, work_dir: Path, root: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.work_dir = work_dir
        self._seen: set = set()
        self.output_bytes = 0
        self.ops = self._make_ops()

    def _make_ops(self) -> list:
        raise NotImplementedError

    def _distinct(self, draw) -> tuple:
        """Dims from ``draw()`` not yet used in this run, after canonical rotation.

        Gives up after 200 draws and repeats a config, so a class of configs
        smaller than its share of the op list still ends.
        """
        for _ in range(200):
            dims = draw()
            key = ChannelConfig(dims).canonical_dims
            if key not in self._seen:
                break
        self._seen.add(key)
        return dims

    def run(self, op, tracer, traced: bool) -> tuple[list[float], object]:
        """Execute one op: the seconds of its timed parts, and what the check needs.

        ``traced`` is set for every pass of a traced run, which runs each op
        in process, with or without the tracer installed.
        """
        raise NotImplementedError

    def latency(self, samples: list[list[float]]) -> float:
        """An op's latency from the timed parts of each pass that completed it."""
        raise NotImplementedError

    def check(self, op, payload) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB

    def details(self) -> dict:
        """What the run record holds beyond the metrics."""
        return {}


# ------------------------------------------------------------------ reproduce

SAMPLES = 10_000  # Monte-Carlo draws per curve; the CLI's own default is 10^6
_CLI = "import sys; from rayprod.cli import main; sys.exit(main())"
# Criterion 4 of the acceptance suite: sup|model - ecdf| <= 0.02 at q = 6.
_ACCEPTANCE_SUP = 0.02
_DKW_ALPHA = 1e-3
_FIG4_P = 0.05


def dkw(n: int, alpha: float = _DKW_ALPHA) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band: P(sup|ecdf - F| > eps) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def _expected_curves(figure: str) -> tuple[list[str], list[str], int]:
    """Header, curve ids in order and points per curve, from the ``--help`` schema."""
    probability = ["curve_id", "capacity_nats_per_s_hz", "outage_probability"]
    if figure == "fig2":
        ids = []
        for k1, k2 in ((6, 8), (15, 20), (30, 40)):
            dims = f"[2,{k1},{k2},4]"
            ids += [f"{dims};model;q=2", f"{dims};model;q=6", f"{dims};mc"]
        return probability, ids + ["[2,4];rayleigh"], 60
    if figure == "fig3":
        ids = []
        for dims in ("[4,4]", "[4,8,4]", "[4,8,8,4]", "[4,8,8,8,4]"):
            for snr in ("0", "5"):
                ids += [f"{dims};model;snr={snr}dB", f"{dims};mc;snr={snr}dB"]
        return probability, ids, 80
    ids = []
    for k0, rate in ((2, "1"), (4, "3/4"), (8, "1/2")):
        ids += [f"[{k0},7,8,4];model;R={rate}", f"[{k0},4];rayleigh;R={rate}",
                f"[{k0},7,8,4];mc;R={rate}"]
    return ["curve_id", "snr_db", "outage_capacity_nats_per_s_hz"], ids, 41


class Reproduce(Workload):
    """``rayprod reproduce`` for fig2, fig3 and fig4, each a fresh process.

    Every pass runs the three figures with one seed derived from the
    workload seed, so each pass repeats the same work and every pass's CSVs
    must be byte-identical to the first pass's.
    """

    name = "reproduce"

    def __init__(self, seed, work_dir, root):
        super().__init__(seed, work_dir, root)
        self.figure_seed = self.rng.randrange(2**31)
        self.digests: dict[str, str] = {}
        self.children: dict[str, list[harness.Child]] = {f: [] for f in FIGURES}
        self._models: dict[int, object] = {}
        self._env = harness.child_env(root / "src")

    round_size = len(FIGURES)

    def _make_ops(self):
        return list(FIGURES)

    def latency(self, samples):
        """The median of the figure's process walls over the passes."""
        return statistics.median(wall for (wall,) in samples)

    def peak_rss_mb(self):
        return max(c.peak_rss_mb for runs in self.children.values() for c in runs)

    def details(self):
        out = {"samples_per_figure": SAMPLES, "figure_seed": self.figure_seed,
               "digests_sha256": self.digests}
        for figure, runs in self.children.items():
            out[f"{figure}_wall_s"] = statistics.median(c.wall_s for c in runs)
            out[f"{figure}_walls_s"] = [c.wall_s for c in runs]
            out[f"{figure}_peak_rss_mb"] = max(c.peak_rss_mb for c in runs)
        return out

    def run(self, figure, tracer, traced):
        out = self.work_dir / f"{figure}.csv"
        args = ["reproduce", "--figure", figure, "--samples", str(SAMPLES),
                "--seed", str(self.figure_seed), "--out", str(out)]
        if traced:
            start = time.perf_counter()
            code = cli.main(args)
            wall = time.perf_counter() - start
        else:
            with open(self.work_dir / f"{figure}.log", "wb") as log:
                child = harness.run_child(
                    [sys.executable, "-c", _CLI, *args], self._env, self.work_dir,
                    timeout_s=120.0, stderr=log)
            code, wall = child.returncode, child.wall_s
            self.children[figure].append(child)
        _require(code == 0, f"{figure}: exit code {code}")
        data = out.read_bytes()
        self.output_bytes += len(data)
        return [wall], data

    def check(self, figure, data):
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(figure, digest)
        _require(digest == first, f"{figure}: CSV differs from the first pass's")
        header, ids, points = _expected_curves(figure)
        reader = csv.reader(io.StringIO(data.decode()))
        _require(next(reader) == header, f"{figure}: header")
        curves: dict[str, list] = {}
        for row in reader:
            _require(len(row) == 3, f"{figure}: row width")
            curves.setdefault(row[0], []).append((float(row[1]), float(row[2])))
        _require(list(curves) == ids, f"{figure}: curve ids {list(curves)}")
        tol = _ACCEPTANCE_SUP + dkw(SAMPLES)
        for cid, rows in curves.items():
            _require(len(rows) == points, f"{figure}: {cid} has {len(rows)} rows")
            x, y = np.array(rows).T
            _require(np.all(np.diff(x) > 0), f"{figure}: {cid} x not increasing")
            _require(np.all(np.diff(y) >= 0), f"{figure}: {cid} not nondecreasing")
            if figure == "fig4":
                _require(np.all(y >= 0), f"{figure}: {cid} negative capacity")
            else:
                _require(np.all((y >= 0) & (y <= 1)), f"{figure}: {cid} outside [0, 1]")
        # Model against its Monte-Carlo overlay.  The q=2 curves of fig2 are
        # the two-moment contrast the figure shows, so they carry no bound.
        if figure in ("fig2", "fig3"):
            for cid, rows in curves.items():
                if ";mc" not in cid:
                    continue
                model_id = cid.replace(";mc", ";model;q=6" if figure == "fig2" else ";model")
                gap = np.max(np.abs(np.array(curves[model_id])[:, 1] - np.array(rows)[:, 1]))
                _require(gap <= tol, f"{figure}: {model_id} vs mc sup {gap:.4f} > {tol:.4f}")
        else:
            # The mc curve is the empirical 5% quantile pushed through the
            # capacity map; the model's CDF there must be near 5%.
            for k0 in (2, 4, 8):
                config = ChannelConfig((k0, 7, 8, 4))
                rate = float(ostbc.ostbc_catalog(k0).rate)
                cid = next(c for c in curves if c.startswith(f"[{k0},7,8,4];mc"))
                snr_db, capacity = curves[cid][0]
                gamma = 10.0 ** (snr_db / 10.0)
                x_mc = math.expm1(capacity / rate) * rate * k0 * config.normalization / gamma
                if k0 not in self._models:
                    self._models[k0] = _fit(_moment_set(config, 6))
                gap = abs(_cdf(self._models[k0], x_mc)[1] - _FIG4_P)
                _require(gap <= tol, f"fig4: {cid} model CDF at mc quantile off by {gap:.4f}")


# --------------------------------------------------------------------- outage

_OUTAGE_N = (1, 2, 2, 2, 3, 3, 3, 4, 4, 4)  # factors per config, one round
# 40 ops, so op_p75_ms has ten beyond it.  Few ops make short passes, and
# many passes give each call many chances to run undisturbed.
_OUTAGE_ROUNDS = 4
# Dims 1..10.  With several dims of 1 the q=6 fit degenerates and
# cdf_inverse can miss its own 1e-10 tolerance: it stops on an absolute
# bracket width of 1e-15, above the model's 5% quantile (3.6e-16 for dims
# 1,1,1,1,7, p off by 2.9e-3).  Such an op fails its check and counts in
# ``failed``.
_OUTAGE_DIM_MIN, _OUTAGE_DIM_MAX = 1, 10
_OUTAGE_Q = 6
_CDF_POINTS = 201
_RATE_GRID = np.linspace(0.05, 3.0, 60)
_RATE_SNR = 10.0  # linear transmit SNR of the rate sweep (10 dB)
_SNR_GRID_DB = np.linspace(0.0, 40.0, 41)
_P_OUT = 0.05
_INVERSE_TOL = 1e-8
_SINGLE_FACTOR_TOL = 1e-9


class Outage(Workload):
    """moments (q=6) -> fit -> cdf grid -> outage probability and capacity.

    The op list is 40 distinct configs.  Each op starts from empty memo
    tables, as a fresh CLI call does, and times each of its 45 library
    calls.  An op's latency is the sum over its calls of the call's fastest
    time over the passes.  The calls are short (``outage_capacity``, 41 per
    op, takes 1-2 ms), and on a shared host the neighbours slow stretches
    of tenths of a second to minutes; a call's fastest time over passes
    seconds apart is its cost with the least of that in it.  The sampler is
    never used.
    """

    name = "outage"
    round_size = len(_OUTAGE_N)

    def _make_ops(self):
        return [self._distinct(lambda: tuple(
                    self.rng.randint(_OUTAGE_DIM_MIN, _OUTAGE_DIM_MAX) for _ in range(n + 1)))
                for _ in range(_OUTAGE_ROUNDS)
                for n in self.rng.sample(_OUTAGE_N, len(_OUTAGE_N))]

    def latency(self, samples):
        return sum(min(times) for times in zip(*samples))

    def run(self, dims, tracer, traced):
        clear_caches()
        parts = []

        def timed(call, *args):
            start = time.perf_counter()
            result = call(*args)
            parts.append(time.perf_counter() - start)
            return result

        config = ChannelConfig(dims)
        scheme = ostbc.ostbc_catalog(dims[0])
        model = timed(gamma_laguerre.fit, timed(moments.moment_set, config, _OUTAGE_Q))
        grid = np.linspace(0.0, model.mean + 10.0 * model.std, _CDF_POINTS)
        _, reg = timed(gamma_laguerre.cdf, model, grid)
        p = timed(ostbc.outage_probability, model, scheme, config, _RATE_SNR, _RATE_GRID)
        caps = np.array([
            timed(ostbc.outage_capacity, model, scheme, config, ostbc.db_to_linear(s), _P_OUT)
            for s in _SNR_GRID_DB])
        return parts, (config, model, grid, reg, p, caps, scheme)

    def check(self, dims, payload):
        config, model, grid, reg, p, caps, scheme = payload
        _require(np.all((reg >= 0) & (reg <= 1)) and np.all(np.diff(reg) >= 0),
                 f"{dims}: regularized CDF not monotone in [0, 1]")
        _require(np.all((p >= 0) & (p <= 1)) and np.all(np.diff(p) >= 0),
                 f"{dims}: outage probability not monotone in [0, 1]")
        _require(np.all(np.diff(caps) >= 0), f"{dims}: capacity decreases in SNR")
        rate = float(scheme.rate)
        gamma = 10.0 ** (_SNR_GRID_DB / 10.0)
        x_p = np.expm1(caps / rate) * rate * dims[0] * config.normalization / gamma
        gap = np.max(np.abs(_cdf(model, x_p)[1] - _P_OUT))
        _require(gap <= _INVERSE_TOL, f"{dims}: cdf at capacity points off by {gap:.2e}")
        if config.n == 1:
            gap = np.max(np.abs(reg - gammainc(dims[0] * dims[1], grid)))
            _require(gap <= _SINGLE_FACTOR_TOL, f"{dims}: n=1 model off Gamma by {gap:.2e}")


WORKLOADS = {w.name: w for w in (Reproduce, Outage)}
