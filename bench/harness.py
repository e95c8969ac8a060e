"""Process launching, statistics and environment records for the benchmark.

Nothing here imports numpy or rayprod, so ``run.py`` can fix the BLAS and
OpenMP thread counts before either is loaded.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 1  # one single-threaded client; at or below nproc on any machine


# ------------------------------------------------------------------ statistics


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method).

    ``q`` is in [0, 100].  With ``n`` values, ``p75`` has ``n / 4`` values
    beyond it, so ten samples beyond it need ``n >= 40``.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def spread(values) -> float:
    """Quartile distance as a share of the median: the run-to-run spread.

    Quartiles come from ``statistics.quantiles(values, n=4)`` (the
    'exclusive' method); needs at least two values.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ------------------------------------------------------------------ processes


@dataclass(frozen=True)
class Child:
    wall_s: float
    returncode: int
    peak_rss_mb: float


def run_child(argv, env, cwd, timeout_s: float, stderr=None) -> Child:
    """Run one process to completion; wall time, exit code and its own peak RSS.

    ``os.wait4`` reports the resource usage of exactly this child, so the
    peak RSS is per child rather than the maximum over all children.  A
    child still running after ``timeout_s`` is killed and reported with a
    nonzero exit code.
    """
    lock = threading.Lock()
    reaped = False
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                            stderr=stderr or subprocess.DEVNULL)

    def kill():
        with lock:
            if not reaped:
                proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        with lock:
            reaped = True
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()
    # ru_maxrss is in KiB on Linux.
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def setup_times(root: Path, launches: int) -> list[float]:
    """Walls of fresh interpreters running ``import rayprod``.

    Only the first launch in a fresh checkout writes bytecode caches; the
    median over the launches leaves it out.
    """
    env = child_env(root / "src")
    argv = [sys.executable, "-c", "import rayprod"]
    out = []
    for _ in range(launches):
        child = run_child(argv, env, root, timeout_s=60.0)
        if child.returncode != 0:
            raise RuntimeError(f"'import rayprod' exited with {child.returncode}")
        out.append(child.wall_s)
    return out


def parse_importtime(text: str) -> dict[str, tuple[int, int]]:
    """``{module: (self_us, cumulative_us)}`` from ``python -X importtime`` output.

    A module imported twice keeps its first (real) entry.
    """
    out: dict[str, tuple[int, int]] = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        name = fields[2].strip()
        out.setdefault(name, (int(fields[0]), int(fields[1])))
    return out


def import_layers(table: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Per-layer import seconds: third-party packages cumulative, rayprod self."""
    def cumulative(name):
        return table[name][1] / 1e6 if name in table else 0.0

    return {
        "import.numpy_s": cumulative("numpy"),
        "import.scipy_special_s": cumulative("scipy.special"),
        "import.scipy_stats_s": cumulative("scipy.stats"),
        "import.rayprod_self_s": sum(
            s for name, (s, _) in table.items()
            if name == "rayprod" or name.startswith("rayprod.")) / 1e6,
    }


def importtime_layers(root: Path, launches: int) -> dict[str, float]:
    """Median per-layer import seconds over ``launches`` fresh interpreters."""
    env = child_env(root / "src")
    samples = []
    for _ in range(launches):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rayprod"],
            env=env, cwd=root, capture_output=True, text=True, timeout=60.0)
        if proc.returncode != 0:
            raise RuntimeError(f"'import rayprod' exited with {proc.returncode}")
        samples.append(import_layers(parse_importtime(proc.stderr)))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------- environment


def environment() -> dict:
    """Machine and library versions, recorded with every run."""
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
