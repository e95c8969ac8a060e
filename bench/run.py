"""Benchmark for rayprod: two workloads, end to end and per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload reproduce|outage --seed N \
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: it reports the per-layer metrics
from spans, the per-module import times and the tracing overhead.  The last
line of standard output is the result as one JSON object; the full record
of the run goes to ``.bench_out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
from tracing import NullTracer, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_LAUNCHES = 6
IMPORTTIME_LAUNCHES = 3


def _passes(workload, tracer, traced, seconds=0.0):
    """Passes over the workload's op list until ``seconds`` have passed; at least one.

    Returns, per op, the timed parts of every pass that completed it (a
    failed execution adds none), the failure messages and the number of
    executions.
    """
    samples = [[] for _ in workload.ops]
    failures = []
    executed = 0
    start = time.perf_counter()
    while executed == 0 or time.perf_counter() - start < seconds:
        for index, op in enumerate(workload.ops):
            tracer.op = index
            executed += 1
            try:
                parts, payload = workload.run(op, tracer, traced)
                workload.check(op, payload)
            except Exception as exc:  # an op's failure is a result, not a crash
                failures.append(f"{op}: {type(exc).__name__}: {exc}")
                continue
            samples[index].append(parts)
    return samples, failures, executed


def _untraced(workload, seconds):
    # Half the set-up launches before the timed phase and half after it, so
    # their median spans the run rather than a few seconds of host load.
    setup = harness.setup_times(ROOT, SETUP_LAUNCHES // 2)
    samples, failures, executed = _passes(workload, NullTracer(), False, seconds)
    setup += harness.setup_times(ROOT, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
    # An op that failed in every pass has no latency; its failures are in `failed`.
    latencies = [workload.latency(s) if s else None for s in samples]
    ops = [t for t in latencies if t is not None]
    size = workload.round_size
    rounds = [sum(t for t in latencies[i:i + size] if t is not None)
              for i in range(0, len(latencies), size)]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rounds),
        "op_p50_ms": 1e3 * harness.percentile(ops, 50),
        "op_p75_ms": 1e3 * harness.percentile(ops, 75),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    detail = {"setup_samples_s": setup, "passes": executed // len(workload.ops),
              "ops": len(ops), "op_latencies_s": latencies, **workload.details()}
    return metrics, detail, executed, failures


def _traced(workload, per_layer):
    """The op list once in process: a warm-up pass, an untraced pass, a traced pass.

    Counts repeat exactly for a seed and times compare across commits;
    ``--seconds`` does not change the pass.  The warm-up pass takes the
    process's first-touch costs (allocator growth, lazy imports), which
    would otherwise land on whichever measured pass ran first.  The
    package's memo tables are cleared before every pass.  Walls are sums
    of the ops' timed parts, so the output checks are in neither.
    """
    from workloads import clear_caches

    imports = harness.importtime_layers(ROOT, IMPORTTIME_LAUNCHES)
    tracer = Tracer()
    walls, attempted, failures = {}, 0, []
    for name in ("warm-up", "untraced", "traced"):
        clear_caches()
        workload.output_bytes = 0
        if name == "traced":
            tracer.install()
        try:
            samples, failed, executed = _passes(
                workload, tracer if name == "traced" else NullTracer(), True)
        finally:
            tracer.uninstall()
        walls[name] = sum(sum(parts) for s in samples for parts in s)
        attempted += executed
        failures += failed

    draw_configs = [name.rsplit(".", 1)[1] for name in per_layer
                    if name.startswith("montecarlo.draws_per_s.")]
    metrics = layer_metrics(tracer.spans, draw_configs, workload.output_bytes)
    metrics.update(imports)
    metrics["trace.untraced_wall_s"] = walls["untraced"]
    metrics["trace.traced_wall_s"] = walls["traced"]
    metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / walls["untraced"]
    detail = {"ops": len(workload.ops), "spans": len(tracer.spans)}
    return metrics, detail, attempted, failures, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "outage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rayprod" / "__init__.py").is_file():
        print(f"bench: no rayprod source under {src}", file=sys.stderr)
        return 2
    for var in harness.THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(harness.THREADS)
    sys.path.insert(0, str(src))
    import rayprod
    if Path(rayprod.__file__).resolve().parent != (src / "rayprod").resolve():
        print(f"bench: imported rayprod from {rayprod.__file__}", file=sys.stderr)
        return 2
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)[kind]}
    work_dir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir, ROOT)
    try:
        if args.trace:
            metrics, detail, attempted, failures, tracer = _traced(workload, list(spec))
            tracer.write(work_dir.with_name(work_dir.name + ".spans.jsonl"))
        else:
            metrics, detail, attempted, failures = _untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir)
    if set(metrics) != set(spec):
        print(f"bench: metrics {sorted(set(metrics) ^ set(spec))} do not match "
              f"BENCHMARK.json {kind}", file=sys.stderr)
        return 1

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": spec[name]["unit"]}
                    for name in spec},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": harness.environment(),
              "error_rate": len(failures) / attempted, "failures": failures,
              **detail, "result": result}
    with open(work_dir.with_name(work_dir.name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    summary = {k: v for k, v in record.items()
               if k not in ("result", "op_latencies_s", "setup_samples_s")}
    print("# " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
