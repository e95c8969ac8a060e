"""Run-to-run spread of the end-to-end metrics over many seeds.

Usage (from the repository root)::

    python3 bench/steady.py [--workloads reproduce,outage] [--seeds 10]
        [--first-seed 100]

Runs ``bench/run.py --trace 0`` once per seed and workload, one run at a
time, then prints for each metric its median and its quartile distance as a
share of the median next to the bound in ``BENCHMARK.json``.  A metric is
steady when that spread stays below a third of its bound.  All results go
to ``.bench_out/steady-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    steady = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            steady &= result["correct"]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            share = spread(values) if len(values) > 1 else 0.0
            ok = share < bound / 3
            steady &= ok
            print(f"  {name:12s} median {statistics.median(values):12.4f}  spread "
                  f"{share:.4f}  bound {bound}  {'ok' if ok else 'WIDE'}")
    out = ROOT / ".bench_out" / f"steady-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        json.dump(runs, fh, indent=1)
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
