#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed and report the spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--seconds 10]

Runs ``perfbench/run.py`` one process at a time, from the checkout root.
For each workload and end-to-end metric it prints the median, the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, the host reference figure of every run, and the share
of failed operations, and the spread of the unscaled items per second.  The
raw results go to ``perfbench/runs/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import RUNS, WORKLOAD_NAMES  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args(argv)
    report = {}
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - start, "result": result,
                         "host_ref_s": record["host_ref_s"], "raw_items_per_s": record["raw_items_per_s"]})
        metrics = {
            m: [r["result"]["metrics"][m]["value"] for r in runs] for m in runs[0]["result"]["metrics"]
        }
        fail_shares = sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs})
        report[name] = {"runs": runs, "metrics": {
            m: {"median": statistics.median(v), "spread": spread(v)} for m, v in metrics.items()}}
        print(f"{name}: failed share {fail_shares}, "
              f"wall per run {statistics.median(r['wall_s'] for r in runs):.1f} s")
        for m, v in metrics.items():
            print(f"  {m:12s} median {statistics.median(v):10.4f}  spread {spread(v):.3f}  "
                  f"values {' '.join(f'{x:.4g}' for x in v)}")
        raw = [r["raw_items_per_s"] for r in runs]
        print(f"  raw items/s  median {statistics.median(raw):10.4f}  spread {spread(raw):.3f}  "
              f"values {' '.join(f'{x:.4g}' for x in raw)}")
        refs = " ".join(f"{r['host_ref_s']:.4f}" for r in runs)
        print(f"  host_ref_s   {refs}")
        sys.stdout.flush()
    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, f"steady-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
