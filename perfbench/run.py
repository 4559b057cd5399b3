#!/usr/bin/env python3
"""Benchmark of the weylcone engine: one workload, one seed, one process.

    python3 perfbench/run.py --workload hull_oracle --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; weylcone is imported from ``src/`` there.
The run draws a fixed item list from the seed, then works through it in
whole rounds, one item at a time, for at most ``--seconds`` seconds of wall
time (always at least one round).  Only the calls into weylcone are timed;
item generation and the correctness checks (made after each round) run
outside the timed spans.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones: ``items_per_s`` (items per second of timed wall
time) and ``setup_s``, both scaled to the nominal speed of the host (see
``run_round``), and ``peak_rss_mb``.
With ``--trace 1`` the run makes one round in which every item runs twice
in a row, untraced and traced, and reports the per-layer metrics of the
traced runs (see ``tracing.py``).

Every run also prints ``host_ref_s``, the median time of the host probe, a
fixed pure-Python Fraction loop that runs no weylcone code, so that drift of
the host can be told apart from a change in the program, and the unscaled
``raw_items_per_s``.  A run record goes to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")

WORKLOAD_NAMES = ("hull_oracle", "chamber_integrals", "region_pipeline", "cone_distance")
DEFAULT_SEED = 1
# set-up is timed in this process and in SETUP_CHILDREN fresh processes;
# setup_s is the median
SETUP_CHILDREN = 2
SETUP_CHILD_TIMEOUT_S = 60
MAX_PROBLEMS_SHOWN = 5
# host probe: a fixed pure-Python Fraction loop, run before a round and after
# every PROBE_EVERY_S seconds of timed work; PROBE_NOMINAL_S is its median
# time on the reference host (2 vCPU, Python 3.11.7)
PROBE_ITERATIONS = 5000
PROBE_EVERY_S = 1.0
PROBE_NOMINAL_S = 0.037


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup(name):
    """Import weylcone from this checkout, warm its lazy imports, build fixtures.

    Returns (workload, fixtures, seconds taken), the seconds scaled to the
    nominal host speed by a host probe on each side, as in run_round."""
    before = host_probe()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import weylcone

    if not os.path.abspath(weylcone.__file__).startswith(SRC + os.sep):
        raise ImportError(f"weylcone imported from {weylcone.__file__}, not from {SRC}")
    import mpmath  # noqa: F401  lazy imports of weylcone
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    fixtures = workload.setup()
    elapsed = time.perf_counter() - start
    return workload, fixtures, elapsed * PROBE_NOMINAL_S * 2 / (before + host_probe())


def child_setup_seconds(args) -> list[float]:
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=SETUP_CHILD_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def host_probe() -> float:
    """Seconds of the fixed pure-Python Fraction loop (no weylcone code)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, PROBE_ITERATIONS + 1):
        acc += Fraction(i % 97 + 1, i % 89 + 1) * Fraction(3, i % 7 + 1)
        if acc.denominator > 10**30:
            acc = Fraction(acc.numerator % 1000003, 1 + acc.denominator % 1009)
    return time.perf_counter() - start


class Tally:
    """Counts and timings of the items run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0  # wall time of the timed calls
        self.scaled_s = 0.0  # the same, scaled to the nominal host speed
        self.probes: list[float] = []
        self.problems: list[str] = []

    def fail(self, index, text):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS_SHOWN:
            self.problems.append(f"item {index}: {text}")


def timed_run(workload, item, fixtures):
    """One item; returns (its output or exception, wall seconds, CPU seconds)."""
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        out = workload.run(item, fixtures)
    except Exception as exc:  # an item the program fails on is a failed operation
        out = exc
    return out, time.perf_counter() - start, time.process_time() - cpu0


def check_all(workload, fixtures, done, tally):
    """Count and check the (index, item, output) triples of a round.

    The checks run after the whole round so that their own work (SciPy,
    mpmath, Delaunay) does not sit between timed items."""
    for index, item, out in done:
        tally.attempted += 1
        if isinstance(out, Exception):
            tally.fail(index, "".join(traceback.format_exception_only(out)).strip())
            continue
        problems = workload.check(item, out, fixtures, index)
        if problems:
            tally.fail(index, "; ".join(problems))


def run_round(workload, fixtures, items, tally) -> None:
    """One pass over the item list, then the checks of its outputs.

    The timed work is cut into stretches of at least PROBE_EVERY_S seconds
    (or single items, when longer), each bracketed by host probes.  A stretch
    counts as its wall time times PROBE_NOMINAL_S over the mean of its two
    probes, so that the host running slower or faster while the stretch ran
    cancels out of items_per_s."""
    done = []
    before = host_probe()
    tally.probes.append(before)
    stretch = 0.0
    for index, item in enumerate(items):
        out, elapsed, _ = timed_run(workload, item, fixtures)
        stretch += elapsed
        done.append((index, item, out))
        if stretch >= PROBE_EVERY_S or index == len(items) - 1:
            after = host_probe()
            tally.probes.append(after)
            tally.timed_s += stretch
            tally.scaled_s += stretch * PROBE_NOMINAL_S * 2 / (before + after)
            before, stretch = after, 0.0
    check_all(workload, fixtures, done, tally)


def traced_round(workload, fixtures, items, tally, tracer):
    """Each item twice in a row, untraced and traced.  Which goes first is a
    fixed coin flip per item, so that neither side always meets the colder
    state (an item that first visits a cache pays for filling it).  Returns
    (untraced seconds, traced seconds, traced CPU seconds)."""
    coin = random.Random(0)
    untraced = traced = cpu = 0.0
    done = []
    for index, item in enumerate(items):
        for with_trace in ((False, True) if coin.random() < 0.5 else (True, False)):
            if with_trace:
                tracer.new_item()
                hits0, misses0 = tracer.cache_counts()
                tracer.active = True
            out, elapsed, used = timed_run(workload, item, fixtures)
            if with_trace:
                tracer.active = False
                hits1, misses1 = tracer.cache_counts()
                tracer.cache_hits += hits1 - hits0
                tracer.cache_misses += misses1 - misses0
                traced += elapsed
                cpu += used
            else:
                untraced += elapsed
            done.append((index, item, out))
    check_all(workload, fixtures, done, tally)
    return untraced, traced, cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        print(f"{setup(args.workload)[2]:.6f}")
        return 0

    workload, fixtures, own_setup = setup(args.workload)
    setups = [own_setup] + child_setup_seconds(args)

    items = workload.make_items(random.Random(f"{args.workload}:{args.seed}"), fixtures)
    tally = Tally()
    metrics: dict[str, dict] = {}
    if args.trace:
        from tracing import Tracer

        import weylcone

        tracer = Tracer()
        tracer.install(weylcone)
        untraced, traced, cpu = traced_round(workload, fixtures, items, tally, tracer)
        for name, (value, unit) in tracer.metrics(traced, cpu, untraced).items():
            metrics[name] = {"value": value, "unit": unit}
        rounds = 1
        os.makedirs(RUNS, exist_ok=True)
        with open(os.path.join(RUNS, f"trace-{args.workload}-{args.seed}.json"), "w") as fh:
            json.dump({"self_s": tracer.self_s, "calls": tracer.calls}, fh, indent=1, sort_keys=True)
    else:
        wall0 = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            run_round(workload, fixtures, items, tally)
            rounds += 1
            now = time.perf_counter()
            if now - wall0 + (now - round_start) > args.seconds:
                break
        metrics["items_per_s"] = {"value": tally.attempted / tally.scaled_s, "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}

    host_ref = statistics.median(tally.probes) if tally.probes else host_probe()
    for text in tally.problems:
        print(f"FAILED {text}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "items_per_round": len(items), "rounds": rounds, "timed_s": tally.timed_s,
        "raw_items_per_s": tally.attempted / tally.timed_s if tally.timed_s else None,
        "setups_s": setups, "host_ref_s": host_ref,
    }
    os.makedirs(RUNS, exist_ok=True)
    with open(os.path.join(RUNS, f"{args.workload}-{args.seed}-{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
