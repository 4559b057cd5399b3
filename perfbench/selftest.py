#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py [--seed N]

For each workload, runs a few items, confirms that the checker accepts the
real outputs, then feeds it a deliberately wrong copy of each output (a
flipped gamma, a volume off by 1/1000, a slice integral times 1.01, d^2
times 2 or a negated epsilon) and confirms that every one is counted as a
failed operation.  Exits 1 if any wrong answer slips through.

The rank-3 cone-distance items (4-10 s each) are left out to keep the
self-test short; their check shares the code path of the rank-2 items.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from run import Tally  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _first_per_stratum(items):
    seen, out = set(), []
    for pp, *rest in items:
        if (pp.dim, pp.n_constraints) not in seen:
            seen.add((pp.dim, pp.n_constraints))
            out.append((pp, *rest))
    return out


# workload -> the items of its list to use
CASES = {
    "hull_oracle": lambda items: items[::15],
    "chamber_integrals": _first_per_stratum,
    "region_pipeline": lambda items: [i for i in items if i["fit"]],
    "cone_distance": lambda items: [i for i in items if i[1][1] == "2"][:6],
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    missed = 0
    for name, pick in CASES.items():
        workload = WORKLOADS[name]
        fixtures = workload.setup()
        items = pick(workload.make_items(random.Random(f"{name}:{args.seed}"), fixtures))
        honest, perturbed = Tally(), Tally()
        for index, item in enumerate(items):
            out = workload.run(item, fixtures)
            for tally, answer in ((honest, out), (perturbed, workload.perturb(out))):
                tally.attempted += 1
                problems = workload.check(item, answer, fixtures, index)
                if problems:
                    tally.fail(index, "; ".join(problems))
        ok = honest.failed == 0 and perturbed.failed == perturbed.attempted
        missed += not ok
        print(f"{name}: honest {honest.failed}/{honest.attempted} failed, "
              f"perturbed {perturbed.failed}/{perturbed.attempted} failed -> {'ok' if ok else 'MISSED'}")
        for text in honest.problems:
            print(f"  honest output rejected: {text}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
