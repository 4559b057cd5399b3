"""Shared hypothesis settings plus a pass/fail line per acceptance criterion.

The absolute `src/` goes on PYTHONPATH too, so that `python -m weylcone.cli`
child processes import the checkout's package as pytest itself does.
"""

import os
from pathlib import Path

from hypothesis import HealthCheck, settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    print(f"\n[{'PASS' if report.passed else 'FAIL'}] {name}", flush=True)
