"""Smoke test of the benchmark's workloads: correctness gates and pinned digests.

Runs each workload's warm-up at the seed pinned in bench/digests.json and
checks its gates and its output digest, so a change of any output byte
(canonical worms included) fails here as well as in the benchmark. No
timing is measured.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling cnf.py as a top-level module
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.mark.parametrize("name", ["spectra", "kripke"])
def test_workload_gates_and_pinned_digest(workloads, name):
    pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[name](int(pinned["seed"]))
    wl.setup()
    assert wl.gates() == []
    assert wl.digest() == pinned["digests"][name]
