"""Smoke tests of the benchmark: correctness gates, pinned digests and the
traced path.

Runs each workload's warm-up at the seed pinned in bench/digests.json and
checks its gates and its output digest, so a change of any output byte
(canonical worms included) fails here as well as in the benchmark. The
traced path is run on a few ops, so the per-layer metrics are known to
record spans. No timing is measured.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    # workloads.py imports its sibling cnf.py as a top-level module
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.mark.parametrize("name", ["spectra", "kripke"])
def test_workload_gates_and_pinned_digest(workloads, name):
    pinned = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    wl = workloads.WORKLOADS[name](int(pinned["seed"]))
    wl.setup()
    assert wl.gates() == []
    assert wl.digest() == pinned["digests"][name]


def test_tracer_records_spans_and_restores(workloads):
    tracer = _load("tracing").Tracer()
    wl = workloads.WORKLOADS["kripke"](0)
    tracer.install()
    try:
        patched = list(tracer._patches)
        for i in range(3):
            tracer.begin_op(i)
            wl.op(wl.input(i))
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, attr
    for name in ("ordinal.compare", "ignatiev.forces", "ignatiev.forces_worm"):
        assert tracer.stats[name][0] > 0, name
    spans = tracer.spans
    wl.op(wl.input(3))
    assert tracer.spans == spans
