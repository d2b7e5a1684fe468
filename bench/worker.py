"""One workload process: set up, signal readiness, then run timed passes.

Run by run.py, never by hand:

    python3 bench/worker.py <workload> <seed> <seconds> <mode> <check>

A pass runs ops quota .. quota + PASS_OPS - 1 once, one after another (a
closed loop with one client: the next op starts when the previous one
returns). Every pass runs the same ops from the same state, since each
workload cycles a pool of inputs and its warm-up has already filled the
library's caches, so a worker repeats passes until `seconds` are used (at
least one) and every op is timed many times. mode `timed` runs the passes
untraced and keeps each op's best latency; `traced` runs them with every
public wormcalc function wrapped in a span and keeps per-pass layer
metrics. With check 1 the worker also runs the workload's correctness
gates. The line `ready` on stdout marks the end of set-up; the last line is
one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(wl, best: list, tracer=None) -> int:
    """One pass; lowers best[j] to op quota + j's latency in ns when it is
    faster, and returns the number of ops that raised."""
    failed = 0
    now = time.perf_counter_ns
    for j in range(len(best)):
        i = wl.quota + j
        x = wl.input(i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = now()
        try:
            out = wl.op(x)
        except Exception as error:  # counted in error_rate, never re-drawn
            failed += 1
            if failed == 1:
                print(f"op {i} raised {type(error).__name__}: {error}", file=sys.stderr)
        else:
            t = now() - t0
            if best[j] is None or t < best[j]:
                best[j] = t
            wl.keep(i, out)
        finally:
            if tracer is not None:
                tracer.end_op()
    return failed


def peak_rss_kb() -> int:
    """Peak resident memory of this process. ru_maxrss also counts the
    parent's memory from before exec, so Linux's VmHWM is read first."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rank_cache_info():
    from wormcalc import worm

    info = getattr(getattr(worm, "_rank", None), "cache_info", None)
    return info() if info else None


def traced_pass(wl, best: list) -> tuple[int, dict, list]:
    from tracing import Tracer

    tracer = Tracer()
    before = rank_cache_info()
    tracer.install()
    try:
        failed = run_pass(wl, best, tracer)
    finally:
        tracer.uninstall()
    after = rank_cache_info()
    metrics = tracer.metrics()
    metrics["trace.spans"] = tracer.spans
    if before and after:
        hits = after.hits - before.hits
        lookups = hits + after.misses - before.misses
        metrics["worm.rank_cache.size"] = after.currsize
        metrics["worm.rank_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return failed, metrics, tracer.kept


def main() -> int:
    name, seed, seconds, mode, check = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4], sys.argv[5]
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    print("ready", flush=True)

    best: list = [None] * wl.PASS_OPS
    passes: list[dict] = []
    spans = None
    failed = 0
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        if mode == "traced":
            f, metrics, kept = traced_pass(wl, best)
            spans = spans or kept
        else:
            f, metrics = run_pass(wl, best), {}
        passes.append({"seconds": time.perf_counter() - t0, "layers": metrics})
        failed += f
    result = {
        "best_ns": best,
        "passes": passes,
        "attempted": wl.PASS_OPS * len(passes),
        "failed": failed,
        "rss_kb": peak_rss_kb(),
        "digest": wl.digest(),
        "failures": [],
    }
    if spans is not None:
        result["spans"] = spans
    if check == "1":
        result["failures"] = wl.gates() + wl.pinned_digest()
        result["properties"] = wl.properties()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
