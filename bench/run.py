"""wormcalc benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {spectra,kripke} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout; it uses the checkout's src/ and needs
only the standard library. It starts workload processes (bench/worker.py)
one after another until their timed passes add up to S seconds, each timed
from spawn to the end of its set-up (interpreter start, imports, input
generation and the warm-up quota). Every pass runs the same ops from the
same state, so each op is timed several times and keeps its best time,
which is the op's cost on this machine without the slowdowns that other
load on a shared host adds now and then.

With --trace 0 it reports the end-to-end metrics, from untraced passes:
op_p50_ms and op_p90_ms over the ops of one pass (each at its best time),
ops_per_s as those ops over the sum of their best times, setup_s as the
median set-up time of the workers and peak_rss_mb as the median peak
resident memory of the workers after their passes. With --trace 1 it
alternates untraced and traced workers and reports the per-layer metrics,
each the median over the traced passes, and the tracing overhead. Both
check every output the first worker keeps, and the README's cli examples,
and exit 1, with "correct": false, when a check fails. The full record,
stamped with where the numbers came from, goes to .bench_out/, and the last
stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKERS = 5  # a run's seconds are split over this many worker processes
WORKER_TIMEOUT_S = 170
STAMP_RUNS = 5  # bare-interpreter and import samples


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def spawn(workload: str, seed: int, seconds: float, mode: str, check: bool):
    """Run a worker; returns (spawn-to-ready seconds, result dict)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode, str(int(check))],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        bufsize=0,  # unbuffered: readline must not read past "ready"
    )
    try:
        ready = proc.stdout.readline().decode()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"bench: {workload} worker timed out")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"bench: {workload} worker failed (exit {proc.returncode})")
    return setup_s, json.loads(rest.decode().strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[tuple[float, str, dict]]:
    """(set-up seconds, mode, result) of each worker of the run. Workers
    run one after another, each given seconds / WORKERS, until their passes
    add up to `seconds`; a trace run alternates timed and traced workers.
    The first worker also checks the outputs."""
    workers: list = []
    spent = 0.0
    while spent < seconds or (trace and len(workers) < 2):
        mode = "traced" if trace and len(workers) % 2 else "timed"
        setup_s, result = spawn(workload, seed, min(seconds / WORKERS, seconds - spent), mode, not workers)
        spent += sum(p["seconds"] for p in result["passes"])
        workers.append((setup_s, mode, result))
    return workers


def wall_ms(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True, capture_output=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


def cli_probe(full: bool) -> tuple[dict, list[str]]:
    """The cli layer, which every workload pays once in set-up.

    Each README example goes through `cli.main` in this process, and each
    one documented to exit nonzero also through `python -m wormcalc`; stdout
    and exit code must be the documented ones. Returns the bare interpreter
    start and, with `full`, the import and per-command in-process times,
    plus the failures."""
    import workloads

    env = workloads.child_env()
    commands = workloads.readme_commands()
    failures = []
    for argv, stdout, code in commands:
        got = workloads.in_process(argv)
        if got != (stdout, code):
            failures.append(f"cli.main({argv}): got {got!r}, README says {(stdout, code)!r}")
        if code != 0:
            proc = subprocess.run(
                [sys.executable, "-m", "wormcalc", *argv], env=env, cwd=ROOT, capture_output=True, timeout=60
            )
            got = (proc.stdout.decode("utf-8"), proc.returncode)
            if got != (stdout, code):
                failures.append(f"wormcalc {' '.join(argv)}: got {got!r}, README says {(stdout, code)!r}")
    floor = statistics.median(wall_ms([sys.executable, "-c", "pass"], env) for _ in range(STAMP_RUNS))
    out = {"cli.interpreter_floor_ms": floor}
    if full:
        imported = statistics.median(
            wall_ms([sys.executable, "-c", "import wormcalc.cli"], env) for _ in range(STAMP_RUNS)
        )
        out["cli.import_ms"] = imported - floor
        per_pass = []
        for _ in range(STAMP_RUNS):
            t0 = time.perf_counter()
            for argv, _, _ in commands:
                workloads.in_process(argv)
            per_pass.append((time.perf_counter() - t0) * 1e3 / len(commands))
        out["cli.main.busy_ms"] = statistics.median(per_pass)
    return out, failures


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported tree; do not look above it
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over src/wormcalc, which names the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "wormcalc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def end_to_end(workers: list) -> dict:
    timed = [r["best_ns"] for _, mode, r in workers if mode == "timed"]
    # each op's best time over every worker; an op that always raised has none
    latencies = sorted(min(ts) for ts in ([t for t in op if t is not None] for op in zip(*timed)) if ts)
    return {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9) if latencies else 0.0,
        "op_p50_ms": percentile(latencies, 0.5) / 1e6 if latencies else 0.0,
        "op_p90_ms": percentile(latencies, 0.9) / 1e6 if latencies else 0.0,
        "setup_s": statistics.median(setup_s for setup_s, _, _ in workers),
        "peak_rss_mb": statistics.median(r["rss_kb"] for _, mode, r in workers if mode == "timed") / 1024,
    }


def per_layer(workers: list) -> dict:
    """Each layer metric's median over the traced passes, and the tracing
    overhead: traced ops per second over untraced ones, from the median
    pass times."""
    values: dict[str, list] = {}
    pass_s: dict[str, list] = {"timed": [], "traced": []}
    for _, mode, result in workers:
        for p in result["passes"]:
            pass_s[mode].append(p["seconds"])
            for name, value in p["layers"].items():
                values.setdefault(name, []).append(value)
    out = {name: statistics.median(v) for name, v in values.items()}
    out["trace.overhead_ratio"] = statistics.median(pass_s["timed"]) / statistics.median(pass_s["traced"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["spectra", "kripke"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "wormcalc" / "__init__.py").is_file():
        print(f"bench: no wormcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import wormcalc.cli  # noqa: F401  (fails early on a broken tree; warms .pyc files)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    probe, cli_failures = cli_probe(full=bool(args.trace))
    stamp["cli.interpreter_floor_ms"] = probe["cli.interpreter_floor_ms"]

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    workers = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    first = workers[0][2]
    properties = first["properties"]
    if args.trace:
        metrics = {**per_layer(workers), **probe, **{k: v for k, v in properties.items() if "." in k}}
    else:
        metrics = end_to_end(workers)
    units = {m["name"]: m["unit"] for m in listed}
    attempted = sum(r["attempted"] for _, _, r in workers)
    failed = sum(r["failed"] for _, _, r in workers)
    failures = cli_failures + first["failures"] + ([] if attempted else ["no op was attempted"])
    failures += [f"worker {k} output digest {r['digest']} != first worker's {first['digest']}"
                 for k, (_, _, r) in enumerate(workers) if r["digest"] != first["digest"]]
    spans = next((r["spans"] for _, mode, r in workers if mode == "traced"), None)
    timed_s = [p["seconds"] for _, mode, r in workers if mode == "timed" for p in r["passes"]]
    record = {
        "stamp": stamp,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "metrics": {name: {"value": v, "unit": units.get(name) or unit_of(name)} for name, v in metrics.items()},
        "digest": first["digest"],
        "properties": properties,
        # every timed op's own latency, without the best-of: pass ops over
        # pass wall time, input generation and output keeping included
        "untraced_pass_ops_per_s": statistics.median(len(first["best_ns"]) / t for t in timed_s),
        "untraced_passes": len(timed_s),
        "op_samples": len(first["best_ns"]),
        "workers": [
            {"mode": mode, "setup_s": setup_s, "rss_kb": r["rss_kb"], "pass_s": [p["seconds"] for p in r["passes"]]}
            for setup_s, mode, r in workers
        ],
    }
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{base}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans is not None:
        with open(f"{base}-spans.jsonl", "w", encoding="utf-8") as handle:
            for sid, parent, op, name, start, end in spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                         "start_ns": start, "end_ns": end}) + "\n")

    for failure in failures:
        print(f"FAIL {failure}")
    for name, entry in record["metrics"].items():
        print(f"{name:44s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'error_rate':44s} {record['error_rate']:>16.6g} 1 ({failed} of {attempted} ops raised)")
    print(f"latencies: {record['op_samples']} ops, each its best of {len(timed_s)} untraced passes")
    print(f"record: {base}.json")
    # a listed metric the run did not produce (a function never called) is a
    # count of zero
    shown = {m["name"]: record["metrics"].get(m["name"], {"value": 0, "unit": m["unit"]}) for m in listed}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if not failures else 1


def unit_of(name: str) -> str:
    """Unit of a metric BENCHMARK.json does not list, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("calls_per_op"):
        return "1/op"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
