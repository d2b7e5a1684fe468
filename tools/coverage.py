"""Line coverage of a Python package by its tests, with the stdlib `trace`.

Each test module runs in its own pytest process. A `sitecustomize` put on
PYTHONPATH traces every process that starts there, the subprocesses the
tests spawn as well, and each writes its hits on exit. A RecursionError
inside the trace function makes CPython drop it, as the deep-input tests
do; the same module is a pytest plugin that sets it again before each test.
The hits of all processes are unioned; trace counts the lines, and only
frames of the package's code are traced. A line is executable when it starts
a line in the module's compiled code (`dis.findlinestarts`): a function's
docstring is no such line, and a module's or a class's is, since it runs.

Usage: python3 tools/coverage.py [--since REV] [TEST_FILE ...]
    (default: every tests/test_*.py, package src/wormcalc)
Prints, per module, the executable lines no test runs, then the lines that
only subprocesses run, then "<run> of <executable> lines run (<percent>)".
With --since REV, only the lines added or changed since REV count.
"""

from __future__ import annotations

import argparse
import dis
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wormcalc"

# traces the process it starts in when COVERAGE_OUT is set: frames of code
# under COVERAGE_SRC get trace's line counter, and no other frame is traced.
# The pytest process takes COVERAGE_MAIN out of the environment, so that
# only its subprocesses write their hits as "sub"
HOOK = '''
import atexit, json, os, sys, threading, trace
_out = os.environ.get("COVERAGE_OUT")
if _out:
    _kind = "main" if os.environ.pop("COVERAGE_MAIN", None) else "sub"
    _src = os.environ["COVERAGE_SRC"]
    _tracer = trace.Trace(count=1, trace=0)

    def _calls(frame, why, arg):
        # trace's own filter caches its answer by a module's base name, so
        # one stdlib __init__ would hide every package __init__ after it
        if frame.f_code.co_filename.startswith(_src):
            return _tracer.localtrace

    sys.settrace(_calls)
    threading.settrace(_calls)

    def _write():
        sys.settrace(None)
        hits = {}
        for filename, line in _tracer.results().counts:
            hits.setdefault(filename, []).append(line)
        with open(os.path.join(_out, f"{_kind}-{os.getpid()}.json"), "w") as handle:
            json.dump(hits, handle)

    atexit.register(_write)


def pytest_runtest_setup(item):
    # a RecursionError inside the trace function makes CPython drop it
    if _out and sys.gettrace() is None:
        sys.settrace(_calls)
'''


def executable_lines(source: str, filename: str = "<source>") -> set[int]:
    """The lines that start a line of code in the compiled module: its own
    code and every function's and class body's, recursively."""
    lines: set[int] = set()
    codes = [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


def report(executable: set[int], main: set[int], sub: set[int]) -> tuple[list[int], list[int]]:
    """(lines no process runs, lines only subprocesses run), each sorted."""
    return sorted(executable - main - sub), sorted(executable & sub - main)


def ranges(lines: list[int]) -> str:
    """"3-5, 9" for [3, 4, 5, 9]."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def changed_lines(rev: str, path: Path) -> set[int]:
    """The lines of path that `git diff REV` adds or changes."""
    diff = subprocess.run(
        ["git", "diff", "-U0", rev, "--", str(path)], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout
    lines: set[int] = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff, re.M):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def collect(tests: list[Path]) -> dict[str, dict[str, set[int]]]:
    """{"main" | "sub": {filename: lines hit}} over one pytest process per test file."""
    hits: dict[str, dict[str, set[int]]] = {"main": {}, "sub": {}}
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        path = os.pathsep.join(filter(None, [hook, str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "COVERAGE_OUT": out, "COVERAGE_MAIN": "1"}
        # the hook is a pytest plugin too, which sets the tracer again
        env.update(COVERAGE_SRC=str(PACKAGE), PYTEST_PLUGINS="sitecustomize")
        for test in tests:
            argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(test)]
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)
            print(f"# {test.name}: pytest exit {proc.returncode}", file=sys.stderr)
        for result in Path(out).glob("*.json"):
            kind = result.name.split("-")[0]
            for filename, lines in json.loads(result.read_text(encoding="utf-8")).items():
                hits[kind].setdefault(filename, set()).update(lines)
    return hits


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Line coverage of src/wormcalc by the tests.")
    parser.add_argument("--since", metavar="REV", help="count only the lines changed since REV")
    parser.add_argument("tests", nargs="*", type=Path, help="test files (default: tests/test_*.py)")
    args = parser.parse_args(argv[1:])
    since = args.since
    tests = [t.resolve() for t in args.tests] or sorted((ROOT / "tests").glob("test_*.py"))
    hits = collect(tests)
    run_total = executable_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path.read_text(encoding="utf-8"), str(path))
        if since is not None:
            executable &= changed_lines(since, path)
        unrun, sub_only = report(executable, hits["main"].get(str(path), set()), hits["sub"].get(str(path), set()))
        run_total += len(executable) - len(unrun)
        executable_total += len(executable)
        if unrun:
            print(f"{path.stem}: unrun {ranges(unrun)}")
        if sub_only:
            print(f"{path.stem}: only in subprocesses {ranges(sub_only)}")
    percent = 100 * run_total / executable_total if executable_total else 100.0
    print(f"{run_total} of {executable_total} lines run ({percent:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
