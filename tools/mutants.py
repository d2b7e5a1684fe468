"""A mutation sample of a Python package, each mutant run against the tests.

A mutant splices one operator of one module:
  <  <=   >  >=   ==  !=   is  is not   in  not in   +  -   and  or
each to its pair, drops one `not`, or raises one of the small integer
constants 0, 1 and 2 by one. Sites are found in the module's syntax tree
and spliced in its text, so the rest of the file, comments too, stays as it
was; the `in` of a `for` and a unary minus are no sites. Each mutant must
compile, or it is left out, so that a broken splice never counts as a kill.
A seeded sample of the sites is drawn, from the changed lines alone with
--since REV, and each mutant runs the Tier-1 suite with `-x` in its own
scratch copy of the checkout. A mutant is killed when the suite fails, at
collection or import time too, or runs past the timeout; it survives when
the suite passes.

Usage: python3 tools/mutants.py [--since REV] [--seed N] [--count K]
                                [--timeout S] [MODULE ...]
    (default: every module of src/wormcalc, seed 1, 40 mutants, 300 s)
Prints one line per mutant, "<killed|survived|timeout> <module>:<line>
<old> -> <new> (<seconds> s)", then the survivors and
"<killed> of <run> mutants killed".
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from bisect import bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wormcalc"

# each operator's text, as a pattern on the bytes between its operands, and
# the text of its pair
SWAPS = {
    ast.Lt: (rb"<", "<="),
    ast.LtE: (rb"<=", "<"),
    ast.Gt: (rb">", ">="),
    ast.GtE: (rb">=", ">"),
    ast.Eq: (rb"==", "!="),
    ast.NotEq: (rb"!=", "=="),
    ast.Is: (rb"\bis\b", "is not"),
    ast.IsNot: (rb"\bis\s+not\b", "is"),
    ast.In: (rb"\bin\b", "not in"),
    ast.NotIn: (rb"\bnot\s+in\b", "in"),
    ast.Add: (rb"\+", "-"),
    ast.Sub: (rb"-", "+"),
    ast.And: (rb"\band\b", "or"),
    ast.Or: (rb"\bor\b", "and"),
}
SMALL = (0, 1, 2)


def _gaps(node: ast.AST):
    """(operator, left operand, right operand) of each binary operator in node."""
    if isinstance(node, ast.Compare):
        yield from zip(node.ops, [node.left, *node.comparators], node.comparators)
    elif isinstance(node, ast.BinOp):
        yield node.op, node.left, node.right
    elif isinstance(node, ast.BoolOp):
        for left, right in zip(node.values, node.values[1:]):
            yield node.op, left, right


def splices(source: str) -> list[tuple[int, int, int, str]]:
    """(line, start, end, new text) of each site, in byte offsets of the
    UTF-8 source, which the syntax tree's columns count in; ordered by
    offset."""
    data = source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:
        return starts[line - 1] + col

    found = []  # (start, end, new text)
    for node in ast.walk(ast.parse(source)):
        for op, left, right in _gaps(node):
            if type(op) not in SWAPS:
                continue
            pattern, new = SWAPS[type(op)]
            a, b = offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset)
            # only brackets, blanks, a line break and comments stand beside
            # the operator; a comment is blanked so that it cannot match
            gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), data[a:b])
            hits = list(re.finditer(pattern + rb"(?![=<>])", gap))
            if len(hits) == 1:
                found.append((a + hits[0].start(), a + hits[0].end(), new))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            # the keyword and the blanks after it: a bracket that opens the
            # operand stands outside the operand's own columns
            a = offset(node.lineno, node.col_offset)
            word = re.match(rb"not\b\s*", data[a:])
            if word:
                found.append((a, a + word.end(), ""))
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value in SMALL:
            a, b = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
            if data[a:b] == str(node.value).encode():
                found.append((a, b, str(node.value + 1)))
    return [(bisect_right(starts, a), a, b, new) for a, b, new in sorted(found)]


def mutants(source: str, filename: str = "<source>") -> list[tuple[int, str, str]]:
    """(line, "old -> new", mutated source) of each site whose mutant compiles."""
    data = source.encode("utf-8")
    out = []
    for line, a, b, new in splices(source):
        text = (data[:a] + new.encode() + data[b:]).decode("utf-8")
        try:
            compile(text, filename, "exec")
        except SyntaxError:
            continue
        old = " ".join(data[a:b].decode("utf-8").split())
        out.append((line, f"{old or '?'} -> {new or '(dropped)'}", text))
    return out


def _changed_lines(rev: str, path: Path) -> set[int]:
    """tools/coverage.py's rule for the lines `git diff REV` adds or changes."""
    spec = importlib.util.spec_from_file_location("coverage_tool", ROOT / "tools" / "coverage.py")
    coverage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(coverage)
    return coverage.changed_lines(rev, path)


def run(module: Path, text: str, timeout: float) -> str:
    """Tier-1 with -x on a scratch copy of the checkout with module replaced
    by text: "killed", "survived" or "timeout"."""
    # the tracked files and the new ones not ignored: the checkout as a
    # commit of it would hold it
    listing = ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    files = subprocess.run(listing, cwd=ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as copy:
        for name in filter(None, files.decode().split("\0")):
            target = Path(copy, name)
            target.parent.mkdir(parents=True, exist_ok=True)
            if Path(ROOT, name).is_file():
                shutil.copy2(ROOT / name, target)
        Path(copy, module.relative_to(ROOT)).write_text(text, encoding="utf-8")
        path = os.pathsep.join(filter(None, [str(Path(copy, "src")), os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
        # a session of its own, so that a timeout stops the processes the
        # tests started as well
        proc = subprocess.Popen(
            argv, cwd=copy, env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"
    return "survived" if code == 0 else "killed"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="A seeded mutation sample of src/wormcalc against Tier-1.")
    parser.add_argument("--since", metavar="REV", help="draw only from the lines changed since REV")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=40, help="mutants to run (default 40)")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds before a mutant counts as killed")
    parser.add_argument("modules", nargs="*", type=Path, help="modules to mutate (default: src/wormcalc/*.py)")
    args = parser.parse_args(argv[1:])
    modules = [m.resolve() for m in args.modules] or sorted(PACKAGE.glob("*.py"))
    pool = []
    for module in modules:
        source = module.read_text(encoding="utf-8")
        changed = _changed_lines(args.since, module) if args.since else None
        pool += [(module, *m) for m in mutants(source, str(module)) if changed is None or m[0] in changed]
    sample = random.Random(args.seed).sample(pool, min(args.count, len(pool)))
    print(f"# {len(sample)} of {len(pool)} compiling mutants, seed {args.seed}", file=sys.stderr)
    survivors, killed = [], 0
    for module, line, change, text in sorted(sample, key=lambda m: (m[0], m[1])):
        start = time.perf_counter()
        outcome = run(module, text, args.timeout)
        where = f"{module.stem}:{line}"
        print(f"{outcome} {where} {change} ({time.perf_counter() - start:.1f} s)", flush=True)
        if outcome == "survived":
            survivors.append(f"{where} {change}")
        else:
            killed += 1
    for survivor in survivors:
        print(f"survivor: {survivor}")
    print(f"{killed} of {len(sample)} mutants killed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
