"""Source-level guards: tests that cannot shadow each other, and a package
that imports nothing outside the standard library."""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_no_shadowed_tests_and_stdlib_only_imports():
    for path in sorted((ROOT / "tests").glob("*.py")):
        names = Counter(
            node.name
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test_")
        )
        assert [name for name, k in names.items() if k > 1] == [], path.name
    for path in sorted((ROOT / "src" / "wormcalc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root == "wormcalc" or root in sys.stdlib_module_names, (path.name, root)
