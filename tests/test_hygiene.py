"""Source-level guards: tests that cannot shadow each other, a package
that imports nothing outside the standard library and no dataclasses,
exports that name what the modules define, modules that share no private
names, formats that one module alone decodes, and memos that are bounded."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from wormcalc.formula import Bottom, Box, Diamond, Formula, Implies, Top
from wormcalc.ordinal import Ordinal

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
                assert root != "dataclasses", path.name


def test_cli_import_leaves_dataclasses_out():
    # the value types are hand-slotted, so dataclasses, about a fifth of the
    # CLI's import time, is imported by nothing the CLI imports
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wormcalc.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


def exported(tree):
    """The names listed in a module's `__all__`, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [element.value for element in node.value.elts]
    return None


def defined(tree):
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_exports_are_defined_and_reexports_are_exported():
    package = ROOT / "src" / "wormcalc"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    for module, tree in trees.items():
        names = exported(tree)
        if names is not None:
            assert sorted(set(names) - defined(tree)) == [], module
    for node in trees["__init__"].body:
        if isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module in trees, node.module
            names = exported(trees[node.module]) or []
            assert sorted(alias.name for alias in node.names if alias.name not in names) == [], node.module


# spectrum reads a point's canonical worm letters straight from worm's
# letter-level inverse, and JSON output never builds a Worm from them; the
# rank table and the head cut stay inside worm.py
SIBLING_PRIVATE_IMPORTS = {("spectrum", "worm", "_worm_of")}


def test_modules_share_no_private_names_and_one_numeral_rule():
    package = ROOT / "src" / "wormcalc"
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                private = {(path.stem, node.module, name) for name in names}
                assert private <= SIBLING_PRIVATE_IMPORTS, private
        # the text rule for numerals lives in parsing.py alone
        assert "isdigit(" not in text or path.name == "parsing.py", path.name


def test_unchecked_points_stay_in_their_modules_and_order_keys_are_gone():
    # only ignatiev.py builds a point past its check, and only worm.py a
    # worm. Ordinals and formulas are hash-consed, so equality is identity:
    # no order key, and no stored hash on an ordinal or a formula node
    sources = sorted((ROOT / "src" / "wormcalc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in sources:
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        assert "Point._from_checked" not in text or path.name == "ignatiev.py", path.name
        assert "Worm._from_checked" not in text or path.name == "worm.py", path.name
        assert re.findall(r"\b_key\b", text) == [], path.name
    for cls in (Ordinal, Formula, Top, Bottom, Implies, Box, Diamond):
        slots = {name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())}
        assert "_hash" not in slots and cls.__hash__ is object.__hash__, cls


def test_no_instance_dict_writes():
    # the value types keep their fields in slots and have no instance
    # __dict__ to write; values built past their check set each slot through
    # its descriptor's own __set__
    for path in sorted((ROOT / "src" / "wormcalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "__dict__"]
        assert lines == [], (path.name, lines)



def test_memos_are_bounded():
    # lru_cache(maxsize=None) and functools.cache keep every argument and
    # result for the life of the process
    memos = []
    for path in sorted((ROOT / "src" / "wormcalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorating = {
            id(d.func): node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for d in node.decorator_list
            if isinstance(d, ast.Call)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                assert "cache" not in [alias.name for alias in node.names], path.name
            if isinstance(node, ast.Attribute) and node.attr == "cache":
                assert getattr(node.value, "id", None) != "functools", (path.name, node.lineno)
            if getattr(node, "id", getattr(node, "attr", None)) == "lru_cache":
                # a call decorating a top-level function, so the memo can be found below
                assert id(node) in decorating, (path.name, node.lineno)
                memos.append((path.stem, decorating[id(node)]))
    for module, name in memos:
        memo = getattr(importlib.import_module(f"wormcalc.{module}"), name)
        assert memo.cache_parameters()["maxsize"] is not None, (module, name)
    assert {name for _, name in memos} >= {"_ranks", "_views", "_parsed_worm", "_parsed_ordinal", "_parsed_formula"}
    # the parsers stay plain functions in front of their memos, so the
    # bench tracer, which wraps only functions, still sees each call
    for module, name in (("worm", "parse_worm"), ("ordinal", "parse_ordinal"), ("formula", "parse_formula")):
        assert inspect.isfunction(getattr(importlib.import_module(f"wormcalc.{module}"), name)), name
