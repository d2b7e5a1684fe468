"""Source-level guards: tests that cannot shadow each other, a package
that imports nothing outside the standard library, exports that name what
the modules define, modules that share no private names, and formats that
one module alone decodes."""

import ast
import re
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


def test_unchecked_points_and_order_keys_stay_in_their_modules():
    # only ignatiev.py builds a point past its check, and only ordinal.py
    # knows what the items of an order key are
    sources = sorted((ROOT / "src" / "wormcalc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in sources:
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        assert "Point._from_checked" not in text or path.name == "ignatiev.py", path.name
        subscripts = re.findall(r"\b_key\[|\bkey\[-", text)
        assert subscripts == [] or path.name == "ordinal.py", (path.name, subscripts)
