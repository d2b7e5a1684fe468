"""Source-level guards: tests that cannot shadow each other, a package
that imports nothing outside the standard library and no dataclasses,
exports that name what the modules define, modules that share no private
names, formats that one module alone decodes, hash-consing and value builds
that one module alone writes, memos that are bounded, a command line whose
`main` alone writes stdout, and the rules of the tools."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from wormcalc.formula import Bottom, Box, Diamond, Formula, Implies, Top
from wormcalc.ordinal import Ordinal
from wormcalc.parsing import Interned, Value
from wormcalc.worm import Worm

ROOT = Path(__file__).resolve().parent.parent


def imported_roots(path: Path) -> set:
    """The top-level packages a module imports by absolute import."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_shadowed_tests_and_stdlib_only_imports():
    for path in sorted((ROOT / "tests").glob("*.py")):
        names = Counter(
            node.name
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test_")
        )
        assert [name for name, k in names.items() if k > 1] == [], path.name
    for path in sorted((ROOT / "src" / "wormcalc").glob("*.py")):
        for root in imported_roots(path):
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


# the private names one module may import from another: none. spectrum
# prints a point's canonical worms with worm's public `print_worm`, and the
# rank table, the head cut and the letter-level inverse stay inside worm.py
SIBLING_PRIVATE_IMPORTS = set()


def test_modules_share_no_private_names_and_one_numeral_rule():
    package = ROOT / "src" / "wormcalc"
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                private = {(path.stem, node.module, name) for name in names}
                assert private <= SIBLING_PRIVATE_IMPORTS, private
        # the text rule for numerals lives in parsing.py alone, and texts
        # are scanned with the Cursor: only JSON keys go through is_numeral
        assert "isdigit(" not in text or path.name == "parsing.py", path.name
        assert "is_numeral(" not in text or path.name in ("parsing.py", "spectrum.py"), path.name


def test_unchecked_points_stay_in_their_modules_and_order_keys_are_gone():
    # only ignatiev.py builds a point past its check, and only worm.py a
    # worm. Ordinals, formulas and worms are hash-consed, so equality is
    # identity: no order key, and no stored hash on any of them
    sources = sorted((ROOT / "src" / "wormcalc").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    for path in sources:
        if path.name == Path(__file__).name:
            continue
        text = path.read_text(encoding="utf-8")
        assert "Point._from_checked" not in text or path.name == "ignatiev.py", path.name
        assert "Worm._from_checked" not in text or path.name == "worm.py", path.name
        assert re.findall(r"\b_key\b", text) == [], path.name
    for cls in (Ordinal, Formula, Top, Bottom, Implies, Box, Diamond, Worm):
        slots = {name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())}
        assert "_hash" not in slots and cls.__hash__ is object.__hash__, cls


def value_types():
    """Every parsing.Value subclass the package defines; importing it
    imports every module that defines one."""
    found, pending = [], [Value]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending += cls.__subclasses__()
    return [cls for cls in found if cls.__module__.startswith("wormcalc.")]


def test_hash_consing_lives_in_parsing_alone():
    # a value type hashes by identity exactly when it is interned through
    # parsing.Interned, whose one table alone holds weak references
    types = value_types()
    assert {Ordinal, Implies, Box, Diamond, Worm} <= set(types)
    for cls in types:
        assert (cls.__hash__ is object.__hash__) == issubclass(cls, Interned), cls
        assert (cls.__eq__ is object.__eq__) == issubclass(cls, Interned), cls
    for path in sorted((ROOT / "src" / "wormcalc").glob("*.py")):
        if path.name != "parsing.py":
            assert not {"weakref", "_weakref"} & imported_roots(path), path.name
            assert "__weakref__" not in path.read_text(encoding="utf-8"), path.name


def test_value_types_keep_the_fast_attribute_path():
    # a __getattr__ or __getattribute__ on a value type sends every
    # attribute read of its values down CPython's unspecialised path; a slot
    # filled on its first read is a property, and its hot readers read the
    # slot inside try/except AttributeError
    for cls in value_types():
        assert not {"__getattr__", "__getattribute__"} & set(vars(cls)), cls


def test_one_build_path_for_every_value():
    # each value type's public constructor is its __new__, and every build
    # past its checks goes through Value._from_checked or, for a hash-consed
    # type, Interned._from_checked: no type keeps a build of its own, and
    # only parsing.py binds the slot setter of a field
    types = value_types()
    assert {Value, Interned} < set(types)
    for cls in types:
        if cls not in (Value, Interned):
            assert not {"_from_checked", "__init__", "__post_init__"} & set(vars(cls)), cls
    fields = {(cls.__name__, name) for cls in types for name in cls.__match_args__}
    for path in sorted((ROOT / "src" / "wormcalc").glob("*.py")):
        if path.name == "parsing.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "__set__":
                owner = node.value
                bound = (getattr(getattr(owner, "value", None), "id", None), getattr(owner, "attr", None))
                assert bound not in fields, (path.name, node.lineno)


def test_no_instance_dict_writes():
    # the value types keep their fields in slots and have no instance
    # __dict__ to write; a build past the checks sets each slot through its
    # descriptor's own __set__, in parsing.Value._from_checked alone
    for path in sorted((ROOT / "src" / "wormcalc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "__dict__"]
        assert lines == [], (path.name, lines)


def test_cli_main_alone_writes_stdout():
    # each handler returns (exit code, text, payload) and main writes it:
    # every other print goes to a file, and the package has one entry point
    path = ROOT / "src" / "wormcalc" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    inside = {id(node) for node in ast.walk(main)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            assert "file" in [keyword.arg for keyword in node.keywords], node.lineno
        assert getattr(node, "attr", None) != "stdout", node.lineno
    assert "__main__" not in path.read_text(encoding="utf-8")


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
    required = {
        "_entry", "_views", "_spectrum_of_ranks", "_parsed_worm", "_parsed_ordinal", "_parsed_formula", "_coordinate_text"
    }
    assert {name for _, name in memos} >= required
    # the parsers stay plain functions in front of their memos, so the
    # bench tracer, which wraps only functions, still sees each call
    for module, name in (("worm", "parse_worm"), ("ordinal", "parse_ordinal"), ("formula", "parse_formula")):
        assert inspect.isfunction(getattr(importlib.import_module(f"wormcalc.{module}"), name)), name


COUNTED_SOURCE = '''"""A module docstring,
over two lines."""

# a comment line
import os  # a comment after code


class A:
    """A class docstring."""

    table = {
        "key": """a string that is a value,
        not a docstring""",
    }

    def f(self):
        \'\'\'A function docstring.\'\'\'
        return (1 +
                2)
'''


def test_code_line_counter_leaves_out_comments_blanks_and_docstrings():
    # the rule of every size figure in ROADMAP.md and CHANGES.md
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    # import, class, the four lines of the table, def and the two of return
    assert code_lines.code_lines(COUNTED_SOURCE) == 9


COVERED_SOURCE = '''"""A module docstring."""

import os


def f(x):
    """A function docstring."""
    if x:
        return (1 +
                2)
    # a comment
    return 0


class A:
    """A class docstring."""

    y = 3
'''


def test_coverage_tool_counts_compiled_line_starts_and_splits_subprocess_hits():
    # the rule of the coverage figures in ROADMAP.md and CHANGES.md
    spec = importlib.util.spec_from_file_location("coverage_tool", ROOT / "tools" / "coverage.py")
    coverage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(coverage)
    # a function's docstring does not run; a module's and a class's do, and
    # a statement over two lines starts on its first
    executable = coverage.executable_lines(COVERED_SOURCE)
    assert sorted(executable) == [1, 3, 6, 8, 9, 12, 15, 16, 18]
    # in-process hits on the module and f's first branch, a subprocess on
    # the module and f's second: one line is unrun, two only subprocesses run
    main, sub = {1, 3, 6, 8, 9, 15, 16}, {1, 3, 6, 8, 12}
    assert coverage.report(executable, main, sub) == ([18], [12])
    assert coverage.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"


MUTATED_SOURCE = '''"""A docstring: x < 1 and 0 are no sites in it."""


def f(x, ys):
    if not x and x < 1:  # nor is == in a comment
        return [y for y in ys if y in (0, 2)]
    if not (x or ys):
        return None
    return -x + (x is not None) - 3
'''


def test_mutation_tool_splices_one_operator_per_mutant(monkeypatch):
    # the rule of the mutation samples in ROADMAP.md and CHANGES.md
    spec = importlib.util.spec_from_file_location("mutants_tool", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    found = mutants.mutants(MUTATED_SOURCE)
    # the `in` of a comprehension, a unary minus, a docstring, a comment and
    # the constant 3 are no sites; a dropped `not` leaves its operand's
    # brackets
    assert [(line, change) for line, change, _ in found] == [
        (5, "not -> (dropped)"),
        (5, "and -> or"),
        (5, "< -> <="),
        (5, "1 -> 2"),
        (6, "in -> not in"),
        (6, "0 -> 1"),
        (6, "2 -> 3"),
        (7, "not -> (dropped)"),
        (7, "or -> and"),
        (9, "+ -> -"),
        (9, "is not -> is"),
        (9, "- -> +"),
    ]
    # each mutant changes its own line and no other
    lines = MUTATED_SOURCE.splitlines()
    for line, _, text in found:
        changed = [i for i, (a, b) in enumerate(zip(lines, text.splitlines()), 1) if a != b]
        assert changed == [line] and len(text.splitlines()) == len(lines), text
    # a splice that does not compile makes no mutant, so it is never a kill
    monkeypatch.setattr(mutants, "splices", lambda source: [(1, 0, 4, "("), (1, 0, 4, "1")])
    assert [change for _, change, _ in mutants.mutants("pass\n")] == ["pass -> 1"]
