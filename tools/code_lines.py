"""Count the code lines of a Python package: the size figure ROADMAP and
CHANGES quote.

A code line is a physical line that holds at least one token other than a
comment, a line break or an indentation token, and that lies inside no
docstring (of a module, a class or a function). So blank lines, comment
lines and docstrings are left out, and a statement spread over several
lines counts each of them.

Usage: python3 tools/code_lines.py [PACKAGE_DIR]   (default: src/wormcalc)
Prints one line per module, "<lines> <name>", and then "<lines> total".
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/wormcalc")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.stem}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
