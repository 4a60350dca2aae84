"""Print the code-line count of each module of ``src/lagrangia``.

A code line is a line inside some statement of the module, from its
``lineno`` to its ``end_lineno`` as ``ast`` gives them, that is not
blank, not only a ``#`` comment and not part of a docstring (the string
literal that opens a module, class or function body). A decorator line
lies before its statement's span and does not count. Run from anywhere:
``python tools/code_lines.py [FILE ...]``; with no argument it counts
every module of the package and the total. Any argument that is not a
file, ``--help`` included, prints the usage line to stderr and exits 2.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lagrangia"
USAGE = "usage: python tools/code_lines.py [FILE ...]"


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    lines: set[int] = set()
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            lines.update(range(node.lineno, node.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    text = source.splitlines()
    return sum(
        1
        for i in lines - docstrings
        if text[i - 1].strip() and not text[i - 1].lstrip().startswith("#")
    )


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    if not all(path.is_file() for path in paths):
        print(USAGE, file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
