"""The code-line count that simplicity criteria are stated in."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


SOURCE = '''"""Module docstring,
two lines."""

import math  # a trailing comment does not matter

# a comment line


@staticmethod
def f(x):
    """One-line docstring."""
    y = [
        x,  # inside a statement

        x,
    ]
    return math.fsum(y)


class C:
    """Class docstring."""

    z = "not a docstring"
'''


def test_counts_statement_lines_only():
    # import, def, y = [ ... ] (4 non-blank lines), return, class, z.
    assert _code_lines()(SOURCE) == 9
