"""The code-line count that simplicity criteria are stated in."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _tool().code_lines


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


def test_a_path_that_is_not_a_file_is_a_usage_error(tmp_path, capsys):
    # --help, a missing file and a directory: one usage line, exit 2.
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [_tool().USAGE]
    main = _tool().main
    for args in ([str(tmp_path / "missing.py")], [str(tmp_path)], [str(TOOL), "-h"]):
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [_tool().USAGE]
    assert main([str(TOOL)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].endswith("total")
