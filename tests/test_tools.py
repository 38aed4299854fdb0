"""The code-line count that measures the size of the package."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
not a docstring"""
        return text, os
'''


def test_blank_lines_comments_and_docstrings_do_not_count():
    # import, class, def, the two lines of the string, return.
    assert code_lines.code_lines(SOURCE) == 6


def test_prints_each_module_and_a_total():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py")],
                            capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in result.stdout.splitlines()]
    assert rows[-1][1] == "total"
    assert {name for _, name in rows[:-1]} == {p.name for p in code_lines.PACKAGE.glob("*.py")}
    assert sum(int(count) for count, _ in rows[:-1]) == int(rows[-1][0]) > 0
