"""Count the code lines of every ``src/pressqubo`` module.

A code line is a line that holds a token of the program: blank lines,
comments and docstrings (the string that opens a module, class or
function body) do not count.  Prints one ``<count> <module>`` row per
module and then the total.  Run it from anywhere:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pressqubo"
# Tokens that carry no program text of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
