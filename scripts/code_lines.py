#!/usr/bin/env python3
"""Count the code lines of each module in src/fubini, and their total.

A code line is a source line that holds at least one token of code:
comments, blank lines and docstrings do not count. Tokens come from
``tokenize`` and docstrings from ``ast`` (the first statement of a module,
class or function body, when it is a string literal), so a line that
continues a bracketed expression counts, and a line inside a docstring
does not. Stdlib only.

Run from the repository root: python scripts/code_lines.py [DIR]
It prints one ``module lines`` line per module, largest first, then
``total lines``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "fubini"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file ``path``."""
    source = path.read_text("utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    source_dir = Path(argv[0]) if argv else SOURCE_DIR
    counts = {path.stem: code_lines(path) for path in sorted(source_dir.glob("*.py"))}
    for module, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(module, count)
    print("total", sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
