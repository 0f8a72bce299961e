"""scripts/code_lines.py counts code lines: no docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts as its code line


def f(x):
    """A one-line docstring."""

    y = (x +
         1)
    return f"""{y}
text"""


class C:
    """Class docstring
    """
    z = 1
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(_MODULE, "utf-8")
    # import, def, y = (x +, 1), return f""", text""", class, z
    assert code_lines.code_lines(path) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "small.py").write_text(_MODULE, "utf-8")
    (tmp_path / "tiny.py").write_text('"""Only a docstring."""\nx = 1\n\n', "utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "small 8\ntiny 1\ntotal 9\n"
