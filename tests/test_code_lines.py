"""Smoke test of `tools/code_lines.py` on a small fixture module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# code lines: 5 (import), 8 (def), 12 (x = ...), 13-15 (a string that spans
# three lines inside an expression), 16 ("#" inside a string), 18 (return)
FIXTURE = '''"""A module docstring,
over two lines."""

# a comment
import os

"""A string statement: no code."""
def f():
    """A function docstring."""

    # another comment
    x = os.sep  # a trailing comment
    y = """a
string
argument"""
    z = "# no comment"
    "a string statement in a body"
    return x + y + z
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_fixture(tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    assert tool.code_lines(tmp_path / "b.py") == 8
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "1 a\n8 b\n9 total\n"
