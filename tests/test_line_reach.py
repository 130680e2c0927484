"""Smoke test of `tools/line_reach.py` on a small fixture module; the digest
grid, which takes minutes under the trace, is not run."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_reach.py"

# statements that run when `fixture.f(1)` runs after the import: every
# module-level one, the def on lines 5-6 (decorator and header) among
# them, and lines 8 (if) and 9-10 (a return over two lines); never: 11 (an
# assignment over two lines), 13 (return y) and 17 (return 0 of g, never
# called).  f's docstring and g's `global` hold no bytecode and are left
# out.
FIXTURE = '''"""A docstring."""
import functools


@functools.lru_cache
def f(x):
    """f's docstring."""
    if x:
        return (1 +
                x)
    y = (2 +
         3)
    return y

def g():
    global CONSTANT
    return 0
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("line_reach", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unrun_statements_of_a_fixture(tmp_path):
    tool = _load_tool()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)

    def run():
        spec = importlib.util.spec_from_file_location("fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.f(1) == 2
        # an edit during the run shifts every line by two; the statements
        # are still reported by the version that ran
        path.write_text("# edited\n# during the run\n" + FIXTURE)

    previous = sys.gettrace()
    lines, count = tool.unrun([path], run)
    assert sys.gettrace() is previous  # the trace is taken off again
    assert lines == ["fixture:11 y = (2 +", "fixture:13 return y", "fixture:17 return 0"]
    # import, def f, if, return, y =, return y, def g, return 0 and the
    # module docstring's store
    assert count == 9
    assert tool.main(["--bogus"]) == 2  # refused before anything runs
