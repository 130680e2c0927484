"""What a fresh `nchodge` process loads before any command runs.

Every command is a new process, so each module that `import nchodge.cli`
pulls in is paid on every run.  `dataclasses` (which imports `inspect`) and
its generated methods cost as much as some whole jobs, `hashlib` is needed
only for a cache key, and `typing` (3-4 ms on top of the rest of
`nchodge.cli`'s imports, on a shared 2-CPU host) served one named tuple,
so none of them may come back at import time.

The command line (`nchodge.cli.entry`) freezes the heap before the process
exits, so that the collections of interpreter shutdown skip what the run
left; `main`, the in-process API, never freezes.
"""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _console_script() -> str:
    """`module:function` of the `nchodge` console script in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^nchodge = "([\w.]+:\w+)"$', text, re.M).group(1)


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    # -S keeps site hooks of the host from loading modules of their own
    code = ("import sys, nchodge.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'hashlib', 'typing') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert done.stdout.strip() == ""


def test_kchern_stands_on_hochschild_alone():
    # the Chern chains and their certificate need the chain complex, not
    # the cyclic staircase or the k[u]-module decomposition
    code = ("import sys, nchodge.kchern; "
            "print(' '.join(m for m in ('nchodge.cyclic', 'nchodge.umodule') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert done.stdout.strip() == ""


# each launcher runs `nchodge catalogue` after an atexit handler is
# registered; the handler prints at shutdown whether the heap is frozen
_LAUNCHERS = {
    "python -m nchodge.cli": "import runpy; runpy.run_module('nchodge.cli', run_name='__main__')",
    "console script": "import importlib; module, name = {target!r}.split(':'); "
                      "sys.exit(getattr(importlib.import_module(module), name)())",
}


@pytest.mark.parametrize("launcher", _LAUNCHERS)
def test_command_line_exits_with_the_heap_frozen_and_runs_atexit_handlers(launcher):
    code = ("import atexit, gc, sys; "
            "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0)); "
            "sys.argv = ['nchodge', 'catalogue']; "
            + _LAUNCHERS[launcher].format(target=_console_script()))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    report, _, last = done.stdout.rpartition("}\n")
    assert '"command": "catalogue"' in report
    assert last == "frozen: True\n"


def test_main_does_not_freeze(capsys):
    from nchodge.cli import main

    frozen = gc.get_freeze_count()
    assert main(["catalogue"]) == 0
    assert '"command": "catalogue"' in capsys.readouterr().out
    assert gc.get_freeze_count() == frozen
