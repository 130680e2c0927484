"""What a fresh `nchodge` process loads before any command runs.

Every command is a new process, so each module that `import nchodge.cli`
pulls in is paid on every run.  `dataclasses` (which imports `inspect`) and
its generated methods cost as much as some whole jobs, and `hashlib` is
needed only for a cache key, so neither may come back at import time.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses_inspect_or_hashlib():
    # -S keeps site hooks of the host from loading modules of their own
    code = ("import sys, nchodge.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'hashlib') "
            "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert done.stdout.strip() == ""
