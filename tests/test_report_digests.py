"""Smoke test of `tools/report_digests.py`, the byte-identity sweep: two
of its grid entries, run through it, give well-formed lines whose stdout
digest is that of the report and whose exit code is the command's."""

import hashlib
import importlib.util
from pathlib import Path

from nchodge.cli import main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def test_two_grid_entries(capsys):
    grid = tool.grid()
    # the cyclic sweep: 5 commands x 8 algebras x 4 fields x 7 (N, n_max)
    assert len(set(grid[:1120])) == 1120 and all(a[0] in tool.CYCLIC for a in grid[:1120])
    picks = [grid[0], ("validate", "--algebra", "broken.json")]
    assert picks[1] in grid
    with tool.inputs():
        lines = [tool.digest_line(argv) for argv in picks]
        assert [tool.digest_line(argv) for argv in picks] == lines
        for line, argv, code in zip(lines, picks, (0, 2)):
            out, err, exit_code, *rest = line.split(" ")
            assert rest == list(argv) and exit_code == str(code)
            assert main(list(argv)) == code
            captured = capsys.readouterr()
            assert out == hashlib.sha256(captured.out.encode()).hexdigest()
            assert err == hashlib.sha256(captured.err.encode()).hexdigest()
