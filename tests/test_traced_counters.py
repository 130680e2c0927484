"""The benchmark's per-layer counters read real work.

`perfbench/tracer.py` counts chain words and matrix entries where it wraps
`chain_basis` and `ChainComplex.boundary`/`connes`.  Moving enumeration or
assembly away from those names would leave the counters at zero without any
error, so one small `hh` job and one small `hc` job run under the tracer
here.  The tracer module is loaded by path and only read, as in
`test_traced_names.py`.
"""

import importlib.util
from pathlib import Path

import pytest

from nchodge import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _traced_counts(argv: str) -> dict:
    t = tracer.Tracer()
    t.install()
    try:
        code = t.run_job("job", cli.main, argv.split())
    finally:
        t.uninstall()
    assert code == 0
    return t.counts


@pytest.mark.parametrize("argv, counters", [
    ("hh --algebra dual_numbers --n-max 3", ("hochschild.basis_words", "hochschild.matrix_nnz")),
    ("hc --algebra dual_numbers --n-max 4 --u-trunc 2", ("hochschild.basis_words",)),
], ids=["hh", "hc"])
def test_layer_counters_are_not_zero(capsys, argv, counters):
    counts = _traced_counts(argv)
    capsys.readouterr()
    for name in counters:
        assert counts[name] > 0, name
