"""Every entry point the benchmark's tracer wraps still exists.

`perfbench/tracer.py` wraps layer functions by dotted name and refuses to
run when one is missing.  Resolving the same names here makes a rename or a
removal fail the test suite, not only the benchmark.  The tracer module is
loaded by path and only read.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = ([dotted for names in tracer.SPANNED.values() for dotted in names]
         + [tracer.BRACKET] + [f"{tracer.FIELD_CLASS}.{op}" for op in tracer.FIELD_OPS])


@pytest.mark.parametrize("dotted", NAMES)
def test_traced_name_resolves(dotted):
    owner, attr, original = tracer._resolve(dotted)
    assert callable(original) and getattr(owner, attr) is original
