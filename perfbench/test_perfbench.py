"""Tests of the benchmark itself: tracer safety and the correctness check.

    python3 -m pytest -q perfbench

They use small commands that reach the same layers as the workloads, so
they run in seconds.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

import check
import run
import speed
import tracer
from workloads import IDEMPOTENT_PLACEHOLDER, Job, WORKLOADS, instantiate

SMALL_JOBS = (
    Job("hh", ("hh", "--algebra", "mat", "--param", "m=2", "--field", "F3", "--n-max", "3")),
    Job("hc", tuple("hc --algebra poly_truncated --param vars=2 --param max_weight=2 "
                    "--field Q --n-max 4 --u-trunc 2".split())),
    Job("degeneration", tuple("degeneration --algebra dual_numbers --field Q "
                              "--n-max 4 --u-trunc 2".split())),
    Job("graded-pieces", tuple("graded-pieces --dim-v 2 --n 3 --field F3".split())),
    Job("chern", tuple(f"chern --algebra mat --param m=2 --u-trunc 3 --idempotent "
                       f"{IDEMPOTENT_PLACEHOLDER} --format csv".split()), ("E11*1", "E12*1")),
    Job("poisson-homology", tuple("poisson homology --bivector so3 --degree 4".split())),
    Job("poisson-jacobi", tuple("poisson jacobi --bivector so3 --degree 2".split())),
)


@pytest.fixture(scope="module")
def cli():
    return run._import_tree()


@pytest.fixture
def small_instances(tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "small", SMALL_JOBS)
    return instantiate("small", 7, tmp_path)


def _traced_pass(cli, instances):
    t = tracer.Tracer()
    t.install()
    try:
        rows = run.in_process_pass(cli, instances, t)
    finally:
        t.uninstall()
    return t, rows


def test_traced_and_untraced_reports_are_byte_identical(cli, small_instances):
    plain = run.in_process_pass(cli, small_instances)
    _, spanned = _traced_pass(cli, small_instances)
    assert [(r["job"], r["exit"], r["sha256"]) for r in plain] == \
           [(r["job"], r["exit"], r["sha256"]) for r in spanned]
    assert all(r["exit"] == 0 for r in plain)


def test_two_traced_passes_give_identical_counts(cli, small_instances):
    first, _ = _traced_pass(cli, small_instances)
    second, _ = _traced_pass(cli, small_instances)
    assert first.counts_only() == second.counts_only()
    counts = first.counts_only()
    for layer_counter in ("sparse.calls", "umodule.calls", "hochschild.word_images",
                          "kchern.chain_terms", "poisson.brackets", "fields.ops.Q",
                          "fields.ops.Fp"):
        assert counts[layer_counter] > 0, layer_counter


def test_every_layer_records_self_time(cli, small_instances):
    t, _ = _traced_pass(cli, small_instances)
    assert all(seconds > 0 for seconds in t.layer_self_s().values())
    assert set(t.metrics(0.0)) == set(tracer.METRICS)


def test_wrappers_replace_every_module_reference_and_are_removed(cli):
    import nchodge.cyclic
    import nchodge.sparse
    import nchodge.umodule
    original = nchodge.sparse.kernel_basis
    t = tracer.Tracer()
    t.install()
    try:
        for module in (nchodge.sparse, nchodge.cyclic, nchodge.umodule):
            assert module.kernel_basis is not original
            assert module.kernel_basis.__wrapped__ is original
    finally:
        t.uninstall()
    for module in (nchodge.sparse, nchodge.cyclic, nchodge.umodule):
        assert module.kernel_basis is original


@pytest.mark.parametrize("missing", ["nchodge.sparse.kernel_basis_renamed",
                                     "nchodge.hochschild.ChainComplex.boundary_renamed",
                                     "nchodge.no_such_module.function"])
def test_missing_wrapped_function_fails_loudly(cli, monkeypatch, missing):
    import nchodge.sparse
    original = nchodge.sparse.kernel_basis
    spanned = dict(tracer.SPANNED)
    spanned["sparse"] = spanned["sparse"] + (missing,)
    monkeypatch.setattr(tracer, "SPANNED", spanned)
    with pytest.raises(tracer.TracerError, match="missing or renamed"):
        tracer.Tracer().install()
    assert nchodge.sparse.kernel_basis is original   # nothing was left half-installed


def test_check_rejects_a_wrong_answer_even_if_stored(tmp_path):
    expected = check.load_expected()
    inst = next(i for i in instantiate("ungraded-elim", 1, tmp_path) if i.job.id == "hh-mat2-Q")
    report = {"result": copy.deepcopy(expected["hh-mat2-Q"]["result"])}
    assert check.check_report(inst, 0, json.dumps(report), expected) == []
    assert check.check_report(inst, 1, json.dumps(report), expected)
    report["result"]["per_n"]["2"] = 1
    assert check.check_report(inst, 0, json.dumps(report), expected)
    expected["hh-mat2-Q"]["result"] = report["result"]       # a wrong stored value
    problems = check.check_report(inst, 0, json.dumps(report), expected)
    assert problems and all("known answer" in p for p in problems)


def test_check_reads_the_chern_certificate(tmp_path, cli):
    expected = check.load_expected()
    inst = next(i for i in instantiate("chains-forms", 3, tmp_path)
                if i.job.id == "chern-mat2-u7-csv")
    inst = type(inst)(inst.job, tuple("3" if a == "7" else a for a in inst.argv),
                      inst.idempotent)
    code, text = run._call(cli, inst.argv)
    assert check.check_report(inst, code, text, expected) == []
    flipped = text.replace('result.u0_class_nonzero,"true"', 'result.u0_class_nonzero,"false"')
    assert flipped != text
    assert check.check_report(inst, code, flipped, expected) == ["u0_class_nonzero is not true"]


def test_children_get_no_cache_and_no_inherited_python_settings(tmp_path, monkeypatch, cli):
    cache = tmp_path / "cache"
    monkeypatch.setenv("NCHODGE_CACHE_DIR", str(cache))
    monkeypatch.setenv("PYTHONOPTIMIZE", "2")
    env = run.child_env()
    assert "NCHODGE_CACHE_DIR" not in env and "PYTHONOPTIMIZE" not in env
    assert env["PYTHONPATH"] == str(run.SRC) and env["PYTHONHASHSEED"] == "0"

    # the traced part runs jobs in this process, whose environment names the cache
    monkeypatch.setitem(WORKLOADS, "small", SMALL_JOBS[:4])
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "load_expected", lambda: {j.id: {"exit": 0} for j in SMALL_JOBS})
    (tmp_path / "inputs").mkdir()
    out = run.traced("small", 7, tmp_path / "inputs")
    assert not cache.exists()
    assert out["failed"] == 0
    assert out["metrics"]["sparse.calls"] > 0 and out["metrics"]["umodule.calls"] > 0


def test_speed_probe_pins_only_itself_and_visits_every_cpu():
    cpus = os.sched_getaffinity(0)
    probe = speed.SpeedProbe()
    for _ in range(len(cpus)):
        probe.scale(1.0)
    assert os.sched_getaffinity(0) == cpus        # children inherit the whole set
    assert set(probe.sample_cpus) == cpus


def test_tail_keeps_ten_samples_above_it():
    samples = list(range(16))
    assert run.tail(samples) == (5, 37.5)
    assert run.tail(list(range(5))) == (4, 100.0)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
