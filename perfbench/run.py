#!/usr/bin/env python3
"""nchodge benchmark: fixed job mixes of `nchodge` commands.

    python3 perfbench/run.py --workload ungraded-elim --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (it needs `src/nchodge`).

--trace 0 is the end-to-end part.  One client runs the workload's jobs in a
closed loop: each job is a fresh `python -m nchodge.cli` process against this
tree's `src/`, started only after the previous one has exited.  It reports
sweep_s, job_s_p50, job_s_tail, setup_s and peak_rss_mb.

--trace 1 is the traced part.  After a warm-up it runs the same jobs twice
in this process, once plain and once with perfbench/tracer.py installed,
and reports the per-layer metrics.  End-to-end metrics never come from it.

Every job's exit code and report are checked against perfbench/expected.json
and perfbench/check.py's known answers.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it give the environment, the per-job rows and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_report, load_expected, parse_report
from speed import REFERENCE_S, SpeedProbe
from workloads import WORKLOADS, instantiate, passes_for, setup_commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 2
TAIL_BEYOND = 10         # the tail percentile keeps this many samples above it
JOB_TIMEOUT_S = 120      # a child running longer is killed and its job fails

END_TO_END_UNITS = {"sweep_s": "s", "job_s_p50": "s", "job_s_tail": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here, or its own checks failed."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The user's environment minus anything that changes what a job does:
    no report cache, no inherited Python settings, a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "NCHODGE_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nchodge").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg()),
            "commit": _git_commit(), "source_sha256": _source_digest()}


# ---------------------------------------------------------------------------
# end-to-end part: one fresh process per job
# ---------------------------------------------------------------------------


class Children:
    """Runs `python -m nchodge.cli` children one at a time in `workdir`,
    each bracketed by speed-reference samples.  Children get every CPU this
    process may use."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.outputs = 0
        self.probe = SpeedProbe()

    def run(self, argv) -> tuple[dict, int, float, str]:
        """(times, exit code, peak RSS in MB, report text) of one job; times
        holds the reference-speed and wall seconds and the bracketing
        reference samples, and the job's stderr if it wrote any."""
        self.outputs += 1
        out_path = self.workdir / f"out-{self.outputs}.report-text"
        err_path = self.workdir / f"out-{self.outputs}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "nchodge.cli", *argv],
                                    cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                elapsed = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        scaled, before, after = self.probe.scale(elapsed)
        times = {"latency_s": scaled, "wall_s": elapsed, "ref_before_s": before,
                 "ref_after_s": after}
        text = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if stderr:
            times["stderr"] = stderr[-500:]
        out_path.unlink()
        err_path.unlink()
        return times, proc.returncode, usage.ru_maxrss / 1024, text

    def check_imports_tree(self):
        """The children must import this tree's nchodge, not an installed one."""
        out = subprocess.run([sys.executable, "-c", "import nchodge.cli; print(nchodge.__file__)"],
                             cwd=self.workdir, env=self.env, capture_output=True, text=True,
                             timeout=60)
        where = Path(out.stdout.strip() or "?").resolve()
        if out.returncode != 0 or SRC.resolve() not in where.parents:
            raise BenchError(f"children import nchodge from {where}, not from {SRC}")


def _setup_ok(cmd: tuple, code: int, text: str) -> bool:
    if code != 0:
        return False
    try:
        result = parse_report(text, "json")["result"]
    except (ValueError, KeyError):
        return False
    return result.get("ok") is True if cmd[0] == "validate" else bool(result.get("algebras"))


def tail(samples: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload: str, seed: int, seconds: int, workdir: Path) -> dict:
    expected = load_expected()
    instances = instantiate(workload, seed, workdir)
    inputs = {p.name for p in workdir.iterdir()}
    children = Children(workdir)
    children.check_imports_tree()

    setup_samples, setup_wall, setup_failures = [], [], []
    for _ in range(SETUP_REPEATS):
        for cmd in setup_commands(workload):
            times, code, _, text = children.run(cmd)
            setup_samples.append(times["latency_s"])
            setup_wall.append(times["wall_s"])
            if not _setup_ok(cmd, code, text):
                setup_failures.append(" ".join(cmd))

    rows = []
    for pass_no in range(passes_for(seconds)):
        for inst in instances:
            times, code, rss_mb, text = children.run(inst.argv)
            problems = check_report(inst, code, text, expected)
            rows.append({"pass": pass_no, "job": inst.job.id, **times,
                         "exit": code, "peak_rss_mb": rss_mb,
                         "report_bytes": len(text.encode()), "problems": problems})

    leftovers = sorted({p.name for p in workdir.iterdir()} - inputs)
    if leftovers:
        raise BenchError(f"jobs left files behind (a report cache?): {leftovers}")

    failed = sum(1 for r in rows if r["problems"])
    metrics = _timings(rows, setup_samples, "latency_s")
    metrics["peak_rss_mb"] = statistics.median(
        max(r["peak_rss_mb"] for r in rows if r["pass"] == p) for p in {r["pass"] for r in rows})
    wall = _timings(rows, setup_wall, "wall_s")
    refs = children.probe.samples
    return {"metrics": metrics, "units": END_TO_END_UNITS, "rows": rows,
            "attempted": len(rows), "failed": failed, "setup_failures": setup_failures,
            "notes": {"failed_frac": failed / len(rows), "wall": wall,
                      "passes": len({r["pass"] for r in rows}), "job_samples": len(rows),
                      "tail_percentile": tail([r["latency_s"] for r in rows])[1],
                      "setup_samples": len(setup_samples),
                      "reference_s": {"nominal": REFERENCE_S,
                                      "median": statistics.median(refs),
                                      "min": min(refs), "max": max(refs),
                                      "median_by_cpu": _by_cpu(children.probe)}},
            "inputs": _inputs_record(instances)}


def _by_cpu(probe) -> dict:
    return {str(cpu): statistics.median(s for s, c in zip(probe.samples, probe.sample_cpus)
                                        if c == cpu)
            for cpu in probe.cpus}


def _timings(rows: list, setup: list, key: str) -> dict:
    """sweep_s, job_s_p50, job_s_tail and setup_s from one kind of time."""
    passes = sorted({r["pass"] for r in rows})
    latencies = [r[key] for r in rows]
    return {"sweep_s": statistics.median(sum(r[key] for r in rows if r["pass"] == p)
                                         for p in passes),
            "job_s_p50": statistics.median(latencies),
            "job_s_tail": tail(latencies)[0],
            "setup_s": statistics.median(setup)}


def _inputs_record(instances) -> dict:
    return {"job_order": [i.job.id for i in instances],
            "idempotents": {i.job.id: {k: str(v) for k, v in i.idempotent.items()}
                            for i in instances if i.idempotent}}


# ---------------------------------------------------------------------------
# traced part: the same jobs in this process
# ---------------------------------------------------------------------------


def _import_tree():
    sys.path.insert(0, str(SRC))
    import nchodge.cli
    if SRC.resolve() not in Path(nchodge.__file__).resolve().parents:
        raise BenchError(f"imported nchodge from {nchodge.__file__}, not from {SRC}")
    return nchodge.cli


def _call(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def in_process_pass(cli, instances, tracer=None) -> list[dict]:
    """Run every job once in this process; with a tracer, under its spans."""
    rows = []
    for inst in instances:
        start = time.perf_counter()
        if tracer is None:
            code, text = _call(cli, inst.argv)
        else:
            code, text = tracer.run_job(inst.job.id, _call, cli, inst.argv)
        elapsed = time.perf_counter() - start
        data = text.encode()
        if tracer is not None:
            tracer.counts["cli.report_bytes"] += len(data)
        rows.append({"job": inst.job.id, "latency_s": elapsed, "exit": code,
                     "report_bytes": len(data), "sha256": hashlib.sha256(data).hexdigest(),
                     "text": text})
    return rows


def traced(workload: str, seed: int, workdir: Path) -> dict:
    from tracer import METRICS, Tracer, TracerError

    # The jobs run in this process, so its own environment must not name a
    # report cache: the untraced pass would fill it and the traced one replay it.
    os.environ.pop("NCHODGE_CACHE_DIR", None)
    expected = load_expected()
    instances = instantiate(workload, seed, workdir)
    cli = _import_tree()
    for cmd in setup_commands(workload):      # warm-up: imports, argparse
        _call(cli, cmd)

    plain = in_process_pass(cli, instances)
    tracer = Tracer()
    try:
        tracer.install()
    except TracerError as exc:
        raise BenchError(str(exc)) from exc
    try:
        origin = time.perf_counter()
        spanned = in_process_pass(cli, instances, tracer)
    finally:
        tracer.uninstall()

    rows = []
    for inst, p, t in zip(instances, plain, spanned):
        problems = check_report(inst, p["exit"], p.pop("text"), expected)
        t.pop("text")
        if (p["exit"], p["sha256"]) != (t["exit"], t["sha256"]):
            problems.append("traced report differs from the untraced one")
        rows.append({"job": inst.job.id, "untraced_s": p["latency_s"],
                     "traced_s": t["latency_s"], "exit": t["exit"],
                     "report_bytes": t["report_bytes"], "problems": problems,
                     "layer_self_s": dict(tracer.job_self[inst.job.id])})

    untraced_s = sum(r["untraced_s"] for r in rows)
    traced_s = sum(r["traced_s"] for r in rows)
    values = tracer.metrics(overhead_frac=traced_s / untraced_s - 1.0)
    WORK.mkdir(exist_ok=True)
    span_file = WORK / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(span_file, origin)
    failed = sum(1 for r in rows if r["problems"])
    return {"metrics": values, "units": METRICS, "rows": rows, "attempted": len(rows),
            "failed": failed, "setup_failures": [],
            "notes": {"failed_frac": failed / len(rows), "untraced_pass_s": untraced_s,
                      "traced_pass_s": traced_s,
                      "layer_self_s": tracer.layer_self_s(), "span_file": str(span_file),
                      "counts": tracer.counts_only()},
            "inputs": _inputs_record(instances)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measuring time of the end-to-end part; sets its number "
                             "of passes (a traced run always makes one of each)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nchodge" / "cli.py").is_file():
        print(f"error: no nchodge source tree at {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            out = traced(args.workload, args.seed, workdir)
        else:
            out = end_to_end(args.workload, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    env["loadavg_before"] = list(load_before)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": out["inputs"],
              "notes": out["notes"], "setup_failures": out["setup_failures"],
              "rows": out["rows"]}
    print(json.dumps(record, sort_keys=True))
    for name, value in out["metrics"].items():
        print(f"{name:32s} {value:>16.6f} {out['units'][name]}")
    print(f"{'failed_frac':32s} {out['notes']['failed_frac']:>16.6f} ratio")
    if not args.trace:
        n = out["notes"]
        for name, value in n["wall"].items():
            print(f"{name + ' (wall)':32s} {value:>16.6f} s")
        print(f"times are reference-speed seconds (perfbench/speed.py); reference "
              f"median {n['reference_s']['median']:.4f} s vs nominal {REFERENCE_S} s")
        print(f"job_s_tail is p{n['tail_percentile']:.1f} of {n['job_samples']} job samples "
              f"({n['passes']} passes); setup_s is the median of {n['setup_samples']} runs")
    for row in out["rows"]:
        if row["problems"]:
            print(f"FAILED {row['job']}: {'; '.join(row['problems'])}")
    for cmd in out["setup_failures"]:
        print(f"FAILED setup: {cmd}")
    correct = out["failed"] == 0 and not out["setup_failures"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
                      "metrics": {name: {"value": value, "unit": out["units"][name]}
                                  for name, value in out["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
