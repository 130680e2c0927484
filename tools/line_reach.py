"""Statements of `src/nchodge` that a run never reaches.

A run goes under `sys.settrace`, and every statement of the source files
that none of its lines ran is printed, one `module:line statement` line
each, in module and line order (the statement's first line, stripped):

    python3 tools/line_reach.py                      # the digest grid
    python3 tools/line_reach.py --pytest -q tests    # a pytest selection

The default run is the grid of `tools/report_digests.py`, in process, its
digests dropped.  After `--pytest` every argument goes to `pytest.main`,
run in this process from the current directory, its output sent to
stderr; the tool then exits with pytest's code.  Run it from the
repository root.  Tracing slows the run several times over: the grid took
118 s under the trace on a 2-CPU host, against 19 s without it.

Over the whole test suite, deselect acceptance criterion 01, whose own
bound is 120 s: under the trace it took 237 s on that host, so it fails,
and a run with `-x` stops there.

    PYTHONPATH=src python3 tools/line_reach.py --pytest -q \\
        --deselect tests/test_acceptance.py::test_criterion_01_differential_identities

The trace sees this process only.  Statements that tests run in a child
process show as never run: the `cli.entry` launcher and the closed-stdout
handling of `cli._report_output`, among others.

The rule.  A statement is its own lines only: a simple statement's
lines, and a compound statement's header, from its first decorator to
the line before its body.  It counts as run when the trace saw a line
event on one of them, and is left out when none of them holds bytecode
(a docstring, `global`).  A line that holds two statements, such as
`if x: return`, counts for both.  The trace starts before the source is
imported, so definitions and module-level statements count too.  The
last line on stderr gives the counts.  The source files are read before
the run starts, so one edited during the run is still reported by the
version that ran.  Stdlib only (`--pytest` needs pytest).
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def statements(path: Path) -> list:
    """(first line, lines, text) of each statement of a source file: its
    own lines (see the module docstring) and its first line, stripped."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()

    def start(node):
        return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])

    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        end = max(start(body[0]) - 1, node.lineno) if body else node.end_lineno
        out.append((node.lineno, range(start(node), end + 1), text[node.lineno - 1].strip()))
    return sorted(out, key=lambda s: s[0])


def executable_lines(path: Path) -> set:
    """The lines of a source file that hold bytecode, in any code object."""
    todo, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace(paths: list, run) -> dict:
    """Call run() under sys.settrace; return {path: set of lines run} for
    the given source files."""
    ran = {os.path.realpath(p): set() for p in paths}

    def local_tracer(lines):
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    by_path = {p: local_tracer(lines) for p, lines in ran.items()}
    tracers: dict = {}  # co_filename -> its local tracer, or None

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            tracers[name] = by_path.get(os.path.realpath(name))
        return tracers[name]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {Path(p): lines for p, lines in ran.items()}


def unrun(paths: list, run) -> tuple:
    """(lines, count): one `module:line statement` line per statement of the
    given source files that run() never reached, and how many statements
    hold bytecode.  The sources are read before run() starts, so a file
    edited during the run is judged by the lines that were executed."""
    sources = {path: (executable_lines(path), statements(path))
               for path in (Path(os.path.realpath(p)) for p in paths)}
    ran = trace(paths, run)
    out, count = [], 0
    for path in sorted(sources, key=lambda p: p.stem):
        code, stmts = sources[path]
        for first, lines, text in stmts:
            if code.isdisjoint(lines):
                continue
            count += 1
            if ran[path].isdisjoint(lines):
                out.append(f"{path.stem}:{first} {text}")
    return out, count


def _grid():
    """Every command of the digest grid, in process; `digest_line` keeps
    only the digests of each command's output, and they are dropped."""
    spec = importlib.util.spec_from_file_location("report_digests",
                                                  ROOT / "tools" / "report_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with tool.inputs():
        for argv in tool.grid():
            tool.digest_line(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    code = 0
    if argv[:1] == ["--pytest"]:
        import pytest

        def run():
            nonlocal code
            with contextlib.redirect_stdout(sys.stderr):  # stdout: statements only
                code = pytest.main(argv[1:])
    elif argv:
        print(f"usage: line_reach.py [--pytest ARGS...]; got {argv}", file=sys.stderr)
        return 2
    else:
        run = _grid
    sys.path.insert(0, str(ROOT / "src"))
    lines, count = unrun(sorted((ROOT / "src" / "nchodge").glob("*.py")), run)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {count} statements never ran", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
