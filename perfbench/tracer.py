"""Outside-in tracer for the in-process pass.

The tracer replaces each layer's public functions with wrappers that record
a span (name, start, end, parent span, job id) and update counters at the
same boundary.  Modules import these functions by name
(`from .sparse import kernel_basis`), so a wrapper replaces the function in
every `nchodge` module namespace that holds it, not only in the module that
defines it.  `Field` arithmetic is counted, not spanned: a span per scalar
operation would cost more than the work it measures.

A wrapped name that no longer exists raises `TracerError` at install time,
so a refactor that renames a layer's entry point fails the benchmark instead
of making that layer read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Spanned callables per layer, as "module.function" or "module.Class.method".
SPANNED = {
    "sparse": ("nchodge.sparse.kernel_basis", "nchodge.sparse.rank_of_columns",
               "nchodge.sparse.rank"),
    "umodule": ("nchodge.umodule.u_module_decompose",),
    "cyclic": ("nchodge.cyclic.negative_cyclic", "nchodge.cyclic.hp_ranks",
               "nchodge.cyclic.hodge_filtration", "nchodge.cyclic.degeneration_check",
               "nchodge.cyclic.char_p_compare", "nchodge.cyclic.graded_piece_analysis"),
    "hochschild": ("nchodge.hochschild.chain_basis", "nchodge.hochschild.hh_ranks",
                   "nchodge.hochschild.hh0_direct",
                   "nchodge.hochschild.ChainComplex.hh_rank",
                   "nchodge.hochschild.ChainComplex.boundary",
                   "nchodge.hochschild.ChainComplex.connes",
                   "nchodge.hochschild.ChainComplex.boundary_word",
                   "nchodge.hochschild.ChainComplex.connes_word"),
    "kchern": ("nchodge.kchern.chern_idempotent", "nchodge.kchern.cycle_certificate",
               "nchodge.kchern.u0_class_nonzero", "nchodge.kchern.ppower_on_hh0",
               "nchodge.kchern.ppower_lift_p2"),
    "poisson": ("nchodge.poisson.jacobi_check", "nchodge.poisson.conjugation_check",
                "nchodge.poisson.star_identity_check",
                "nchodge.poisson.poisson_homology_ranks"),
    "cli": ("nchodge.cli.emit", "nchodge.cli.load_algebra", "nchodge.cli.load_idempotent",
            "nchodge.cli.load_bivector"),
    "algebra": ("nchodge.algebra.builtin", "nchodge.algebra.matrix_algebra",
                "nchodge.algebra.validate"),
}
BRACKET = "nchodge.poisson.poisson_bracket"
FIELD_CLASS = "nchodge.fields.Field"
FIELD_OPS = ("add", "sub", "mul", "neg", "inv", "is_zero")

ROOT_SPAN = "cli.main"
_WORD_IMAGES = ("hochschild.ChainComplex.boundary_word", "hochschild.ChainComplex.connes_word")
_ASSEMBLY = _WORD_IMAGES + ("hochschild.ChainComplex.boundary", "hochschild.ChainComplex.connes")
_CHECKS = ("poisson.jacobi_check", "poisson.conjugation_check", "poisson.star_identity_check")
_LOADS = ("cli.load_algebra", "cli.load_idempotent", "cli.load_bivector")

# Every per-layer metric the tracer reports, with its unit.
METRICS = {
    "sparse.elim_s": "s", "sparse.elim_s.Q": "s", "sparse.elim_s.Fp": "s",
    "sparse.calls": "count", "sparse.kernel_calls": "count", "sparse.input_nnz": "count",
    "sparse.max_dim": "count", "sparse.pivots": "count", "sparse.pivot_ratio": "ratio",
    "sparse.kernel_nnz": "count", "sparse.share": "ratio",
    "umodule.decompose_s": "s", "umodule.calls": "count", "umodule.expanded_dim": "count",
    "umodule.elims": "count", "umodule.elim_s": "s",
    "cyclic.self_s": "s", "cyclic.elims": "count",
    "hochschild.self_s": "s", "hochschild.basis_s": "s", "hochschild.basis_words": "count",
    "hochschild.assemble_s": "s", "hochschild.word_images": "count",
    "hochschild.distinct_word_ratio": "ratio", "hochschild.matrix_nnz": "count",
    "kchern.self_s": "s", "kchern.chain_s": "s", "kchern.certificate_s": "s",
    "kchern.chain_terms": "count",
    "poisson.self_s": "s", "poisson.check_s": "s", "poisson.brackets": "count",
    "poisson.homology_s": "s",
    "cli.self_s": "s", "cli.emit_s": "s", "cli.report_bytes": "bytes", "cli.load_s": "s",
    "algebra.build_s": "s",
    "fields.ops.Q": "count", "fields.ops.Fp": "count",
    "trace.spans": "count", "trace.overhead_frac": "ratio",
}
LAYERS = ("sparse", "umodule", "cyclic", "hochschild", "kchern", "poisson", "cli", "algebra")


class TracerError(RuntimeError):
    """A callable the tracer must wrap is missing, or was called in a shape
    the tracer cannot read."""


def _resolve(dotted: str):
    """(owner, attribute, callable) for "pkg.module.func" or "pkg.module.Class.method"."""
    modname, _, attr = dotted.rpartition(".")
    try:
        try:
            owner = importlib.import_module(modname)
        except ModuleNotFoundError:
            modname, _, clsname = modname.rpartition(".")
            owner = getattr(importlib.import_module(modname), clsname, None)
    except ModuleNotFoundError:
        owner = None
    original = vars(owner).get(attr) if owner is not None else None
    if not callable(original):
        raise TracerError(f"{dotted} is missing or renamed; update the table in "
                          f"perfbench/tracer.py so its layer does not read zero")
    return owner, attr, original


class Tracer:
    """Spans and counters for one pass.  `install()` wraps, `uninstall()`
    restores the original callables."""

    def __init__(self):
        self.spans: list = []          # (id, name, start, end, parent id, job)
        self.self_s = defaultdict(float)   # span name -> self seconds
        self.times = defaultdict(float)    # timers that are not spans
        self.counts = defaultdict(int)
        self.job_self: dict = {}       # job -> layer -> self seconds
        self._stack: list = []
        self._next_id = 0
        self._active = defaultdict(int)
        self._job = None
        self._job_layers = None
        self._seen_words: set = set()
        self._seen_mats: set = set()
        self._keep: list = []          # keeps ids in the seen sets unique
        self._patches: list = []
        self._field_ops = [0, 0]       # [Q, F_p]

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, layer: str):
        self._stack.append([self._next_id, name, layer, time.perf_counter(), 0.0])
        self._next_id += 1
        self._active[layer] += 1

    def _close(self) -> float:
        """End the innermost span; returns its duration."""
        end = time.perf_counter()
        sid, name, layer, start, child = self._stack.pop()
        self._active[layer] -= 1
        duration = end - start
        own = duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.self_s[name] += own
        self._job_layers[layer] += own
        self.spans.append((sid, name, start, end, parent[0] if parent else None, self._job))
        return duration

    def run_job(self, job_id: str, fn, *args):
        """Run one job under its root span; spans inside it carry `job_id`."""
        self._job = job_id
        self._job_layers = self.job_self.setdefault(job_id, defaultdict(float))
        self._seen_words.clear()
        self._seen_mats.clear()
        self._keep.clear()
        self._open(ROOT_SPAN, "cli")
        try:
            return fn(*args)
        finally:
            self._close()
            self._job = None

    def _wrap(self, dotted: str, layer: str, fn, before=None, after=None):
        name = dotted.removeprefix("nchodge.")
        tracer = self

        def traced(*args, **kwargs):
            note = before(args) if before is not None else None
            tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer._close()
            if after is not None:
                after(note, result, elapsed)
            return result

        return functools.wraps(fn)(traced)

    # -- layer hooks ----------------------------------------------------------

    @staticmethod
    def _args(args, n: int, dotted: str):
        if len(args) < n:
            raise TracerError(f"{dotted} called with {len(args)} positional "
                              f"arguments; the tracer reads the first {n}")
        return args

    def _sparse_hooks(self, dotted: str):
        kernel = dotted.endswith("kernel_basis")
        by_columns = dotted.endswith("rank_of_columns")

        def before(args):
            data, field = self._args(args, 2, dotted)[:2]
            if by_columns:
                vectors = sum(1 for col in data if col)
                nnz = sum(len(col) for col in data)
                rows = 1 + max((r for col in data for r in col), default=-1)
                return field.p is None, nnz, max(len(data), rows), vectors, len(data)
            vectors = len({r for r, _ in data.entries})
            return field.p is None, data.nnz(), max(data.rows, data.cols), vectors, data.cols

        def after(note, result, elapsed):
            is_q, nnz, dim, vectors, cols = note
            c = self.counts
            c["sparse.calls"] += 1
            c["sparse.input_nnz"] += nnz
            c["sparse.vectors"] += vectors
            c["sparse.max_dim"] = max(c["sparse.max_dim"], dim)
            self.times["sparse.elim_s.Q" if is_q else "sparse.elim_s.Fp"] += elapsed
            if kernel:
                c["sparse.kernel_calls"] += 1
                c["sparse.kernel_nnz"] += sum(len(v) for v in result)
                c["sparse.pivots"] += cols - len(result)
            else:
                c["sparse.pivots"] += result
            if self._active["umodule"]:
                c["umodule.elims"] += 1
                self.times["umodule.elim_s"] += elapsed
            elif self._active["cyclic"]:
                c["cyclic.elims"] += 1

        return before, after

    def _hook(self, dotted: str):
        """(before, after) for the callables whose boundary carries counters."""
        if dotted.startswith("nchodge.sparse."):
            return self._sparse_hooks(dotted)
        name = dotted.removeprefix("nchodge.")
        if name in _WORD_IMAGES:
            def before(args):
                cx, word = self._args(args, 2, dotted)[:2]
                key = (name, id(cx.A), word)
                if key not in self._seen_words:
                    self._seen_words.add(key)
                    self._keep.append(cx.A)
                    self.counts["hochschild.distinct_words"] += 1
                self.counts["hochschild.word_images"] += 1
            return before, None
        if name in ("hochschild.ChainComplex.boundary", "hochschild.ChainComplex.connes"):
            def after(_, mat, __):
                if id(mat) not in self._seen_mats:
                    self._seen_mats.add(id(mat))
                    self._keep.append(mat)
                    self.counts["hochschild.matrix_nnz"] += mat.nnz()
            return None, after
        if name == "hochschild.chain_basis":
            def after(_, basis, __):
                self.counts["hochschild.basis_words"] += len(basis)
            return None, after
        if name == "umodule.u_module_decompose":
            def before(args):
                cx = self._args(args, 1, dotted)[0]
                self.counts["umodule.calls"] += 1
                self.counts["umodule.expanded_dim"] += cx.truncation.N * sum(cx.ranks.values())
            return before, None
        if name == "kchern.chern_idempotent":
            def after(_, chain, __):
                self.counts["kchern.chain_terms"] += sum(len(c) for c in chain.components)
            return None, after
        return None, None

    # -- install / uninstall --------------------------------------------------

    def _replace(self, owner, attr: str, original, replacement):
        """Point every reference to `original` at `replacement`: the owner's
        attribute and every `nchodge` module global bound to it."""
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)
        if isinstance(owner, type):
            return
        for modname, module in list(sys.modules.items()):
            if modname != "nchodge" and not modname.startswith("nchodge."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, replacement)

    def install(self):
        if self._patches:
            raise TracerError("tracer already installed")
        importlib.import_module("nchodge.cli")  # every module the jobs use
        targets = [(layer, dotted) for layer, names in SPANNED.items() for dotted in names]
        resolved = [(layer, dotted, *_resolve(dotted)) for layer, dotted in targets]
        bracket = _resolve(BRACKET)
        field_ops = [_resolve(FIELD_CLASS + "." + op) for op in FIELD_OPS]
        for layer, dotted, owner, attr, original in resolved:
            before, after = self._hook(dotted)
            self._replace(owner, attr, original,
                          self._wrap(dotted, layer, original, before, after))
        counts = self.counts

        def count_bracket(*args, _original=bracket[2], **kwargs):
            counts["poisson.brackets"] += 1
            return _original(*args, **kwargs)

        self._replace(*bracket, count_bracket)
        ops = self._field_ops
        for owner, attr, original in field_ops:
            def counted(field, *args, _original=original):
                ops[field.p is not None] += 1
                return _original(field, *args)
            self._replace(owner, attr, original, counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def _sum(self, names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def layer_self_s(self) -> dict:
        """Self seconds per layer over the pass (these add up to the pass)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.partition(".")[0]] += seconds
        return out

    def metrics(self, overhead_frac: float) -> dict:
        c = self.counts
        layers = self.layer_self_s()
        total = sum(layers.values())
        sparse_s = layers["sparse"]
        values = {
            "sparse.elim_s": sparse_s,
            "sparse.elim_s.Q": self.times["sparse.elim_s.Q"],
            "sparse.elim_s.Fp": self.times["sparse.elim_s.Fp"],
            "sparse.calls": c["sparse.calls"], "sparse.kernel_calls": c["sparse.kernel_calls"],
            "sparse.input_nnz": c["sparse.input_nnz"], "sparse.max_dim": c["sparse.max_dim"],
            "sparse.pivots": c["sparse.pivots"],
            "sparse.pivot_ratio": c["sparse.pivots"] / c["sparse.vectors"] if c["sparse.vectors"] else 0.0,
            "sparse.kernel_nnz": c["sparse.kernel_nnz"],
            "sparse.share": sparse_s / total if total else 0.0,
            "umodule.decompose_s": layers["umodule"],
            "umodule.calls": c["umodule.calls"], "umodule.expanded_dim": c["umodule.expanded_dim"],
            "umodule.elims": c["umodule.elims"], "umodule.elim_s": self.times["umodule.elim_s"],
            "cyclic.self_s": layers["cyclic"], "cyclic.elims": c["cyclic.elims"],
            "hochschild.self_s": layers["hochschild"],
            "hochschild.basis_s": self.self_s["hochschild.chain_basis"],
            "hochschild.basis_words": c["hochschild.basis_words"],
            "hochschild.assemble_s": self._sum(_ASSEMBLY),
            "hochschild.word_images": c["hochschild.word_images"],
            "hochschild.distinct_word_ratio": (c["hochschild.distinct_words"]
                                               / c["hochschild.word_images"]
                                               if c["hochschild.word_images"] else 0.0),
            "hochschild.matrix_nnz": c["hochschild.matrix_nnz"],
            "kchern.self_s": layers["kchern"],
            "kchern.chain_s": self.self_s["kchern.chern_idempotent"],
            "kchern.certificate_s": self.self_s["kchern.cycle_certificate"],
            "kchern.chain_terms": c["kchern.chain_terms"],
            "poisson.self_s": layers["poisson"], "poisson.check_s": self._sum(_CHECKS),
            "poisson.brackets": c["poisson.brackets"],
            "poisson.homology_s": self.self_s["poisson.poisson_homology_ranks"],
            "cli.self_s": layers["cli"], "cli.emit_s": self.self_s["cli.emit"],
            "cli.report_bytes": c["cli.report_bytes"], "cli.load_s": self._sum(_LOADS),
            "algebra.build_s": layers["algebra"],
            "fields.ops.Q": self._field_ops[0], "fields.ops.Fp": self._field_ops[1],
            "trace.spans": len(self.spans), "trace.overhead_frac": overhead_frac,
        }
        assert set(values) == set(METRICS)
        return values

    def counts_only(self) -> dict:
        """The deterministic part of the trace: every counter and the number
        of spans of each name, no clock."""
        out = dict(self.counts)
        out["fields.ops.Q"], out["fields.ops.Fp"] = self._field_ops
        for _, name, *_ in self.spans:
            out["spans." + name] = out.get("spans." + name, 0) + 1
        return out

    def write_spans(self, path, origin: float):
        """One JSON array per span: [id, name, start_s, end_s, parent_id, job],
        times relative to `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps([sid, name, round(start - origin, 9),
                                     round(end - origin, 9), parent, job]) + "\n")
