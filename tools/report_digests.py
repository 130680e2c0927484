"""Byte-identity sweep: one digest line per command of a fixed grid.

Every command of the grid runs in process through `nchodge.cli.main`, and
one line per command is printed:

    sha256(stdout) sha256(stderr) exit argv

where exit is the exit code (for an argument that argparse refuses, the
code of its SystemExit), or the name of an exception that escaped
`nchodge.cli.main` (the sweep goes on past it).

Two checkouts print the same lines exactly when their reports, error lines
and exit codes agree byte for byte, so a change is checked against its
parent with `diff`:

    python3 tools/report_digests.py > digests.txt

The grid:

- the cyclic sweep: `hc`, `hp`, `filtration`, `degeneration` and
  `charp-compare` over eight catalogue algebras, the fields Q, F2, F3 and
  F5, N = 1-4 and n_max in {2N, 8} (1120 commands);
- `hh --n-max 2` of every catalogue entry over Q, F2 and F3, and over Q
  in csv and markdown; `hh` of `mat` with m = 3 at `--n-max 3` over Q and
  F2, and of `mat` at `--n-max 1000`, a window longer than Python's
  recursion limit;
- the benchmark's jobs (`perfbench/workloads.py`, idempotents of seed 1)
  and their setup commands;
- `validate`, `hh` and `glue` of `ncg-algebra/1` files, an invalid one
  included, and `hh --n-max 4` of two glued algebra files;
- `poisson jacobi`, `conjugation` and `homology` of every catalogue
  bivector and of an `ncg-bivector/1` file;
- `chern` with an idempotent file that names elements by label and by
  index, over Q, over F7 and in markdown; `chern` of the corner
  idempotent of a glued super algebra file;
- `ppower` of every catalogue entry over F2, F3, F5 and F7 (the entries
  a field refuses exit 2), `ppower --lift E12*1` of `mat` over F2, and
  `--lift eps` of `dual_numbers` and `--lift E11*1` of `mat` over F2, F3
  and F5 (only p = 2 has a lift; F3 and F5 exit 3);
- an algebra, an idempotent and a bivector file that name one entry twice,
  and three such files that name one JSON key twice in one object;
- `hc`, `hp`, `filtration` and `degeneration` of three glued algebra files
  over Q, the dual numbers glued to k[x]/x^3 with the zero and the trivial
  bimodule and to the exterior algebra on one odd generator with the
  trivial one, and `charp-compare` of the same three over F2 and F3;
- the cyclic commands of the exterior algebra on two odd generators of
  weight 1, a connected-graded super algebra file, over Q and F3 at
  N = 2 and 3 and n_max in {2N, 8};
- `--strict` runs that exit non-zero: `hp` of `dual_numbers` whose verdict
  is inconclusive (exit 3), and `poisson conjugation` and `poisson jacobi`
  of the non-Jacobi bivector (exit 2);
- `poisson lie` of every catalogue bivector and of a file with one form
  (a bivector in other than two variables exits 2), and `poisson star`
  with that form, as json and as csv;
- csv and markdown of one command of every other report shape
  (`FORMAT_SHAPES`): `hc`, `hp`, `degeneration` and `charp-compare` of
  `poly_truncated` (graded) and `a2_path` (ungraded) over F3, `ppower
  --lift`, `glue`, `validate` of the invalid file, `graded-pieces`,
  `poisson homology` and `poisson jacobi`;
- `hh` of `dual_numbers` twice with `--cache-dir cache`: the first run
  writes the cache entry, the second replays it;
- `hh --n-max 400` and `hc --n-max 200 --u-trunc 2` of `dual_numbers`,
  long windows whose blocks hold two words each;
- `hh` of `dual_numbers` with the malformed field labels `F` and `F+3`
  (exit 2);
- integers longer than the interpreter's 4300-digit int/str cap: `chern`
  of an idempotent with a 901-digit entry (coefficients of about 4500
  digits), an algebra file whose `field.p` is 5000 digits long (exit 2),
  `poisson bracket` with a 5000-digit `--f` coefficient, and `hh` with
  `--field` F followed by 5000 digits (exit 2);
- `ppower --lift nope` of `dual_numbers` over Q and F2 (exit 2);
- `validate` and `hh --n-max 2` of an algebra file that declares dim 3 but
  lists two structure entries, too few for a unit (exit 2);
- `glue` of four pairs of catalogue parts that take parameters, a super
  part among them, with the zero and the trivial bimodule (the trivial one
  exits 2 beside `clifford1` and `mat`), over Q and F3;
- `hh --n-max 3` of parameter corners (`truncated_poly` with m = 1 and 2,
  `poly_truncated` with vars = 2 and max_weight 0, `quantum_plane` with
  q = -1 and 1/3 at max_weight 0 and 3, `mat` with m = 1) over Q and F3
  (1/3 is no element of F3: exit 2);
- `chern` of the zero idempotent of `mat` (every component has no terms)
  and of the unit of `dual_numbers` (every component after u^0 has none),
  in json, csv and markdown, and of the corner idempotent of the glued
  super algebra file in csv and markdown.
- integer options spelled with `_` between digits, with a non-ASCII
  digit and with a leading space (`1_0`, `\uff12`, `" 3"`): `--n-max` of
  `hh`, `--u-trunc` of `hc`, `--degree` of `poisson homology` and
  `--nvars` of `poisson star` (argparse refuses each: exit 2).

Input files are written to a fresh temporary directory, which is the
working directory while the grid runs; they are named relative to it, so
no line depends on where it is.  The report cache is off except for the
two runs that name `--cache-dir`, whose cache lies in that directory too.  The `nchodge`
run is the one in this checkout's `src`.  Stdlib only; the total runtime
goes to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nchodge import cli  # noqa: E402
from nchodge.algebra import (CATALOGUE, AlgebraSpec, algebra_to_json, builtin,  # noqa: E402
                              glue, trivial_bimodule, zero_bimodule)
from nchodge.fields import GF, QQ  # noqa: E402
from nchodge.poisson import BIVECTOR_CATALOGUE  # noqa: E402

CYCLIC = ("hc", "hp", "filtration", "degeneration", "charp-compare")
SWEEP_ALGEBRAS = (("dual_numbers",), ("truncated_poly", "--param", "m=3"),
                  ("poly_truncated",), ("quantum_plane",), ("mat", "--param", "m=2"),
                  ("a2_path",), ("group_z2",), ("clifford1",))
SWEEP_FIELDS = ("Q", "F2", "F3", "F5")
HH_FIELDS = ("Q", "F2", "F3")
PPOWER_FIELDS = ("F2", "F3", "F5", "F7")
# the cyclic window of each glued file, about 2 s a command on the absolute complex
GLUED_WINDOWS = {"zero": ("--n-max", "7", "--u-trunc", "3"),
                 "trivial": ("--n-max", "6", "--u-trunc", "3"),
                 "super": ("--n-max", "7", "--u-trunc", "3")}

# glue of catalogue parts that take parameters, a super part among them
GLUED_PARTS = (
    ("--algebra-a", "truncated_poly", "--algebra-b", "quantum_plane",
     "--param", "m=4", "--param", "q=-1", "--param", "max_weight=3"),
    ("--algebra-a", "poly_truncated", "--algebra-b", "clifford1",
     "--param", "vars=2", "--param", "max_weight=2"),
    ("--algebra-a", "clifford1", "--algebra-b", "mat", "--param", "m=2"),
    ("--algebra-a", "mat", "--algebra-b", "quantum_plane",
     "--param", "m=1", "--param", "q=1/2", "--param", "max_weight=2"))
# parameter corners of the monomial catalogue entries and of mat
CORNERS = (("truncated_poly", "--param", "m=1"), ("truncated_poly", "--param", "m=2"),
           ("poly_truncated", "--param", "vars=2", "--param", "max_weight=0"),
           *(("quantum_plane", "--param", f"q={q}", "--param", f"max_weight={w}")
             for q in ("-1", "1/3") for w in (0, 3)),
           ("mat", "--param", "m=1"))

# one command of each report shape that `hh`, `chern` and `poisson star`
# do not cover, rendered as csv and markdown
FORMAT_SHAPES = (
    *((command, "--algebra", algebra, "--field", "F3", "--n-max", "6", "--u-trunc", "3")
      for algebra in ("poly_truncated", "a2_path")
      for command in ("hc", "hp", "degeneration", "charp-compare")),
    ("ppower", "--algebra", "mat", "--field", "F2", "--lift", "E12*1"),
    ("glue", "--algebra-a", "dual_numbers", "--algebra-b", "dual.json", "--bimodule", "zero"),
    ("validate", "--algebra", "broken.json"),
    ("graded-pieces", "--dim-v", "2", "--n", "4", "--field", "F2"),
    ("poisson", "homology", "--bivector", "so3", "--degree", "6"),
    ("poisson", "jacobi", "--bivector", "nonjacobi4"))

# x * x = x + 1 with x * 1 = x + 1: unit and associativity fail
_BROKEN = {"format": "ncg-algebra/1", "name": "x*x=x+1", "field": {"kind": "rationals"},
           "dim": 2, "unit_index": 0,
           "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 1, "1"],
                         [1, 1, 0, "1"], [1, 0, 0, "1"]]}

# e1 * e1 given twice, as 1 and as -1
_TWICE = {"format": "ncg-algebra/1", "name": "twice", "field": {"kind": "rationals"},
          "dim": 2, "unit_index": 0,
          "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"],
                        [1, 1, 0, "-1"]]}

# dim 3 with two structure entries: a unit needs 1 * e_i = e_i for all three
_SHORT = {"format": "ncg-algebra/1", "name": "short", "field": {"kind": "rationals"},
          "dim": 3, "unit_index": 0, "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"]]}


def _poly(*terms):
    return [{"exponents": list(e), "coeff": c} for e, c in terms]


def _bivector(*polys, **fields):
    return {"format": "ncg-bivector/1", "nvars": 2, **fields,
            "components": [{"i": 0, "j": 1, "poly": p} for p in polys]}


def _idempotent(vector):
    return {"format": "ncg-idempotent/1", "vector": vector}


_X, _Y = json.dumps(_poly(((1, 0), "1"))), json.dumps(_poly(((0, 1), "1")))
# 5000 digits, longer than the interpreter's int/str conversion cap
_ONES = "1" * 5000
# x dy + 1/2 y dx^dy
_FORM = json.dumps([{"exponents": [1, 0], "dxs": [1], "coeff": "1"},
                    {"exponents": [0, 1], "dxs": [0, 1], "coeff": "1/2"}])


def _workloads():
    """perfbench/workloads.py, loaded by path once."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _with_key_twice(obj: dict, key: str, first) -> str:
    """obj as JSON text that names `key` twice, last: with `first`, then
    with its value in obj."""
    rest = json.dumps({k: v for k, v in obj.items() if k != key})
    return (f"{rest[:-1]}, {json.dumps(key)}: {json.dumps(first)}, "
            f"{json.dumps(key)}: {json.dumps(obj[key])}}}")


def _gluings(F) -> dict:
    """The dual numbers glued to k[x]/x^3 with the zero and the trivial
    bimodule, and to the exterior algebra on one odd generator with the
    trivial one, over F."""
    dual, tp3 = builtin("dual_numbers", F), builtin("truncated_poly", F, m=3)
    exterior = AlgebraSpec("exterior1", F, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                           weight=(0, 1), parity=(0, 1))
    return {"zero": glue(dual, tp3, zero_bimodule(tp3, dual)),
            "trivial": glue(dual, tp3, trivial_bimodule(tp3, dual)),
            "super": glue(dual, exterior, trivial_bimodule(exterior, dual))}


def _exterior2(F) -> AlgebraSpec:
    """The exterior algebra on two odd generators of weight 1, over F: the
    one connected-graded super input of the grid."""
    one, minus = F.one(), F.neg(F.one())
    structure = {(0, b): {b: one} for b in range(4)}
    structure |= {(a, 0): {a: one} for a in range(1, 4)}
    structure |= {(1, 2): {3: one}, (2, 1): {3: minus}}
    return AlgebraSpec("exterior2", F, 4, structure, weight=(0, 1, 1, 2), parity=(0, 1, 1, 0))


def _input_files() -> dict:
    """File name -> JSON object, or JSON text, of every input file the grid
    reads."""
    negative = algebra_to_json(builtin("truncated_poly", QQ, m=3))
    negative["weight"] = [0, -1, -2]
    dual = builtin("dual_numbers", QQ)
    glued = {f"glue-{kind}{suffix}.json": algebra_to_json(A)
             for field, suffix in ((QQ, ""), (GF(2), "-F2"), (GF(3), "-F3"))
             for kind, A in _gluings(field).items()}
    return {**glued,
            "dual.json": algebra_to_json(dual),
            "exterior2.json": algebra_to_json(_exterior2(QQ)),
            "exterior2-F3.json": algebra_to_json(_exterior2(GF(3))),
            "mat2.json": algebra_to_json(builtin("mat", QQ, m=2)),
            "tp3-F3.json": algebra_to_json(builtin("truncated_poly", GF(3), m=3)),
            "negative-weight.json": negative,
            "broken.json": _BROKEN,
            "twice.json": _TWICE,
            "short.json": _SHORT,
            # x^2 - 3y, scaled by 1/2
            "alpha.json": _bivector(_poly(((2, 0), "1"), ((0, 1), "-3")), hbar="1/2"),
            # xy, then 1
            "alpha-twice.json": _bivector(_poly(((1, 1), "1")), _poly(((0, 0), "1"))),
            # E11 + 2/3 E12 of Mat_2, E12 named by its index
            "pi-mixed.json": _idempotent({"E11*1": "1", "2": "2/3"}),
            "pi-twice.json": _idempotent({"E11*1": "1", "E12*1": "1/2", "2": "3"}),
            # the corner idempotent 1_A of a gluing, basis element 1 (files
            # carry no labels)
            "pi-corner.json": _idempotent({"1": "1"}),
            "pi-zero.json": _idempotent({}),
            # the unit of an algebra whose unit is labelled 1
            "pi-unit.json": _idempotent({"1": "1/1"}),
            "dual-key-twice.json": _with_key_twice(
                algebra_to_json(dual) | {"weight": [0, 2]}, "weight", [0, 1]),
            "pi-key-twice.json": '{"format": "ncg-idempotent/1", '
                                 '"vector": {"E11*1": "1", "E12*1": "1/2", "E12*1": "3"}}',
            "alpha-key-twice.json": _with_key_twice(
                _bivector(_poly(((0, 0), "1")), hbar="1/2"), "hbar", "1"),
            "pi-901-digits.json": _idempotent({"E11*1": "1/1", "E12*1": f"{10 ** 900}/1"}),
            "p-5000-digits.json": json.dumps(algebra_to_json(builtin("point", GF(2))))
                                  .replace('"p": 2', f'"p": {_ONES}')}


def grid() -> list:
    """Every command of the sweep, as an argv tuple."""
    out = []
    for command in CYCLIC:
        for algebra in SWEEP_ALGEBRAS:
            for field in SWEEP_FIELDS:
                for N in range(1, 5):
                    for n_max in sorted({2 * N, 8}):
                        out.append((command, "--algebra", *algebra, "--field", field,
                                    "--n-max", str(n_max), "--u-trunc", str(N)))
    for name in CATALOGUE:
        for field in HH_FIELDS:
            out.append(("hh", "--algebra", name, "--field", field, "--n-max", "2"))
        for fmt in ("csv", "markdown"):
            out.append(("hh", "--algebra", name, "--n-max", "2", "--format", fmt))
    for field in ("Q", "F2"):
        out.append(("hh", "--algebra", "mat", "--param", "m=3", "--field", field,
                    "--n-max", "3"))
    # a long window: its blocks hold words of about 1000 letters
    out.append(("hh", "--algebra", "mat", "--n-max", "1000"))
    workloads = _workloads()
    for workload in workloads.WORKLOADS:
        out += workloads.setup_commands(workload)
        for job in workloads.WORKLOADS[workload]:
            # the idempotent file that `inputs` writes for a chern job
            out.append(tuple(f"{job.id}.idempotent.json"
                             if a == workloads.IDEMPOTENT_PLACEHOLDER else a
                             for a in job.args))
    for path in ("dual.json", "mat2.json", "tp3-F3.json", "negative-weight.json",
                 "broken.json"):
        out.append(("validate", "--algebra", path))
        out.append(("hh", "--algebra", path, "--n-max", "3"))
        out.append(("glue", "--algebra-a", path, "--algebra-b", "point"))
        out.append(("glue", "--algebra-a", "dual_numbers", "--algebra-b", path,
                    "--bimodule", "zero"))
    out.append(("glue", "--algebra-a", "tp3-F3.json", "--algebra-b", "tp3-F3.json",
                "--field", "F3"))
    for path in ("glue-zero.json", "glue-trivial.json"):
        out.append(("hh", "--algebra", path, "--n-max", "4"))
    for bivector in (*BIVECTOR_CATALOGUE, "alpha.json"):
        out.append(("poisson", "jacobi", "--bivector", bivector))
        out.append(("poisson", "conjugation", "--bivector", bivector, "--degree", "4"))
        out.append(("poisson", "homology", "--bivector", bivector, "--degree", "6"))
    for idempotent in ("pi-mixed.json", "pi-twice.json"):
        out.append(("chern", "--algebra", "mat", "--u-trunc", "3", "--idempotent", idempotent))
    out.append(("validate", "--algebra", "twice.json"))
    out.append(("hh", "--algebra", "twice.json", "--n-max", "3"))
    for bivector in ("alpha.json", "alpha-twice.json"):
        out.append(("poisson", "bracket", "--bivector", bivector, "--f", _X, "--g", _Y))
    out.append(("hh", "--algebra", "dual-key-twice.json", "--n-max", "2"))
    out.append(("chern", "--algebra", "mat", "--u-trunc", "1", "--idempotent",
                "pi-key-twice.json"))
    out.append(("poisson", "bracket", "--bivector", "alpha-key-twice.json",
                "--f", _X, "--g", _Y))
    out.append(("chern", "--algebra", "mat", "--field", "F7", "--u-trunc", "3",
                "--idempotent", "pi-mixed.json"))
    out.append(("chern", "--algebra", "mat", "--u-trunc", "3", "--idempotent", "pi-mixed.json",
                "--format", "markdown"))
    out.append(("chern", "--algebra", "glue-super.json", "--u-trunc", "3",
                "--idempotent", "pi-corner.json"))
    out.append(("ppower", "--algebra", "mat", "--field", "F2", "--lift", "E12*1"))
    for name in CATALOGUE:
        for field in PPOWER_FIELDS:
            out.append(("ppower", "--algebra", name, "--field", field))
    for algebra, label in (("dual_numbers", "eps"), ("mat", "E11*1")):
        for field in PPOWER_FIELDS[:3]:
            out.append(("ppower", "--algebra", algebra, "--field", field, "--lift", label))
    for kind, window in GLUED_WINDOWS.items():
        for command in CYCLIC[:-1]:
            out.append((command, "--algebra", f"glue-{kind}.json", *window))
        for suffix in ("-F2", "-F3"):
            out.append(("charp-compare", "--algebra", f"glue-{kind}{suffix}.json", *window))
    for path in ("exterior2.json", "exterior2-F3.json"):
        for command in CYCLIC:
            for N in (2, 3):
                for n_max in (2 * N, 8):
                    out.append((command, "--algebra", path, "--n-max", str(n_max),
                                "--u-trunc", str(N)))
    out.append(("hp", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2",
                "--strict"))
    for command in ("conjugation", "jacobi"):
        out.append(("poisson", command, "--bivector", "nonjacobi4", "--degree", "2",
                    "--strict"))
    for bivector in (*BIVECTOR_CATALOGUE, "alpha.json"):
        out.append(("poisson", "lie", "--bivector", bivector, "--form", _FORM))
    for fmt in ("json", "csv"):
        out.append(("poisson", "star", "--nvars", "2", "--degree", "2", "--form", _FORM,
                    "--format", fmt))
    for fmt in ("csv", "markdown"):
        for argv in FORMAT_SHAPES:
            out.append((*argv, "--format", fmt))
    # the same command twice: a report written to the cache, then replayed
    out += [("hh", "--algebra", "dual_numbers", "--n-max", "3", "--cache-dir", "cache")] * 2
    # long windows of an algebra with two words per length and weight
    out.append(("hh", "--algebra", "dual_numbers", "--n-max", "400"))
    out.append(("hc", "--algebra", "dual_numbers", "--n-max", "200", "--u-trunc", "2"))
    # malformed field labels (exit 2)
    for label in ("F", "F+3"):
        out.append(("hh", "--algebra", "dual_numbers", "--n-max", "1", "--field", label))
    # integers past the int/str conversion cap
    out.append(("chern", "--algebra", "mat", "--param", "m=2", "--u-trunc", "3",
                "--idempotent", "pi-901-digits.json"))
    out.append(("hh", "--algebra", "p-5000-digits.json", "--n-max", "1"))
    out.append(("poisson", "bracket", "--bivector", "so3",
                "--f", f'[{{"exponents": [1, 0, 0], "coeff": {_ONES}}}]',
                "--g", json.dumps(_poly(((0, 1, 0), 1)))))
    out.append(("hh", "--algebra", "dual_numbers", "--n-max", "1", "--field", "F" + _ONES))
    for field in ("Q", "F2"):
        out.append(("ppower", "--algebra", "dual_numbers", "--field", field, "--lift", "nope"))
    out.append(("validate", "--algebra", "short.json"))
    out.append(("hh", "--algebra", "short.json", "--n-max", "2"))
    for field in ("Q", "F3"):
        for parts in GLUED_PARTS:
            for bimodule in ("zero", "trivial"):
                out.append(("glue", *parts, "--field", field, "--bimodule", bimodule))
        for params in CORNERS:
            out.append(("hh", "--algebra", *params, "--field", field, "--n-max", "3"))
    # chains with empty term lists, and the super chain, in every format
    for fmt in ("json", "csv", "markdown"):
        out.append(("chern", "--algebra", "mat", "--u-trunc", "3", "--idempotent",
                    "pi-zero.json", "--format", fmt))
        out.append(("chern", "--algebra", "dual_numbers", "--u-trunc", "3", "--idempotent",
                    "pi-unit.json", "--format", fmt))
    for fmt in ("csv", "markdown"):
        out.append(("chern", "--algebra", "glue-super.json", "--u-trunc", "3",
                    "--idempotent", "pi-corner.json", "--format", fmt))
    # integer options in spellings that int() reads and parse_int refuses
    for spelling in ("1_0", "\uff12", " 3"):
        out.append(("hh", "--algebra", "dual_numbers", "--n-max", spelling))
        out.append(("hc", "--algebra", "dual_numbers", "--n-max", "20", "--u-trunc", spelling))
        out.append(("poisson", "homology", "--bivector", "so3", "--degree", spelling))
        out.append(("poisson", "star", "--nvars", spelling, "--degree", "2"))
    return out


@contextlib.contextmanager
def inputs():
    """Write the grid's input files into a fresh directory and run in it,
    with the report cache off."""
    cwd = os.getcwd()
    cache = os.environ.pop("NCHODGE_CACHE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        for name, obj in _input_files().items():
            text = obj if isinstance(obj, str) else json.dumps(obj)
            Path(tmp, name).write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            workloads = _workloads()
            for workload in workloads.WORKLOADS:
                workloads.instantiate(workload, 1, Path("."))  # the idempotent files
            yield
        finally:
            os.chdir(cwd)
            if cache is not None:
                os.environ["NCHODGE_CACHE_DIR"] = cache


class _Sha:
    """A text stream that keeps only the sha256 of what is written."""

    def __init__(self):
        self.h = hashlib.sha256()

    def write(self, text: str) -> int:
        self.h.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


def digest_line(argv) -> str:
    """Run one command and return its `stdout stderr exit argv` line.  An
    argument that argparse refuses exits with the code of its SystemExit;
    any other exception that escapes `cli.main` is recorded by its type's
    name in place of the exit code, and the sweep goes on."""
    out, err = _Sha(), _Sha()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = type(exc).__name__
    return f"{out.h.hexdigest()} {err.h.hexdigest()} {code} {' '.join(argv)}"


def main() -> int:
    start = time.perf_counter()
    commands = grid()
    with inputs():
        for argv in commands:
            print(digest_line(argv), flush=True)
    print(f"{len(commands)} commands in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
