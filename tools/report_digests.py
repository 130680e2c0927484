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
  `--nvars` of `poisson star` (argparse refuses each: exit 2);
- `chern` chains whose components carry different denominators: `mat`
  with m = 3 at `--u-trunc 5` of E11 + 4/9 E12 - 5/8 E13 over Q in json
  and csv and over F11, and `mat` with m = 2 at `--u-trunc 7` of
  E11 + 2/3 E12 over Q in markdown;
- `poisson star --nvars 14`, above the Poisson variable bound (exit 2; a
  checkout without a bound on the star runs it for hours).
- `--degree` where it changes no check: `poisson star --nvars 8 --degree
  4`, `poisson jacobi --bivector so3 --degree 6` and `poisson conjugation
  --bivector so3 --degree 20`; `--degree -1` of `jacobi`, `conjugation`,
  `star` and `homology` (exit 2), and of `star --nvars 3`, whose odd
  dimension is refused first.
- the size bounds, at and just above each: `poisson conjugation` of a
  bivector file on 10 and on 11 variables; `poisson jacobi`, `conjugation`
  and `homology --degree 2` of one on 12 and on 13 variables
  (`poisson.MAX_NVARS`; 13 exits 2); `poisson homology` of so3 at
  `--degree` 24 and 25 (`poisson.MAX_HOMOLOGY_FORMS`; 25 exits 2); and
  `graded-pieces --dim-v 1` at `--n` 100000 and 100001
  (`cyclic.MAX_ROTATION_TERMS`; 100001 exits 2).
- `chern` in json of the corner idempotent of the glued super algebra
  file and of (1 + xi)/2 in `clifford1`, whose chain words past the head
  are odd letters; `chern` of `mat` with m = 3 over F11 at `--u-trunc 5`
  of the benchmark's seed-1 idempotent.
- the chain and catalogue bounds, at and just above each: `chern` of E11
  in `mat` at `--u-trunc` 130 and 131 (`kchern.MAX_CHAIN_TERMS`; 131 exits
  2), and `validate` of `mat` with m = 10 and 11, of `poly_truncated`
  with vars = 2 at max_weight 12 and 13 and with max_weight 0 at vars = 100
  and 101 (`algebra.MAX_CATALOGUE_DIM`; the second of each exits 2).
- the Koszul signs and the residue of the cycle certificate: `chern` of
  E11 + E12 in an algebra file of Mat(1|1), whose E12 and E21 are odd, at
  `--u-trunc 3` (an idempotent that is not even gives no cycle: exit 2),
  and `ppower --lift xi` of `clifford1` over F2.
- `hh --w-min 5` of `poly_truncated`, above the max_weight 4 where `hh`
  stops without `--w-max` (exit 2).
- a thin chain, whose every slot past the head holds one letter: `chern`
  of E11 in `mat` with m = 2 at `--u-trunc 40`, in json and csv.
- the command line's refusals: `hh` of a missing algebra file (exit 1), of
  a file that is no JSON and of `dual.json` with `--field F3`; `hh
  --output` into a missing directory (exit 1); `--param m` without a value
  and `--param` m given twice; `hh --n-max -1`; `glue` of a file algebra
  and an unknown part with `--param m=2`; `poisson bracket` with an `--f`
  that is no JSON and one that names `coeff` twice; `poisson jacobi` of a
  bivector file that is no JSON and of one with the component (1, 0); and
  `chern` with an idempotent file that is no JSON, a missing one (exit 1)
  and one that names the unknown label `E99*1` (all others exit 2).
- `graded-pieces` of dimV 1-3 at every n from 1 to 7 over Q, F2, F3, F5
  and F7 (the benchmark's dimV 3, n 6 over F3 once, among its jobs).
- `ppower --lift eps` of `dual_numbers` over F2 and `poisson jacobi` of a
  bivector file at `--degree 2`, each twice with `--cache-dir cache`.
- an algebra, an idempotent and a bivector file that are not UTF-8 text,
  and `poisson homology --degree 4` of a Poisson bivector whose cutoff
  breaks (d + hbar L_alpha)^2 = 0.

Input files are written to a fresh temporary directory, which is the
working directory while the grid runs; they are named relative to it, so
no line depends on where it is.  The report cache is off except for the
six runs that name `--cache-dir`, whose cache lies in that directory too.  The `nchodge`
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


def _wide_bivector(nvars):
    """d1^d2 + x1 d2^d3 on nvars variables: a Poisson bivector."""
    zero = [0] * nvars
    return {"format": "ncg-bivector/1", "nvars": nvars,
            "components": [{"i": 0, "j": 1, "poly": _poly((zero, "1"))},
                           {"i": 1, "j": 2, "poly": _poly(([1] + zero[1:], "1"))}]}


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


def _super_mat11() -> AlgebraSpec:
    """Mat(1|1) over Q on the basis 1, E11, E12, E21 (E22 = 1 - E11), with
    E12 and E21 odd: a super algebra whose idempotent E11 + E12 is not
    even."""
    units = (((1, 0), (0, 1)), ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)))
    structure = {}
    for i, a in enumerate(units):
        for j, b in enumerate(units):
            m = [[sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2)] for r in range(2)]
            coords = (m[1][1], m[0][0] - m[1][1], m[0][1], m[1][0])
            if any(coords):
                structure[(i, j)] = {k: v for k, v in enumerate(coords) if v}
    return AlgebraSpec("mat(1|1)", QQ, 4, structure, parity=(0, 0, 1, 1))


def _input_files() -> dict:
    """File name -> JSON object, JSON text or raw bytes, of every input file
    the grid reads."""
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
            "mat11.json": algebra_to_json(_super_mat11()),
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
            "alpha-10.json": _wide_bivector(10),
            "alpha-11.json": _wide_bivector(11),
            "alpha-12.json": _wide_bivector(12),
            "alpha-13.json": _wide_bivector(13),
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
            # E11 + 4/9 E12 - 5/8 E13 of Mat_3: coordinates of coprime
            # denominators, so the chain's components carry different ones
            "pi-coprime.json": _idempotent({"E11*1": "1", "E12*1": "4/9", "E13*1": "-5/8"}),
            # E11 of Mat_2: one tail letter, so each component has two words
            "pi-e11.json": _idempotent({"E11*1": "1"}),
            "pi-xi.json": _idempotent({"1": "1/2", "xi": "1/2"}),
            # E11 + E12 of Mat(1|1), by index: an idempotent that is not even
            "pi-e11-e12.json": _idempotent({"1": "1", "2": "1"}),
            "p-5000-digits.json": json.dumps(algebra_to_json(builtin("point", GF(2))))
                                  .replace('"p": 2', f'"p": {_ONES}'),
            # files that the loaders refuse: text that is no JSON, a label
            # that names no basis element, and a component (1, 0)
            "invalid.json": '{"format": }',
            "alpha-invalid.json": '{"format": "ncg-bivector/1", "nvars": 2,}',
            "pi-invalid.json": '{"format": "ncg-idempotent/1", "vector": {"E11*1": "1"',
            "pi-unknown-label.json": _idempotent({"E99*1": "1"}),
            "alpha-bad-pair.json": {"format": "ncg-bivector/1", "nvars": 2,
                                    "components": [{"i": 1, "j": 0,
                                                    "poly": _poly(((0, 0), "1"))}]},
            # a byte that starts no UTF-8 character
            "not-utf8.json": b'{"format": "\xff"}',
            # 2 x1 x2^2 d1^d3 + d2^d3: a Poisson bivector whose terms dropped
            # above the cutoff at total degree 4 map back below it
            "alpha-breaks.json": {"format": "ncg-bivector/1", "nvars": 3, "components": [
                {"i": 0, "j": 2, "poly": _poly(((1, 2, 0), "2"))},
                {"i": 1, "j": 2, "poly": _poly(((0, 0, 0), "1"))}]}}


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
    # chains whose components carry different denominators
    for fmt in ("json", "csv"):
        out.append(("chern", "--algebra", "mat", "--param", "m=3", "--u-trunc", "5",
                    "--idempotent", "pi-coprime.json", "--format", fmt))
    out.append(("chern", "--algebra", "mat", "--param", "m=2", "--u-trunc", "7",
                "--idempotent", "pi-mixed.json", "--format", "markdown"))
    out.append(("chern", "--algebra", "mat", "--param", "m=3", "--field", "F11", "--u-trunc", "5",
                "--idempotent", "pi-coprime.json"))
    # a symplectic dimension above poisson.MAX_NVARS (exit 2)
    out.append(("poisson", "star", "--nvars", "14", "--degree", "0"))
    # --degree where it changes no check, and a negative one (exit 2)
    out.append(("poisson", "star", "--nvars", "8", "--degree", "4"))
    out.append(("poisson", "jacobi", "--bivector", "so3", "--degree", "6"))
    out.append(("poisson", "conjugation", "--bivector", "so3", "--degree", "20"))
    for command in ("jacobi", "conjugation", "homology"):
        out.append(("poisson", command, "--bivector", "so3", "--degree", "-1"))
    for nvars in ("2", "3"):
        out.append(("poisson", "star", "--nvars", nvars, "--degree", "-1"))
    # the Poisson size bounds, at and just above each (the second exits 2)
    for path in ("alpha-10.json", "alpha-11.json"):
        out.append(("poisson", "conjugation", "--bivector", path, "--degree", "2"))
    for degree in ("24", "25"):
        out.append(("poisson", "homology", "--bivector", "so3", "--degree", degree))
    for path in ("alpha-12.json", "alpha-13.json"):
        for command in ("jacobi", "conjugation", "homology"):
            out.append(("poisson", command, "--bivector", path, "--degree", "2"))
    for n in ("100000", "100001"):
        out.append(("graded-pieces", "--dim-v", "1", "--n", n, "--field", "F2"))
    # super chains in json: the glued corner (even letters) and (1 + xi)/2
    # of clifford1, whose tail letters are odd
    out.append(("chern", "--algebra", "glue-super.json", "--u-trunc", "3",
                "--idempotent", "pi-corner.json"))
    out.append(("chern", "--algebra", "clifford1", "--u-trunc", "4", "--idempotent",
                "pi-xi.json"))
    # the benchmark's Mat_3 chain over F11
    out.append(("chern", "--algebra", "mat", "--param", "m=3", "--field", "F11", "--u-trunc", "5",
                "--idempotent", "chern-mat3-u5.idempotent.json"))
    # the chain and catalogue size bounds, at and just above each (the
    # second of each pair exits 2)
    for N in ("130", "131"):
        out.append(("chern", "--algebra", "mat", "--u-trunc", N, "--idempotent", "pi-e11.json"))
    for params in (("m=10",), ("m=11",)):
        out.append(("validate", "--algebra", "mat", *(f for p in params for f in ("--param", p))))
    for params in (("vars=2", "max_weight=12"), ("vars=2", "max_weight=13"),
                   ("vars=100", "max_weight=0"), ("vars=101", "max_weight=0")):
        out.append(("validate", "--algebra", "poly_truncated",
                    *(f for p in params for f in ("--param", p))))
    # the Koszul signs and the residue of the cycle certificate
    out.append(("chern", "--algebra", "mat11.json", "--u-trunc", "3",
                "--idempotent", "pi-e11-e12.json"))
    out.append(("ppower", "--algebra", "clifford1", "--field", "F2", "--lift", "xi"))
    # a weight bound above the weights that hh computes (exit 2)
    out.append(("hh", "--algebra", "poly_truncated", "--n-max", "4", "--w-min", "5"))
    # a thin chain: every slot of E11's chain past the head holds one letter
    for fmt in ("json", "csv"):
        out.append(("chern", "--algebra", "mat", "--param", "m=2", "--u-trunc", "40",
                    "--idempotent", "pi-e11.json", "--format", fmt))
    # the command line's refusals of its inputs and its output
    for algebra in (("missing.json",), ("invalid.json",), ("dual.json", "--field", "F3")):
        out.append(("hh", "--algebra", *algebra, "--n-max", "2"))
    out.append(("hh", "--algebra", "dual_numbers", "--n-max", "2", "--output", "missing/r.json"))
    for params in (("m",), ("m=2", "m=3")):
        out.append(("hh", "--algebra", "mat", *(f for p in params for f in ("--param", p)),
                    "--n-max", "2"))
    out.append(("hh", "--algebra", "dual_numbers", "--n-max", "-1"))
    out.append(("glue", "--algebra-a", "dual.json", "--algebra-b", "nosuch", "--param", "m=2"))
    for f in ('[{', '[{"exponents": [1, 0], "coeff": "1", "coeff": "2"}]'):
        out.append(("poisson", "bracket", "--bivector", "alpha.json", "--f", f, "--g", _Y))
    for path in ("alpha-invalid.json", "alpha-bad-pair.json"):
        out.append(("poisson", "jacobi", "--bivector", path))
    for path in ("pi-invalid.json", "missing.json", "pi-unknown-label.json"):
        out.append(("chern", "--algebra", "mat", "--u-trunc", "2", "--idempotent", path))
    # the graded pieces over every small field; the benchmark's job is in
    # the grid already
    for dim_v in range(1, 4):
        for n in range(1, 8):
            for field in ("Q", *PPOWER_FIELDS):
                argv = ("graded-pieces", "--dim-v", str(dim_v), "--n", str(n), "--field", field)
                if argv not in out:
                    out.append(argv)
    # cached ppower and poisson reports, each written and then replayed
    out += [("ppower", "--algebra", "dual_numbers", "--field", "F2", "--lift", "eps",
             "--cache-dir", "cache")] * 2
    out += [("poisson", "jacobi", "--bivector", "alpha.json", "--degree", "2",
             "--cache-dir", "cache")] * 2
    # input files that are not UTF-8 text, and a cutoff that breaks the complex
    out.append(("hh", "--algebra", "not-utf8.json", "--n-max", "2"))
    out.append(("chern", "--algebra", "mat", "--u-trunc", "2", "--idempotent", "not-utf8.json"))
    out.append(("poisson", "jacobi", "--bivector", "not-utf8.json"))
    out.append(("poisson", "homology", "--bivector", "alpha-breaks.json", "--degree", "4"))
    return out


@contextlib.contextmanager
def inputs():
    """Write the grid's input files into a fresh directory and run in it,
    with the report cache off."""
    cwd = os.getcwd()
    cache = os.environ.pop("NCHODGE_CACHE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="report-digests-") as tmp:
        for name, obj in _input_files().items():
            if isinstance(obj, bytes):
                Path(tmp, name).write_bytes(obj)
            else:
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
