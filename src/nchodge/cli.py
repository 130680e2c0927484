"""Command-line entry point: one pipeline for every command, report
emission, and a content-addressed results cache.

`entry` is the command line, run by the `nchodge` console script and by
`python -m nchodge.cli`: it runs `main`, then calls `gc.freeze()` before
the process exits with `main`'s code.  A run is one short process, and the
full collections of interpreter shutdown would otherwise traverse every
object it left (about 4 ms of a 38 ms `validate` run on a shared 2-CPU
host); they skip frozen objects, while atexit handlers, the stdio flush
and module teardown run as before.
`main(argv)` is the in-process API (the tests, `tools/report_digests.py`
and perfbench's traced part call it in long-lived processes) and never
freezes: there, frozen objects would never be collected.

`run` takes every command through the same steps: load and check its
inputs (a file algebra is validated once, on load, and only validate
accepts an invalid one), derive the report metadata and cache key, replay
the cached report or compute it and `emit` it, and return the exit code.
A command is a compute function returning its result and its exit codes
without and with --strict; a cache entry's first line, "ncg-cache/2 <key>
<code> <strict code>", records both, so every command replays.

Reports follow the "ncg-report/1" shape: every report embeds the tool
version, field, window, truncation and guard/diagnostic flags alongside the
result payload.  Commands build it from JSON values (strings, ints, bools,
None, lists, dicts with string keys in any order) and a chain's terms, one
value per component (`_Terms`): the component's blocks, a letter support
per slot and the coefficient texts over their product, from which the
renderer spells the words, with no word tuple and no join per term.  The
renderer alone sorts and escapes the values, with fixed separators, so
that identical runs are byte-identical, and refuses anything else with
TypeError in every format.

Reports are streamed: one renderer writes the text in pieces of about
64 KB to stdout or, progressively, to the --output file, and the same
pieces to a cache entry's .tmp file, which replaces the entry only after
the last piece.  No report is held as one string; the bytes and the cache
keys are those of the whole-string json.dumps rendering it replaced.

Exit codes: 0 success, 1 structural error (an unreadable input, an
unwritable report, or a fault inside a computation, such as cyclic
filtration dims that belong to no k[u]/u^N-module), 2 validation failure
(a failed certificate or check, an invalid input or a size out of range),
3 an operation the field or parameters do not support.  An error's class
decides its code, through `_ERROR_CODES`: every refusal of an input is a
SchemaError or, from the Poisson checks, a PoissonError, an unreadable
input or an unwritable report a plain ValueError, and `main` prints any
ValueError as one `error:` line.  The one
inconclusive result is `hp`'s, which exits 3 under --strict; `filtration`
refuses it with exit 3, and `degeneration`, whose verdict is read off the
torsion inventory alone, never exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from itertools import product
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import (AlgebraError, AlgebraSpec, CATALOGUE, SchemaError, ValidationReport,
                      algebra_from_json, algebra_to_json, builtin, glue, json_int,
                      json_list, json_object, json_scalar, trivial_bimodule,
                      unit_coordinate_product, validate, zero_bimodule)
from .cyclic import (UnsupportedError, char_p_compare,
                     degeneration_check, graded_piece_analysis, hodge_filtration,
                     hp_ranks, negative_cyclic)
from .fields import QQ, Field, SizeError, format_scalar, parse_field, parse_int
from .hochschild import DegreeWindow, hh0_direct, hh_ranks
from .kchern import (ContractError, Idempotent, chern_idempotent,
                     ppower_lift_p2, ppower_on_hh0, u0_class_nonzero)
from .poisson import (BIVECTOR_CATALOGUE, Bivector, ConstantSymplectic,
                      PoissonError, PolyForm, builtin_bivector,
                      conjugation_check, hodge_star, jacobi_check,
                      lie_derivative, poisson_bracket,
                      poisson_homology_ranks, star_identity_check)

IDEMPOTENT_FORMAT = "ncg-idempotent/1"
BIVECTOR_FORMAT = "ncg-bivector/1"
REPORT_FORMAT = "ncg-report/1"
CACHE_FORMAT = "ncg-cache/2"

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _unique_keys(pairs) -> dict:
    """The object_pairs_hook of every JSON input: a key named twice in one
    object is refused, where `json` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def _load_json(path: str):
    """Read an input file.  A file that is not UTF-8 text, or text that is
    no JSON or names a key twice in one object, raises SchemaError without
    the path: its loader names the file.  A file that cannot be read raises
    ValueError, "cannot read <path>: ...", which no loader prefixes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _is_path(ref: str) -> bool:
    return ref.endswith(".json") or os.path.sep in ref


def load_algebra(ref: str, field: Field | None, params: dict, allow_invalid: bool = False):
    """Resolve an algebra reference (--algebra, --algebra-a, --algebra-b): a
    catalogue name or a path to an ncg-algebra/1 file.

    Returns (algebra, report), the report of the one validation the
    algebra gets.  A catalogue algebra is built over `field` (Q when None)
    and validated by `builtin`, which refuses an invalid one, so its report
    has no violations.  A file algebra is validated here; an invalid one
    exits 2 unless `allow_invalid` (validate reports its violations).  A
    file keeps its own field: a `field` that differs from it exits 2.
    """
    try:
        if not _is_path(ref):
            return builtin(ref, QQ if field is None else field, **params), ValidationReport([])
        if params:
            raise AlgebraError(f"--param {', '.join(params)} does not apply to a file algebra")
        A = algebra_from_json(_load_json(ref))
    except (SchemaError, AlgebraError) as exc:
        raise SchemaError(f"{ref}: {exc}")
    report = validate(A)
    if not (report.ok or allow_invalid):
        first = report.violations[0]
        raise SchemaError(f"{ref}: not a valid algebra, {len(report.violations)} "
                          f"violation(s); the first: {first.kind} at {list(first.witness)}")
    if field is not None and field != A.field:
        raise SchemaError(f"{ref}: --field {field} differs from the file's field {A.field}")
    return A, report


def load_idempotent(path: str, algebra) -> Idempotent:
    labels = {algebra.label(i): i for i in range(algebra.dim)}
    try:
        obj = _load_json(path)
        json_object(obj, IDEMPOTENT_FORMAT, ("format", "vector"), "idempotent")
        if not isinstance(obj.get("vector"), dict):
            raise SchemaError("'vector' must map basis labels or indices to scalars")
        vec, names = {}, {}
        for key, val in obj["vector"].items():
            idx = labels.get(key)
            if idx is None:
                try:
                    idx = parse_int(key)
                except ValueError:
                    raise SchemaError(f"unknown basis label {key!r}")
                if not 0 <= idx < algebra.dim:
                    raise SchemaError(f"basis index {idx} out of range")
            if idx in names:
                raise SchemaError(f"{names[idx]!r} and {key!r} both name basis element "
                                  f"{algebra.label(idx)}")
            names[idx] = key
            vec[idx] = json_scalar(val, algebra.field, f"coefficient of {key!r}")
        return Idempotent(algebra, vec)
    except (SchemaError, ContractError) as exc:
        raise SchemaError(f"{path}: {exc}")


def _terms(obj, nvars: int, what: str, forms: bool = False) -> dict:
    """The terms of a polynomial ({exponents: coeff}) or, with `forms`, of a
    differential form ({(exponents, dxs): coeff}) from a JSON term list;
    like terms are summed and zero sums dropped."""
    fields = {"exponents", "dxs", "coeff"} if forms else {"exponents", "coeff"}
    out: dict = {}
    for term in json_list(obj, what):
        if not isinstance(term, dict) or set(term) != fields:
            raise SchemaError(f"{what}: each term needs exactly {sorted(fields)}")
        exps = term["exponents"]
        if (not isinstance(exps, list) or len(exps) != nvars
                or any(type(e) is not int or e < 0 for e in exps)):
            raise SchemaError(f"{what}: bad exponent vector {exps}")
        key = tuple(exps)
        if forms:
            dxs = term["dxs"]
            if (not isinstance(dxs, list)
                    or any(type(i) is not int or not 0 <= i < nvars for i in dxs)
                    or dxs != sorted(set(dxs))):
                raise SchemaError(f"{what}: bad dx index set {dxs}")
            key = (key, tuple(dxs))
        out[key] = out.get(key, 0) + json_scalar(term["coeff"], QQ, f"{what}: coefficient")
    return {k: c for k, c in out.items() if c != 0}


def load_bivector(ref: str) -> Bivector:
    """Resolve --bivector: a catalogue name or a path to ncg-bivector/1."""
    try:
        if not _is_path(ref):
            return builtin_bivector(ref)
        obj = _load_json(ref)
        json_object(obj, BIVECTOR_FORMAT, ("format", "nvars", "components", "hbar", "name"),
                    "bivector")
        nvars = json_int(obj.get("nvars"), "'nvars'", 1)
        comps = {}
        for entry in json_list(obj.get("components", []), "'components'"):
            if not isinstance(entry, dict) or set(entry) != {"i", "j", "poly"}:
                raise SchemaError("each component needs exactly 'i', 'j', 'poly'")
            i, j = entry["i"], entry["j"]
            if not (type(i) is int and type(j) is int and 0 <= i < j < nvars):
                raise SchemaError(f"component indices ({i},{j}) must satisfy "
                                  f"0 <= i < j < nvars")
            if (i, j) in comps:
                raise SchemaError(f"component ({i},{j}) is given twice")
            comps[(i, j)] = _terms(entry["poly"], nvars, "'poly'")
        hbar = json_scalar(obj.get("hbar", "1"), QQ, "'hbar'")
        name = obj.get("name", ref)
        if not isinstance(name, str):
            raise SchemaError("'name' must be a string")
        return Bivector(nvars, comps, name=name, hbar=hbar)
    except (SchemaError, PoissonError) as exc:
        raise SchemaError(f"{ref}: {exc}")


def _term_arg(option: str, text: str, nvars: int):
    """--f and --g as polynomials, --form as a PolyForm."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{option}: invalid JSON: {exc.msg}")
    except SchemaError as exc:
        raise SchemaError(f"{option}: {exc}")
    if option != "--form":
        return _terms(obj, nvars, option)
    return PolyForm(nvars, _terms(obj, nvars, option, forms=True))


def _poly_json(poly: dict) -> list:
    return [{"exponents": list(e), "coeff": format_scalar(poly[e], QQ)}
            for e in sorted(poly)]


def _form_json(form: PolyForm) -> list:
    return [{"exponents": list(e), "dxs": list(S),
             "coeff": format_scalar(form.terms[(e, S)], QQ)}
            for (e, S) in sorted(form.terms)]


# ---------------------------------------------------------------------------
# report emission and cache
# ---------------------------------------------------------------------------


# Reports are streamed: the renderer hands its text to a write callable in
# pieces of about this many characters.
_CHUNK = 1 << 16

# Chain terms are written in runs, the words of a block that share their
# leading slots: at most this many, unless a block's last slot alone holds
# more letters (`_encoder`).
_RUN = 256


class _Pieces:
    """Rendered text collected as pieces, small ones and runs of chain
    terms (`put`), and passed to `write` about `_CHUNK` characters at a
    time."""

    def __init__(self, write):
        self.write = write
        self.parts: list = []
        self.size = 0  # characters of the runs among the parts (`put`)

    def check(self):
        """Pass the text on once it reaches `_CHUNK` characters.  The text
        is measured every 1024 pieces; the encoder tests that count itself
        before it calls this."""
        if len(self.parts) < 1024:
            return
        text = "".join(self.parts)
        self.parts.clear()
        if len(text) >= _CHUNK:
            self.write(text)
            self.size = 0
        else:
            self.parts.append(text)

    def put(self, run: str):
        """Add a run of chain terms, a piece of up to tens of KB, and pass
        the text on once the runs among the pieces reach `_CHUNK`
        characters."""
        self.parts.append(run)
        self.size += len(run)
        if self.size >= _CHUNK:
            self.flush()

    def flush(self):
        """Pass on all the text collected so far."""
        if self.parts:
            self.write("".join(self.parts))
            self.parts.clear()
        self.size = 0


class _Encoded(dict):
    """str -> its JSON text (ASCII-escaped, quoted) with the report format's
    escape applied.  A report repeats a few strings many times (a basis
    label can occur in every word of a Chern chain), so each distinct
    string is encoded once."""

    def __init__(self, escape=None):
        super().__init__()
        self.escape = escape

    def __missing__(self, s):
        text = encode_basestring_ascii(s)
        if self.escape is not None:
            text = self.escape(text)
        self[s] = text
        return text


class _Terms:
    """The terms of a chain component as one report value: its blocks, each
    a (supports, coefficient texts) pair, and the basis labels.  supports is
    a tuple of letter tuples (basis indices), one per slot, and the texts
    are the formatted coefficients of the words of their product, in
    `itertools.product` order.  The renderer writes it as the list
    [{"coeff": texts[i], "word": [labels[j] for j in words[i]]}, ...] over
    every block's words without building that list or any word."""

    __slots__ = ("blocks", "labels")

    def __init__(self, blocks: list, labels: list):
        self.blocks, self.labels = blocks, labels


def _encoder(pieces: _Pieces, indent: int | None, escape=None):
    """encode(value, level): append the JSON text of a report value to the
    pieces, as json.dumps(value, sort_keys=True) writes it, with
    indent=indent and the default ensure_ascii.

    A report value is a string, an int, a bool, None, chain terms
    (`_Terms`, written as the list of term dicts they stand for), or a list
    or a dict with string keys of report values; anything else (a tuple, a
    float, an unformatted scalar, a non-string key) raises TypeError.
    `escape`, if given, is applied to every encoded string and key; no
    other piece can hold a '"' or a '|'.

    Lists and dicts go through one container loop (`encode_items`): the
    opening, the separators, the closing and the chunk check are written
    once, and a dict adds its keys in sorted order, each a string followed
    by ": ".  Chain terms keep their own loop (`encode_terms`), the hot one
    of a Chern report, which spells the words from each block's slots, split
    into leading and trailing ones: the trailing slots are the last slot and
    as many slots before it, but not the first, as keep their product
    within `_RUN` words.  Each
    trailing word's text, with its closing delimiters, is spelled once per
    block and shared by every prefix (a word of the leading slots), and each
    prefix is spelled once; the words of one prefix are written as one
    piece, a run, with one join, so that a long word stays linear in its
    letters.  Runs are passed on once they reach `_CHUNK` characters.
    """
    parts, check, put = pieces.parts, pieces.check, pieces.put
    add = parts.append
    strings = _Encoded(escape)
    frames: dict = {}

    def delimiters(level, open_, close):
        """(opening, separator, closing) of a container at this level."""
        frame = frames.get((level, open_))
        if frame is None:
            if indent is None:
                frame = (open_, ", ", close)
            else:
                outer = "\n" + " " * (indent * level)
                inner = outer + " " * indent
                frame = (open_ + inner, "," + inner, outer + close)
            frames[(level, open_)] = frame
        return frame

    def encode(obj, level):
        if isinstance(obj, str):
            add(strings[obj])
        elif isinstance(obj, dict):
            encode_items(obj, level, "{}")
        elif isinstance(obj, list):
            encode_items(obj, level, "[]")
        elif obj is None:
            add("null")
        elif obj is True:
            add("true")
        elif obj is False:
            add("false")
        elif isinstance(obj, int):
            add(int.__repr__(obj))
        elif type(obj) is _Terms:
            encode_terms(obj, level)
        else:
            raise TypeError(f"Object of type {type(obj).__name__} "
                            f"is not JSON serializable")

    def encode_items(obj, level, brackets):
        """A list, or a dict (brackets "{}"): its keys in sorted order, each
        a string, written with ": " before its value."""
        if not obj:
            add(brackets)
            return
        keyed = brackets == "{}"
        lead, sep, close = delimiters(level, *brackets)
        level += 1
        for item in sorted(obj) if keyed else obj:
            add(lead)
            lead = sep
            if keyed:
                if not isinstance(item, str):
                    raise TypeError(f"keys must be str, not {type(item).__name__}")
                add(strings[item] + ": ")
                item = obj[item]
            encode(item, level)
            if len(parts) >= 1024:
                check()
        add(close)

    def encode_terms(terms, level):
        """Each run of words is one piece: the term opening (the list's
        opening or separator, then the term dict's), then per word its
        coefficient, the prefix (the word key, the word's opening and its
        leading letters) and its trailing text (the trailing letters and
        the closings of the word and the term dict), with the next term's
        opening appended to every trailing text but the run's last."""
        if not terms.blocks:
            add("[]")
            return
        open_, sep, close = delimiters(level, "[", "]")
        term_open, term_sep, term_close = delimiters(level + 1, "{", "}")
        word_open, word_sep, word_close = delimiters(level + 2, "[", "]")
        coeff_key = term_open + strings["coeff"] + ": "
        word_key = term_sep + strings["word"] + ": "
        head = sep + coeff_key
        closing = word_close + term_close
        labels = list(map(strings.__getitem__, terms.labels))
        label = labels.__getitem__
        leading = [text + word_sep for text in labels].__getitem__
        lead = open_ + coeff_key
        for supports, coeffs in terms.blocks:
            if not supports:
                prefixes, trails, n = [word_key + "[]"], [term_close], 1
            else:
                split, n = 0, len(coeffs)
                while split < len(supports) - 1 and (n > _RUN or not split):
                    n //= len(supports[split])
                    split += 1
                prefixes = [word_key + word_open + "".join(map(leading, w))
                            for w in product(*supports[:split])]
                trails = [word_sep.join(map(label, w)) + closing
                          for w in product(*supports[split:])]
            texts = list(map(strings.__getitem__, coeffs))
            row = [None] * (3 * n + 1)
            row[3::3] = [text + head for text in trails[:-1]] + trails[-1:]
            for k, prefix in enumerate(prefixes):
                row[0] = lead
                row[1::3] = texts[k * n:(k + 1) * n]
                row[2::3] = [prefix] * n
                put("".join(row))
                lead = head
        add(close)

    return encode


def _leaves(prefix: str, d: dict):
    """(dotted key, value) for every value of a report that is not a dict,
    in key order: the rows of the csv and markdown formats."""
    for k in sorted(d):
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {type(k).__name__}")
        v = d[k]
        key = f"{prefix}.{k}" if prefix else k
        if isinstance(v, dict):
            yield from _leaves(key, v)
        else:
            yield key, v


# csv and markdown: the header (the report's command fills a "{}"), the escape
# of every encoded string and key, and the text before a row's key, between
# its key and its value, and after its value
_ROWS = {"csv": ("key,value\n", lambda s: s.replace('"', '""'), "", ',"', '"\n'),
         "markdown": ("# {}\n\n| key | value |\n| --- | --- |\n",
                      lambda s: s.replace("|", "\\|"), "| ", " | ", " |\n")}


def _render(report: dict, fmt: str, write) -> None:
    """Stream a report to `write` in pieces of about `_CHUNK` characters.

    The report is a report value (`_encoder`; chain terms, `_Terms`,
    among them), refused with TypeError in every format otherwise.  json
    is written as json.dumps(report, sort_keys=True, indent=2) plus a
    newline, chain terms as the term dicts they stand for.  csv and
    markdown have one row per leaf of the report (a value that is not a
    dict), holding the leaf as compact JSON with '"' doubled (csv) or '|'
    escaped (markdown), and share one row loop: each is given by its header,
    its escape and its row delimiters (`_ROWS`).  A csv key is quoted, with
    '"' doubled, when it holds a comma, a quote or a line break.
    """
    pieces = _Pieces(write)
    add = pieces.parts.append
    if fmt == "json":
        _encoder(pieces, 2)(report, 0)
        add("\n")
    else:
        header, escape, lead, middle, end = _ROWS[fmt]
        encode = _encoder(pieces, None, escape)
        add(header.format(report.get("command", "report")))
        for key, value in _leaves("", report):
            if fmt == "csv" and any(c in key for c in ',"\r\n'):
                key = '"' + key.replace('"', '""') + '"'
            add(lead + key + middle)
            encode(value, 0)
            add(end)
            pieces.check()
    pieces.flush()


@contextlib.contextmanager
def _report_output(args):
    """write(text) for the report's destination: --output or stdout.  A
    destination that cannot be written, a closed pipe included, raises
    ValueError, "cannot write ..." (exit 1)."""
    out = getattr(args, "output", None)
    try:
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                yield fh.write
        else:
            yield sys.stdout.write
            sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and not out:
            # what stdout still buffers goes nowhere, so that the flush at
            # exit does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(f"cannot write {out or 'stdout'}: {exc}")


def _cache_dir(args) -> str | None:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get("NCHODGE_CACHE_DIR") or None


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key + ".report")


def _cache_replay(args, cache_dir: str, key: str) -> tuple | None:
    """Copy a cached report to the output and return the exit codes its
    entry records (without and with --strict); None when there is no valid
    entry."""
    path = _cache_path(cache_dir, key)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return None
    with fh:
        head = fh.readline().split()
        if not (len(head) == 4 and head[:2] == [CACHE_FORMAT, key]
                and head[2].isdigit() and head[3].isdigit()):
            print(f"warning: corrupted cache entry {path}; recomputing",
                  file=sys.stderr)
            return None
        with _report_output(args) as write:
            for text in iter(lambda: fh.read(_CHUNK), ""):
                write(text)
    return int(head[2]), int(head[3])


class _CacheEntry:
    """A cache entry being written.  Every piece of the report goes to
    <key>.report.tmp, which becomes <key>.report only after the last piece;
    a render that fails, or any OSError, removes the .tmp file, and an
    OSError warns and leaves the report uncached."""

    def __init__(self, cache_dir: str, key: str, codes: tuple):
        self.path = _cache_path(cache_dir, key)
        self.tmp = self.path + ".tmp"
        self.fh = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            self.fh = open(self.tmp, "w", encoding="utf-8")
            self.fh.write(f"{CACHE_FORMAT} {key} {codes[0]} {codes[1]}\n")
        except OSError as exc:
            self._give_up(exc)

    def write(self, text: str):
        if self.fh is not None:
            try:
                self.fh.write(text)
            except OSError as exc:
                self._give_up(exc)

    def commit(self):
        if self.fh is None:
            return
        try:
            self.fh.close()
            self.fh = None
            os.replace(self.tmp, self.path)
        except OSError as exc:
            self._give_up(exc)

    def discard(self):
        if self.fh is not None:
            try:
                self.fh.close()
            except OSError:
                pass
            self.fh = None
        try:
            os.remove(self.tmp)
        except OSError:
            pass

    def _give_up(self, exc: OSError):
        print(f"warning: cache directory unwritable ({exc}); proceeding "
              f"uncached", file=sys.stderr)
        self.discard()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cache_key(args, command: str, meta: dict, inputs) -> str:
    """Content address of a report: sha256 over the command, its inputs, the
    report metadata, the output format and the tool version.  hashlib is
    imported here, its one use, so that a run without a cache never loads
    it."""
    import hashlib

    return hashlib.sha256(_canonical(
        {"command": command, "inputs": inputs, "meta": meta,
         "format": args.format, "version": __version__}).encode()).hexdigest()


def emit(args, command: str, meta: dict, result: dict, codes: tuple, key: str | None) -> None:
    """Stream the report to stdout or --output and, given a cache key, to
    its cache entry, which records the exit codes with the report.

    `meta` and `result` are JSON values with string keys in any order, and
    their field scalars are formatted by the commands with their field (an
    integral Q scalar is a plain int, and would be a JSON number); the
    renderer sorts and escapes them and refuses anything else (TypeError).
    """
    report = {
        "format": REPORT_FORMAT,
        "tool": {"name": "nchodge", "version": __version__},
        "command": command,
        **meta,
        "result": result,
    }
    entry = _CacheEntry(_cache_dir(args), key, codes) if key is not None else None
    try:
        with _report_output(args) as out:
            def tee(text):
                out(text)
                entry.write(text)
            _render(report, args.format, out if entry is None else tee)
    except BaseException:
        if entry is not None:
            entry.discard()
        raise
    if entry is not None:
        entry.commit()


# ---------------------------------------------------------------------------
# the command pipeline
# ---------------------------------------------------------------------------


class _Inputs:
    """Everything a command reads, loaded and checked before any work."""

    field: Field | None = None
    algebra: AlgebraSpec | None = None     # the algebra the report is about
    report: ValidationReport | None = None  # its validation
    parts: tuple = ()                      # glue: the two algebras glued
    idempotent: Idempotent | None = None
    bivector: Bivector | None = None
    window: DegreeWindow | None = None
    N: int | None = None
    terms: dict  # parsed --f, --g and --form
    lift: int | None = None                # ppower --lift: the basis index it names


def _algebra_params(args) -> dict:
    params = {}
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise SchemaError(f"--param needs key=value, got {item!r}")
        k, v = item.split("=", 1)
        if k in params:
            raise SchemaError(f"--param key {k!r} is given twice")
        params[k] = v
    return params


def _takes(ref: str) -> str:
    """The --param keys an algebra reference takes, as an error line says it."""
    if _is_path(ref):
        return f"{ref} is a file algebra"
    if ref not in CATALOGUE:
        return f"{ref} is not a catalogue algebra"
    return f"{ref} takes " + (", ".join(CATALOGUE[ref][1]) or "no parameters")


def _glue_params(refs: tuple, params: dict) -> tuple:
    """glue's --param split between its two parts: each key goes to the one
    part whose catalogue entry takes it."""
    parts = ({}, {})
    for key, value in params.items():
        takers = [i for i, ref in enumerate(refs)
                  if not _is_path(ref) and key in CATALOGUE.get(ref, (None, {}))[1]]
        if len(takers) != 1:
            raise SchemaError(f"--param {key} must be a parameter of exactly one glued part: "
                              f"--algebra-a {_takes(refs[0])}; --algebra-b {_takes(refs[1])}")
        parts[takers[0]][key] = value
    return parts


def _load(args) -> _Inputs:
    """Parse, load and check every input the command names."""
    x = _Inputs()
    if getattr(args, "field", None) is not None:
        try:
            x.field = parse_field(args.field)
        except ValueError as exc:
            raise SchemaError(str(exc))
    params = _algebra_params(args)
    if hasattr(args, "algebra"):
        x.algebra, x.report = load_algebra(args.algebra, x.field, params,
                                           allow_invalid=args.command == "validate")
    if hasattr(args, "algebra_a"):
        refs = (args.algebra_a, args.algebra_b)
        A, B = (load_algebra(ref, x.field, part)[0]
                for ref, part in zip(refs, _glue_params(refs, params)))
        if A.field != B.field:
            raise SchemaError(f"glue: --algebra-a {refs[0]} is over {A.field} and "
                              f"--algebra-b {refs[1]} over {B.field}")
        if args.bimodule == "trivial":
            for option, ref, part in zip(("--algebra-a", "--algebra-b"), refs, (A, B)):
                witness = unit_coordinate_product(part)
                if witness is not None:
                    i, j = witness
                    raise SchemaError(
                        f"glue: --bimodule trivial is not a bimodule over {option} {ref}: "
                        f"the product of {part.label(i)} and {part.label(j)} has a unit "
                        f"coordinate, so the non-unit basis elements do not span an ideal; "
                        f"use --bimodule zero")
        bimodule = trivial_bimodule if args.bimodule == "trivial" else zero_bimodule
        x.parts = (A, B)
        x.algebra = glue(A, B, bimodule(B, A))
    if hasattr(args, "idempotent"):
        x.idempotent = load_idempotent(args.idempotent, x.algebra)
    if getattr(args, "lift", None) is not None:
        labels = {x.algebra.label(i): i for i in range(x.algebra.dim)}
        if args.lift not in labels:
            raise SchemaError(f"unknown basis label {args.lift!r}")
        x.lift = labels[args.lift]
    if hasattr(args, "bivector"):
        x.bivector = load_bivector(args.bivector)
    nvars = x.bivector.nvars if x.bivector is not None else getattr(args, "nvars", None)
    x.terms = {name: _term_arg(f"--{name}", getattr(args, name), nvars)
               for name in ("f", "g", "form") if getattr(args, name, None) is not None}
    if hasattr(args, "n_max"):
        if args.command == "hh" and args.n_max < 0:
            raise SchemaError(f"--n-max {args.n_max} must be >= 0")
        # hh reports degrees up to --n-max; degree n needs the chain block
        # at n + 1, so its window is one longer
        n_max = args.n_max + 1 if args.command == "hh" else args.n_max
        x.window = DegreeWindow(n_max, args.w_min, args.w_max)
    x.N = getattr(args, "u_trunc", None)
    return x


# report command name -> (compute, inputs, meta):
#   compute: (args, inputs) -> (result, (exit code, exit code under --strict))
#   inputs:  (args, inputs) -> what the cache key hashes besides the meta
#   meta:    args -> report fields beyond field, algebra, window, truncation
_COMMANDS: dict = {}

_OK = (EXIT_OK, EXIT_OK)


def _command(*names, inputs=lambda args, x: algebra_to_json(x.algebra),
             meta=lambda args: {}):
    def register(compute):
        for name in names:
            _COMMANDS[name] = compute, inputs, meta
        return compute
    return register


def run(args) -> int:
    """Run one parsed command: load and check its inputs, replay its cached
    report or compute and emit it, and return its exit code."""
    name = args.command
    if name == "poisson":
        name += "-" + args.poisson_command
    compute, inputs, command_meta = _COMMANDS[name]
    x = _load(args)
    meta: dict = {"field": None if x.field is None else str(x.field)}
    if x.algebra is not None:
        meta.update(algebra=x.algebra.name, field=str(x.algebra.field))
    if x.window is not None:
        meta["window"] = {"n_max": x.window.n_max, "w_min": x.window.w_min,
                          "w_max": x.window.w_max}
    if x.N is not None:
        meta["truncation"] = x.N
    meta.update(command_meta(args))
    cache_dir = _cache_dir(args)
    key = None
    if cache_dir is not None:
        key = _cache_key(args, name, meta, inputs(args, x))
        codes = _cache_replay(args, cache_dir, key)
        if codes is not None:
            return codes[args.strict]
    result, codes = compute(args, x)
    emit(args, name, meta, result, codes, key)
    return codes[args.strict]


# ---------------------------------------------------------------------------
# commands: each computes its result and exit codes from loaded inputs
# ---------------------------------------------------------------------------


def _verdict(ok: bool) -> tuple:
    """Exit codes of a check that exits 2 when it fails, --strict or not."""
    return _OK if ok else (EXIT_VALIDATION, EXIT_VALIDATION)


def _chain_json(A, chain, N: int) -> list:
    """Components u^0 .. u^(N-1) of a chain as report values: each one's
    u_power and its terms (`_Terms`), the component's blocks with their
    coefficients formatted over A's field.  A `kchern.UChain` holds each
    component as blocks of integer numerators over one denominator, in
    sorted word order; each distinct numerator of a component is formatted
    once, and the numerators are mapped through that table."""
    labels = [A.label(i) for i in range(A.dim)]
    out = []
    for t in range(N):
        text = {c: format_scalar(v, A.field) for c, v in chain.values(t).items()}.__getitem__
        blocks = [(supports, list(map(text, nums))) for supports, nums in chain.blocks[t]]
        out.append({"u_power": t, "terms": _Terms(blocks, labels)})
    return out


@_command("validate")
def _validate(args, x):
    return x.report.to_dict(), _verdict(x.report.ok)


@_command("hh")
def _hh(args, x):
    ranks = hh_ranks(x.algebra, x.window)
    result = {"per_n": {str(n): r for n, r in ranks["per_n"].items()},
              "hh0_direct": hh0_direct(x.algebra)}
    if "per_n_weight" in ranks:
        result["per_n_weight"] = {f"{n},{w}": r for (n, w), r
                                  in ranks["per_n_weight"].items()}
        result["guard_safe"] = {str(w): ok for w, ok in ranks["guard_safe"].items()}
    return result, _OK


@_command("hc")
def _hc(args, x):
    return negative_cyclic(x.algebra, x.window, x.N).to_dict(), _OK


@_command("hp")
def _hp(args, x):
    rep = hp_ranks(x.algebra, x.window, x.N)
    return rep, (EXIT_OK, EXIT_OK if rep["conclusive"] else EXIT_INCONCLUSIVE)


@_command("filtration")
def _filtration(args, x):
    return {"filtration": hodge_filtration(x.algebra, x.window, x.N)}, _OK


@_command("degeneration")
def _degeneration(args, x):
    return degeneration_check(x.algebra, x.window, x.N), _OK


@_command("chern", inputs=lambda args, x: {
    "algebra": algebra_to_json(x.algebra),
    "idempotent": {str(k): format_scalar(v, x.algebra.field)
                   for k, v in sorted(x.idempotent.vector.items())}})
def _chern(args, x):
    chain = chern_idempotent(x.idempotent, x.N)
    return {"truncation": x.N, "components": _chain_json(x.algebra, chain, x.N),
            "is_cycle": True, "u0_class_nonzero": u0_class_nonzero(chain)}, _OK


def _ppower_inputs(args, x) -> dict:
    inputs = algebra_to_json(x.algebra)
    if args.lift is not None:
        inputs = {**inputs, "lift": args.lift}  # without --lift, keys stay as they were
    return inputs


@_command("ppower", inputs=_ppower_inputs)
def _ppower(args, x):
    A = x.algebra
    rep = ppower_on_hh0(A)
    result = {
        "p": rep["p"],
        "hh0_rank": rep["hh0_rank"],
        "representatives": [A.label(i) for i in rep["representatives"]],
        "matrix": {str(t): {str(s): format_scalar(c, A.field) for s, c in row.items()}
                   for t, row in rep["matrix"].items()},
        "well_defined": rep["well_defined"],
        "additive": rep["additive"],
        "hh0_rank_direct": rep["hh0_rank_direct"],
    }
    if x.lift is not None:
        chain = ppower_lift_p2(A, {x.lift: A.field.one()})
        result["lift"] = _chain_json(A, chain, chain.N)
    return result, _verdict(rep["well_defined"] and rep["additive"])


@_command("graded-pieces",
          inputs=lambda args, x: {"dimV": args.dim_v, "n": args.n, "field": str(x.field)},
          meta=lambda args: {"dim_v": args.dim_v, "n": args.n})
def _graded_pieces(args, x):
    return graded_piece_analysis(args.dim_v, args.n, x.field), _OK


@_command("charp-compare")
def _charp_compare(args, x):
    rep = char_p_compare(x.algebra, x.window, x.N)
    return rep, _verdict(rep["agree"])


@_command("glue", inputs=lambda args, x: {"a": algebra_to_json(x.parts[0]),
                                          "b": algebra_to_json(x.parts[1]),
                                          "bimodule": args.bimodule})
def _glue(args, x):
    report = validate(x.algebra)
    return ({"algebra": algebra_to_json(x.algebra), "validation": report.to_dict()},
            _verdict(report.ok))


@_command("catalogue", inputs=lambda args, x: {"catalogue": 1})
def _catalogue(args, x):
    return {"algebras": list(CATALOGUE), "bivectors": list(BIVECTOR_CATALOGUE)}, _OK


def _poisson_inputs(args, x) -> dict:
    inputs = {"sub": args.poisson_command}
    for name in ("degree", "nvars", "f", "g", "form"):
        if hasattr(args, name):
            inputs[name] = getattr(args, name)
    alpha = x.bivector
    if alpha is not None:
        # the bivector's content, canonically ordered: the same bivector
        # keys alike whatever file or catalogue name it came from
        inputs["bivector"] = {
            "nvars": alpha.nvars, "hbar": format_scalar(alpha.hbar, QQ),
            "components": [[i, j, sorted([list(e), format_scalar(c, QQ)]
                                         for e, c in poly.items())]
                           for (i, j), poly in sorted(alpha.components.items())]}
    return inputs


def _poisson_meta(args) -> dict:
    meta = {"field": "Q", "degree": getattr(args, "degree", None)}
    if hasattr(args, "bivector"):
        meta["bivector"] = args.bivector
    return meta


@_command(*(f"poisson-{sub}" for sub in ("bracket", "jacobi", "lie", "conjugation",
                                         "star", "homology")),
          inputs=_poisson_inputs, meta=_poisson_meta)
def _poisson(args, x):
    sub, alpha = args.poisson_command, x.bivector
    if sub == "star":
        omega = ConstantSymplectic(args.nvars)
    # every --degree is reported, and a negative one refused, also where the
    # check computes nothing from it (jacobi, conjugation, star)
    if getattr(args, "degree", 0) < 0:
        raise SizeError(f"degree bound {args.degree} must be >= 0")
    if sub == "bracket":
        result = {"bracket": _poly_json(poisson_bracket(x.terms["f"], x.terms["g"], alpha))}
    elif sub == "jacobi":
        result = jacobi_check(alpha)
    elif sub == "lie":
        result = {"lie_derivative": _form_json(lie_derivative(alpha, x.terms["form"]))}
    elif sub == "conjugation":
        result = conjugation_check(alpha)
    elif sub == "star":
        result = {"identity": star_identity_check(args.nvars)}
        if "form" in x.terms:
            result["star"] = _form_json(hodge_star(x.terms["form"], omega))
    else:
        jac = jacobi_check(alpha)
        if not jac["pass"]:
            raise SchemaError("poisson homology requires a Poisson bivector "
                              f"(Jacobiator witness: {jac['witness']})")
        result = poisson_homology_ranks(alpha, args.degree)
    # a failed identity check exits 2 under --strict; star's check is its
    # "identity", jacobi's and conjugation's the result itself
    check = result.get("identity", result)
    return result, (EXIT_OK, EXIT_VALIDATION if check.get("pass") is False else EXIT_OK)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_option(text: str) -> int:
    """An integer option's value, read by `parse_int`: ASCII digits after an
    optional sign.  A refusal has the words argparse gives one of `int`,
    "invalid int value: '...'"."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


_FIELD_HELP = ("Q or Fp (e.g. F2): the field a catalogue algebra is built over "
               "(default Q); a file algebra keeps its own field, and a --field "
               "that differs from it exits 2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nchodge",
        description="Exact homological invariants of finite-dimensional "
                    "(super)algebras: Hochschild and cyclic homology, the "
                    "non-commutative Hodge filtration, Chern characters, "
                    "characteristic-p operations, and the semiclassical "
                    "Poisson engine.")
    parser.add_argument("--version", action="version",
                        version=f"nchodge {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "markdown"),
                        default="json", help="report output format")
    common.add_argument("--output", help="write the report to a file")
    common.add_argument("--cache-dir",
                        help="content-addressed report cache directory "
                             "(overrides NCHODGE_CACHE_DIR)")
    common.add_argument("--strict", action="store_true",
                        help="exit 3 on inconclusive verdicts")

    alg = argparse.ArgumentParser(add_help=False)
    alg.add_argument("--algebra", required=True,
                     help="catalogue name or path to an ncg-algebra/1 file")
    alg.add_argument("--field", help=_FIELD_HELP)
    alg.add_argument("--param", action="append",
                     help="catalogue parameter key=value (repeatable); "
                          "a file algebra takes none")

    win = argparse.ArgumentParser(add_help=False)
    win.add_argument("--n-max", type=_int_option, required=True,
                     help="tensor-length window bound")
    win.add_argument("--w-min", type=_int_option, default=None)
    win.add_argument("--w-max", type=_int_option, default=None)

    trunc = argparse.ArgumentParser(add_help=False)
    trunc.add_argument("--u-trunc", type=_int_option, required=True,
                       help="u-truncation order N")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common, alg])
    sub.add_parser("hh", parents=[common, alg, win])
    for name in ("hc", "hp", "filtration", "degeneration", "charp-compare"):
        sub.add_parser(name, parents=[common, alg, win, trunc])
    chern = sub.add_parser("chern", parents=[common, alg, trunc])
    chern.add_argument("--idempotent", required=True,
                       help="path to an ncg-idempotent/1 file")
    ppower = sub.add_parser("ppower", parents=[common, alg])
    ppower.add_argument("--lift", default=None,
                        help="basis label to lift at p = 2")
    gp = sub.add_parser("graded-pieces", parents=[common])
    gp.add_argument("--dim-v", type=_int_option, required=True)
    gp.add_argument("--n", type=_int_option, required=True)
    gp.add_argument("--field", required=True)
    gl = sub.add_parser("glue", parents=[common])
    gl.add_argument("--algebra-a", required=True)
    gl.add_argument("--algebra-b", required=True)
    gl.add_argument("--field", help=_FIELD_HELP)
    gl.add_argument("--param", action="append",
                    help="catalogue parameter key=value (repeatable), given to the "
                         "part whose catalogue entry takes it; a key both parts "
                         "take, or neither, exits 2")
    gl.add_argument("--bimodule", choices=("trivial", "zero"), default="trivial",
                    help="the corner bimodule; trivial needs parts whose non-unit "
                         "basis elements span an ideal, and exits 2 otherwise")
    sub.add_parser("catalogue", parents=[common])

    poisson = sub.add_parser("poisson", parents=[common])
    psub = poisson.add_subparsers(dest="poisson_command", required=True)
    bv = argparse.ArgumentParser(add_help=False)
    bv.add_argument("--bivector", required=True,
                    help="catalogue name or path to an ncg-bivector/1 file")
    pb = psub.add_parser("bracket", parents=[common, bv])
    pb.add_argument("--f", required=True, help="polynomial as JSON term list")
    pb.add_argument("--g", required=True, help="polynomial as JSON term list")
    pj = psub.add_parser("jacobi", parents=[common, bv])
    pj.add_argument("--degree", type=_int_option, default=2)
    pl = psub.add_parser("lie", parents=[common, bv])
    pl.add_argument("--form", required=True, help="form as JSON term list")
    pc = psub.add_parser("conjugation", parents=[common, bv])
    pc.add_argument("--degree", type=_int_option, required=True)
    ps = psub.add_parser("star", parents=[common])
    ps.add_argument("--nvars", type=_int_option, required=True)
    ps.add_argument("--degree", type=_int_option, required=True)
    ps.add_argument("--form", default=None)
    ph = psub.add_parser("homology", parents=[common, bv])
    ph.add_argument("--degree", type=_int_option, required=True)
    return parser


# The one rule from an error to its exit code: `main` reports every
# ValueError, and the first row whose classes hold it gives the code.
_ERROR_CODES = (((SchemaError, ContractError, SizeError, PoissonError), EXIT_VALIDATION),
                (UnsupportedError, EXIT_INCONCLUSIVE),
                (ValueError, EXIT_STRUCTURAL))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Exact integers of any length are read and printed: the interpreter's
    # cap on int/str conversion (4300 digits) is lifted while a command runs.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _ERROR_CODES if isinstance(exc, kinds))
    finally:
        sys.set_int_max_str_digits(digits)


def entry() -> None:
    """The command line (the `nchodge` console script and `python -m
    nchodge.cli`): run `main`, freeze the heap, so that the collections of
    interpreter shutdown skip what the run left, and exit with `main`'s
    code."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
