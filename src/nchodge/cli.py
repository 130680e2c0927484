"""Command-line entry point: input parsing, computation dispatch, report
emission, and a content-addressed results cache.

Reports follow the "ncg-report/1" shape: every report embeds the tool
version, field, window, truncation and guard/diagnostic flags alongside the
result payload, and is emitted deterministically (sorted keys, fixed
separators) so that identical runs are byte-identical.

Reports are streamed: one renderer writes the text in pieces of about
64 KB to stdout or, progressively, to the --output file, and the same
pieces to a cache entry's .tmp file, which replaces the entry only after
the last piece.  No report is held as one string; the bytes and the cache
keys are those of the whole-string json.dumps rendering it replaced.

Exit codes: 0 success, 1 structural error, 2 validation failure (including
a failed certificate), 3 inconclusive verdict under --strict or an operation
the field or parameters do not support.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .algebra import (AlgebraError, CATALOGUE, SchemaError,
                      algebra_from_json, algebra_to_json, builtin, glue,
                      trivial_bimodule, validate, zero_bimodule)
from .cyclic import (UnsupportedError, WindowError, char_p_compare,
                     degeneration_check, graded_piece_analysis, hodge_filtration,
                     hp_ranks, negative_cyclic)
from .fields import QQ, Field, format_scalar, parse_field, parse_scalar
from .hochschild import DegreeWindow, hh0_direct, hh_ranks
from .kchern import (ContractError, Idempotent, chern_idempotent,
                     ppower_lift_p2, ppower_on_hh0, u0_class_nonzero)
from .poisson import (BIVECTOR_CATALOGUE, Bivector, ConstantSymplectic,
                      PoissonError, PolyForm, builtin_bivector,
                      conjugation_check, hodge_star, jacobi_check,
                      lie_derivative, poisson_bracket,
                      poisson_homology_ranks, star_identity_check)
from .sparse import StructuralError

IDEMPOTENT_FORMAT = "ncg-idempotent/1"
BIVECTOR_FORMAT = "ncg-bivector/1"
REPORT_FORMAT = "ncg-report/1"

EXIT_OK = 0
EXIT_STRUCTURAL = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_STRUCTURAL)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno}, "
                       f"column {exc.colno}: {exc.msg}", EXIT_VALIDATION)


def load_algebra(ref: str, field: Field, params: dict):
    """Resolve --algebra: a catalogue name or a path to an ncg-algebra/1 file."""
    if ref.endswith(".json") or os.path.sep in ref:
        obj = _load_json(ref)
        try:
            return algebra_from_json(obj)
        except SchemaError as exc:
            raise CliError(f"{ref}: {exc}", EXIT_VALIDATION)
        except AlgebraError as exc:
            raise CliError(f"{ref}: {exc}", EXIT_VALIDATION)
    try:
        return builtin(ref, field, **params)
    except AlgebraError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)
    except ZeroDivisionError as exc:
        # a rational parameter whose denominator vanishes in the field
        raise CliError(f"{ref}: {exc}", EXIT_VALIDATION)


def load_idempotent(path: str, algebra) -> Idempotent:
    obj = _load_json(path)
    if not isinstance(obj, dict) or obj.get("format") != IDEMPOTENT_FORMAT:
        raise CliError(f"{path}: expected format {IDEMPOTENT_FORMAT!r}",
                       EXIT_VALIDATION)
    extra = set(obj) - {"format", "vector"}
    if extra:
        raise CliError(f"{path}: unknown fields {sorted(extra)}", EXIT_VALIDATION)
    if not isinstance(obj.get("vector"), dict):
        raise CliError(f"{path}: 'vector' must map basis labels or indices "
                       f"to scalars", EXIT_VALIDATION)
    labels = {algebra.label(i): i for i in range(algebra.dim)}
    F = algebra.field
    vec = {}
    for key, val in obj["vector"].items():
        if key in labels:
            idx = labels[key]
        else:
            try:
                idx = int(key)
            except ValueError:
                raise CliError(f"{path}: unknown basis label {key!r}",
                               EXIT_VALIDATION)
            if not 0 <= idx < algebra.dim:
                raise CliError(f"{path}: basis index {idx} out of range",
                               EXIT_VALIDATION)
        try:
            vec[idx] = parse_scalar(str(val), F)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliError(f"{path}: bad scalar {val!r}: {exc}", EXIT_VALIDATION)
    try:
        return Idempotent(algebra, vec)
    except ContractError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)


def _parse_poly_json(obj, nvars: int, path: str) -> dict:
    if not isinstance(obj, list):
        raise CliError(f"{path}: polynomial must be a list of terms",
                       EXIT_VALIDATION)
    poly = {}
    for term in obj:
        if not isinstance(term, dict) or set(term) != {"exponents", "coeff"}:
            raise CliError(f"{path}: each term needs exactly 'exponents' and "
                           f"'coeff'", EXIT_VALIDATION)
        exps = term["exponents"]
        if (not isinstance(exps, list) or len(exps) != nvars
                or any(not isinstance(e, int) or e < 0 for e in exps)):
            raise CliError(f"{path}: bad exponent vector {exps}", EXIT_VALIDATION)
        c = _parse_fraction(str(term["coeff"]), path)
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + c
    return {e: c for e, c in poly.items() if c != 0}


def _parse_fraction(text: str, where: str):
    try:
        return parse_scalar(text, QQ)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"{where}: bad rational {text!r}: {exc}", EXIT_VALIDATION)


def load_bivector(ref: str) -> Bivector:
    """Resolve --bivector: a catalogue name or a path to ncg-bivector/1."""
    if not (ref.endswith(".json") or os.path.sep in ref):
        try:
            return builtin_bivector(ref)
        except PoissonError as exc:
            raise CliError(str(exc), EXIT_VALIDATION)
    obj = _load_json(ref)
    if not isinstance(obj, dict) or obj.get("format") != BIVECTOR_FORMAT:
        raise CliError(f"{ref}: expected format {BIVECTOR_FORMAT!r}",
                       EXIT_VALIDATION)
    extra = set(obj) - {"format", "nvars", "components", "hbar", "name"}
    if extra:
        raise CliError(f"{ref}: unknown fields {sorted(extra)}", EXIT_VALIDATION)
    nvars = obj.get("nvars")
    if not isinstance(nvars, int) or nvars < 1:
        raise CliError(f"{ref}: 'nvars' must be a positive integer",
                       EXIT_VALIDATION)
    comps = {}
    for entry in obj.get("components", []):
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "poly"}:
            raise CliError(f"{ref}: each component needs exactly 'i', 'j', "
                           f"'poly'", EXIT_VALIDATION)
        i, j = entry["i"], entry["j"]
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < j < nvars):
            raise CliError(f"{ref}: component indices ({i},{j}) must satisfy "
                           f"0 <= i < j < nvars", EXIT_VALIDATION)
        comps[(i, j)] = _parse_poly_json(entry["poly"], nvars, ref)
    hbar = _parse_fraction(str(obj.get("hbar", "1")), ref)
    try:
        return Bivector(nvars, comps, name=str(obj.get("name", ref)), hbar=hbar)
    except PoissonError as exc:
        raise CliError(f"{ref}: {exc}", EXIT_VALIDATION)


def _poly_arg(text: str, nvars: int, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what}: invalid JSON: {exc.msg}", EXIT_VALIDATION)
    return _parse_poly_json(obj, nvars, what)


def _form_arg(text: str, nvars: int, what: str) -> PolyForm:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what}: invalid JSON: {exc.msg}", EXIT_VALIDATION)
    if not isinstance(obj, list):
        raise CliError(f"{what}: form must be a list of terms", EXIT_VALIDATION)
    terms = {}
    for term in obj:
        if not isinstance(term, dict) or set(term) != {"exponents", "dxs", "coeff"}:
            raise CliError(f"{what}: each form term needs exactly 'exponents', "
                           f"'dxs' and 'coeff'", EXIT_VALIDATION)
        exps = term["exponents"]
        dxs = term["dxs"]
        if (not isinstance(exps, list) or len(exps) != nvars
                or any(not isinstance(e, int) or e < 0 for e in exps)):
            raise CliError(f"{what}: bad exponent vector {exps}", EXIT_VALIDATION)
        if (not isinstance(dxs, list) or dxs != sorted(set(dxs))
                or any(not isinstance(i, int) or not 0 <= i < nvars for i in dxs)):
            raise CliError(f"{what}: bad dx index set {dxs}", EXIT_VALIDATION)
        c = _parse_fraction(str(term["coeff"]), what)
        key = (tuple(exps), tuple(dxs))
        terms[key] = terms.get(key, 0) + c
    return PolyForm(nvars, {k: v for k, v in terms.items() if v != 0})


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


class _Pieces:
    """Rendered text collected as small pieces and passed to `write` about
    `_CHUNK` characters at a time."""

    def __init__(self, write):
        self.write = write
        self.parts: list = []

    def check(self):
        """Pass the text on once it reaches `_CHUNK` characters.  Called
        after every value; the text is measured every 1024 pieces."""
        if len(self.parts) < 1024:
            return
        text = "".join(self.parts)
        self.parts.clear()
        if len(text) >= _CHUNK:
            self.write(text)
        else:
            self.parts.append(text)

    def close(self):
        if self.parts:
            self.write("".join(self.parts))
            self.parts.clear()


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


def _sorted_items(d: dict) -> list:
    """A mapping's items in key order, every key a string (str(k) for the
    others; a later key with the same string wins)."""
    if not all(isinstance(k, str) for k in d):
        d = {k if isinstance(k, str) else str(k): v for k, v in d.items()}
    return sorted(d.items())


def _encoder(pieces: _Pieces, indent: int | None, escape=None):
    """encode(value, level): append the JSON text of a report value to the
    pieces, as json.dumps(value, sort_keys=True) writes it, with
    indent=indent and the default ensure_ascii.

    Report values pass through as they are built: a Fraction is written as
    its "num/den" string, a tuple as a list and a non-string key as str(k).
    Any other type json cannot write raises TypeError.  `escape`, if
    given, is applied to every encoded string and key; no other piece can
    hold a '"' or a '|'.
    """
    add, check = pieces.parts.append, pieces.check
    strings = _Encoded(escape)
    keys: dict = {}
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
            encode_dict(obj, level)
        elif isinstance(obj, (list, tuple)):
            encode_list(obj, level)
        elif obj is None:
            add("null")
        elif obj is True:
            add("true")
        elif obj is False:
            add("false")
        elif isinstance(obj, int):
            add(int.__repr__(obj))
        elif isinstance(obj, Fraction):
            add(strings[format_scalar(obj, QQ)])
        elif isinstance(obj, float):
            add(json.dumps(obj))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} "
                            f"is not JSON serializable")

    def encode_list(lst, level):
        if not lst:
            add("[]")
            return
        open_, sep, close = delimiters(level, "[", "]")
        try:
            # a list of strings is joined in one call; any other item
            # (unhashable, or a miss that json cannot encode as a string)
            # raises TypeError and the list is written item by item
            text = sep.join(map(strings.__getitem__, lst))
        except TypeError:
            text = None
        add(open_)
        if text is not None:
            add(text)
        else:
            level += 1
            first = True
            for item in lst:
                if first:
                    first = False
                else:
                    add(sep)
                encode(item, level)
                check()
        add(close)

    def encode_dict(d, level):
        if not d:
            add("{}")
            return
        open_, sep, close = delimiters(level, "{", "}")
        add(open_)
        level += 1
        first = True
        for k, v in _sorted_items(d):
            if first:
                first = False
            else:
                add(sep)
            key = keys.get(k)
            if key is None:
                key = keys[k] = strings[k] + ": "
            add(key)
            if isinstance(v, str):
                add(strings[v])
            else:
                encode(v, level)
            check()
        add(close)

    return encode


def _leaves(prefix: str, d: dict):
    """(dotted key, value) for every value of a report that is not a dict,
    in key order: the rows of the csv and markdown formats."""
    for k, v in _sorted_items(d):
        key = f"{prefix}.{k}" if prefix else k
        if isinstance(v, dict):
            yield from _leaves(key, v)
        else:
            yield key, v


def _render(report: dict, fmt: str, write) -> None:
    """Stream a report to `write` in pieces of about `_CHUNK` characters.

    json is written as json.dumps(report, sort_keys=True, indent=2) plus a
    newline.  csv and markdown have one row per leaf of the report (a
    value that is not a dict), holding the leaf as compact JSON with '"'
    doubled (csv) or '|' escaped (markdown).
    """
    if fmt not in ("json", "csv", "markdown"):
        raise CliError(f"unknown output format {fmt!r}", EXIT_STRUCTURAL)
    pieces = _Pieces(write)
    add = pieces.parts.append
    if fmt == "json":
        _encoder(pieces, 2)(report, 0)
        add("\n")
    elif fmt == "csv":
        encode = _encoder(pieces, None, lambda s: s.replace('"', '""'))
        add("key,value\n")
        for key, value in _leaves("", report):
            add(key + ',"')
            encode(value, 0)
            add('"\n')
            pieces.check()
    else:
        encode = _encoder(pieces, None, lambda s: s.replace("|", "\\|"))
        add(f"# {report.get('command', 'report')}\n\n"
            "| key | value |\n| --- | --- |\n")
        for key, value in _leaves("", report):
            add(f"| {key} | ")
            encode(value, 0)
            add(" |\n")
            pieces.check()
    pieces.close()


@contextlib.contextmanager
def _report_output(args):
    """write(text) for the report's destination: --output or stdout."""
    out = getattr(args, "output", None)
    if not out:
        yield sys.stdout.write
        return
    with open(out, "w", encoding="utf-8") as fh:
        yield fh.write


def _cache_dir(args) -> str | None:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get("NCHODGE_CACHE_DIR") or None


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key + ".report")


def _cache_marker(key: str) -> str:
    return "ncg-cache/1 " + key + "\n"


def _cache_replay(args, cache_dir: str, key: str) -> bool:
    """Copy a cached report to the output; False when there is no valid
    entry."""
    path = _cache_path(cache_dir, key)
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        return False
    with fh:
        if fh.readline() != _cache_marker(key):
            print(f"warning: corrupted cache entry {path}; recomputing",
                  file=sys.stderr)
            return False
        with _report_output(args) as write:
            for text in iter(lambda: fh.read(_CHUNK), ""):
                write(text)
    return True


class _CacheEntry:
    """A cache entry being written.  Every piece of the report goes to
    <key>.report.tmp, which becomes <key>.report only after the last piece;
    a render that fails, or any OSError, removes the .tmp file, and an
    OSError warns and leaves the report uncached."""

    def __init__(self, cache_dir: str, key: str):
        self.path = _cache_path(cache_dir, key)
        self.tmp = self.path + ".tmp"
        self.fh = None
        try:
            os.makedirs(cache_dir, exist_ok=True)
            self.fh = open(self.tmp, "w", encoding="utf-8")
            self.fh.write(_cache_marker(key))
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
    report metadata, the output format and the tool version."""
    return hashlib.sha256(_canonical(
        {"command": command, "inputs": inputs, "meta": meta,
         "format": args.format, "version": __version__}).encode()).hexdigest()


def emit(args, command: str, meta: dict, result: dict,
         cache_inputs: dict | None = None) -> int:
    """Stream the report to stdout or --output and, with a cache directory
    and cache inputs, to its cache entry.

    Field scalars are formatted by the handlers, with their field, before
    they get here: an integral Q scalar is a plain int and would otherwise
    be written as a JSON number.
    """
    report = {
        "format": REPORT_FORMAT,
        "tool": {"name": "nchodge", "version": __version__},
        "command": command,
        **meta,
        "result": result,
    }
    cache_dir = _cache_dir(args)
    entry = None
    if cache_dir is not None and cache_inputs is not None:
        entry = _CacheEntry(cache_dir, _cache_key(args, command, meta, cache_inputs))
    try:
        with _report_output(args) as out:
            if entry is None:
                _render(report, args.format, out)
            else:
                def write(text):
                    out(text)
                    entry.write(text)
                _render(report, args.format, write)
    except BaseException:
        if entry is not None:
            entry.discard()
        raise
    if entry is not None:
        entry.commit()
    return EXIT_OK


def _cached_or_compute(args, command, meta, cache_inputs, compute) -> int:
    """Replay a byte-identical cached report when available."""
    cache_dir = _cache_dir(args)
    if (cache_dir is not None and cache_inputs is not None
            and _cache_replay(args, cache_dir,
                              _cache_key(args, command, meta, cache_inputs))):
        return EXIT_OK
    result = compute()
    return emit(args, command, meta, result, cache_inputs)


# ---------------------------------------------------------------------------
# shared argument plumbing
# ---------------------------------------------------------------------------


def _field(args) -> Field:
    try:
        return parse_field(args.field)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_VALIDATION)


def _algebra_params(args) -> dict:
    params = {}
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise CliError(f"--param needs key=value, got {item!r}",
                           EXIT_VALIDATION)
        k, v = item.split("=", 1)
        params[k] = v
    return params


def _window(args) -> DegreeWindow:
    try:
        return DegreeWindow(args.n_max, getattr(args, "w_min", None),
                            getattr(args, "w_max", None))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_STRUCTURAL)


def _meta(args, algebra=None, window=None, N=None) -> dict:
    meta: dict = {"field": getattr(args, "field", None)}
    if algebra is not None:
        meta["algebra"] = algebra.name
        meta["field"] = str(algebra.field)
    if window is not None:
        meta["window"] = {"n_max": window.n_max, "w_min": window.w_min,
                          "w_max": window.w_max}
    if N is not None:
        meta["truncation"] = N
    return meta


def _algebra_inputs(A) -> dict:
    return algebra_to_json(A)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    report = validate(A)
    meta = _meta(args, A)
    code = emit(args, "validate", meta, report.to_dict(), _algebra_inputs(A))
    if not report.ok:
        return EXIT_VALIDATION
    return code


def cmd_hh(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    # For hh, --n-max is the largest reported degree; computing degree n
    # needs the chain block at n + 1, so widen the window by one.
    try:
        window = DegreeWindow(args.n_max + 1, args.w_min, args.w_max)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_STRUCTURAL)
    meta = _meta(args, A, window)

    def compute():
        ranks = hh_ranks(A, window)
        result = {"per_n": {str(n): r for n, r in ranks["per_n"].items()},
                  "hh0_direct": hh0_direct(A)["rank"]}
        if "per_n_weight" in ranks:
            result["per_n_weight"] = {f"{n},{w}": r for (n, w), r
                                      in sorted(ranks["per_n_weight"].items())}
            result["guard_safe"] = {str(w): ok for w, ok
                                    in ranks["guard_safe"].items()}
        return result

    return _cached_or_compute(args, "hh", meta, _algebra_inputs(A), compute)


def cmd_hc(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    window = _window(args)
    meta = _meta(args, A, window, args.u_trunc)
    return _cached_or_compute(
        args, "hc", meta, _algebra_inputs(A),
        lambda: negative_cyclic(A, window, args.u_trunc).to_dict())


def cmd_hp(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    window = _window(args)
    meta = _meta(args, A, window, args.u_trunc)
    rep = hp_ranks(A, window, args.u_trunc)
    emit(args, "hp", meta, rep.to_dict(), _algebra_inputs(A))
    if args.strict and not rep.conclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_filtration(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    window = _window(args)
    meta = _meta(args, A, window, args.u_trunc)
    filtration = hodge_filtration(A, window, args.u_trunc)
    return emit(args, "filtration", meta, {"filtration": filtration},
                _algebra_inputs(A))


def cmd_degeneration(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    window = _window(args)
    meta = _meta(args, A, window, args.u_trunc)
    rep = degeneration_check(A, window, args.u_trunc)
    emit(args, "degeneration", meta, rep, _algebra_inputs(A))
    if args.strict and rep["verdict"] == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_chern(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    pi = load_idempotent(args.idempotent, A)
    N = args.u_trunc
    chain = chern_idempotent(pi, N)
    result = {
        "truncation": N,
        "components": [
            {"u_power": t,
             "terms": [{"word": [A.label(i) for i in w],
                        "coeff": format_scalar(c, A.field)}
                       for w, c in sorted(chain.components[t].items())]}
            for t in range(N)],
        "is_cycle": True,
        "u0_class_nonzero": u0_class_nonzero(chain),
    }
    meta = _meta(args, A, None, N)
    return emit(args, "chern", meta, result,
                {"algebra": _algebra_inputs(A),
                 "idempotent": {str(k): format_scalar(v, A.field)
                                for k, v in sorted(pi.vector.items())}})


def cmd_ppower(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
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
    if args.lift is not None:
        labels = {A.label(i): i for i in range(A.dim)}
        if args.lift not in labels:
            raise CliError(f"unknown basis label {args.lift!r}", EXIT_VALIDATION)
        chain = ppower_lift_p2(A, {labels[args.lift]: A.field.one()})
        result["lift"] = [
            {"u_power": t,
             "terms": [{"word": [A.label(i) for i in w],
                        "coeff": format_scalar(c, A.field)}
                       for w, c in sorted(chain.components[t].items())]}
            for t in range(chain.N)]
    meta = _meta(args, A)
    code = emit(args, "ppower", meta, result, _algebra_inputs(A))
    if not (rep["well_defined"] and rep["additive"]):
        return EXIT_VALIDATION
    return code


def cmd_graded_pieces(args) -> int:
    F = _field(args)
    meta = {"field": str(F), "dim_v": args.dim_v, "n": args.n}
    return _cached_or_compute(
        args, "graded-pieces", meta,
        {"dimV": args.dim_v, "n": args.n, "field": str(F)},
        lambda: graded_piece_analysis(args.dim_v, args.n, F))


def cmd_charp_compare(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra, F, _algebra_params(args))
    window = _window(args)
    meta = _meta(args, A, window, args.u_trunc)
    rep = char_p_compare(A, window, args.u_trunc)
    emit(args, "charp-compare", meta, rep, _algebra_inputs(A))
    if not rep["agree"]:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_glue(args) -> int:
    F = _field(args)
    A = load_algebra(args.algebra_a, F, _algebra_params(args))
    B = load_algebra(args.algebra_b, F, {})
    if args.bimodule == "trivial":
        M = trivial_bimodule(B, A)
    elif args.bimodule == "zero":
        M = zero_bimodule(B, A)
    else:
        raise CliError(f"unknown bimodule {args.bimodule!r}", EXIT_VALIDATION)
    glued = glue(A, B, M)
    report = validate(glued)
    result = {"algebra": algebra_to_json(glued),
              "validation": report.to_dict()}
    meta = _meta(args, glued)
    code = emit(args, "glue", meta, result,
                {"a": _algebra_inputs(A), "b": _algebra_inputs(B),
                 "bimodule": args.bimodule})
    if not report.ok:
        return EXIT_VALIDATION
    return code


def cmd_catalogue(args) -> int:
    result = {"algebras": list(CATALOGUE),
              "bivectors": list(BIVECTOR_CATALOGUE)}
    return emit(args, "catalogue", {"field": None}, result, {"catalogue": 1})


def _bivector_inputs(alpha: Bivector) -> dict:
    """The bivector's content, canonically ordered, for the cache key: the
    same bivector keys alike whatever file or catalogue name it came from."""
    return {"nvars": alpha.nvars, "hbar": format_scalar(alpha.hbar, QQ),
            "components": [[i, j, sorted([list(e), format_scalar(c, QQ)]
                                         for e, c in poly.items())]
                           for (i, j), poly in sorted(alpha.components.items())]}


def cmd_poisson(args) -> int:
    sub = args.poisson_command
    alpha = None
    if sub == "bracket":
        alpha = load_bivector(args.bivector)
        f = _poly_arg(args.f, alpha.nvars, "--f")
        g = _poly_arg(args.g, alpha.nvars, "--g")
        result = {"bracket": _poly_json(poisson_bracket(f, g, alpha))}
    elif sub == "jacobi":
        alpha = load_bivector(args.bivector)
        result = jacobi_check(alpha, args.degree)
    elif sub == "lie":
        alpha = load_bivector(args.bivector)
        form = _form_arg(args.form, alpha.nvars, "--form")
        result = {"lie_derivative": _form_json(lie_derivative(alpha, form))}
    elif sub == "conjugation":
        alpha = load_bivector(args.bivector)
        result = conjugation_check(alpha, args.degree)
    elif sub == "star":
        try:
            omega = ConstantSymplectic(args.nvars)
        except PoissonError as exc:
            raise CliError(str(exc), EXIT_VALIDATION)
        result = {"identity": star_identity_check(args.nvars, args.degree)}
        if args.form is not None:
            form = _form_arg(args.form, args.nvars, "--form")
            result["star"] = _form_json(hodge_star(form, omega))
    elif sub == "homology":
        alpha = load_bivector(args.bivector)
        jac = jacobi_check(alpha, min(args.degree, 2))
        if not jac["pass"]:
            raise CliError("poisson homology requires a Poisson bivector "
                           f"(Jacobiator witness: {jac['witness']})",
                           EXIT_VALIDATION)
        result = poisson_homology_ranks(alpha, args.degree)
    else:  # pragma: no cover - argparse enforces choices
        raise CliError(f"unknown poisson subcommand {sub!r}", EXIT_STRUCTURAL)
    meta = {"field": "Q", "degree": getattr(args, "degree", None)}
    if hasattr(args, "bivector"):
        meta["bivector"] = args.bivector
    failed = isinstance(result, dict) and result.get("pass") is False
    inputs = {"sub": sub}
    for name in ("degree", "nvars", "f", "g", "form"):
        if hasattr(args, name):
            inputs[name] = getattr(args, name)
    if alpha is not None:
        inputs["bivector"] = _bivector_inputs(alpha)
    code = emit(args, f"poisson-{sub}", meta, result, inputs)
    if failed and args.strict:
        return EXIT_VALIDATION
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


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
    alg.add_argument("--field", default="Q", help="Q or Fp (e.g. F2)")
    alg.add_argument("--param", action="append",
                     help="catalogue parameter key=value (repeatable)")

    win = argparse.ArgumentParser(add_help=False)
    win.add_argument("--n-max", type=int, required=True,
                     help="tensor-length window bound")
    win.add_argument("--w-min", type=int, default=None)
    win.add_argument("--w-max", type=int, default=None)

    trunc = argparse.ArgumentParser(add_help=False)
    trunc.add_argument("--u-trunc", type=int, required=True,
                       help="u-truncation order N")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common, alg]).set_defaults(fn=cmd_validate)
    sub.add_parser("hh", parents=[common, alg, win]).set_defaults(fn=cmd_hh)
    sub.add_parser("hc", parents=[common, alg, win, trunc]).set_defaults(fn=cmd_hc)
    sub.add_parser("hp", parents=[common, alg, win, trunc]).set_defaults(fn=cmd_hp)
    sub.add_parser("filtration", parents=[common, alg, win, trunc]
                   ).set_defaults(fn=cmd_filtration)
    sub.add_parser("degeneration", parents=[common, alg, win, trunc]
                   ).set_defaults(fn=cmd_degeneration)
    chern = sub.add_parser("chern", parents=[common, alg, trunc])
    chern.add_argument("--idempotent", required=True,
                       help="path to an ncg-idempotent/1 file")
    chern.set_defaults(fn=cmd_chern)
    ppower = sub.add_parser("ppower", parents=[common, alg])
    ppower.add_argument("--lift", default=None,
                        help="basis label to lift at p = 2")
    ppower.set_defaults(fn=cmd_ppower)
    gp = sub.add_parser("graded-pieces", parents=[common])
    gp.add_argument("--dim-v", type=int, required=True)
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--field", required=True)
    gp.set_defaults(fn=cmd_graded_pieces)
    sub.add_parser("charp-compare", parents=[common, alg, win, trunc]
                   ).set_defaults(fn=cmd_charp_compare)
    gl = sub.add_parser("glue", parents=[common])
    gl.add_argument("--algebra-a", required=True)
    gl.add_argument("--algebra-b", required=True)
    gl.add_argument("--field", default="Q")
    gl.add_argument("--param", action="append")
    gl.add_argument("--bimodule", choices=("trivial", "zero"), default="trivial")
    gl.set_defaults(fn=cmd_glue)
    sub.add_parser("catalogue", parents=[common]).set_defaults(fn=cmd_catalogue)

    poisson = sub.add_parser("poisson", parents=[common])
    psub = poisson.add_subparsers(dest="poisson_command", required=True)
    bv = argparse.ArgumentParser(add_help=False)
    bv.add_argument("--bivector", required=True,
                    help="catalogue name or path to an ncg-bivector/1 file")
    pb = psub.add_parser("bracket", parents=[common, bv])
    pb.add_argument("--f", required=True, help="polynomial as JSON term list")
    pb.add_argument("--g", required=True, help="polynomial as JSON term list")
    pj = psub.add_parser("jacobi", parents=[common, bv])
    pj.add_argument("--degree", type=int, default=2)
    pl = psub.add_parser("lie", parents=[common, bv])
    pl.add_argument("--form", required=True, help="form as JSON term list")
    pc = psub.add_parser("conjugation", parents=[common, bv])
    pc.add_argument("--degree", type=int, required=True)
    ps = psub.add_parser("star", parents=[common])
    ps.add_argument("--nvars", type=int, required=True)
    ps.add_argument("--degree", type=int, required=True)
    ps.add_argument("--form", default=None)
    ph = psub.add_parser("homology", parents=[common, bv])
    ph.add_argument("--degree", type=int, required=True)
    poisson.set_defaults(fn=cmd_poisson)
    for p in (pb, pj, pl, pc, ps, ph):
        p.set_defaults(fn=cmd_poisson)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # Most specific first: every class below except NotImplementedError is
    # a ValueError subclass.
    except (SchemaError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except UnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (WindowError, StructuralError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except NotImplementedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL


if __name__ == "__main__":
    raise SystemExit(main())
