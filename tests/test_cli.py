import argparse
import contextlib
import csv
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nchodge import algebra, cli
from nchodge.algebra import CATALOGUE, algebra_to_json, builtin
from nchodge.cli import main
from nchodge.fields import GF
from nchodge.poisson import MAX_NVARS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_hh_dual_numbers(capsys):
    code, rep, _ = run_json(capsys, "hh", "--algebra", "dual_numbers",
                            "--field", "Q", "--n-max", "4")
    assert code == 0
    assert rep["format"] == "ncg-report/1"
    assert rep["tool"]["name"] == "nchodge"
    assert rep["result"]["per_n"] == {"0": 2, "1": 1, "2": 1, "3": 1, "4": 1}


def test_hp_clifford1(capsys):
    code, rep, _ = run_json(capsys, "hp", "--algebra", "clifford1",
                            "--field", "Q", "--n-max", "8", "--u-trunc", "3")
    assert code == 0
    assert (rep["result"]["hp_even"], rep["result"]["hp_odd"]) == (0, 1)
    assert rep["result"]["conclusive"]
    assert rep["truncation"] == 3
    assert rep["window"]["n_max"] == 8


def test_validate_broken_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "ncg-algebra/1", "oops": 1}')
    code, out, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert "oops" in err


def test_validate_catalogue_ok(capsys):
    code, rep, _ = run_json(capsys, "validate", "--algebra", "group_z2",
                            "--field", "F3")
    assert code == 0
    assert rep["result"]["ok"]


def test_algebra_json_file_input(tmp_path, capsys):
    from nchodge.algebra import algebra_to_json, builtin
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(algebra_to_json(builtin("dual_numbers"))))
    code, rep, _ = run_json(capsys, "hh", "--algebra", str(path), "--n-max", "3")
    assert code == 0
    assert rep["result"]["per_n"]["0"] == 2


def test_strict_inconclusive_exits_3(capsys):
    code, _, _ = run(capsys, "hp", "--algebra", "truncated_poly", "--param",
                     "m=3", "--field", "Q", "--n-max", "4", "--u-trunc", "2",
                     "--strict")
    assert code == 3


def test_chern_cli(tmp_path, capsys):
    idem = tmp_path / "e11.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E11*1": "1/1"}}))
    code, rep, _ = run_json(capsys, "chern", "--algebra", "mat", "--param",
                            "m=2", "--u-trunc", "2", "--idempotent", str(idem))
    assert code == 0
    assert rep["result"]["is_cycle"]
    assert rep["result"]["u0_class_nonzero"]


def test_idempotent_schema_rejected(tmp_path, capsys):
    idem = tmp_path / "bad.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E12*1": "1"}}))
    code, _, err = run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                       "--u-trunc", "2", "--idempotent", str(idem))
    assert code == 2
    assert "idempotent" in err


def test_ppower_cli(capsys):
    code, rep, _ = run_json(capsys, "ppower", "--algebra", "dual_numbers",
                            "--field", "F2", "--lift", "eps")
    assert code == 0
    assert rep["result"]["well_defined"] and rep["result"]["additive"]
    assert rep["result"]["lift"][1]["terms"] == [
        {"coeff": "1", "word": ["1", "eps", "eps"]}]


def test_poisson_cli(capsys):
    code, rep, _ = run_json(capsys, "poisson", "jacobi", "--bivector",
                            "nonjacobi4", "--degree", "2")
    assert code == 0
    assert rep["result"]["pass"] is False
    code2, rep2, _ = run_json(capsys, "poisson", "homology", "--bivector",
                              "standard", "--degree", "5")
    assert code2 == 0
    assert (rep2["result"]["even"], rep2["result"]["odd"]) == (1, 0)


def test_bivector_json_file(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps({
        "format": "ncg-bivector/1", "nvars": 2,
        "components": [{"i": 0, "j": 1,
                        "poly": [{"exponents": [0, 0], "coeff": "1"}]}]}))
    code, rep, _ = run_json(capsys, "poisson", "jacobi", "--bivector",
                            str(path), "--degree", "2")
    assert code == 0
    assert rep["result"]["pass"]


def test_poisson_cache_key_follows_inputs(tmp_path, capsys):
    # the key hashes the subcommand, its options and the bivector's content;
    # not the cache directory, --output or --strict
    path = tmp_path / "alpha.json"

    def write_bivector(coeff):
        path.write_text(json.dumps({
            "format": "ncg-bivector/1", "nvars": 3,
            "components": [{"i": 0, "j": 1,
                            "poly": [{"exponents": [0, 0, 1], "coeff": coeff}]}]}))

    def keys(cache, *extra):
        code, _, _ = run(capsys, "poisson", "jacobi", "--bivector", str(path),
                         "--degree", "2", "--cache-dir", str(cache), *extra)
        assert code == 0
        return [p.name for p in cache.glob("*.report")]

    write_bivector("1/2")
    first = keys(tmp_path / "c1")
    assert len(first) == 1
    assert keys(tmp_path / "c2", "--output", str(tmp_path / "a.json")) == first
    assert keys(tmp_path / "c3", "--output", str(tmp_path / "b.json"), "--strict") == first
    write_bivector("1/3")
    changed = keys(tmp_path / "c4")
    assert len(changed) == 1 and changed != first


def test_glue_cli(capsys):
    code, rep, _ = run_json(capsys, "glue", "--algebra-a", "point",
                            "--algebra-b", "point", "--bimodule", "trivial")
    assert code == 0
    assert rep["result"]["validation"]["ok"]
    assert rep["result"]["algebra"]["dim"] == 3


def test_catalogue_cli(capsys):
    code, rep, _ = run_json(capsys, "catalogue")
    assert code == 0
    assert "dual_numbers" in rep["result"]["algebras"]
    assert "nonjacobi4" in rep["result"]["bivectors"]


def test_formats(capsys):
    code, out, _ = run(capsys, "hh", "--algebra", "point", "--n-max", "2",
                       "--format", "csv")
    assert code == 0 and out.startswith("key,value")
    code2, out2, _ = run(capsys, "hh", "--algebra", "point", "--n-max", "2",
                         "--format", "markdown")
    assert code2 == 0 and "| key | value |" in out2


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("hh", "--algebra", "dual_numbers", "--n-max", "3",
            "--cache-dir", str(cache))
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    files = list(cache.glob("*.report"))
    assert len(files) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0
    assert out1 == out2


def test_cache_corruption_recovers(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("hh", "--algebra", "dual_numbers", "--n-max", "3",
            "--cache-dir", str(cache))
    _, out1, _ = run(capsys, *args)
    entry = next(cache.glob("*.report"))
    entry.write_text("garbage")
    code, out2, err = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert "corrupted" in err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("NCHODGE_CACHE_DIR", str(cache))
    code, _, _ = run(capsys, "hh", "--algebra", "point", "--n-max", "2")
    assert code == 0
    assert list(cache.glob("*.report"))


def test_cache_unwritable_warns(tmp_path, capsys):
    code, _, err = run(capsys, "hh", "--algebra", "point", "--n-max", "2",
                       "--cache-dir", "/proc/does-not-exist")
    assert code == 0
    assert "unwritable" in err


# Exit codes 0, 1, 2 (schema) and 3 (--strict) have their own tests above.
@pytest.mark.parametrize("argv, code", [
    (("hh", "--algebra", "no_such_algebra", "--n-max", "2"), 2),
    # UnsupportedError is a ValueError; it must not fall through to exit 1
    (("ppower", "--algebra", "clifford1", "--field", "Q"), 3),
])
def test_exit_codes(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


@pytest.mark.parametrize("command", [
    ("hc", "--n-max", "4", "--u-trunc", "2"), ("hh", "--n-max", "3"),
    ("hp", "--n-max", "4", "--u-trunc", "2"), ("validate",)])
def test_parameter_denominator_vanishing_mod_p_exits_2(capsys, command):
    code, out, err = run(capsys, command[0], "--algebra", "quantum_plane",
                         "--param", "q=3/2", "--field", "F2", *command[1:])
    assert code == 2
    assert not out and "Traceback" not in err
    assert "vanishes mod 2" in err


# A parameter the entry does not take was ignored (mat --param M=3 computed
# Mat_2 and exited 0), and a malformed value exited 1 with a bare int() or
# Fraction error that did not name the parameter.
@pytest.mark.parametrize("argv, words", [
    (("mat", "--param", "M=3"), ("'M'", "mat takes m")),
    (("dual_numbers", "--param", "m=3"), ("'m'", "takes no parameters")),
    (("poly_truncated", "--param", "m=3"), ("'m'", "takes vars, max_weight")),
    (("mat", "--param", "m=abc"), ("m=abc", "not an integer")),
    (("mat", "--param", "m=2.5"), ("m=2.5", "not an integer")),
    (("truncated_poly", "--param", "m=x"), ("m=x", "not an integer")),
    (("poly_truncated", "--param", "vars=x"), ("vars=x", "not an integer")),
    (("quantum_plane", "--param", "max_weight=two"), ("max_weight=two", "not an integer")),
    (("quantum_plane", "--param", "q=abc"), ("q=abc", "not an element of Q")),
    (("quantum_plane", "--param", "q=1/0"), ("q=1/0", "not an element of Q")),
], ids=["mat-M", "dual_numbers-m", "poly_truncated-m", "mat-m-abc", "mat-m-2.5",
        "truncated_poly-m-x", "poly_truncated-vars-x", "quantum_plane-max_weight-two",
        "quantum_plane-q-abc", "quantum_plane-q-1/0"])
def test_catalogue_parameters_are_checked(capsys, argv, words):
    _assert_refused(*run(capsys, "hh", "--algebra", *argv, "--n-max", "2"), *words)


def test_param_on_a_file_algebra_exits_2(tmp_path, capsys):
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(algebra_to_json(builtin("dual_numbers"))))
    _assert_refused(*run(capsys, "hh", "--algebra", str(path), "--param", "m=3",
                         "--n-max", "2"), "--param m", "file algebra")
    _assert_refused(*run(capsys, "glue", "--algebra-a", str(path), "--algebra-b", "point",
                         "--param", "m=3"), "--param m", "file algebra")


def test_glue_routes_each_param_to_the_part_that_takes_it(tmp_path, capsys):
    # every --param went to --algebra-a: this exited 2 naming point, and
    # mat/mat glued Mat_3 with Mat_2
    code, rep, _ = run_json(capsys, "glue", "--algebra-a", "point", "--algebra-b", "mat",
                            "--param", "m=3", "--bimodule", "zero")
    assert code == 0 and rep["algebra"] == "glue(point,mat(3))"
    assert rep["result"]["algebra"]["dim"] == 1 + 9
    code, rep, _ = run_json(capsys, "glue", "--algebra-a", "mat", "--algebra-b",
                            "poly_truncated", "--param", "vars=1", "--param", "m=3",
                            "--param", "max_weight=2", "--bimodule", "zero")
    assert code == 0 and rep["algebra"] == "glue(mat(3),poly_truncated(1,2))"
    _assert_refused(*run(capsys, "glue", "--algebra-a", "mat", "--algebra-b", "mat",
                         "--param", "m=3", "--bimodule", "zero"),
                    "--param m", "--algebra-a mat takes m", "--algebra-b mat takes m")
    _assert_refused(*run(capsys, "glue", "--algebra-a", "point", "--algebra-b",
                         "dual_numbers", "--param", "m=3"),
                    "--param m", "point takes no parameters",
                    "dual_numbers takes no parameters")
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(algebra_to_json(builtin("dual_numbers"))))
    _assert_refused(*run(capsys, "glue", "--algebra-a", "point", "--algebra-b", str(path),
                         "--param", "m=3"), "--param m", "file algebra", "point takes")


def test_field_of_a_file_algebra(tmp_path, capsys):
    # --field was ignored for a file: hh reported "Q" under --field F3 and
    # charp-compare exited 3 asking for a prime field
    q_file, f3_file = tmp_path / "dual.json", tmp_path / "tp3.json"
    q_file.write_text(json.dumps(algebra_to_json(builtin("dual_numbers"))))
    f3_file.write_text(json.dumps(algebra_to_json(builtin("truncated_poly", GF(3), m=3))))
    for argv in (("hh", "--n-max", "1"), ("charp-compare", "--n-max", "4", "--u-trunc", "2")):
        _assert_refused(*run(capsys, argv[0], "--algebra", str(q_file), "--field", "F3",
                             *argv[1:]), str(q_file), "--field F3", "field Q")
    # a file keeps its own field, with or without a --field that names it
    for field in ((), ("--field", "F3")):
        code, rep, _ = run_json(capsys, "hh", "--algebra", str(f3_file), *field,
                                "--n-max", "1")
        assert code == 0 and rep["field"] == "F3"


def test_glue_parts_over_different_fields_exit_2(tmp_path, capsys):
    # exited 1, a structural error, with "field mismatch in glue"
    q_file, f3_file = tmp_path / "dual.json", tmp_path / "tp3.json"
    q_file.write_text(json.dumps(algebra_to_json(builtin("dual_numbers"))))
    f3_file.write_text(json.dumps(algebra_to_json(builtin("truncated_poly", GF(3), m=3))))
    _assert_refused(*run(capsys, "glue", "--algebra-a", str(q_file), "--algebra-b", "point",
                         "--field", "F3"), "F3", "field Q")
    _assert_refused(*run(capsys, "glue", "--algebra-a", str(f3_file), "--algebra-b", "point"),
                    f"--algebra-a {f3_file} is over F3", "--algebra-b point over Q")
    _assert_refused(*run(capsys, "glue", "--algebra-a", str(q_file), "--algebra-b",
                         str(f3_file)), "over Q", "over F3")
    code, rep, _ = run_json(capsys, "glue", "--algebra-a", str(f3_file), "--algebra-b",
                            "point", "--field", "F3")
    assert code == 0 and rep["field"] == "F3"


@pytest.mark.parametrize("field", ["Q", "F2", "F3"])
@pytest.mark.parametrize("name", CATALOGUE)
def test_catalogue_grid_exits_cleanly(capsys, name, field):
    # every catalogue algebra over Q and small primes: a documented exit
    # code and an error line, never an uncaught exception
    for command in (("validate",), ("hh", "--n-max", "2")):
        code, _, err = run(capsys, command[0], "--algebra", name, "--field", field,
                           *command[1:])
        assert code in (0, 1, 2, 3), (name, field, command)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: ")


def test_contract_error_exits_2(tmp_path, capsys, monkeypatch):
    from nchodge.kchern import ContractError

    def failing(pi, N):
        raise ContractError("cycle certificate failed")

    monkeypatch.setattr(cli, "chern_idempotent", failing)
    idem = tmp_path / "e11.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E11*1": "1/1"}}))
    code, _, err = run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                       "--u-trunc", "2", "--idempotent", str(idem))
    assert code == 2
    assert "certificate" in err


def test_ppower_clifford1_f3_ranks_agree(capsys):
    code, rep, _ = run_json(capsys, "ppower", "--algebra", "clifford1", "--field", "F3")
    assert code == 0
    assert rep["result"]["hh0_rank"] == rep["result"]["hh0_rank_direct"] == 1


def test_cache_key_is_pinned(tmp_path, capsys):
    # The key hashes the algebra's structure constants and the idempotent as
    # "num/den" strings ("1/1" for integral Q scalars); a change of spelling
    # or of the hashed fields would orphan every cached report.  The tool
    # version is hashed too, so a version bump changes this value.
    idem = tmp_path / "pi.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E11*1": "1/1", "E12*1": "2/3"}}))
    cache = tmp_path / "cache"
    code, _, _ = run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                     "--u-trunc", "2", "--idempotent", str(idem),
                     "--cache-dir", str(cache))
    assert code == 0
    assert [p.name for p in cache.glob("*.report")] == [
        "f68bebd4fb5f87207e5865a40a1894281919074ea30b48f8ce2f99715a2ea24a.report"]


# ---------------------------------------------------------------------------
# the streaming renderer
# ---------------------------------------------------------------------------


def _expand_terms(value):
    """json.dumps default: chain terms as the list of term dicts they
    stand for."""
    if type(value) is not cli._Terms:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return [{"coeff": c, "word": [value.labels[i] for i in w]}
            for w, c in zip(value.words, value.coeffs)]


def _reference_render(report, fmt):
    """Whole-string rendering of a report: json.dumps for json, one
    compact-JSON row per leaf for csv and markdown."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=_expand_terms) + "\n"
    flat = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else k, value[k])
        else:
            flat.append((prefix, json.dumps(value, sort_keys=True, default=_expand_terms)))

    walk("", report)
    if fmt == "csv":
        lines = ["key,value"]
        for k, v in flat:
            if any(c in k for c in ',"\r\n'):
                k = '"' + k.replace('"', '""') + '"'
            v = v.replace('"', '""')
            lines.append(f'{k},"{v}"')
        return "\n".join(lines) + "\n"
    lines = [f"# {report.get('command', 'report')}", "",
             "| key | value |", "| --- | --- |"]
    for k, v in flat:
        escaped = v.replace("|", "\\|")
        lines.append(f"| {k} | {escaped} |")
    return "\n".join(lines) + "\n"


_LETTERS = ["a", "Z", "7", " ", ",", ":", ".", '"', "|", "\\", "\n", "\t",
            "\u00e9", "\u2200", "\u2028", "\U0001d6c2", "/"]


def _random_string(rng):
    return "".join(rng.choice(_LETTERS) for _ in range(rng.randrange(0, 6)))


def _random_key(rng):
    return rng.choice([_random_string(rng), str(rng.randrange(-3, 12)),
                       rng.choice(["a", "b", "1"])])


def _random_terms(rng):
    """Chain terms over random labels, which may need escaping, with random
    coefficient texts; one in four has no terms."""
    labels = [_random_string(rng) for _ in range(rng.randrange(1, 5))]
    words = [tuple(rng.randrange(len(labels)) for _ in range(rng.randrange(0, 4)))
             for _ in range(rng.randrange(0, 5) if rng.random() < 0.75 else 0)]
    coeffs = [rng.choice([_random_string(rng), "-3/2", "1/1", str(10 ** 30)]) for _ in words]
    return cli._Terms(words, coeffs, labels)


def _random_value(rng, depth):
    """A report value: strings, ints, bools, None, chain terms, lists and
    string-keyed dicts, built in no particular key order."""
    kind = rng.randrange(10 if depth < 4 else 7)
    if kind == 0:
        return _random_string(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -12345, 2 ** 70, -(2 ** 64)])
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice(["E12*1", "1/1", "-3/2"])
    if kind == 5:
        return {} if rng.random() < 0.5 else []
    if kind == 6:
        return _random_terms(rng)
    if kind in (7, 8):
        items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
        if rng.random() < 0.3:
            items = [_random_string(rng) for _ in items]  # all strings
        return items
    out = {}
    for _ in range(rng.randrange(0, 5)):
        out[_random_key(rng)] = _random_value(rng, depth + 1)
    return out


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_render_matches_whole_string_reference(fmt):
    rng = random.Random(20261018)
    for _ in range(300):
        report = {"command": _random_string(rng)} if rng.random() < 0.7 else {}
        for _ in range(rng.randrange(0, 5)):
            report[_random_key(rng)] = _random_value(rng, 0)
        pieces = []
        cli._render(report, fmt, pieces.append)
        assert "".join(pieces) == _reference_render(report, fmt), report


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize("bad", [Fraction(1, 2), ("E11*1", 1), 0.5, {"a": 1, 2: "b"},
                                 {1: "a", 2: "b"}],
                         ids=["fraction", "tuple", "float", "mixed-keys", "int-keys"])
def test_render_refuses_what_is_not_a_report_value(fmt, bad):
    # commands format their values; the renderer converts nothing, and a
    # value it cannot spell is refused, not spelled some other way
    for report in ({"command": "x", "result": {"bad": bad}},
                   {"command": "x", "result": [{"terms": ["E11*1", bad]}]},
                   {"command": "x", "bad": bad}):
        with pytest.raises(TypeError):
            cli._render(report, fmt, [].append)


def test_render_streams_in_chunks():
    # a 1 MB report reaches write() in several pieces of about 64 KB
    report = {"command": "x", "result": [{"word": ["E11*1", "E12*1"], "coeff": "-3/2"}
                                         for _ in range(20000)]}
    pieces = []
    cli._render(report, "json", pieces.append)
    assert "".join(pieces) == _reference_render(report, "json")
    assert len(pieces) > 5
    assert all(len(p) < 4 * 65536 for p in pieces)


def _chern_argv(tmp_path, m, N, vector, *extra):
    idem = tmp_path / f"pi-{m}.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1", "vector": vector}))
    return ("chern", "--algebra", "mat", "--param", f"m={m}", "--u-trunc", str(N),
            "--idempotent", str(idem)) + extra


# sha256 of reports rendered by the whole-string renderer that the streaming
# one replaced; the bytes must not change
@pytest.mark.parametrize("argv, digest", [
    ((3, 5, {"E11*1": "1/1", "E12*1": "2/3", "E13*1": "-5/7"}),
     "322d52c1c71af0f5452e77088fa1b09f215bcd5a506167b3f566bb995e8944a6"),
    ((2, 7, {"E11*1": "1/1", "E12*1": "-3/2"}, "--format", "csv"),
     "9890fab0919fcf1e81f67dfebec9e1ea58639dcae302b4c974487701e8fdf28f"),
    (("hp", "--algebra", "clifford1", "--n-max", "8", "--u-trunc", "3",
      "--format", "markdown"),
     "479acee44ecdaf91a9b0e55979ec7043231fd344abfe45b246294728bbe3ea3a"),
    (("catalogue",),
     "71928e67e10d810380658fba54aa2641776fd7472f6bb15ab0e2b5c1f01bbf94"),
    (("glue", "--algebra-a", "dual_numbers", "--algebra-b", "a2_path", "--field", "F3"),
     "8165afd7294d6e3f626f51fa1e5dd59b57a8da6e4b2bf30310f90b2fa93f41cf"),
    (("ppower", "--algebra", "mat", "--param", "m=2", "--field", "F2", "--lift", "E12*1"),
     "34c8ed0906e25d72987fa6204019b91b8ffa65029a0646e2d0ff9f205e03918b"),
    (("graded-pieces", "--dim-v", "3", "--n", "6", "--field", "F3"),
     "403981e68afadbbb65f6de2d1d12070f2955f2ea361fa56eea8ce646dbdcb970"),
    (("charp-compare", "--algebra", "clifford1", "--field", "F3", "--n-max", "6",
      "--u-trunc", "2"),
     "461dfe26935fbe63c0e1e3530d485bdb48e986d617f1cee455c82bad6ededee0"),
    (("validate", "--algebra", "mat", "--param", "m=3"),
     "4d8e24c1b2aeb8470f4b2fc716916472ad333b2b2be6f2ba222e177e0438cadf"),
    (("hc", "--algebra", "mat", "--param", "m=2", "--field", "F3", "--n-max", "7",
      "--u-trunc", "3"),
     "88b2b04c43f24bbcdbd76a26f397517b2721afc517d2299e9e9c2afd2b70c217"),
    (("hp", "--algebra", "a2_path", "--n-max", "8", "--u-trunc", "2"),
     "2b94c6c54027c2634ab8f41db2c62da83d836d9c809f2a2aa75b1eebd188795f"),
    (("hc", "--algebra", "poly_truncated", "--param", "vars=2", "--param", "max_weight=4",
      "--n-max", "8", "--u-trunc", "4"),
     "5a99846f1b06d1a9b2f80bf1f6a7a49009563eb063c27429e7942824959c1726"),
    (("hp", "--algebra", "truncated_poly", "--param", "m=3", "--n-max", "10",
      "--u-trunc", "4"),
     "6dac00ef09a3badb5e29f6045b489849f753624a6cef1cfe84253738234cc7f9"),
    (("charp-compare", "--algebra", "truncated_poly", "--param", "m=3", "--field", "F3",
      "--n-max", "10", "--u-trunc", "4"),
     "ed259020175945d1c23acc193bd557a5b0e7f96d3b145a713e3589602ddae3bb"),
    (("degeneration", "--algebra", "mat", "--param", "m=2", "--field", "F3", "--n-max", "6",
      "--u-trunc", "2"),
     "22282780bc900ae967ea51182941b37aa7b77a63395c0187ce366b85b59d4abe"),
    (("filtration", "--algebra", "dual_numbers", "--n-max", "8", "--u-trunc", "4"),
     "6feeacf33dc48e7df28440df4ffc51f9207f3a6fbcadee371d127e8256913268"),
], ids=["chern-mat3-u5-json", "chern-mat2-u7-csv", "hp-clifford1-markdown",
        "catalogue", "glue-dual-a2-F3", "ppower-mat2-F2-lift", "graded-pieces-v3-n6-F3",
        "charp-compare-clifford1-F3", "validate-mat3", "hc-mat2-F3-u3",
        "hp-a2_path-u2", "hc-poly_truncated-u4", "hp-truncated_poly-u4",
        "charp-compare-truncated_poly-F3", "degeneration-mat2-F3",
        "filtration-dual_numbers-u4"])
def test_golden_reports(tmp_path, capsys, argv, digest):
    if isinstance(argv[0], int):
        argv = _chern_argv(tmp_path, *argv)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_output_cache_and_stdout_agree(tmp_path, capsys, fmt):
    argv = _chern_argv(tmp_path, 2, 4, {"E11*1": "1/1", "E12*1": "-3/2"},
                       "--format", fmt)
    _, stdout, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--output", str(tmp_path / "out.txt"))[1:] == ("", "")
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == stdout
    cache = tmp_path / "cache"
    assert run(capsys, *argv, "--cache-dir", str(cache))[1] == stdout
    [entry] = cache.iterdir()
    key = entry.name.removesuffix(".report")
    # the entry replays directly, to stdout and to --output
    assert cli._cache_replay(argparse.Namespace(output=None), str(cache), key)
    assert capsys.readouterr().out == stdout
    replayed = tmp_path / "replayed.txt"
    assert cli._cache_replay(argparse.Namespace(output=str(replayed)), str(cache), key)
    assert replayed.read_text(encoding="utf-8") == stdout
    # a second run replays it into --output
    hh = ("hh", "--algebra", "dual_numbers", "--n-max", "3", "--format", fmt,
          "--cache-dir", str(cache))
    _, hh_out, _ = run(capsys, *hh)
    assert run(capsys, *hh, "--output", str(replayed))[1:] == ("", "")
    assert replayed.read_text(encoding="utf-8") == hh_out


def test_failed_render_leaves_no_cache_entry(tmp_path, capsys, monkeypatch):
    # the bad value sorts after the chain, so the render fails after its
    # first pieces have reached stdout and the cache's .tmp file
    monkeypatch.setattr(cli, "u0_class_nonzero", lambda chain: object())
    cache = tmp_path / "cache"
    argv = _chern_argv(tmp_path, 2, 5, {"E11*1": "1/1", "E12*1": "-3/2"},
                       "--cache-dir", str(cache))
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(list(argv))
    assert len(capsys.readouterr().out) >= cli._CHUNK
    assert list(cache.iterdir()) == []


class _FullAfterOnePiece:
    """A cache file whose writes fail after the first, as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        self.fh.write(text)

    def close(self):
        self.fh.close()


@pytest.mark.parametrize("fault", ["commit", "write"])
def test_a_cache_entry_that_fails_warns_and_leaves_no_tmp_file(tmp_path, capsys, monkeypatch,
                                                                fault):
    cache = tmp_path / "cache"
    argv = _chern_argv(tmp_path, 2, 5, {"E11*1": "1/1", "E12*1": "-3/2"})
    _, report, _ = run(capsys, *argv)
    files = []
    if fault == "commit":
        # a directory holds the entry's name, so the finished .tmp file
        # cannot replace it, and the entry cannot be replayed either
        assert run(capsys, *argv, "--cache-dir", str(cache))[1] == report
        [entry] = cache.iterdir()
        entry.unlink()
        entry.mkdir()
    else:
        opened = cli._CacheEntry.__init__

        def open_full(self, *args):
            opened(self, *args)
            self.fh = _FullAfterOnePiece(self.fh)
            files.append(self.fh)

        monkeypatch.setattr(cli._CacheEntry, "__init__", open_full)
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache))
    assert (code, out) == (0, report)
    assert err.startswith("warning: cache directory unwritable") and err.count("\n") == 1
    assert [f.writes for f in files] == ([2] if fault == "write" else [])
    assert not list(cache.glob("*.tmp"))


# ---------------------------------------------------------------------------
# file algebras are validated once, on load; every field is type-checked
# ---------------------------------------------------------------------------


def _algebra_file(tmp_path, name, edit, **params):
    from nchodge.algebra import algebra_to_json, builtin
    obj = algebra_to_json(builtin(name, **params))
    edit(obj)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _double_e11_e12(obj):
    del obj["weight"]
    entry = next(e for e in obj["structure"] if e[:2] == [1, 2])
    entry[3] = "2/1"


def _assert_refused(code, out, err, *words):
    assert code == 2 and not out, (code, err)
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(w in err for w in words), err


@pytest.mark.parametrize("name, params, edit, violation", [
    # hh used to report negative ranks and exit 0
    ("mat", {"m": 2}, _double_e11_e12, "associativity"),
    # x * x^2 = x breaks associativity and the weights; hh died with a KeyError
    ("truncated_poly", {"m": 3}, lambda o: o["structure"].append([1, 2, 1, "1/1"]),
     "associativity"),
], ids=["doubled-constant", "weight-breaking-product"])
def test_invalid_file_algebra_is_refused(tmp_path, capsys, name, params, edit, violation):
    path = _algebra_file(tmp_path, name, edit, **params)
    for command in (("hh", "--n-max", "4"), ("hc", "--n-max", "4", "--u-trunc", "2"),
                    ("hp", "--n-max", "4", "--u-trunc", "2"), ("ppower", "--field", "F2")):
        _assert_refused(*run(capsys, command[0], "--algebra", path, *command[1:]),
                        path, "not a valid algebra", violation)
    for side in ("--algebra-a", "--algebra-b"):
        other = "--algebra-b" if side == "--algebra-a" else "--algebra-a"
        _assert_refused(*run(capsys, "glue", side, path, other, "point"), violation)
    # validate still reports every violation
    code, rep, _ = run_json(capsys, "validate", "--algebra", path)
    assert code == 2 and not rep["result"]["ok"]
    assert rep["result"]["violations"][0]["kind"] == violation


def test_validate_calls_validate_once_on_a_file(tmp_path, capsys, monkeypatch):
    path = _algebra_file(tmp_path, "mat", _double_e11_e12, m=2)
    calls = []
    original = cli.validate
    monkeypatch.setattr(cli, "validate", lambda A: calls.append(A) or original(A))
    assert run(capsys, "validate", "--algebra", path)[0] == 2
    assert len(calls) == 1


def test_each_algebra_is_validated_once(capsys, monkeypatch):
    # validate of a catalogue algebra ran the check twice: in builtin and again
    # for the report
    calls = []
    original = algebra.validate

    def counted(A):
        calls.append(A.name)
        return original(A)

    monkeypatch.setattr(algebra, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
    assert run(capsys, "validate", "--algebra", "poly_truncated")[0] == 0
    assert calls == ["poly_truncated(2,4)"]
    calls.clear()
    assert run(capsys, "glue", "--algebra-a", "dual_numbers", "--algebra-b", "a2_path")[0] == 0
    assert calls == ["dual_numbers", "a2_path", "glue(dual_numbers,a2_path)"]


@pytest.mark.parametrize("argv, option, product", [
    (("--algebra-a", "point", "--algebra-b", "group_z2"), "--algebra-b group_z2", "g and g"),
    (("--algebra-a", "point", "--algebra-b", "clifford1"), "--algebra-b clifford1", "xi and xi"),
    (("--algebra-a", "point", "--algebra-b", "mat"), "--algebra-b mat", "E21*1 and E12*1"),
    (("--algebra-a", "mat", "--algebra-b", "dual_numbers", "--param", "m=3"),
     "--algebra-a mat", "E31*1 and E13*1"),
], ids=["group_z2", "clifford1", "mat", "mat-m3"])
def test_trivial_bimodule_needs_an_augmentation(capsys, argv, option, product):
    # the non-unit basis elements of these parts do not span an ideal, so the
    # unit coordinate is no algebra map and the trivial action no bimodule:
    # glue emitted a report with an associativity violation ([3, 3, 2] for
    # group_z2) and exited 2
    _assert_refused(*run(capsys, "glue", *argv), "--bimodule trivial is not a bimodule",
                    option, f"the product of {product} has a unit coordinate",
                    "use --bimodule zero")
    code, rep, _ = run_json(capsys, "glue", *argv, "--bimodule", "zero")
    assert code == 0 and rep["result"]["validation"]["ok"]


@pytest.mark.parametrize("edit", [
    lambda o: o["structure"].append([7, 1, 2, "1/1"]),  # validate died with IndexError
    lambda o: o.update(dim=[3]),
    lambda o: o.update(dim="x"),
    lambda o: o.update(dim=True),
    lambda o: o.update(structure=5),
    lambda o: o.update(weight=5),
    lambda o: o.update(weight=[0, 1]),
    lambda o: o.update(parity=[0]),
    lambda o: o.update(unit_index=None),
    lambda o: o.update(unit_index=True),
    lambda o: o.update(max_weight="4"),
    lambda o: o.update(name=3),
    lambda o: o["structure"][0].__setitem__(0, True),
    lambda o: o["structure"][0].__setitem__(3, 1.5),
    lambda o: o["structure"][0].__setitem__(3, "1/0"),
    lambda o: o.update(field={"kind": "prime-field", "p": True}),
    lambda o: o.update(field={"kind": "prime-field", "p": 4}),
], ids=["index-out-of-range", "dim-list", "dim-string", "dim-true", "structure-int",
        "weight-int", "weight-short", "parity-short", "unit-null", "unit-true",
        "max-weight-string", "name-int", "index-true", "value-float", "value-1/0",
        "p-true", "p-not-prime"])
def test_schema_field_types_exit_2(tmp_path, capsys, edit):
    def with_parity(obj):
        obj["parity"] = [0, 0, 0]
        edit(obj)
    path = _algebra_file(tmp_path, "truncated_poly", with_parity, m=3)
    for command in (("validate",), ("hh", "--n-max", "2")):
        _assert_refused(*run(capsys, command[0], "--algebra", path, *command[1:]))


@pytest.mark.parametrize("obj", [
    {"format": "ncg-bivector/1", "nvars": 2, "components": 5},
    {"format": "ncg-bivector/1", "nvars": True, "components": []},
    {"format": "ncg-bivector/1", "nvars": 2, "hbar": 0.5},
    {"format": "ncg-bivector/1", "nvars": 2, "name": ["x"]},
    {"format": "ncg-bivector/1", "nvars": 2, "components": [
        {"i": 0, "j": 1, "poly": [{"exponents": [0, True], "coeff": "1"}]}]},
    {"format": "ncg-bivector/1", "nvars": 2, "components": [
        {"i": 0, "j": 1, "poly": [{"exponents": [0, 0], "coeff": None}]}]},
    {"format": "ncg-bivector/1", "nvars": 2, "components": [{"i": 0, "j": 1, "poly": 3}]},
    [1, 2],
], ids=["components-int", "nvars-true", "hbar-float", "name-list", "exponent-true",
        "coeff-null", "poly-int", "not-an-object"])
def test_bivector_schema_exit_2(tmp_path, capsys, obj):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(obj))
    _assert_refused(*run(capsys, "poisson", "jacobi", "--bivector", str(path)))


@pytest.mark.parametrize("vector", [{"E11*1": True}, {"E11*1": ["1"]}, {"9": "1"}, []],
                         ids=["true", "list", "index-out-of-range", "not-a-map"])
def test_idempotent_schema_exit_2(tmp_path, capsys, vector):
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"format": "ncg-idempotent/1", "vector": vector}))
    _assert_refused(*run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                         "--u-trunc", "2", "--idempotent", str(path)))


@pytest.mark.parametrize("option, value", [
    ("--f", '[{"exponents": [0, 0], "coeff": "1", "extra": 1}]'),
    ("--f", '[{"exponents": [0], "coeff": "1"}]'),
    ("--g", '{"exponents": [0, 0]}'),
    ("--g", '[{"exponents": [0, 0], "coeff": "x"}]'),
])
def test_poisson_term_arguments_exit_2(capsys, option, value):
    argv = {"--f": '[{"exponents": [1, 0], "coeff": "1"}]',
            "--g": '[{"exponents": [0, 1], "coeff": "1"}]', option: value}
    _assert_refused(*run(capsys, "poisson", "bracket", "--bivector", "standard",
                         "--f", argv["--f"], "--g", argv["--g"]))


# Scalars and integer parameters were read by int(), which also takes '_'
# between digits, non-ASCII digits and surrounding whitespace: "1_0/1_0",
# "\uff11" and " 1/1" read 1, --param m=\uff12 built Mat_2 and q=1_0/3 read
# 10/3, each exiting 0.  Signs are read as before.
_NOT_ASCII = ["1_0/1_0", "\uff11", " 1/1", "1/1 ", "1\u0661"]


@pytest.mark.parametrize("vector", [*({"E11*1": c} for c in _NOT_ASCII), {"\uff11": "1"}],
                         ids=[*_NOT_ASCII, "index-key"])
def test_idempotent_scalars_and_indices_are_read_in_ascii_only(tmp_path, capsys, vector):
    path = tmp_path / "pi.json"
    path.write_text(json.dumps({"format": "ncg-idempotent/1", "vector": vector}))
    argv = ("chern", "--algebra", "mat", "--param", "m=2", "--u-trunc", "2",
            "--idempotent", str(path))
    _assert_refused(*run(capsys, *argv))
    path.write_text(json.dumps({"format": "ncg-idempotent/1",
                                "vector": {"E11*1": "+1", "1": "-0/-1"}}))
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("constant", _NOT_ASCII)
def test_algebra_file_structure_constants_are_read_in_ascii_only(tmp_path, capsys, constant):
    obj = algebra_to_json(builtin("dual_numbers"))
    obj["structure"][0][3] = constant
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(obj))
    _assert_refused(*run(capsys, "hh", "--algebra", str(path), "--n-max", "2"),
                    "bad scalar", repr(constant))


@pytest.mark.parametrize("q", ["1_0/3", "\uff12", " 2", "2/3 "])
def test_param_q_is_read_in_ascii_only(capsys, q):
    _assert_refused(*run(capsys, "hh", "--algebra", "quantum_plane", "--param", f"q={q}",
                         "--n-max", "2"), f"q={q}", "not an element of Q")
    assert run(capsys, "hh", "--algebra", "quantum_plane", "--param", "q=-2/+3",
               "--n-max", "2")[0] == 0


@pytest.mark.parametrize("m", ["\uff12", "1_0", " 2", "2 "])
def test_param_m_is_read_in_ascii_only(capsys, m):
    _assert_refused(*run(capsys, "hh", "--algebra", "mat", "--param", f"m={m}",
                         "--n-max", "2"), f"m={m}", "not an integer")
    assert run(capsys, "hh", "--algebra", "mat", "--param", "m=+2", "--n-max", "2")[0] == 0


# The integer options were read with argparse's type=int: --n-max 1_0 ran a
# window of 10, --n-max ２ one of 2 and --n-max " 3" one of 3, each
# exiting 0.  Each argv holds {} where its option's value goes.
_INT_OPTIONS = [
    ("hh", "--algebra", "dual_numbers", "--n-max", "{}"),
    ("hh", "--algebra", "dual_numbers", "--n-max", "2", "--w-min", "{}"),
    ("hh", "--algebra", "dual_numbers", "--n-max", "2", "--w-max", "{}"),
    ("hc", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "{}"),
    ("graded-pieces", "--dim-v", "{}", "--n", "2", "--field", "F2"),
    ("graded-pieces", "--dim-v", "2", "--n", "{}", "--field", "F2"),
    ("poisson", "jacobi", "--bivector", "so3", "--degree", "{}"),
    ("poisson", "conjugation", "--bivector", "so3", "--degree", "{}"),
    ("poisson", "homology", "--bivector", "so3", "--degree", "{}"),
    ("poisson", "star", "--nvars", "{}", "--degree", "2"),
    ("poisson", "star", "--nvars", "2", "--degree", "{}"),
]


@pytest.mark.parametrize("spelling", ["1_0", "２", " 3", "3 ", "1١"])
@pytest.mark.parametrize("argv", _INT_OPTIONS, ids=lambda argv: " ".join(argv))
def test_integer_options_are_read_in_ascii_only(capsys, argv, spelling):
    option = argv[argv.index("{}") - 1]
    with pytest.raises(SystemExit) as refused:
        main([spelling if a == "{}" else a for a in argv])
    assert refused.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {option}: invalid int value: {spelling!r}\n")
    args = cli.build_parser().parse_args(["+2" if a == "{}" else a for a in argv])
    assert getattr(args, option[2:].replace("-", "_")) == 2


@pytest.mark.parametrize("coeff", _NOT_ASCII)
def test_poisson_term_coefficients_are_read_in_ascii_only(capsys, coeff):
    f = json.dumps([{"exponents": [1, 0], "coeff": coeff}])
    _assert_refused(*run(capsys, "poisson", "bracket", "--bivector", "standard",
                         "--f", f, "--g", '[{"exponents": [0, 1], "coeff": "1"}]'),
                    "--f", "bad scalar")


# ---------------------------------------------------------------------------
# every command replays its cached report with its exit codes
# ---------------------------------------------------------------------------


def _leaf_commands(parser, prefix=()):
    """Every runnable command the parser defines, as its argv prefix."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [c for name, p in subs[0].choices.items() for c in _leaf_commands(p, prefix + (name,))]


_BROKEN = {"format": "ncg-algebra/1", "name": "x*x=x+1", "field": {"kind": "rationals"},
           "dim": 2, "unit_index": 0,
           "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 1, "1"],
                         [1, 1, 0, "1"], [1, 0, 0, "1"]]}

# argv after the command, and the exit codes without and with --strict
_REPLAY = {
    ("validate",): (("--algebra", "{broken}"), (2, 2)),
    ("hh",): (("--algebra", "dual_numbers", "--n-max", "3"), (0, 0)),
    ("hc",): (("--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2"), (0, 0)),
    ("hp",): (("--algebra", "truncated_poly", "--param", "m=3", "--n-max", "4",
               "--u-trunc", "2"), (0, 3)),
    ("filtration",): (("--algebra", "dual_numbers", "--n-max", "6", "--u-trunc", "3"), (0, 0)),
    ("degeneration",): (("--algebra", "mat", "--param", "m=2", "--n-max", "4",
                         "--u-trunc", "2"), (0, 0)),
    ("chern",): (("--algebra", "mat", "--param", "m=2", "--u-trunc", "2",
                  "--idempotent", "{idempotent}"), (0, 0)),
    ("ppower",): (("--algebra", "dual_numbers", "--field", "F2", "--lift", "eps"), (0, 0)),
    ("graded-pieces",): (("--dim-v", "2", "--n", "3", "--field", "F3"), (0, 0)),
    ("charp-compare",): (("--algebra", "truncated_poly", "--param", "m=3", "--field", "F3",
                          "--n-max", "4", "--u-trunc", "2"), (0, 0)),
    ("glue",): (("--algebra-a", "point", "--algebra-b", "dual_numbers"), (0, 0)),
    ("catalogue",): ((), (0, 0)),
    ("poisson", "bracket"): (("--bivector", "standard", "--f",
                              '[{"exponents": [1, 0], "coeff": "1"}]', "--g",
                              '[{"exponents": [0, 1], "coeff": "2/3"}]'), (0, 0)),
    ("poisson", "jacobi"): (("--bivector", "nonjacobi4", "--degree", "2"), (0, 2)),
    ("poisson", "lie"): (("--bivector", "xy", "--form",
                          '[{"exponents": [1, 0], "dxs": [1], "coeff": "1"}]'), (0, 0)),
    ("poisson", "conjugation"): (("--bivector", "so3", "--degree", "2"), (0, 0)),
    ("poisson", "star"): (("--nvars", "2", "--degree", "2"), (0, 0)),
    ("poisson", "homology"): (("--bivector", "standard", "--degree", "3"), (0, 0)),
}


@pytest.mark.parametrize("command", _leaf_commands(cli.build_parser()), ids="-".join)
def test_every_command_replays_with_its_exit_codes(tmp_path, capsys, monkeypatch, command):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(_BROKEN))
    idem = tmp_path / "pi.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1", "vector": {"E11*1": "1"}}))
    tail, codes = _REPLAY[command]
    files = {"{broken}": str(broken), "{idempotent}": str(idem)}
    argv = command + tuple(files.get(a, a) for a in tail)
    cache, fresh = str(tmp_path / "cache"), str(tmp_path / "fresh")
    computed = [run(capsys, *argv, "--cache-dir", cache)[:2],
                run(capsys, *argv, "--strict", "--cache-dir", fresh)[:2]]
    assert [code for code, _ in computed] == list(codes)
    assert len(list((tmp_path / "cache").glob("*.report"))) == 1

    def not_called(args, inputs):
        raise AssertionError("a cached report was computed again")

    name = "-".join(command)
    _, inputs, meta = cli._COMMANDS[name]
    monkeypatch.setitem(cli._COMMANDS, name, (not_called, inputs, meta))
    for strict, (code, out) in zip(((), ("--strict",)), computed):
        for cache_dir in (cache, fresh):
            assert run(capsys, *argv, *strict, "--cache-dir", cache_dir) == (code, out, "")


def test_entry_without_exit_codes_is_recomputed(tmp_path, capsys):
    # an entry whose first line is "ncg-cache/1 <key>" carries no exit codes:
    # like any other malformed entry it is computed again and rewritten
    cache = tmp_path / "cache"
    argv = ("hp", "--algebra", "truncated_poly", "--param", "m=3", "--n-max", "4",
            "--u-trunc", "2", "--strict", "--cache-dir", str(cache))
    code, out, _ = run(capsys, *argv)
    assert code == 3
    [entry] = cache.glob("*.report")
    key = entry.name.removesuffix(".report")
    head, body = entry.read_text().split("\n", 1)
    assert head == f"ncg-cache/2 {key} 0 3"
    entry.write_text(f"ncg-cache/1 {key}\n{body}")
    code2, out2, err = run(capsys, *argv)
    assert (code2, out2) == (3, out)
    assert "corrupted cache entry" in err
    assert entry.read_text().split("\n", 1)[0] == head


_PPOWER = ("ppower", "--algebra", "dual_numbers", "--field", "F2")

# pairs of commands that differ in one option that changes the report
_KEY_PAIRS = [
    (_PPOWER, _PPOWER + ("--lift", "eps")),
    (_PPOWER + ("--lift", "eps"), _PPOWER),
    (("hh", "--algebra", "dual_numbers", "--n-max", "3"),
     ("hh", "--algebra", "dual_numbers", "--n-max", "3", "--w-max", "1")),
    (("hh", "--algebra", "dual_numbers", "--n-max", "3"),
     ("hh", "--algebra", "dual_numbers", "--n-max", "3", "--field", "F2")),
    (("hh", "--algebra", "truncated_poly", "--param", "m=3", "--n-max", "3"),
     ("hh", "--algebra", "truncated_poly", "--param", "m=4", "--n-max", "3")),
    (("hc", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2"),
     ("hc", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "3")),
    (("graded-pieces", "--dim-v", "2", "--n", "3", "--field", "F3"),
     ("graded-pieces", "--dim-v", "2", "--n", "3", "--field", "F3", "--format", "csv")),
    (("glue", "--algebra-a", "point", "--algebra-b", "dual_numbers"),
     ("glue", "--algebra-a", "point", "--algebra-b", "dual_numbers", "--bimodule", "zero")),
    (("poisson", "jacobi", "--bivector", "nonjacobi4", "--degree", "2"),
     ("poisson", "jacobi", "--bivector", "nonjacobi4", "--degree", "3")),
    (("poisson", "star", "--nvars", "2", "--degree", "2"),
     ("poisson", "star", "--nvars", "2", "--degree", "2", "--form",
      '[{"exponents": [1, 0], "dxs": [1], "coeff": "1"}]')),
]


@pytest.mark.parametrize("first,second", _KEY_PAIRS, ids=lambda argv: " ".join(argv))
def test_options_that_change_the_report_change_the_key(tmp_path, capsys, first, second):
    # a cached report is never replayed for a command whose options differ
    cache = str(tmp_path / "cache")
    assert run(capsys, *first, "--cache-dir", cache)[0] == 0
    assert run(capsys, *second, "--cache-dir", cache) == run(capsys, *second)


def test_bad_lift_label_after_a_cached_run_is_refused(tmp_path, capsys):
    argv = _PPOWER + ("--cache-dir", str(tmp_path / "cache"))
    code, rep, _ = run_json(capsys, *argv)
    assert code == 0 and "lift" not in rep["result"]
    code, rep, _ = run_json(capsys, *argv, "--lift", "eps")
    assert code == 0 and "lift" in rep["result"]
    code, out, err = run(capsys, *argv, "--lift", "bogus")
    assert (code, out) == (2, "") and "unknown basis label" in err


def test_validate_reports_a_graded_unit_away_from_index_0(tmp_path, capsys):
    # the unit is basis vector 1, of weight 1 and odd: the file is rebased
    # by relabelling and validate reports both violations
    path = tmp_path / "unit1.json"
    path.write_text(json.dumps({
        "format": "ncg-algebra/1", "name": "shifted", "field": {"kind": "rationals"},
        "dim": 2, "unit_index": 1, "weight": [0, 1], "parity": [0, 1],
        "structure": [[1, 1, 1, "1"], [1, 0, 0, "1"], [0, 1, 0, "1"]]}))
    code, rep, err = run_json(capsys, "validate", "--algebra", str(path))
    assert (code, err) == (2, "")
    kinds = {v["kind"] for v in rep["result"]["violations"]}
    assert {"weight-unit", "parity-unit"} <= kinds


@pytest.mark.parametrize("u_trunc", ["0", "-1"])
def test_chern_refuses_a_non_positive_truncation(tmp_path, capsys, u_trunc):
    # it used to exit 0 and certify the empty chain as a nonzero cycle
    idem = tmp_path / "e11.json"
    idem.write_text(json.dumps({"format": "ncg-idempotent/1", "vector": {"E11*1": "1/1"}}))
    _assert_refused(*run(capsys, "chern", "--algebra", "mat", "--param", "m=2",
                         "--u-trunc", u_trunc, "--idempotent", str(idem)), "N >= 1")


@pytest.mark.parametrize("argv, words", [
    (("poisson", "star", "--nvars", "0", "--degree", "2"), ("positive and even",)),
    (("poisson", "star", "--nvars", "-2", "--degree", "2"), ("positive and even",)),
    (("hh", "--algebra", "poly_truncated", "--param", "vars=0", "--n-max", "2"),
     ("vars >= 1",)),
    (("hh", "--algebra", "poly_truncated", "--param", "max_weight=-1", "--n-max", "2"),
     ("max_weight >= 0",)),
    (("hh", "--algebra", "quantum_plane", "--param", "max_weight=-2", "--n-max", "2"),
     ("max_weight >= 0",)),
])
def test_non_positive_sizes_exit_2(capsys, argv, words):
    # these ended in a RecursionError or IndexError traceback
    _assert_refused(*run(capsys, *argv), *words)


# Every size out of range exits 2 with an error line.  The ungraded cyclic
# commands with --u-trunc 0 exited 0 with a "truncation 0" report, a
# negative --u-trunc on an ungraded algebra was an IndexError traceback, the
# identity checks passed vacuously on a negative degree, and the rest exited 1.
# A weight bound where nothing splits by weight was silently ignored, and an
# empty weight window was computed as if it held the data (hp reported a
# conclusive HP = (0, 0) for the dual numbers).  So was a --w-min above the
# weights a connected-graded cyclic command computes: hc reported zero free
# ranks and hp a conclusive HP = (0, 0) for weights it never reached.
@pytest.mark.parametrize("argv, words", [
    (("hc", "--algebra", "a2_path", "--n-max", "4", "--u-trunc", "0"), ("N=0",)),
    (("degeneration", "--algebra", "a2_path", "--n-max", "4", "--u-trunc", "0"), ("N=0",)),
    (("charp-compare", "--algebra", "a2_path", "--field", "F3", "--n-max", "4",
      "--u-trunc", "0"), ("N=0",)),
    (("hc", "--algebra", "a2_path", "--n-max", "4", "--u-trunc", "-2"), ("N=-2",)),
    (("hc", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "0"), ("N=0",)),
    (("hp", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "1"), ("N >= 2",)),
    (("filtration", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "1"),
     ("N >= 2",)),
    (("hp", "--algebra", "dual_numbers", "--field", "Q", "--n-max", "3", "--u-trunc", "3"),
     ("n_max >= 2N",)),
    (("hh", "--algebra", "dual_numbers", "--n-max", "-2"), ("--n-max -2", ">= 0")),
    (("hh", "--algebra", "dual_numbers", "--n-max", "-1"), ("--n-max -1", ">= 0")),
    (("graded-pieces", "--dim-v", "0", "--n", "2", "--field", "F3"), ("dimV >= 1",)),
    (("graded-pieces", "--dim-v", "2", "--n", "0", "--field", "F3"), ("n >= 1",)),
    (("poisson", "jacobi", "--bivector", "so3", "--degree", "-3"), ("degree bound -3",)),
    (("poisson", "conjugation", "--bivector", "so3", "--degree", "-3"),
     ("degree bound -3",)),
    (("poisson", "star", "--nvars", "2", "--degree", "-3"), ("degree bound -3",)),
    (("poisson", "homology", "--bivector", "standard", "--degree", "1"), ("guard band",)),
    (("hh", "--algebra", "group_z2", "--n-max", "2", "--w-min", "1", "--w-max", "1"),
     ("w_min=1, w_max=1", "no weights")),
    (("hc", "--algebra", "mat", "--n-max", "4", "--u-trunc", "2", "--w-min", "1",
      "--w-max", "1"), ("w_min=1, w_max=1", "not connected-graded")),
    (("hp", "--algebra", "dual_numbers", "--n-max", "6", "--u-trunc", "2", "--w-min", "3",
      "--w-max", "1", "--strict"), ("w_min=3 > w_max=1",)),
    (("hc", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2", "--w-min", "6"),
     ("w_min=6", "0..4")),
    (("hp", "--algebra", "dual_numbers", "--n-max", "6", "--u-trunc", "2", "--w-min", "9",
      "--strict"), ("w_min=9", "0..6")),
    # this one named w_min=0, a bound the command line did not set
    (("hc", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2", "--w-max", "-1"),
     ("w_max=-1", "below 0")),
    # hh stops at max_weight without --w-max, so a w_min above it selects nothing
    (("hh", "--algebra", "poly_truncated", "--n-max", "4", "--w-min", "5"),
     ("w_min=5", "top weight 4", "max_weight")),
], ids=["hc-ungraded-N0", "degeneration-ungraded-N0", "charp-compare-ungraded-N0",
        "hc-ungraded-N-2", "hc-graded-N0", "hp-N1", "filtration-N1", "hp-window-below-2N",
        "hh-n_max-2", "hh-n_max-1", "graded-pieces-dimV0", "graded-pieces-n0",
        "poisson-jacobi-degree-3", "poisson-conjugation-degree-3", "poisson-star-degree-3",
        "poisson-homology-below-guard", "hh-weight-bound-without-weights",
        "hc-weight-bound-not-connected-graded", "hp-empty-weight-window",
        "hc-w_min-above-computed-weights", "hp-w_min-above-computed-weights",
        "hc-w_max-below-0", "hh-w_min-above-max_weight"])
def test_out_of_range_sizes_exit_2(capsys, argv, words):
    _assert_refused(*run(capsys, *argv), *words)


def test_large_prime_field_is_decided_at_once(capsys):
    code, rep, _ = run_json(capsys, "hh", "--algebra", "point",
                            "--field", "F1000000000000000003", "--n-max", "1")
    assert code == 0 and rep["field"] == "F1000000000000000003"
    # 2^89 - 1 is prime, but above the bound where the test is exact
    _assert_refused(*run(capsys, "hh", "--algebra", "point", "--field",
                         f"F{2 ** 89 - 1}", "--n-max", "1"), "PRIME_LIMIT")


@pytest.mark.parametrize("label", ["F", "Fx", "F2.5", "F+3", "F 3", "F1_01", "F\u0663"])
def test_malformed_field_labels_exit_2(capsys, label):
    # int() of the text after "F" exited 2 with its own message on the
    # first three and read the others as F3, F101 and F3
    code, out, err = run(capsys, "hh", "--algebra", "dual_numbers", "--n-max", "1",
                         "--field", label)
    _assert_refused(code, out, err, f"unknown field {label!r}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("label, field", [("Q", "Q"), ("F2", "F2"), ("F101", "F101")])
def test_well_formed_field_labels(capsys, label, field):
    code, rep, _ = run_json(capsys, "hh", "--algebra", "dual_numbers", "--n-max", "1",
                            "--field", label)
    assert code == 0 and rep["field"] == field


# ---------------------------------------------------------------------------
# an entry named twice is refused, not silently overwritten
# ---------------------------------------------------------------------------


# e1 * e1 given as 1 and as -1: the last value used to win (e1^2 = -1, ok: true)
_TWICE_ALGEBRA = {"format": "ncg-algebra/1", "name": "twice", "field": {"kind": "rationals"},
                  "dim": 2, "unit_index": 0,
                  "structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                                [1, 1, 0, "1"], [1, 1, 0, "-1"]]}


def _poly(*terms):
    return [{"exponents": list(e), "coeff": c} for e, c in terms]


def _bivector(*polys):
    return {"format": "ncg-bivector/1", "nvars": 2,
            "components": [{"i": 0, "j": 1, "poly": p} for p in polys]}


_X, _Y = json.dumps(_poly(((1, 0), "1"))), json.dumps(_poly(((0, 1), "1")))

# the dual numbers with weight (0, 1), then (0, 2)
_DUAL_TWICE = ('{"format": "ncg-algebra/1", "name": "dual", "field": {"kind": "rationals"}, '
               '"dim": 2, "unit_index": 0, "weight": [0, 1], "weight": [0, 2], '
               '"structure": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]}')


@pytest.mark.parametrize("name, obj, argv, words", [
    ("twice.json", _TWICE_ALGEBRA, ("validate", "--algebra", "twice.json"),
     ("(1, 1, 0)", "given twice")),
    # the index 2 is E12*1: chern used the coefficient 3
    ("pi.json", {"format": "ncg-idempotent/1",
                 "vector": {"E11*1": "1", "E12*1": "1/2", "2": "3"}},
     ("chern", "--algebra", "mat", "--u-trunc", "2", "--idempotent", "pi.json"),
     ("'E12*1' and '2' both name basis element E12*1",)),
    # xy, then 1: the bracket of x and y was 1
    ("alpha.json", _bivector(_poly(((1, 1), "1")), _poly(((0, 0), "1"))),
     ("poisson", "bracket", "--bivector", "alpha.json", "--f", _X, "--g", _Y),
     ("component (0,1) is given twice",)),
    # a JSON key named twice in one object: json kept the last value
    ("dual.json", _DUAL_TWICE,
     ("hh", "--algebra", "dual.json", "--n-max", "2"), ("'weight' is given twice",)),
    # chern used the coefficient 3/1 for E12*1
    ("pi.json", '{"format": "ncg-idempotent/1", '
                '"vector": {"E11*1": "1", "E12*1": "1/2", "E12*1": "3"}}',
     ("chern", "--algebra", "mat", "--u-trunc", "1", "--idempotent", "pi.json"),
     ("'E12*1' is given twice",)),
    # the bracket was scaled by 1/2
    ("alpha.json", '{"format": "ncg-bivector/1", "nvars": 2, "hbar": "1", "hbar": "1/2", '
                   '"components": [{"i": 0, "j": 1, '
                   '"poly": [{"exponents": [0, 0], "coeff": "1"}]}]}',
     ("poisson", "bracket", "--bivector", "alpha.json", "--f", _X, "--g", _Y),
     ("'hbar' is given twice",)),
], ids=["algebra-structure-constant", "idempotent-label-and-index", "bivector-component",
        "algebra-json-key", "idempotent-json-key", "bivector-json-key"])
def test_an_entry_named_twice_exits_2(tmp_path, capsys, monkeypatch, name, obj, argv, words):
    monkeypatch.chdir(tmp_path)
    Path(name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    code, out, err = run(capsys, *argv)
    _assert_refused(code, out, err, name, *words)
    assert err.count("\n") == 1, err


def test_a_key_named_twice_in_an_inline_polynomial_exits_2(capsys):
    twice = '[{"exponents": [1, 0], "coeff": "1", "coeff": "2"}]'
    _assert_refused(*run(capsys, "poisson", "bracket", "--bivector", "standard",
                         "--f", twice, "--g", _Y), "--f", "'coeff' is given twice")


@pytest.mark.parametrize("argv", [
    # hh reported mat(3): the last value won
    ("hh", "--algebra", "mat", "--param", "m=2", "--param", "m=3", "--n-max", "1"),
    ("hh", "--algebra", "mat", "--param", "m=2", "--param", "m=2", "--n-max", "1"),
    ("glue", "--algebra-a", "mat", "--algebra-b", "point", "--param", "m=2",
     "--param", "m=3"),
], ids=["hh-two-values", "hh-one-value-twice", "glue"])
def test_a_param_key_named_twice_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    _assert_refused(code, out, err, "--param key 'm' is given twice")
    assert err.count("\n") == 1, err


def test_like_terms_of_one_polynomial_are_still_summed(tmp_path, capsys):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(_bivector(_poly(((1, 1), "1"), ((1, 1), "1/2")))))
    code, rep, _ = run_json(capsys, "poisson", "bracket", "--bivector", str(path),
                            "--f", _X, "--g", _Y)
    assert code == 0 and rep["result"]["bracket"] == _poly(((1, 1), "3/2"))


# ---------------------------------------------------------------------------
# a report that cannot be written exits 1 with one error line
# ---------------------------------------------------------------------------


def test_unwritable_output_exits_1(tmp_path, capsys):
    cache = tmp_path / "cache"
    out = tmp_path / "missing" / "report.json"
    code, stdout, err = run(capsys, "catalogue", "--cache-dir", str(cache), "--output", str(out))
    assert code == 1 and not stdout
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not list(cache.iterdir())  # no entry and no .tmp file
    # a replay of a cached report takes the same path
    assert run(capsys, "catalogue", "--cache-dir", str(cache))[0] == 0
    entries = sorted(cache.iterdir())
    assert len(entries) == 1
    assert run(capsys, "catalogue", "--cache-dir", str(cache), "--output", str(out)) \
        == (1, "", err)
    assert sorted(cache.iterdir()) == entries


@pytest.mark.parametrize("argv", [
    ("catalogue",),
    # about 290 KB: the pipe breaks while the report is rendered
    ("chern", "--algebra", "mat", "--u-trunc", "5", "--idempotent", "pi.json"),
], ids=["flush", "render"])
def test_closed_stdout_exits_1(tmp_path, argv):
    (tmp_path / "pi.json").write_text(json.dumps(
        {"format": "ncg-idempotent/1", "vector": {"E11*1": "1", "E12*1": "-3/2"}}))
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails
    try:
        proc = subprocess.run([sys.executable, "-m", "nchodge.cli", *argv,
                               "--cache-dir", "cache"], cwd=tmp_path, env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"
    assert not list((tmp_path / "cache").iterdir())


# ---------------------------------------------------------------------------
# the command line, a fresh process, does what in-process `main` does
# ---------------------------------------------------------------------------


# every exit code, every format, --output, a cache write and its replay,
# --version and argparse's refusals; run in this order in one directory
_ENTRY_COMMANDS = [
    ("hh", "--algebra", "dual_numbers", "--n-max", "3"),
    ("hc", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2", "--format", "csv"),
    ("poisson", "homology", "--bivector", "so3", "--degree", "4", "--format", "markdown"),
    ("hh", "--algebra", "missing.json", "--n-max", "2"),
    ("poisson", "jacobi", "--bivector", "nonjacobi4", "--degree", "2", "--strict"),
    ("hp", "--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2", "--strict"),
    ("hh", "--algebra", "mat", "--n-max", "2", "--output", "report.json"),
    ("hh", "--algebra", "dual_numbers", "--n-max", "3", "--cache-dir", "cache"),
    ("hh", "--algebra", "dual_numbers", "--n-max", "3", "--cache-dir", "cache"),
    ("--version",),
    ("hh", "--algebra", "dual_numbers"),
    ("hh", "--algebra", "dual_numbers", "--n-max", "1_0"),
]


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_command_line_matches_main_in_process(tmp_path, capsys, monkeypatch):
    # argparse wraps its usage lines at the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("NCHODGE_CACHE_DIR", raising=False)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    fresh, in_process = tmp_path / "fresh", tmp_path / "in-process"
    fresh.mkdir()
    in_process.mkdir()
    monkeypatch.chdir(in_process)
    codes = set()
    for argv in _ENTRY_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "nchodge.cli", *argv], cwd=fresh, env=env,
                              capture_output=True, timeout=120)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (proc.stdout, proc.stderr.decode(), proc.returncode) == (out.encode(), err, code)
        codes.add(code)
    assert codes == {0, 1, 2, 3}
    files = _files(fresh)
    assert files == _files(in_process)
    assert "report.json" in files and len(files) == 2  # the report and one cache entry


# ---------------------------------------------------------------------------
# every csv row is two fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["dual_numbers", "poly_truncated", "quantum_plane"])
def test_csv_rows_are_two_fields(capsys, name):
    code, out, _ = run(capsys, "hh", "--algebra", name, "--n-max", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    for key, value in rows[1:]:
        json.loads(value)
    assert "result.per_n_weight.0,0" in {key for key, _ in rows}


# ---------------------------------------------------------------------------
# exact integers past the interpreter's 4300-digit int/str conversion cap
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _no_digit_cap():
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def test_chern_writes_coefficients_of_any_length(tmp_path, capsys):
    # a 901-digit entry gives chain coefficients of about 4500 digits; the
    # report could not be written (exit 1)
    from nchodge.kchern import Idempotent, chern_idempotent
    big = 10 ** 900
    digits = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *_chern_argv(tmp_path, 2, 3,
                                              {"E11*1": "1/1", "E12*1": f"{big}/1"}))
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == digits
    A = builtin("mat", m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    chain = chern_idempotent(Idempotent(A, {labels["E11*1"]: 1, labels["E12*1"]: big}), 3)
    with _no_digit_cap():
        expected = json.loads(json.dumps(cli._chain_json(A, chain, 3), default=_expand_terms))
    assert json.loads(out)["result"]["components"] == expected
    assert max(len(t["coeff"]) for c in expected for t in c["terms"]) > 4300


def test_a_json_integer_of_any_length_is_read_exactly(tmp_path, capsys, monkeypatch):
    from nchodge.poisson import builtin_bivector, poisson_bracket
    big = (10 ** 5000 - 1) // 9  # 5000 ones
    with _no_digit_cap():
        coeff = str(big)
        f = f'[{{"exponents": [1, 0, 0], "coeff": {coeff}}}]'
        expected = cli._poly_json(poisson_bracket({(1, 0, 0): big}, {(0, 1, 0): 1},
                                                  builtin_bivector("so3")))
    code, out, err = run(capsys, "poisson", "bracket", "--bivector", "so3", "--f", f,
                         "--g", '[{"exponents": [0, 1, 0], "coeff": 1}]')
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["bracket"] == expected
    # an algebra file whose p has 5000 digits is read, and refused by its
    # size in one short line that does not spell p
    obj = algebra_to_json(builtin("point", GF(2)))
    monkeypatch.chdir(tmp_path)
    Path("big-p.json").write_text(json.dumps(obj).replace('"p": 2', f'"p": {coeff}'))
    code, out, err = run(capsys, "hh", "--algebra", "big-p.json", "--n-max", "1")
    _assert_refused(code, out, err, "big-p.json: field: p has 5000 digits", "PRIME_LIMIT")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_a_field_label_longer_than_prime_limit_is_refused_by_its_length(capsys):
    code, out, err = run(capsys, "hh", "--algebra", "dual_numbers", "--n-max", "1",
                         "--field", "F" + "1" * 5000)
    _assert_refused(code, out, err, "PRIME_LIMIT", "5000 digits")
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("field", ["Q", "F2"])
def test_an_unknown_lift_label_exits_2_on_every_field(capsys, field):
    # over Q the label was looked up only after ppower_on_hh0 had refused
    # the field (exit 3)
    code, out, err = run(capsys, "ppower", "--algebra", "dual_numbers", "--field", field,
                         "--lift", "nope")
    _assert_refused(code, out, err, "unknown basis label 'nope'")


@pytest.mark.parametrize("field, code", [("Q", 3), ("F2", 0)])
def test_a_known_lift_label_runs_as_before(capsys, field, code):
    got, out, err = run(capsys, "ppower", "--algebra", "dual_numbers", "--field", field,
                        "--lift", "eps")
    assert got == code
    if code:
        assert not out and err == "error: ppower_on_hh0 requires a prime field\n"
    else:
        assert json.loads(out)["result"]["lift"][1]["terms"]


# ---------------------------------------------------------------------------
# every exit code the README documents for a command is reached
# ---------------------------------------------------------------------------

# a report that cannot be written
_NO_DIR = ("--output", "missing/report.json")
_DUAL_HC = ("--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "2")
_FORM_XY = '[{"exponents": [1, 0], "dxs": [1], "coeff": "1"}]'

# command -> {exit code: argv after the command that exits with it}; the
# files are written by the test, and absent.json is not
_EXIT_CODES = {
    ("validate",): {0: ("--algebra", "dual_numbers"), 1: ("--algebra", "absent.json"),
                    2: ("--algebra", "broken.json")},
    # a negative window, and a catalogue algebra of more basis elements than
    # algebra.MAX_CATALOGUE_DIM
    ("hh",): {0: ("--algebra", "dual_numbers", "--n-max", "2"),
              1: ("--algebra", "dual_numbers", "--n-max", "2", *_NO_DIR),
              2: [("--algebra", "dual_numbers", "--n-max", "-1"),
                  ("--algebra", "mat", "--param", "m=11", "--n-max", "2")]},
    ("hc",): {0: _DUAL_HC, 1: (*_DUAL_HC, *_NO_DIR),
              2: ("--algebra", "dual_numbers", "--n-max", "3", "--u-trunc", "2")},
    # the verdict of truncated_poly m=3 at n_max 4, N 2 is inconclusive
    ("hp",): {0: ("--algebra", "truncated_poly", "--param", "m=3", "--n-max", "4",
                  "--u-trunc", "2"),
              1: (*_DUAL_HC, *_NO_DIR), 2: ("--algebra", "dual_numbers", "--n-max", "4",
                                            "--u-trunc", "1"),
              3: ("--algebra", "truncated_poly", "--param", "m=3", "--n-max", "4",
                  "--u-trunc", "2", "--strict")},
    ("filtration",): {0: ("--algebra", "dual_numbers", "--n-max", "6", "--u-trunc", "3"),
                      1: ("--algebra", "dual_numbers", "--n-max", "6", "--u-trunc", "3",
                          *_NO_DIR),
                      2: ("--algebra", "dual_numbers", "--n-max", "4", "--u-trunc", "1"),
                      3: ("--algebra", "truncated_poly", "--param", "m=3", "--n-max", "4",
                          "--u-trunc", "2")},
    # finite torsion under --strict still exits 0: degeneration never exits 3
    ("degeneration",): {0: ("--algebra", "dual_numbers", "--n-max", "8", "--u-trunc", "3",
                            "--strict"),
                        1: (*_DUAL_HC, *_NO_DIR),
                        2: ("--algebra", "dual_numbers", "--n-max", "3", "--u-trunc", "2")},
    # an element that is not idempotent, and a chain of more certificate
    # terms than kchern.MAX_CHAIN_TERMS
    ("chern",): {0: ("--algebra", "mat", "--u-trunc", "2", "--idempotent", "pi.json"),
                 1: ("--algebra", "mat", "--u-trunc", "2", "--idempotent", "absent.json"),
                 2: [("--algebra", "mat", "--u-trunc", "2", "--idempotent", "not-pi.json"),
                     ("--algebra", "mat", "--u-trunc", "131", "--idempotent", "pi.json")],
                 3: ("--algebra", "mat", "--field", "F3", "--u-trunc", "2",
                     "--idempotent", "pi.json")},
    ("ppower",): {0: ("--algebra", "dual_numbers", "--field", "F2"),
                  1: ("--algebra", "dual_numbers", "--field", "F2", *_NO_DIR),
                  2: ("--algebra", "dual_numbers", "--field", "F2", "--lift", "nope"),
                  3: ("--algebra", "dual_numbers", "--field", "Q")},
    # an empty V, and more rotation terms than cyclic.MAX_ROTATION_TERMS
    ("graded-pieces",): {0: ("--dim-v", "2", "--n", "3", "--field", "F3"),
                         1: ("--dim-v", "2", "--n", "3", "--field", "F3", *_NO_DIR),
                         2: [("--dim-v", "0", "--n", "3", "--field", "F3"),
                             ("--dim-v", "3", "--n", "12", "--field", "F3")]},
    # the d-only and (d + uB) free ranks of the dual numbers disagree at N = 1
    ("charp-compare",): {0: ("--algebra", "truncated_poly", "--param", "m=3", "--field", "F3",
                             "--n-max", "4", "--u-trunc", "2"),
                         1: ("--field", "F2", *_DUAL_HC, *_NO_DIR),
                         2: ("--algebra", "dual_numbers", "--field", "F2", "--n-max", "2",
                             "--u-trunc", "1"),
                         3: _DUAL_HC},
    ("glue",): {0: ("--algebra-a", "point", "--algebra-b", "dual_numbers"),
                1: ("--algebra-a", "absent.json", "--algebra-b", "dual_numbers"),
                2: ("--algebra-a", "group_z2", "--algebra-b", "point")},
    ("catalogue",): {0: (), 1: _NO_DIR},
    ("poisson", "bracket"): {0: ("--bivector", "standard",
                                 "--f", '[{"exponents": [1, 0], "coeff": "1"}]',
                                 "--g", '[{"exponents": [0, 1], "coeff": "1"}]'),
                             1: ("--bivector", "absent.json", "--f", "[]", "--g", "[]"),
                             2: ("--bivector", "standard", "--f", "[", "--g", "[]")},
    # a failed identity under --strict, and a bivector on more variables
    # than poisson.MAX_NVARS
    ("poisson", "jacobi"): {0: ("--bivector", "nonjacobi4", "--degree", "2"),
                            1: ("--bivector", "so3", *_NO_DIR),
                            2: [("--bivector", "nonjacobi4", "--degree", "2", "--strict"),
                                ("--bivector", "wide.json", "--degree", "2")]},
    ("poisson", "lie"): {0: ("--bivector", "xy", "--form", _FORM_XY),
                         1: ("--bivector", "xy", "--form", _FORM_XY, *_NO_DIR),
                         2: ("--bivector", "so3", "--form", _FORM_XY)},
    # a failed identity under --strict, and a bivector on more variables
    # than poisson.MAX_NVARS
    ("poisson", "conjugation"): {0: ("--bivector", "so3", "--degree", "2"),
                                 1: ("--bivector", "so3", "--degree", "2", *_NO_DIR),
                                 2: [("--bivector", "nonjacobi4", "--degree", "2", "--strict"),
                                     ("--bivector", "wide.json", "--degree", "2")]},
    # an odd --nvars, and one above poisson.MAX_NVARS
    ("poisson", "star"): {0: ("--nvars", "2", "--degree", "2"),
                          1: ("--nvars", "2", "--degree", "2", *_NO_DIR),
                          2: [("--nvars", "3", "--degree", "2"),
                              ("--nvars", "14", "--degree", "0")]},
    # a bivector that is not Poisson, and a complex of more basis forms than
    # poisson.MAX_HOMOLOGY_FORMS
    ("poisson", "homology"): {0: ("--bivector", "standard", "--degree", "3"),
                              1: ("--bivector", "standard", "--degree", "3", *_NO_DIR),
                              2: [("--bivector", "nonjacobi4", "--degree", "3"),
                                  ("--bivector", "so3", "--degree", "25")]},
}


def test_the_exit_code_table_names_every_command():
    assert sorted(_EXIT_CODES) == sorted(_leaf_commands(cli.build_parser()))
    assert all(0 in codes and 1 in codes for codes in _EXIT_CODES.values())
    assert 3 not in _EXIT_CODES[("degeneration",)]


@pytest.mark.parametrize("command, code", [(command, code) for command, codes
                                           in _EXIT_CODES.items() for code in codes],
                         ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_every_documented_exit_code_is_reached(tmp_path, capsys, monkeypatch, command, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text(json.dumps(_BROKEN))
    (tmp_path / "pi.json").write_text(json.dumps(
        {"format": "ncg-idempotent/1", "vector": {"E11*1": "1"}}))
    (tmp_path / "not-pi.json").write_text(json.dumps(
        {"format": "ncg-idempotent/1", "vector": {"E12*1": "1"}}))
    (tmp_path / "wide.json").write_text(json.dumps(
        {"format": "ncg-bivector/1", "nvars": MAX_NVARS + 1, "components": []}))
    argvs = _EXIT_CODES[command][code]
    # a code reached by more than one documented refusal lists each argv
    for argv in argvs if isinstance(argvs, list) else [argvs]:
        got, out, err = run(capsys, *command, *argv)
        assert got == code, err
        assert "Traceback" not in err
        if code == 1 or (code == 3 and "--strict" not in argv):
            # a refusal: nothing is written, and one error line says why
            assert not out and err.startswith("error: ") and err.count("\n") == 1, err


def test_a_broken_staircase_profile_exits_1(tmp_path, capsys, monkeypatch):
    # every u-shift rank 10 too large: the filtration dims of an ungraded
    # algebra then belong to no k[u]/u^N-module, which is a fault, not a verdict
    from nchodge import cyclic
    true_rank = cyclic.rank_of_columns
    monkeypatch.setattr(cyclic, "rank_of_columns",
                        lambda columns, field: true_rank(columns, field) + 10)
    report, cache = tmp_path / "report.json", tmp_path / "cache"
    code, out, err = run(capsys, "hc", "--algebra", "a2_path", "--n-max", "6", "--u-trunc", "3",
                         "--output", str(report), "--cache-dir", str(cache))
    assert code == 1 and not out
    assert err.startswith("error: inconsistent filtration dims") and err.count("\n") == 1
    assert not report.exists() and not list(cache.glob("*"))


def _run_capped(cwd, argv):
    """Run `main(argv)` in cwd, in a child whose address space is capped at
    1 GB: a size refused too late ends there in a MemoryError, where
    unbounded it would take the machine's memory."""
    src = Path(__file__).resolve().parent.parent / "src"
    cap = 1 << 30
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
            "from nchodge.cli import main; "
            f"sys.exit(main({list(argv)!r}))")
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)


def test_a_dim_beyond_the_structure_entries_is_refused_before_any_allocation(tmp_path):
    # a unit needs d entries 1 * e_i = e_i; this file declares 10^8 basis
    # elements and lists one entry.  It is run only in a child whose address
    # space is capped, as building anything of size dim would exhaust memory.
    obj = algebra_to_json(builtin("point")) | {"dim": 100_000_000}
    (tmp_path / "huge.json").write_text(json.dumps(obj))
    proc = _run_capped(tmp_path, ["hh", "--algebra", "huge.json", "--n-max", "1"])
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: huge.json: algebra: dim 100000000 but only 1 ")


# refusals that reach no other test: argv, then the start of the error line
_REFUSALS = {
    "param-without-value": (("hh", "--algebra", "mat", "--param", "m", "--n-max", "2"),
                            "error: --param needs key=value"),
    "glue-unknown-part": (("glue", "--algebra-a", "foo", "--algebra-b", "point",
                           "--param", "m=2"), "error: --param m must be a parameter of "
                                              "exactly one glued part: --algebra-a foo is "
                                              "not a catalogue algebra"),
    "invalid-json": (("hh", "--algebra", "invalid.json", "--n-max", "1"),
                     "error: invalid.json: invalid JSON at line 1, column 12"),
    "prime-field-third-key": (("hh", "--algebra", "field-key.json", "--n-max", "1"),
                              "error: field-key.json: field: prime-field needs exactly "
                              "'kind' and 'p'"),
    "form-dxs-out-of-order": (("poisson", "lie", "--bivector", "standard", "--form",
                               '[{"exponents": [0, 0], "dxs": [1, 0], "coeff": "1"}]'),
                              "error: --form: bad dx index set [1, 0]"),
}


@pytest.mark.parametrize("name", _REFUSALS)
def test_a_refusal_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "invalid.json").write_text('{"format": }')
    field_key = algebra_to_json(builtin("point", GF(2)))
    field_key["field"]["extra"] = 1
    (tmp_path / "field-key.json").write_text(json.dumps(field_key))
    argv, start = _REFUSALS[name]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith(start) and err.count("\n") == 1, err
    assert "Traceback" not in err


# a symplectic dimension and a bivector on 10^9 variables, and a homology
# cutoff of degree 10^9
_HUGE = {"format": "ncg-bivector/1", "nvars": 1_000_000_000, "components": []}
_HUGE_BIVECTOR = "error: bivector on 1000000000 variables exceeds MAX_NVARS = 12\n"
_POISSON_SIZES = {
    "star": (["poisson", "star", "--nvars", "1000000000", "--degree", "0"],
             "error: symplectic dimension 1000000000 exceeds MAX_NVARS = 12\n"),
    "jacobi": (["poisson", "jacobi", "--bivector", "huge.json", "--degree", "0"],
               _HUGE_BIVECTOR),
    "conjugation": (["poisson", "conjugation", "--bivector", "huge.json", "--degree", "0"],
                    _HUGE_BIVECTOR),
    # the Jacobi precondition refuses the bivector before the complex is sized
    "homology-nvars": (["poisson", "homology", "--bivector", "huge.json", "--degree", "2"],
                       _HUGE_BIVECTOR),
    "homology": (["poisson", "homology", "--bivector", "so3", "--degree", "1000000000"],
                 "error: homology to total degree 1000000000 in 3 variables needs more "
                 "than MAX_HOMOLOGY_FORMS = 20000 basis forms\n")}


@pytest.mark.parametrize("sub", _POISSON_SIZES)
def test_a_poisson_size_beyond_its_bound_is_refused_before_any_allocation(tmp_path, sub):
    # exp(B) has 2^nvars terms and ConstantSymplectic lists nvars/2 pairs,
    # the jacobi and conjugation checks walk C(nvars, 3) coordinate triples,
    # and the homology complex holds every form of total degree <= D: each
    # is refused by its size first.  It is run only in a child whose address
    # space is capped, as building anything of that size would exhaust memory.
    argv, message = _POISSON_SIZES[sub]
    (tmp_path / "huge.json").write_text(json.dumps(_HUGE))
    proc = _run_capped(tmp_path, argv)
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr and proc.stderr == message


def test_graded_pieces_beyond_its_bound_are_refused_before_any_allocation(tmp_path):
    # V^(x)12 of a 3-dimensional V has 531 441 words, 12 rotations each; it
    # is run only in a capped child, as building them would exhaust memory
    proc = _run_capped(tmp_path, ["graded-pieces", "--dim-v", "3", "--n", "12",
                                  "--field", "F2"])
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == ("error: graded pieces of dimV = 3, n = 12 need more than "
                           "MAX_ROTATION_TERMS = 100000 rotation terms\n")


# a Chern chain and catalogue algebras beyond their bounds
_BUILD_SIZES = {
    "chern": (["chern", "--algebra", "mat", "--param", "m=3", "--u-trunc", "9",
               "--idempotent", "pi3.json"],
              "error: the Chern chain to u^9 needs more than MAX_CHAIN_TERMS = 3000000 "
              "certificate terms\n"),
    # the unit: every component past u^0 is empty, and N alone is counted
    "chern-unit": (["chern", "--algebra", "mat", "--u-trunc", "1000000000",
                    "--idempotent", "unit.json"],
                   "error: the Chern chain to u^1000000000 needs more than "
                   "MAX_CHAIN_TERMS = 3000000 certificate terms\n"),
    "mat": (["hh", "--algebra", "mat", "--param", "m=1000000000", "--n-max", "1"],
            "error: mat: catalogue algebra mat with m=1000000000 has more than "
            "MAX_CATALOGUE_DIM = 100 basis elements\n"),
    "poly_truncated": (["hh", "--algebra", "poly_truncated", "--param", "vars=1000000000",
                        "--param", "max_weight=1000000000", "--n-max", "1"],
                       "error: poly_truncated: catalogue algebra poly_truncated with "
                       "vars=1000000000, max_weight=1000000000 has more than "
                       "MAX_CATALOGUE_DIM = 100 basis elements\n"),
    "poly_truncated-vars": (["hh", "--algebra", "poly_truncated", "--param", "vars=1000000000",
                             "--param", "max_weight=0", "--n-max", "1"],
                            "error: poly_truncated: poly_truncated needs vars <= "
                            "MAX_CATALOGUE_DIM = 100, got vars=1000000000\n")}


@pytest.mark.parametrize("sub", _BUILD_SIZES)
def test_a_chain_or_catalogue_size_beyond_its_bound_is_refused_before_any_allocation(
        tmp_path, sub):
    # the chain's terms and the catalogue algebra's basis are counted from
    # the input before anything is built: expanded, a Chern chain of Mat_3 to
    # u^9 or a catalogue algebra of that size would exhaust memory, and the
    # unit's 10^9 empty components or 10^9 exponents per monomial would run
    # for hours, so they run only in a child whose address space is capped
    argv, message = _BUILD_SIZES[sub]
    (tmp_path / "pi3.json").write_text(json.dumps(
        {"format": "ncg-idempotent/1", "vector": {"E11*1": "1", "E12*1": "1", "E13*1": "1"}}))
    (tmp_path / "unit.json").write_text(json.dumps(
        {"format": "ncg-idempotent/1", "vector": {"1": "1"}}))
    proc = _run_capped(tmp_path, argv)
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr and proc.stderr == message


@pytest.mark.parametrize("strict, code", [(True, 2), (False, 0)])
def test_a_failed_star_identity_exits_2_under_strict(capsys, monkeypatch, strict, code):
    # star puts its check under "identity"; only a fault can fail it
    failed = {"pass": False, "witness": None}
    monkeypatch.setattr(cli, "star_identity_check", lambda nvars: failed)
    argv = ("poisson", "star", "--nvars", "2", "--degree", "1", *(("--strict",) * strict))
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert json.loads(out)["result"]["identity"] == failed
