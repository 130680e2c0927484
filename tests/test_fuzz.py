"""Seeded fuzz of the inputs, in process through `main()`.

Valid ncg-algebra/1, ncg-idempotent/1 and ncg-bivector/1 objects are
mutated by type, by length and by index, written to a file and run.  Every
case must exit 0, or exit 1 or 2 with an `error:` line (or, from validate,
exit 2 with the report of a well-formed algebra's violations); no exception
may escape `main`.  An algebra file that `hh` accepts must also pass
`validate`.

The integer options (--u-trunc, --n-max, --degree, --nvars and the
catalogue sizes vars=, m=, max_weight=) are set to small values, -3 to 3:
every case must exit 0, or exit 2 with an `error:` line, since a size out
of range is an invalid input.
"""

import copy
import json
import random

import pytest

from nchodge.algebra import algebra_to_json, builtin
from nchodge.cli import main
from nchodge.fields import GF

SEED = 20261018

# values of every JSON type, small enough that no mutant asks for a large
# computation (a dimension or variable count of 7 at most)
_VALUES = [None, True, False, 0, 1, -1, 7, 1.5, "", "x", "1/0", "2/3", [], [1], {},
           {"a": 1}]


def _nodes(obj, path=()):
    """(path, value) for every value inside obj, obj itself included."""
    yield path, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _nodes(v, path + (i,))


def _replace(obj, path, value):
    if not path:
        return value
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return obj


def mutate(obj, rng: random.Random):
    """obj with one value changed: its type, its length (a list or object
    loses, repeats or gains an entry) or, for an integer, its value as an
    index (out of range, negative, one off)."""
    obj = copy.deepcopy(obj)
    path, value = rng.choice(list(_nodes(obj)))
    kind = rng.choice(("type", "length", "index"))
    if kind == "length" and isinstance(value, list):
        op = rng.randrange(4)
        if op == 0 and value:
            value.pop(rng.randrange(len(value)))
        elif op == 1 and value:
            value.append(copy.deepcopy(rng.choice(value)))
        elif op == 2:
            value.append(copy.deepcopy(rng.choice(_VALUES)))
        else:
            value.clear()
        return obj
    if kind == "length" and isinstance(value, dict):
        if value and rng.random() < 0.6:
            del value[rng.choice(list(value))]
        else:
            value[rng.choice(["extra", "i", "poly", "1", "E11*1"])] = rng.choice(_VALUES)
        return obj
    if kind == "index" and type(value) is int:
        return _replace(obj, path, rng.choice([-1, value - 1, value + 1, value + 3, 0, 5]))
    return _replace(obj, path, copy.deepcopy(rng.choice(_VALUES)))


def _run(capsys, argv, mutant):
    try:
        code = main(list(argv))
    except BaseException as exc:  # noqa: BLE001 - any escape is the failure
        pytest.fail(f"{argv[0]} raised {exc!r} on {json.dumps(mutant)}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv[0], code, mutant)
    assert "Traceback" not in err
    if code and not err.startswith("error: "):
        # validate reports the violations of a well-formed file
        assert argv[0] == "validate" and code == 2, (argv[0], code, err, mutant)
        assert json.loads(out)["result"]["ok"] is False
    return code


_ALGEBRAS = [algebra_to_json(a) for a in (
    builtin("dual_numbers"), builtin("truncated_poly", m=3), builtin("mat", m=2),
    builtin("clifford1"), builtin("a2_path"), builtin("group_z2", GF(3)))] + [
    # the dual numbers with the unit stored at index 1
    {"format": "ncg-algebra/1", "name": "eps-first", "field": {"kind": "rationals"},
     "dim": 2, "unit_index": 1, "weight": [1, 0], "parity": [0, 0],
     "structure": [[1, 1, 1, "1"], [1, 0, 0, "1"], [0, 1, 0, "1"]]}]

_IDEMPOTENT = {"format": "ncg-idempotent/1", "vector": {"E11*1": "1/1", "E12*1": "2/3"}}

_BIVECTOR = {"format": "ncg-bivector/1", "nvars": 3, "hbar": "1/2", "name": "so3-like",
             "components": [{"i": 0, "j": 1, "poly": [{"exponents": [0, 0, 1], "coeff": "1"}]},
                            {"i": 1, "j": 2, "poly": [{"exponents": [1, 0, 0], "coeff": 1}]}]}


def _mutants(seed_obj, rng, count):
    for _ in range(count):
        mutant = mutate(seed_obj, rng)
        if rng.random() < 0.3:
            mutant = mutate(mutant, rng)
        yield mutant


def test_fuzz_algebra_files(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "algebra.json"
    for seed_obj in _ALGEBRAS:
        for mutant in _mutants(seed_obj, rng, 50):
            path.write_text(json.dumps(mutant))
            valid = _run(capsys, ("validate", "--algebra", str(path)), mutant)
            computed = _run(capsys, ("hh", "--algebra", str(path), "--n-max", "2"), mutant)
            assert computed != 0 or valid == 0, mutant


def test_fuzz_idempotent_files(tmp_path, capsys):
    rng = random.Random(SEED + 1)
    path = tmp_path / "idempotent.json"
    for mutant in _mutants(_IDEMPOTENT, rng, 150):
        path.write_text(json.dumps(mutant))
        _run(capsys, ("chern", "--algebra", "mat", "--param", "m=2", "--u-trunc", "2",
                      "--idempotent", str(path)), mutant)


def test_fuzz_bivector_files(tmp_path, capsys):
    rng = random.Random(SEED + 2)
    path = tmp_path / "bivector.json"
    for mutant in _mutants(_BIVECTOR, rng, 200):
        path.write_text(json.dumps(mutant))
        _run(capsys, ("poisson", "jacobi", "--bivector", str(path), "--degree", "2"), mutant)


# Commands whose integer slots the fuzz sets; {idempotent} is a file path.
# At the values -3..3 every one of them finishes in well under a second.
_INT_COMMANDS = [
    ("chern --algebra mat --param m={m} --u-trunc {u_trunc} --idempotent {idempotent}",
     {"m": 2, "u_trunc": 2}),
    ("hc --algebra truncated_poly --param m={m} --n-max {n_max} --u-trunc {u_trunc}",
     {"m": 2, "n_max": 3, "u_trunc": 1}),
    ("hp --algebra quantum_plane --param max_weight={max_weight} --n-max {n_max} "
     "--u-trunc {u_trunc}", {"max_weight": 2, "n_max": 3, "u_trunc": 2}),
    ("hh --algebra poly_truncated --param vars={vars} --param max_weight={max_weight} "
     "--n-max {n_max}", {"vars": 1, "max_weight": 2, "n_max": 2}),
    ("poisson star --nvars {nvars} --degree {degree}", {"nvars": 2, "degree": 1}),
    ("poisson jacobi --bivector so3 --degree {degree}", {"degree": 2}),
    ("poisson conjugation --bivector so3 --degree {degree}", {"degree": 2}),
    ("poisson homology --bivector standard --degree {degree}", {"degree": 3}),
    ("degeneration --algebra a2_path --n-max {n_max} --u-trunc {u_trunc}",
     {"n_max": 4, "u_trunc": 2}),
]


def _int_cases(rng):
    """Each slot alone at every value in -3..3, then seeded draws that set
    every slot of a command at once."""
    for template, base in _INT_COMMANDS:
        for slot in base:
            for value in range(-3, 4):
                yield template, {**base, slot: value}
        for _ in range(8):
            yield template, {slot: rng.randint(-3, 3) for slot in base}


def test_fuzz_integer_options(tmp_path, capsys):
    rng = random.Random(SEED + 3)
    idempotent = tmp_path / "e11.json"
    idempotent.write_text(json.dumps({"format": "ncg-idempotent/1",
                                      "vector": {"E11*1": "1/1"}}))
    for template, values in _int_cases(rng):
        argv = template.format(idempotent=idempotent, **values).split()
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{argv} raised {exc!r}")
        _, err = capsys.readouterr()
        assert code in (0, 2), (argv, code)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: "), (argv, code, err)
