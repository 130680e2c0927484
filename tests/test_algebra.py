import hashlib
import inspect
import json
import random

import pytest

from nchodge.algebra import (CATALOGUE, MAX_CATALOGUE_DIM, AlgebraError, AlgebraSpec,
                             BimoduleSpec, SchemaError, _DIMENSION, algebra_from_json, algebra_to_json, builtin, glue,
                             matrix_algebra, opposite, trivial_bimodule,
                             validate, zero_bimodule)
from nchodge.fields import GF, QQ
from nchodge.hochschild import DegreeWindow, hh_ranks
from test_block_layout import _super_mat11


def _catalogue_specimens(field=QQ):
    out = []
    for name in CATALOGUE:
        params = {}
        if name == "quantum_plane":
            params = {"q": "1" if field.characteristic == 2 else "2",
                      "max_weight": 2}
        elif name == "poly_truncated":
            params = {"vars": 2, "max_weight": 2}
        out.append(builtin(name, field, **params))
    return out


def test_catalogue_validates_over_q_and_fp():
    for field in (QQ, GF(2), GF(3)):
        for A in _catalogue_specimens(field):
            assert validate(A).ok, A.name


def test_unit_is_basis_zero():
    for A in _catalogue_specimens():
        assert A.mul_basis(0, 0) == {0: A.field.one()}
        for i in range(A.dim):
            assert A.mul_basis(0, i) == {i: A.field.one()}
            assert A.mul_basis(i, 0) == {i: A.field.one()}


def test_dual_numbers_structure():
    A = builtin("dual_numbers")
    assert A.dim == 2
    assert A.mul_basis(1, 1) == {}  # eps^2 = 0


def test_clifford1_is_super():
    A = builtin("clifford1")
    assert A.parity is not None and A.parity[1] == 1
    assert A.mul_basis(1, 1) == {0: A.field.one()}  # xi^2 = 1


def test_matrix_algebra_and_opposite():
    A = builtin("mat", QQ, m=2)
    assert A.dim == 4
    assert validate(A).ok
    assert validate(opposite(A)).ok
    M2dual = matrix_algebra(builtin("dual_numbers"), 2)
    assert M2dual.dim == 8
    assert validate(M2dual).ok


def test_opposite_of_a_super_algebra():
    # in Mat(1|1) (basis 1, E11, E12, E21; E12 and E21 odd) E12 E21 = E11,
    # so E21 . E12 = -E11 in the opposite: the Koszul sign of two odd factors
    A = _super_mat11(QQ)
    op = opposite(A)
    assert validate(op).ok
    assert A.mul_basis(2, 3) == {1: 1} and op.mul_basis(3, 2) == {1: -1}
    assert op.mul_basis(2, 1) == A.mul_basis(1, 2) == {2: 1}  # E11 is even: no sign
    window = DegreeWindow(4)
    assert hh_ranks(op, window) == hh_ranks(A, window)


def test_invalid_structure_rejected():
    A = builtin("dual_numbers")
    # break associativity-relevant data: eps * eps = eps
    bad = dict(A.structure)
    bad[(1, 1)] = {1: A.field.one()}
    B = AlgebraSpec(A.name, A.field, A.dim, bad, A.weight, A.parity, A.max_weight,
                    A.basis_labels)
    report = validate(B)
    assert not report.ok
    assert report.violations[0].witness is not None


def test_validate_reports_out_of_range_indices_of_a_graded_spec():
    # the weight and parity checks skip what index-bounds already reports
    A = builtin("truncated_poly", m=3)
    structure = {**A.structure, (1, 1): {7: A.field.one()}}
    report = validate(AlgebraSpec(A.name, A.field, A.dim, structure, A.weight, (0, 0, 0),
                                  A.max_weight, A.basis_labels))
    assert [v.kind for v in report.violations if v.kind != "associativity"] == ["index-bounds"]


def test_glue_and_bimodules():
    P = builtin("point")
    for mk in (trivial_bimodule, zero_bimodule):
        G = glue(P, P, mk(P, P))
        assert validate(G).ok
    assert glue(P, P, trivial_bimodule(P, P)).dim == 3  # upper triangular 2x2
    assert glue(P, P, zero_bimodule(P, P)).dim == 2     # k x k


def test_glue_of_a_bad_bimodule_fails_validation():
    # the glued algebra's own axioms check the bimodule's: actions that do
    # not commute break associativity, and a unit acting as 0 breaks the unit
    D = builtin("dual_numbers")
    one = D.field.one()
    # x . m1 = m0 and m0 . x = m1: (x . m1) . x = m1, but x . (m1 . x) = 0
    M = BimoduleSpec(D, D, 2, {(0, 0): {0: one}, (0, 1): {1: one}, (1, 1): {0: one}},
                     {(0, 0): {0: one}, (1, 0): {1: one}, (0, 1): {1: one}})
    kinds = {v.kind for v in validate(glue(D, D, M)).violations}
    assert "associativity" in kinds
    P = builtin("point")
    M = trivial_bimodule(P, P)
    M.left_action = {}
    kinds = {v.kind for v in validate(glue(P, P, M)).violations}
    assert "unit" in kinds


def test_json_round_trip():
    for A in _catalogue_specimens() + _catalogue_specimens(GF(3)):
        obj = algebra_to_json(A)
        text = json.dumps(obj, sort_keys=True)
        back = algebra_from_json(json.loads(text))
        assert algebra_to_json(back) == obj


def test_json_strict_schema():
    obj = algebra_to_json(builtin("dual_numbers"))
    obj["surprise"] = 1
    with pytest.raises(SchemaError):
        algebra_from_json(obj)
    obj2 = algebra_to_json(builtin("dual_numbers"))
    del obj2["dim"]
    with pytest.raises(SchemaError):
        algebra_from_json(obj2)


def test_unknown_catalogue_name():
    with pytest.raises(AlgebraError):
        builtin("nope")


# sha256 of algebra_to_json (sort_keys) of every catalogue entry over Q, F2
# and F3, with its defaults and the parameters the tests use, recorded
# before the catalogue became one table; the entries from
# "truncated_poly,m=1" to "mat,m=1" were recorded before one builder made the
# monomial entries (first 16 hex digits; None where q vanishes in the field,
# as q = 2 does in F2, and the refusal's message where q is no element of it)
_NOT_IN_F3 = "parameter q=1/3 is not an element of F3 (denominator of 1/3 vanishes mod 3)"
_CATALOGUE_DIGESTS = {
    "point": ("d25ada3825fc5f7d", "40cddb7e0be46e71", "c4a9e88c56979b22"),
    "dual_numbers": ("cfbaf991c69cc669", "5b5aede5a236b5a6", "3e1810ec1a521144"),
    "truncated_poly": ("9be9b89ba8cf7d38", "5524cb93daabf9bd", "bc4963a503895a0b"),
    "truncated_poly,m=3": ("9be9b89ba8cf7d38", "5524cb93daabf9bd", "bc4963a503895a0b"),
    "poly_truncated": ("a9bec55a082ee87e", "b1bf64f923bce915", "4d1676c1d1839434"),
    "poly_truncated,vars=2,max_weight=2": ("481b20edfb2c79b3", "320d2125ded4cf2c",
                                           "f6a719496086c931"),
    "poly_truncated,vars=1,max_weight=5": ("16b6e6c8f14f61e8", "46121b1088d19ce1",
                                           "f125fefb5c75183e"),
    "poly_truncated,vars=3,max_weight=5": ("c83620d203585eda", "51be1c257881e67b",
                                           "4a9122e404586754"),
    "quantum_plane": ("97f6007e858c4ab4", None, "eb282c833042dfc0"),
    "quantum_plane,max_weight=2": ("e591e1bcd4b8d784", None, "f2bd7da50923ad66"),
    "quantum_plane,q=1,max_weight=2": ("29c0be6a85bd6a78", "8ef84c8467ac6449",
                                       "6c7142b8f54639bb"),
    "quantum_plane,q=2,max_weight=2": ("e591e1bcd4b8d784", None, "f2bd7da50923ad66"),
    "truncated_poly,m=1": ("4d9ba60fa2ccbf5d", "5ff01359a390ae0a", "9f435046e836ef05"),
    "truncated_poly,m=2": ("af7e54fb69cebbb4", "216292e26130f8e8", "6b40752b0c96822e"),
    "poly_truncated,vars=2,max_weight=0": ("25e7e08d8e512a9b", "8b737e39c97f0fb3",
                                           "8d0a7e80022ae7ac"),
    "quantum_plane,q=-1,max_weight=0": ("c4d634eeb94a2e4e", "20cf1323d7e9a6b2",
                                        "e04e39659f25838c"),
    "quantum_plane,q=-1,max_weight=3": ("cd5f2080520a06c0", "0a5df429f586a3ba",
                                        "0df43ae679e26454"),
    "quantum_plane,q=1/3,max_weight=0": ("0d157db8ac1dd12d", "20cf1323d7e9a6b2",
                                         _NOT_IN_F3),
    "quantum_plane,q=1/3,max_weight=3": ("bcddc9b0e562a476", "0a5df429f586a3ba",
                                         _NOT_IN_F3),
    "mat,m=1": ("650a667a14d19ad1", "c4ed0c6bd47efb37", "d1b1476690fbb0ed"),
    "mat": ("eb0a16d4ff5223db", "6f690a4962ed8923", "2d278833ab168e4b"),
    "mat,m=2": ("eb0a16d4ff5223db", "6f690a4962ed8923", "2d278833ab168e4b"),
    "mat,m=3": ("f38a3e068fd84ef4", "3fae5cf7cdd00f3f", "573dcc1d7bf052bb"),
    "group_z2": ("3f44332764c0bf02", "00a0054de24cd0df", "ef62609e9178ad33"),
    "clifford1": ("5db43c1587608363", "5efd16d54c2f9de0", "d34ea623a294f378"),
    "a2_path": ("efd42868cb293522", "8ab982e00aa02073", "c6294bc9bf2b3948"),
}


def _built(spec):
    """(field, digest, algebra) of every field of _CATALOGUE_DIGESTS[spec]
    whose build succeeds; a refused build must raise the recorded refusal."""
    name, *pairs = spec.split(",")
    params = {k: v if k == "q" else int(v) for k, v in (pair.split("=") for pair in pairs)}
    for field, digest in zip((QQ, GF(2), GF(3)), _CATALOGUE_DIGESTS[spec]):
        if digest is None or " " in digest:
            with pytest.raises(AlgebraError) as refusal:
                builtin(name, field, **params)
            assert str(refusal.value) == (digest or "q must be nonzero"), (spec, str(field))
            continue
        yield field, digest, builtin(name, field, **params)


@pytest.mark.parametrize("spec", _CATALOGUE_DIGESTS)
def test_catalogue_entries_keep_their_bytes(spec):
    for field, digest, A in _built(spec):
        text = json.dumps(algebra_to_json(A), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (spec, str(field))


# sha256 of the JSON list of basis labels (first 16 hex digits), which
# algebra_to_json does not hold but `chern` and `ppower` reports print;
# recorded before one builder made the monomial entries
_LABEL_DIGESTS = {
    "point": "43de3a417d75f481",
    "dual_numbers": "ef86e958d270cee4",
    "truncated_poly": "b2effdba4e70329b",
    "truncated_poly,m=3": "b2effdba4e70329b",
    "poly_truncated": "e6aadbe2f877d285",
    "poly_truncated,vars=2,max_weight=2": "37c5f289f3c0696a",
    "poly_truncated,vars=1,max_weight=5": "a647d93bdc3344d1",
    "poly_truncated,vars=3,max_weight=5": "24ce8b0a0547d7b0",
    "quantum_plane": "3bf5957e49918a2b",
    "quantum_plane,max_weight=2": "06ddfae7ecb61969",
    "quantum_plane,q=1,max_weight=2": "06ddfae7ecb61969",
    "quantum_plane,q=2,max_weight=2": "06ddfae7ecb61969",
    "truncated_poly,m=1": "43de3a417d75f481",
    "truncated_poly,m=2": "be442da178ea997b",
    "poly_truncated,vars=2,max_weight=0": "43de3a417d75f481",
    "quantum_plane,q=-1,max_weight=0": "43de3a417d75f481",
    "quantum_plane,q=-1,max_weight=3": "2d98a314ff6c333a",
    "quantum_plane,q=1/3,max_weight=0": "43de3a417d75f481",
    "quantum_plane,q=1/3,max_weight=3": "2d98a314ff6c333a",
    "mat,m=1": "43de3a417d75f481",
    "mat": "b53479e78cde5df1",
    "mat,m=2": "b53479e78cde5df1",
    "mat,m=3": "d2e0cf38955c3f3d",
    "group_z2": "c435c1146ab77e37",
    "clifford1": "0880c022864f3911",
    "a2_path": "9d9ee935a3b177b2",
}


@pytest.mark.parametrize("spec", _CATALOGUE_DIGESTS)
def test_catalogue_entries_keep_their_labels(spec):
    for field, _, A in _built(spec):
        text = json.dumps(list(A.basis_labels))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == _LABEL_DIGESTS[spec], (
            spec, str(field))


def test_catalogue_builders_take_the_table_parameters():
    # builtin calls builder(field, *values) in the table's parameter order
    assert list(CATALOGUE) == ["point", "dual_numbers", "truncated_poly", "poly_truncated",
                               "quantum_plane", "mat", "group_z2", "clifford1", "a2_path"]
    for name, (build, takes) in CATALOGUE.items():
        names = list(inspect.signature(build).parameters)
        assert names == ["field", *takes], name


def test_catalogue_dimension_is_counted_before_the_build():
    # the count from the parameters is each built entry's dimension, at
    # every parameter value up to the bound, and one past it is refused by
    # that count, before the entry's builder runs
    sizes = {"truncated_poly": [{"m": m} for m in (1, 2, 7, 30)],
             "poly_truncated": [{"vars": v, "max_weight": w} for v in (1, 2, 3, 4)
                                for w in range(0, 6)] + [{"vars": 100, "max_weight": 0}],
             "quantum_plane": [{"max_weight": w} for w in (0, 1, 5, 8)],
             "mat": [{"m": m} for m in (1, 2, 5)]}
    assert sorted(sizes) == sorted(_DIMENSION)
    for name, params in sizes.items():
        build, takes = CATALOGUE[name]
        for given in params:
            values = [given.get(key, default) for key, default in takes.items()]
            if _DIMENSION[name](*values) <= MAX_CATALOGUE_DIM:
                assert builtin(name, QQ, **given).dim == _DIMENSION[name](*values), given
    assert all(builtin(name, QQ).dim <= 3 for name in CATALOGUE if name not in _DIMENSION)
    # the largest admitted entries (built in the digest grid)
    assert _DIMENSION["mat"](10) == _DIMENSION["truncated_poly"](100) == MAX_CATALOGUE_DIM
    assert _DIMENSION["poly_truncated"](2, 12) == _DIMENSION["quantum_plane"](2, 12) == 91
    huge = 10 ** 9
    for name, given in (("mat", {"m": 11}), ("mat", {"m": huge}),
                        ("truncated_poly", {"m": 101}), ("truncated_poly", {"m": huge}),
                        ("poly_truncated", {"vars": 2, "max_weight": 13}),
                        ("poly_truncated", {"vars": huge, "max_weight": huge}),
                        ("poly_truncated", {"vars": 1, "max_weight": huge}),
                        ("quantum_plane", {"max_weight": 13}),
                        ("quantum_plane", {"max_weight": huge})):
        with pytest.raises(AlgebraError, match=f"more than MAX_CATALOGUE_DIM = "
                                               f"{MAX_CATALOGUE_DIM} basis elements"):
            builtin(name, QQ, **given)
    # at max_weight 0 the dimension is 1, but each monomial has vars entries
    with pytest.raises(AlgebraError, match="vars <= MAX_CATALOGUE_DIM"):
        builtin("poly_truncated", QQ, vars=huge, max_weight=0)
    # a parameter that the entry refuses keeps its own message
    with pytest.raises(AlgebraError, match="matrix size must be >= 1"):
        builtin("mat", QQ, m=-20)
    with pytest.raises(AlgebraError, match=r"parameter m=2\.5 is not an integer"):
        builtin("mat", QQ, m=2.5)


def _full_associativity(spec):
    """Associativity witnesses of the full d^3 loop: every triple (i, j, k),
    in order, none skipped."""
    one = spec.field.one()
    out = []
    for i in range(spec.dim):
        for j in range(spec.dim):
            for k in range(spec.dim):
                lhs = spec.mul_vec(spec.mul_basis(i, j), {k: one})
                rhs = spec.mul_vec({i: one}, spec.mul_basis(j, k))
                if lhs != rhs:
                    out.append((i, j, k))
    return out


def _associativity_witnesses(spec):
    return [v.witness for v in validate(spec).violations if v.kind == "associativity"]


def _catalogue_entries():
    for spec in _CATALOGUE_DIGESTS:
        yield from (A for _, _, A in _built(spec))


def _broken_specs():
    """The invalid structures of this file and of test_fuzz, and more."""
    from test_fuzz import _ALGEBRAS, mutate

    D, P, T = builtin("dual_numbers"), builtin("point"), builtin("truncated_poly", m=3)
    one = D.field.one()
    yield AlgebraSpec("eps^2=eps", D.field, 2, {**D.structure, (1, 1): {1: one}}, D.weight)
    yield AlgebraSpec("target 7", T.field, 3, {**T.structure, (1, 1): {7: one}}, T.weight,
                      (0, 0, 0))
    yield AlgebraSpec("key (5, 0)", D.field, 2, {**D.structure, (5, 0): {1: one}})
    yield AlgebraSpec("stored zero", D.field, 2, {**D.structure, (1, 1): {0: 0, 1: 0}})
    M = BimoduleSpec(D, D, 2, {(0, 0): {0: one}, (0, 1): {1: one}, (1, 1): {0: one}},
                     {(0, 0): {0: one}, (1, 0): {1: one}, (0, 1): {1: one}})
    yield glue(D, D, M)
    M = trivial_bimodule(P, P)
    M.left_action = {}
    yield glue(P, P, M)
    mat = builtin("mat", QQ, m=2)
    doubled = {k: 2 * c for k, c in mat.structure[(1, 2)].items()}
    yield AlgebraSpec("mat(2), E11*E12 doubled", QQ, 4, {**mat.structure, (1, 2): doubled})
    yield from (builtin(name, GF(3)) for name in ("group_z2", "clifford1", "mat"))
    yield matrix_algebra(D, 2)
    yield opposite(mat)
    rng = random.Random(20261018)
    for obj in _ALGEBRAS:
        yield algebra_from_json(obj)
        for _ in range(40):
            try:
                yield algebra_from_json(mutate(obj, rng))
            except (SchemaError, TypeError, ValueError, KeyError, IndexError):
                pass
    for F in (QQ, GF(2), GF(3)):
        for d in (2, 3, 4):
            # unit law by hand, random constants (mostly non-associative)
            structure = {(0, i): {i: 1} for i in range(d)}
            structure.update({(i, 0): {i: 1} for i in range(1, d)})
            for i in range(1, d):
                for j in range(1, d):
                    comps = {k: F.from_int(rng.randint(-1, 2)) for k in range(d)
                             if rng.random() < 0.4}
                    comps = {k: c for k, c in comps.items() if c}
                    if comps:
                        structure[(i, j)] = comps
            yield AlgebraSpec(f"random{d}", F, d, structure)


def test_skipped_associativity_triples_change_no_violation():
    # validate skips (i, j, k) when neither e_i e_j nor e_j e_k is stored:
    # the witnesses, order included, are those of the full loop
    specs = list(_catalogue_entries()) + list(_broken_specs())
    broken = 0
    for spec in specs:
        expected = _full_associativity(spec)
        assert _associativity_witnesses(spec) == expected, spec.name
        broken += bool(expected)
    assert broken >= 20


def test_matrix_algebra_refuses_a_unit_of_nonzero_weight_or_odd_parity():
    one = QQ.one()
    for weight, parity, message in (((1,), None, "unit support must sit in weight 0"),
                                    (None, (1,), "unit support must be even")):
        A = AlgebraSpec("p", QQ, 1, {(0, 0): {0: one}}, weight, parity)
        with pytest.raises(AlgebraError, match=message):
            matrix_algebra(A, 2)


def test_glue_refuses_parts_over_different_fields_and_a_wrong_bimodule():
    D, D3, P = builtin("dual_numbers"), builtin("dual_numbers", GF(3)), builtin("point")
    with pytest.raises(AlgebraError, match="field mismatch in glue"):
        glue(D, D3, zero_bimodule(D3, D))
    # a P-D-bimodule where glue(D, D) needs a D-D-bimodule
    with pytest.raises(AlgebraError, match="bimodule must be a B-A-bimodule"):
        glue(D, D, zero_bimodule(P, D))


def test_validate_reports_a_weight_or_parity_table_of_the_wrong_length():
    D = builtin("dual_numbers")
    for weight, parity, kind in (((0, 1, 2), None, "weight-table"),
                                 (None, (0,), "parity-table")):
        report = validate(AlgebraSpec(D.name, D.field, D.dim, D.structure, weight, parity))
        assert [(v.kind, v.detail) for v in report.violations] == [(kind, "wrong length")]


def test_glue_drops_a_structure_key_outside_its_part():
    # the dual numbers plus key (5, 0) of `_broken_specs`, glued to mat(2):
    # the key is no product of the part, and the gluing is that of the
    # dual numbers alone
    D, mat = builtin("dual_numbers"), builtin("mat", m=2)
    keyed = AlgebraSpec("key (5, 0)", D.field, 2, {**D.structure, (5, 0): {1: D.field.one()}})
    plain = AlgebraSpec("key (5, 0)", D.field, 2, dict(D.structure))
    got, expected = (glue(A, mat, zero_bimodule(mat, A)) for A in (keyed, plain))
    assert list(got.structure.items()) == list(expected.structure.items())
    assert validate(got).ok
