import json

import pytest

from nchodge.algebra import (CATALOGUE, AlgebraError, SchemaError,
                             algebra_from_json, algebra_to_json, builtin, glue,
                             matrix_algebra, opposite, trivial_bimodule,
                             validate, validate_bimodule, zero_bimodule)
from nchodge.fields import GF, QQ


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


def test_invalid_structure_rejected():
    A = builtin("dual_numbers")
    # break associativity-relevant data: eps * eps = eps
    bad = dict(A.structure)
    bad[(1, 1)] = {1: A.field.one()}
    from dataclasses import replace
    B = replace(A, structure=bad)
    report = validate(B)
    assert not report.ok
    assert report.violations[0].witness is not None


def test_validate_reports_out_of_range_indices_of_a_graded_spec():
    # the weight and parity checks skip what index-bounds already reports
    from dataclasses import replace
    A = builtin("truncated_poly", m=3)
    structure = {**A.structure, (1, 1): {7: A.field.one()}}
    report = validate(replace(A, structure=structure, parity=(0, 0, 0)))
    assert [v.kind for v in report.violations if v.kind != "associativity"] == ["index-bounds"]


def test_glue_and_bimodules():
    P = builtin("point")
    for mk in (trivial_bimodule, zero_bimodule):
        M = mk(P, P)
        assert validate_bimodule(M).ok
        G = glue(P, P, M)
        assert validate(G).ok
    assert glue(P, P, trivial_bimodule(P, P)).dim == 3  # upper triangular 2x2
    assert glue(P, P, zero_bimodule(P, P)).dim == 2     # k x k


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
