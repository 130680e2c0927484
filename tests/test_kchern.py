import pytest

from nchodge.algebra import builtin, glue, zero_bimodule
from nchodge.cyclic import UnsupportedError
from nchodge.fields import GF, QQ
from nchodge.kchern import (ContractError, Idempotent,
                            chern_idempotent, cycle_certificate,
                            lift_difference_is_boundary, ppower_lift,
                            ppower_lift_p2, ppower_on_hh0, u0_class_nonzero)


def _mat2_e11():
    A = builtin("mat", QQ, m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    return A, Idempotent(A, {labels["E11*1"]: A.field.one()})


def test_idempotent_validation():
    A = builtin("mat", QQ, m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    with pytest.raises(ContractError):
        Idempotent(A, {labels["E12*1"]: A.field.one()})  # nilpotent, not idempotent


def test_chern_e11_is_cycle():
    A, pi = _mat2_e11()
    chain = chern_idempotent(pi, 3)
    cert = cycle_certificate(chain)
    assert cert["is_cycle"]
    assert u0_class_nonzero(chain)


def test_chern_product_projector():
    # pi = (1, 0) in k x k
    A = glue(builtin("point"), builtin("point"),
             zero_bimodule(builtin("point"), builtin("point")))
    vec = None
    for i in range(A.dim):
        v = {i: A.field.one()}
        sq = A.mul_vec(v, v)
        if sq == v and i != 0:
            vec = v
            break
    assert vec is not None, [A.label(i) for i in range(A.dim)]
    chain = chern_idempotent(Idempotent(A, vec), 3)
    assert cycle_certificate(chain)["is_cycle"]
    assert u0_class_nonzero(chain)


def test_chern_small_char_unsupported():
    A = builtin("mat", GF(2), m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    with pytest.raises(UnsupportedError):
        chern_idempotent(Idempotent(A, {labels["E11*1"]: A.field.one()}), 3)


def test_ppower_on_hh0_certificates():
    for A in (builtin("mat", GF(2), m=2),
              builtin("truncated_poly", GF(3), m=3),
              builtin("a2_path", GF(2))):
        rep = ppower_on_hh0(A)
        assert rep["well_defined"], A.name
        assert rep["additive"], A.name
        assert rep["hh0_rank"] == rep["hh0_rank_direct"]


def test_ppower_requires_prime_field():
    with pytest.raises(UnsupportedError):
        ppower_on_hh0(builtin("dual_numbers"))


def test_ppower_lift_p2_eps():
    A = builtin("dual_numbers", GF(2))
    chain = ppower_lift_p2(A, {1: A.field.one()})
    assert cycle_certificate(chain)["is_cycle"]
    # eps^2 = 0, so the u^0 part vanishes and the u^1 part is 1 (x) eps (x) eps
    assert chain.components[0] == {}
    assert chain.components[1] == {(0, 1, 1): A.field.one()}


def test_ppower_lift_all_basis_mat2_f2():
    A = builtin("mat", GF(2), m=2)
    for i in range(A.dim):
        chain = ppower_lift_p2(A, {i: A.field.one()})
        assert cycle_certificate(chain)["is_cycle"], A.label(i)


def test_lift_additivity_is_boundary():
    A = builtin("mat", GF(2), m=2)
    one = A.field.one()
    assert lift_difference_is_boundary(A, {1: one}, {2: one})


def test_ppower_lift_p3_not_implemented():
    A = builtin("truncated_poly", GF(3), m=3)
    with pytest.raises(NotImplementedError):
        ppower_lift(A, {1: A.field.one()}, 3)


def test_clifford1_unit_is_a_commutator():
    # [xi, xi] = 2 xi^2 = 2 . 1 in the super sense, so the unit's class in
    # HH_0 of clifford1 over Q vanishes; xi spans HH_0
    from nchodge.kchern import UChain
    A = builtin("clifford1", QQ)
    one = A.field.one()
    assert not u0_class_nonzero(UChain(A, 1, [{(0,): one}]))
    assert u0_class_nonzero(UChain(A, 1, [{(1,): one}]))


def test_ppower_clifford1_f3_uses_super_commutators():
    rep = ppower_on_hh0(builtin("clifford1", GF(3)))
    assert rep["hh0_rank"] == rep["hh0_rank_direct"] == 1
    assert rep["representatives"] == [1]
    assert rep["matrix"] == {0: {0: 1}}  # xi^3 = xi


def test_ppower_representative_coordinates():
    # commutative: [A, A] = 0, every basis element is a representative
    rep = ppower_on_hh0(builtin("dual_numbers", GF(2)))
    assert rep["representatives"] == [0, 1]
    assert rep["matrix"] == {0: {0: 1, 1: 0}, 1: {0: 0, 1: 0}}
    rep = ppower_on_hh0(builtin("truncated_poly", GF(3), m=3))
    assert rep["representatives"] == [0, 1, 2]
    assert rep["matrix"] == {0: {0: 1, 1: 0, 2: 0}, 1: {0: 0, 1: 0, 2: 0},
                             2: {0: 0, 1: 0, 2: 0}}


def test_solve_in_span_through_commutators():
    # Mat2 over F3: A/[A,A] is the trace, and trace(1) = 2, so
    # E11 = 2 . 1 mod [A, A]
    from nchodge.hochschild import commutator_columns
    from nchodge.sparse import solve_in_span
    A = builtin("mat", GF(3), m=2)
    comm = commutator_columns(A)
    sol = solve_in_span(comm + [{0: 1}], {1: 1}, A.field)
    assert sol[len(comm)] == 2
    assert solve_in_span(comm, {0: 1}, A.field) is None
