import random
from fractions import Fraction

import pytest

from nchodge import kchern, oracle
from nchodge.algebra import CATALOGUE, builtin, glue, zero_bimodule
from nchodge.cyclic import UnsupportedError
from nchodge.fields import GF, QQ, linear_combination
from nchodge.hochschild import ChainComplex, hh0_direct
from nchodge.kchern import (ContractError, Idempotent, UChain, _tensor_words,
                            chern_idempotent, cycle_certificate,
                            lift_difference_is_boundary, ppower_lift_p2, ppower_on_hh0, u0_class_nonzero)
from test_block_layout import _exterior, _super_mat11
from test_relative_complex import CASES, _catalogue_entry


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


def test_lift_difference_that_is_not_a_boundary(monkeypatch):
    # adding the unit word to the u^0 part of lift(a + b) changes the
    # difference by a (d + uB)-cycle that no chain bounds: d(C_1) = 0 in a
    # commutative algebra, and nothing else of D reaches u^0
    A = builtin("dual_numbers", GF(2))
    a, b = {1: 1}, {0: 1}
    assert lift_difference_is_boundary(A, a, b)
    original = kchern.ppower_lift_p2

    def lift_with_unit(A, x):
        chain = original(A, x)
        if x == {0: 1, 1: 1}:
            chain.components[0] = linear_combination(
                ((1, chain.components[0]), (1, {(0,): 1})), A.field)
        return chain

    monkeypatch.setattr(kchern, "ppower_lift_p2", lift_with_unit)
    assert cycle_certificate(kchern.ppower_lift_p2(A, {0: 1, 1: 1}))["is_cycle"]
    assert not lift_difference_is_boundary(A, a, b)


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
    from nchodge.sparse import Echelon
    A = builtin("mat", GF(3), m=2)
    echelon = Echelon(A.field)
    rank = sum(echelon.add(c) for c in commutator_columns(A))
    assert rank == 3
    assert echelon.add({0: 1})  # 1 is not in [A, A]
    rest, coords = echelon.reduce({1: 1})
    assert not rest and coords[rank] == 2


def _fraction_residue(chain):
    """(d + uB) applied to the chain in Fraction arithmetic only."""
    cx = ChainComplex(chain.algebra)
    out = []
    for t in range(chain.N):
        acc = {}
        terms = [(cx.boundary_word(w), c) for w, c in chain.components[t].items()
                 if len(w) >= 2]
        if t >= 1:
            terms += [(cx.connes_word(w), c) for w, c in chain.components[t - 1].items()]
        for image, c in terms:
            for target, v in image.items():
                acc[target] = acc.get(target, Fraction(0)) + Fraction(c) * Fraction(v)
        out.append({w: v for w, v in acc.items() if v != 0})
    return out


def test_certificate_of_broken_chain_with_fractional_coefficients():
    A = builtin("mat", QQ, m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    pi = Idempotent(A, {labels["E11*1"]: 1, labels["E12*1"]: Fraction(2, 3)})
    chain = chern_idempotent(pi, 3)
    assert any(isinstance(c, Fraction) and c.denominator != 1
               for comp in chain.components for c in comp.values())
    # break the u^1 component: rescale it by 3/7 and add a stray term
    broken = [dict(comp) for comp in chain.components]
    broken[1] = {w: c * Fraction(3, 7) for w, c in broken[1].items()}
    stray = (labels["E21*1"], labels["E12*1"], labels["E11*1"])
    broken[1][stray] = broken[1].get(stray, 0) + Fraction(-5, 11)
    cert = cycle_certificate(UChain(A, 3, broken))
    assert not cert["is_cycle"]
    assert cert["residue"] == _fraction_residue(UChain(A, 3, broken))
    assert not any(isinstance(v, float) for acc in cert["residue"] for v in acc.values())
    # the intact chain certifies, and its residue is empty in every component
    assert cycle_certificate(chain)["residue"] == [{}, {}, {}]


def _fraction_tensor_words(factors, scale):
    """scale * (x) factors expanded word by word in Fraction arithmetic."""
    words = {(): Fraction(scale)}
    for vec in factors:
        nxt = {}
        for word, c in words.items():
            for i, v in vec.items():
                if c * v != 0:
                    nxt[word + (i,)] = c * Fraction(v)
        words = nxt
    return words


def test_tensor_words_match_fraction_products():
    rng = random.Random(4)
    values = [0, 1, -1, 2, -6, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7),
              Fraction(-9, 4)]
    for _ in range(200):
        factors = [{i: rng.choice(values) for i in rng.sample(range(6), rng.randrange(1, 4))}
                   for _ in range(rng.randrange(0, 5))]
        scale = rng.choice([1, -2, 12, -120])
        words = _tensor_words(QQ, factors, scale)
        expected = _fraction_tensor_words(factors, scale)
        assert words == expected
        assert list(words) == list(expected)  # same words in the same order
        for c in words.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for p in (5, 7):
            F = GF(p)
            reduced = [{i: F.from_fraction(Fraction(v)) for i, v in vec.items()}
                       for vec in factors if all(Fraction(v).denominator % p for v in vec.values())]
            expected_p = {w: c for w, c in ((w, F.from_fraction(c)) for w, c in
                                            _fraction_tensor_words(reduced, scale).items()) if c}
            assert _tensor_words(F, reduced, scale) == expected_p


def _field_residue(chain):
    """(d + uB) applied to the chain through Field methods only."""
    F = chain.algebra.field
    cx = ChainComplex(chain.algebra)
    out = []
    for t in range(chain.N):
        acc = {}
        terms = [(cx.boundary_word(w), c) for w, c in chain.components[t].items()
                 if len(w) >= 2]
        if t >= 1:
            terms += [(cx.connes_word(w), c) for w, c in chain.components[t - 1].items()]
        for image, c in terms:
            for target, v in image.items():
                acc[target] = F.add(acc.get(target, F.zero()), F.mul(c, v))
        out.append({w: v for w, v in acc.items() if not F.is_zero(v)})
    return out


@pytest.mark.parametrize("p, N", [(5, 2), (7, 3)])
def test_certificate_of_broken_chain_over_fp(p, N):
    A = builtin("mat", GF(p), m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    pi = Idempotent(A, {labels["E11*1"]: 1, labels["E12*1"]: 3})
    chain = chern_idempotent(pi, N)
    assert cycle_certificate(chain)["residue"] == [{}] * N
    broken = [dict(comp) for comp in chain.components]
    broken[1] = {w: c * 2 % p for w, c in broken[1].items()}
    stray = (labels["E21*1"], labels["E12*1"], labels["E11*1"])
    broken[1][stray] = (broken[1].get(stray, 0) + 4) % p
    bad = UChain(A, N, broken)
    cert = cycle_certificate(bad)
    assert not cert["is_cycle"]
    assert cert["residue"] == _field_residue(bad)
    assert all(0 < v < p for acc in cert["residue"] for v in acc.values())


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_certificate_of_random_super_chains(field):
    # clifford1 is a super algebra: the Koszul signs of d and B enter
    A = builtin("clifford1", field)
    rng = random.Random(7)
    coeffs = [1, 2, -1, Fraction(1, 2), Fraction(-3, 5)] if field.p is None else [1, 2]
    for _ in range(20):
        N = rng.randrange(1, 4)
        comps = [{(rng.randrange(A.dim),) + tuple(rng.randrange(1, A.dim)
                                                  for _ in range(2 * t)): rng.choice(coeffs)
                  for _ in range(rng.randrange(0, 4))} for t in range(N)]
        chain = UChain(A, N, comps)
        cert = cycle_certificate(chain)
        assert cert["residue"] == _field_residue(chain)
        assert cert["is_cycle"] == (not any(_field_residue(chain)))


def test_ppower_lift_p2_of_a_sum_certifies():
    A = builtin("mat", GF(2), m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    a = {labels["E11*1"]: 1, labels["E12*1"]: 1, labels["E21*1"]: 1}
    chain = ppower_lift_p2(A, a)
    assert cycle_certificate(chain)["is_cycle"]
    assert chain.components[1] and all(v == 1 for v in chain.components[1].values())


def test_certificate_rejects_every_perturbed_coefficient():
    # one coefficient at a time, in every component, moved by a seeded
    # nonzero amount: the certificate must fail, with the residue that
    # Fraction arithmetic on the tuple images gives.  A perturbation of a
    # word whose (d + uB) image vanishes mod u^N (a last-component word with
    # no boundary) leaves a cycle, and the certificate must pass it.
    A = builtin("mat", QQ, m=2)
    labels = {A.label(i): i for i in range(A.dim)}
    pi = Idempotent(A, {labels["E11*1"]: 1, labels["E12*1"]: Fraction(2, 3)})
    chain = chern_idempotent(pi, 4)
    cx = ChainComplex(A)
    rng = random.Random(18)
    failed = {t: 0 for t in range(chain.N)}
    for t, comp in enumerate(chain.components):
        for word in comp:
            broken = [dict(c) for c in chain.components]
            broken[t][word] += Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                                        rng.randint(1, 5))
            bad = UChain(A, chain.N, broken)
            cert = cycle_certificate(bad)
            assert cert["residue"] == _fraction_residue(bad), (t, word)
            moves = cx.boundary_word(word) or (t < chain.N - 1 and cx.connes_word(word))
            assert cert["is_cycle"] == (not moves), (t, word)
            failed[t] += not cert["is_cycle"]
    assert all(failed.values()) and sum(failed.values()) >= 200, failed


def test_certificate_refuses_a_word_of_the_wrong_length():
    A = builtin("mat", QQ, m=2)
    with pytest.raises(ContractError):
        cycle_certificate(UChain(A, 2, [{(1,): 1}, {(1, 2): 1}]))


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(5)), ids=str)
def test_hh0_forms_agree_with_the_dense_commutator_rank(field):
    # one Echelon of the commutators (`commutator_classes`) gives hh0_direct
    # and both HH_0 ranks of ppower; the oracle's dense rank of every
    # commutator e_i e_j - (-1)^{|i||j|} e_j e_i shares no code with it
    algebras = [A for name in CATALOGUE if (A := _catalogue_entry(name, field))]
    algebras += [_exterior(field, 1), _exterior(field, 2), _super_mat11(field)]
    algebras += [build(field) for build, _ in CASES.values()]
    for A in algebras:
        direct = hh0_direct(A)
        assert direct == A.dim - oracle.commutator_span_rank(A), A.name
        if field.p is not None:
            rep = ppower_on_hh0(A)
            assert rep["hh0_rank"] == rep["hh0_rank_direct"] == direct, A.name
