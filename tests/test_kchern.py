import json
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from nchodge import kchern, oracle
from nchodge.algebra import CATALOGUE, AlgebraSpec, builtin, glue, zero_bimodule
from nchodge.cli import main
from nchodge.cyclic import UnsupportedError
from nchodge.fields import GF, QQ, SizeError, linear_combination
from nchodge.hochschild import ChainComplex, hh0_direct
from nchodge.kchern import (MAX_CHAIN_TERMS, ContractError, Idempotent, UChain,
                            _check_chain_terms, _numerators, _tensor_words,
                            chern_idempotent, cycle_certificate,
                            lift_difference_is_boundary, ppower_lift_p2, ppower_on_hh0, u0_class_nonzero)
from test_block_layout import _exterior, _super_mat11
from test_relative_complex import CASES, _catalogue_entry


def _chain(A, N, components):
    """The UChain of components given as {word: field element}: one block
    of singleton supports per word, in sorted word order, with each
    component's denominators cleared by `_numerators`."""
    parts = []
    for comp in components:
        nums, den = _numerators(dict(sorted(comp.items())))
        parts.append(([(tuple((x,) for x in word), [c]) for word, c in nums.items()], den))
    return UChain(A, N, parts)


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


def test_chern_of_an_idempotent_that_is_not_even_is_refused():
    # E11 + E12 of Mat(1|1) is idempotent, but E12 is odd: its Chern chain
    # is no cycle, and the certificate refuses it rather than renormalize
    A = _super_mat11(QQ)
    with pytest.raises(ContractError, match="cycle certificate failed"):
        chern_idempotent(Idempotent(A, {1: QQ.one(), 2: QQ.one()}), 3)


def test_ppower_on_hh0_certificates():
    for A in (builtin("mat", GF(2), m=2),
              builtin("truncated_poly", GF(3), m=3),
              builtin("a2_path", GF(2))):
        rep = ppower_on_hh0(A)
        assert rep["well_defined"], A.name
        assert rep["additive"], A.name
        assert rep["hh0_rank"] == rep["hh0_rank_direct"]


def test_ppower_certificates_catch_a_broken_power(monkeypatch, capsys):
    # a power map that adds E11 to the p-th power of every vector with two
    # or more coordinates: the p-th powers of the basis vectors are kept,
    # but neither the perturbed lifts nor the sums e_i + e_j map to their
    # classes, and E11 is no commutator, so both certificates fail and the
    # command exits 2
    power = AlgebraSpec.power

    def broken(self, v, n):
        out = power(self, v, n)
        if len(v) < 2:
            return out
        return linear_combination(((1, out), (1, {self.basis_labels.index("E11*1"): 1})),
                                  self.field)

    monkeypatch.setattr(AlgebraSpec, "power", broken)
    monkeypatch.delenv("NCHODGE_CACHE_DIR", raising=False)  # no cached report replayed
    rep = ppower_on_hh0(builtin("mat", GF(2), m=2))
    assert not rep["well_defined"] and not rep["additive"]
    assert main(["ppower", "--algebra", "mat", "--param", "m=2", "--field", "F2"]) == 2
    assert json.loads(capsys.readouterr().out)["result"]["well_defined"] is False


@pytest.mark.parametrize("build, refusal", [
    (lambda: chern_idempotent(_mat2_e11()[1], 3),
     "chern_idempotent: cycle certificate failed; refusing to renormalize"),
    (lambda: ppower_lift_p2(builtin("dual_numbers", GF(2)), {1: 1}),
     "ppower_lift_p2: cycle certificate failed"),
], ids=["chern", "lift"])
def test_a_chain_without_a_cycle_certificate_is_refused(monkeypatch, build, refusal):
    # both builders return a chain only once the certificate finds a cycle;
    # a certificate that finds none makes each refuse with its own message
    monkeypatch.setattr(kchern, "cycle_certificate",
                        lambda chain: {"is_cycle": False, "residue": []})
    with pytest.raises(ContractError) as err:
        build()
    assert str(err.value) == refusal


def test_ppower_requires_prime_field():
    with pytest.raises(UnsupportedError):
        ppower_on_hh0(builtin("dual_numbers"))


def test_ppower_lift_requires_characteristic_2():
    A = builtin("dual_numbers", GF(3))
    with pytest.raises(UnsupportedError, match="characteristic 2"):
        ppower_lift_p2(A, {1: A.field.one()})


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
            u0, u1 = chain.components
            chain = _chain(A, 2, [linear_combination(((1, u0), (1, {(0,): 1})), A.field), u1])
        return chain

    monkeypatch.setattr(kchern, "ppower_lift_p2", lift_with_unit)
    assert cycle_certificate(kchern.ppower_lift_p2(A, {0: 1, 1: 1}))["is_cycle"]
    assert not lift_difference_is_boundary(A, a, b)


def test_clifford1_unit_is_a_commutator():
    # [xi, xi] = 2 xi^2 = 2 . 1 in the super sense, so the unit's class in
    # HH_0 of clifford1 over Q vanishes; xi spans HH_0
    A = builtin("clifford1", QQ)
    one = A.field.one()
    assert not u0_class_nonzero(_chain(A, 1, [{(0,): one}]))
    assert u0_class_nonzero(_chain(A, 1, [{(1,): one}]))


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
    cert = cycle_certificate(_chain(A, 3, broken))
    assert not cert["is_cycle"]
    assert cert["residue"] == _fraction_residue(_chain(A, 3, broken))
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


def _block_words(blocks):
    """{word: numerator} of blocks, in their order."""
    return {w: c for supports, nums in blocks for w, c in zip(product(*supports), nums)}


def test_tensor_words_match_fraction_products():
    rng = random.Random(4)
    values = [0, 1, -1, 2, -6, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7),
              Fraction(-9, 4)]
    for _ in range(200):
        factors = [{i: rng.choice(values) for i in rng.sample(range(6), rng.randrange(1, 4))}
                   for _ in range(rng.randrange(0, 5))]
        scale = rng.choice([1, -2, 12, -120])
        blocks, den = _tensor_words(QQ, factors, scale)
        assert len(blocks) <= 1  # one block, or none for an empty product
        words = _block_words(blocks)
        expected = _fraction_tensor_words(factors, scale)
        assert {w: Fraction(c, den) for w, c in words.items()} == expected
        assert list(words) == sorted(expected)  # the words come out sorted
        assert type(den) is int and den >= 1 and all(type(c) is int for c in words.values())
        for p in (5, 7):
            F = GF(p)
            reduced = [{i: F.from_fraction(Fraction(v)) for i, v in vec.items()}
                       for vec in factors if all(Fraction(v).denominator % p for v in vec.values())]
            expected_p = {w: c for w, c in ((w, F.from_fraction(c)) for w, c in
                                            _fraction_tensor_words(reduced, scale).items()) if c}
            blocks, den = _tensor_words(F, reduced, scale)
            assert (_block_words(blocks), den) == (expected_p, 1)


def _chern_formula(pi: dict, N: int) -> list:
    """The components of ch(pi) = pi + sum_{1<=k<N} (-1)^k (2k)!/k!
    (pi - 1/2) (x) pi^{(x)2k} u^k in Fraction arithmetic, from the rational
    vector pi: the unit coordinate 0 is shifted by -1/2 in the first tensor
    factor and dropped from the others."""
    shifted = {i: v - (Fraction(1, 2) if i == 0 else 0) for i, v in pi.items()}
    shifted.setdefault(0, Fraction(-1, 2))
    tail = {i: v for i, v in pi.items() if i != 0}
    out = [{(i,): Fraction(v) for i, v in pi.items() if v}]
    for k in range(1, N):
        scale = (-1) ** k * factorial(2 * k) // factorial(k)
        out.append(_fraction_tensor_words([shifted] + [tail] * (2 * k), scale))
    return out


def _random_idempotents(rng):
    """E11 + sum_j a_j E1j in mat(2) and mat(3) with random rational a_j,
    whose denominators are prime to 5, 7 and 11, and (1 +- g)/2 in
    group_z2; as (algebra name, params, rational vector)."""
    coeffs = [Fraction(s * a, b) for s in (1, -1) for a in (1, 2, 3, 4, 9) for b in (1, 2, 3, 4, 6)]
    out = []
    for m in (2, 3):
        # basis 1, E11, E12, .., E1m, ...
        out.append(("mat", {"m": m}, {1: Fraction(1), **{j: rng.choice(coeffs)
                                                          for j in range(2, m + 1)}}))
    for sign in (1, -1):
        out.append(("group_z2", {}, {0: Fraction(1, 2), 1: Fraction(sign, 2)}))
    return out


@pytest.mark.parametrize("field", (QQ, GF(5), GF(7), GF(11)), ids=str)
def test_chern_chain_numerators_match_the_formula(field):
    # each component, read as field elements, is the Fraction expansion of
    # the formula reduced into the field, term by term; the numerators are
    # ints over one denominator, and the chain certifies
    rng = random.Random(30 + field.characteristic)
    for N in range(1, 5):
        if field.p is not None and field.p <= 2 * N:
            continue
        for name, params, pi in _random_idempotents(rng):
            A = builtin(name, field, **params)
            vector = {i: field.from_fraction(v) for i, v in pi.items()}
            chain = chern_idempotent(Idempotent(A, vector), N)
            assert len(chain.blocks) == N and all(len(blocks) <= 1 for blocks in chain.blocks)
            assert type(chain.denominator) is int and chain.denominator >= 1
            terms = [chain.terms(t) for t in range(N)]
            assert all(type(c) is int for _, nums in terms for c in nums)
            assert all(words == sorted(words) for words, _ in terms)
            for t, formula in enumerate(_chern_formula(pi, N)):
                expected = {w: c for w, c in ((w, field.from_fraction(c))
                                              for w, c in formula.items()) if c}
                assert chain.component(t) == expected, (name, pi, N, t)
            cert = cycle_certificate(chain)
            assert cert["is_cycle"] and cert["residue"] == [{}] * N
            # the same components given as field elements make the same chain
            again = _chain(A, N, chain.components)
            assert again.components == chain.components
            assert cycle_certificate(again)["is_cycle"]


def test_chain_puts_its_components_over_one_denominator():
    # a part over 2 and a part over 3 go over their lcm 6, numerators
    # scaled; the words read back in sorted order, block by block
    A = builtin("mat", QQ, m=2)
    u0 = [(((1, 2),), [1, 6])]
    u1 = [(((0,), (1,), (2,)), [-2]), (((0,), (2,), (1,)), [0])]
    chain = UChain(A, 2, [(u0, 2), (u1, 3)])
    assert chain.denominator == 6
    assert chain.blocks == [[(((1, 2),), [3, 18])],
                            [(((0,), (1,), (2,)), [-4]), (((0,), (2,), (1,)), [0])]]
    assert [chain.terms(t) for t in range(2)] == [([(1,), (2,)], [3, 18]),
                                                  ([(0, 1, 2), (0, 2, 1)], [-4, 0])]
    comps = [{(1,): Fraction(1, 2), (2,): 3}, {(0, 1, 2): Fraction(-2, 3), (0, 2, 1): 0}]
    assert chain.components == comps
    assert [type(c) for c in chain.component(0).values()] == [Fraction, int]
    # the word form of the tests clears each component's denominators once,
    # one block per word, and reads back the same words and coefficients
    words = _chain(A, 2, comps)
    assert words.denominator == 6 and words.components == comps
    assert words.blocks[0] == [(((1,),), [3]), (((2,),), [18])]


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
    bad = _chain(A, N, broken)
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
        chain = _chain(A, N, comps)
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
            bad = _chain(A, chain.N, broken)
            cert = cycle_certificate(bad)
            assert cert["residue"] == _fraction_residue(bad), (t, word)
            moves = cx.boundary_word(word) or (t < chain.N - 1 and cx.connes_word(word))
            assert cert["is_cycle"] == (not moves), (t, word)
            failed[t] += not cert["is_cycle"]
    assert all(failed.values()) and sum(failed.values()) >= 200, failed


def test_certificate_refuses_a_word_of_the_wrong_length():
    A = builtin("mat", QQ, m=2)
    with pytest.raises(ContractError):
        cycle_certificate(_chain(A, 2, [{(1,): 1}, {(1, 2): 1}]))


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


def _word_form(chain):
    """The same chain given as word dicts: one block per word (`_chain`)."""
    return _chain(chain.algebra, chain.N, chain.components)


@pytest.mark.parametrize("field", (QQ, GF(7), GF(11)), ids=str)
def test_block_and_word_forms_certify_alike(field):
    # a chain of dense blocks (one per component, as chern_idempotent makes
    # it) and the same chain as word dicts (one block per word) give the
    # same certificate and residue, intact and broken, on even algebras and
    # on super ones with odd letters in the chain
    rng = random.Random(34 + field.characteristic)
    cases = [(builtin(name, field, **params), pi) for name, params, pi in _random_idempotents(rng)]
    cases.append(_super_glue_corner(field))
    # (1 +- xi)/2 in clifford1: the odd xi fills every slot past the head
    cases += [(builtin("clifford1", field), {0: Fraction(1, 2), 1: Fraction(sign, 2)})
              for sign in (1, -1)]
    F = field
    for A, pi in cases:
        for N in range(1, 4):
            if F.p is not None and F.p <= 2 * N:
                continue
            vector = {i: F.from_fraction(Fraction(v)) for i, v in pi.items()}
            chain = chern_idempotent(Idempotent(A, vector), N)
            words = _word_form(chain)
            assert words.components == chain.components
            assert all(len(blocks) <= 1 for blocks in chain.blocks)
            assert cycle_certificate(words) == cycle_certificate(chain) == {
                "is_cycle": True, "residue": [{}] * N}
            for t in range(N):
                if not chain.blocks[t]:
                    continue
                # perturb a few numerators of one dense block
                parts = []
                for s, blocks in enumerate(chain.blocks):
                    blocks = [(supports, list(nums)) for supports, nums in blocks]
                    if s == t:
                        nums = blocks[0][1]
                        for j in rng.sample(range(len(nums)), min(3, len(nums))):
                            nums[j] += rng.choice((1, -1)) * rng.randint(1, 5)
                    parts.append((blocks, chain.denominator))
                broken = UChain(A, N, parts)
                cert = cycle_certificate(broken)
                assert cert == cycle_certificate(_word_form(broken)), (A.name, N, t)
                residue = _fraction_residue(broken) if F.p is None else _field_residue(broken)
                assert cert["residue"] == residue, (A.name, N, t)


def _super_glue_corner(field):
    """The glued super algebra of the relative-complex tests with the
    idempotent of its first corner: a super chain with odd letters."""
    A = CASES["glue-super"][0](field)
    for i in range(1, A.dim):
        v = {i: field.one()}
        if A.mul_vec(v, v) == v:
            return A, {i: Fraction(1)}
    raise AssertionError("no corner idempotent")


def _certificate_terms(chain):
    """sum_t (2t + 1)(words of component t + 2t + 1), read off the chain."""
    return sum((2 * t + 1) * (sum(len(nums) for _, nums in blocks) + 2 * t + 1)
               for t, blocks in enumerate(chain.blocks))


@pytest.mark.parametrize("field", (QQ, GF(11)), ids=str)
def test_chain_terms_are_counted_exactly_before_the_chain_is_built(field, monkeypatch):
    # the count from the supports is the built chain's, for thin chains (a
    # single tail letter), dense ones, an empty tail (the unit and 0) and a
    # chain whose idempotent has a unit coordinate; the bound admits a chain
    # of exactly MAX_CHAIN_TERMS terms and refuses one more
    mat2, mat3 = builtin("mat", field, m=2), builtin("mat", field, m=3)
    third = field.from_fraction(Fraction(1, 3))
    cases = [(mat2, {1: 1}), (mat2, {1: 1, 2: third}), (mat3, {1: 1, 2: 2, 3: third}),
             (builtin("group_z2", field), {0: field.from_fraction(Fraction(1, 2)),
                                           1: field.from_fraction(Fraction(1, 2))}),
             (mat2, {0: 1}), (mat2, {})]
    for A, vector in cases:
        pi = Idempotent(A, vector)
        for N in range(1, 5):
            terms = _certificate_terms(chern_idempotent(pi, N))
            monkeypatch.setattr(kchern, "MAX_CHAIN_TERMS", terms)
            chern_idempotent(pi, N)
            monkeypatch.setattr(kchern, "MAX_CHAIN_TERMS", terms - 1)
            with pytest.raises(SizeError, match=f"MAX_CHAIN_TERMS = {terms - 1} "):
                chern_idempotent(pi, N)
            monkeypatch.undo()


def test_chain_size_is_bounded():
    # (N, words of pi, of pi - 1/2, of its tail): the benchmark's two chains
    # and Mat_3 to u^6 are admitted, Mat_3 to u^7 is not; a thin chain
    # (E11 in Mat_2) is admitted to u^130; an empty tail does not let N grow
    # without bound, and a huge N forms no huge power
    assert MAX_CHAIN_TERMS == 3_000_000
    for admitted in ((5, 3, 4, 3), (7, 2, 3, 2), (6, 3, 4, 3), (130, 1, 2, 1), (131, 1, 1, 0)):
        _check_chain_terms(*admitted)
    for refused in ((7, 3, 4, 3), (9, 3, 4, 3), (131, 1, 2, 1), (132, 1, 1, 0),
                    (10 ** 9, 1, 1, 0), (10 ** 9, 10 ** 9, 10 ** 9, 10 ** 9), (2, 1, 1, 10 ** 9)):
        with pytest.raises(SizeError, match="MAX_CHAIN_TERMS = 3000000 certificate terms"):
            _check_chain_terms(*refused)
    A = builtin("point", QQ)
    with pytest.raises(SizeError, match=r"the Chern chain to u\^1000000000 needs more"):
        chern_idempotent(Idempotent(A, {0: 1}), 10 ** 9)
