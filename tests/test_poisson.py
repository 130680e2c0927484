import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial

import pytest

from nchodge import poisson
from nchodge.cli import main
from nchodge.fields import SizeError
from nchodge.oracle import jacobiator_components
from nchodge.poisson import (BIVECTOR_CATALOGUE, MAX_NVARS, Bivector,
                             ConstantSymplectic, PoissonError, PolyForm, _monomials_upto, _poly_str,
                             builtin_bivector, conjugation_check, d, hodge_star,
                             iota, jacobi_check, lie_derivative, monomial,
                             monomial_form, poisson_bracket,
                             poisson_homology_ranks, poly_diff, poly_mul, star_identity_check)


def test_d_squared_zero():
    for e, S in (((2, 1), ()), ((1, 0), (1,)), ((3, 2), (0,))):
        assert d(d(monomial_form(2, e, S))).is_zero()


def test_iota_pairing_convention():
    # <d/dx ^ d/dy, dx ^ dy> = 1
    alpha = builtin_bivector("standard")
    dxdy = monomial_form(2, (0, 0), (0, 1))
    assert iota(alpha, dxdy).terms == {((0, 0), ()): Fraction(1)}


def test_standard_bracket():
    alpha = builtin_bivector("standard")
    x, y = monomial(2, {0: 1}), monomial(2, {1: 1})
    assert poisson_bracket(x, y, alpha) == {(0, 0): Fraction(1)}
    assert poisson_bracket(monomial(2, {0: 2}), y, alpha) == {(1, 0): Fraction(2)}


def test_so3_bracket_cyclic():
    so3 = builtin_bivector("so3")
    xs = [monomial(3, {i: 1}) for i in range(3)]
    assert poisson_bracket(xs[0], xs[1], so3) == {(0, 0, 1): Fraction(1)}
    assert poisson_bracket(xs[1], xs[2], so3) == {(1, 0, 0): Fraction(1)}
    assert poisson_bracket(xs[2], xs[0], so3) == {(0, 1, 0): Fraction(1)}


def test_jacobi_pass_and_fail():
    assert jacobi_check(builtin_bivector("standard"))["pass"]
    assert jacobi_check(builtin_bivector("so3"))["pass"]
    assert jacobi_check(builtin_bivector("xy"))["pass"]
    bad = jacobi_check(builtin_bivector("nonjacobi4"))
    assert not bad["pass"]
    assert bad["witness"] is not None


def test_lie_derivative_values():
    alpha = builtin_bivector("standard")
    # L_alpha(x dy) = 1
    r = lie_derivative(alpha, monomial_form(2, (1, 0), (1,)))
    assert r.terms == {((0, 0), ()): Fraction(1)}
    # L_alpha(x dx ^ dy) = -dx
    r2 = lie_derivative(alpha, monomial_form(2, (1, 0), (0, 1)))
    assert r2.terms == {((0, 0), (0,)): Fraction(-1)}


def test_lie_squared_zero_for_poisson():
    alpha = builtin_bivector("standard")
    for e, S in (((1, 2), (0,)), ((2, 0), (0, 1)), ((3, 1), ())):
        assert lie_derivative(alpha, lie_derivative(
            alpha, monomial_form(2, e, S))).is_zero()


def test_conjugation_identity():
    assert conjugation_check(builtin_bivector("standard"))["pass"]
    assert conjugation_check(builtin_bivector("so3"))["pass"]
    bad = conjugation_check(builtin_bivector("nonjacobi4"))
    assert not bad["pass"]


def test_hodge_star_2var_signs():
    omega = ConstantSymplectic(2)
    star = lambda e, S: hodge_star(monomial_form(2, e, S), omega).terms
    assert star((0, 0), ()) == {((0, 0), (0, 1)): Fraction(1)}
    assert star((0, 0), (0,)) == {((0, 0), (0,)): Fraction(1)}
    assert star((0, 0), (1,)) == {((0, 0), (1,)): Fraction(1)}
    assert star((0, 0), (0, 1)) == {((0, 0), ()): Fraction(-1)}


def test_star_identity():
    assert star_identity_check(2)["pass"]
    assert star_identity_check(4)["pass"]


def test_symplectic_needs_even_vars():
    with pytest.raises(PoissonError):
        ConstantSymplectic(3)


def test_poisson_homology_standard_and_zero():
    rep = poisson_homology_ranks(builtin_bivector("standard"), 6)
    assert (rep["even"], rep["odd"]) == (1, 0)
    assert rep["stable"]
    rep0 = poisson_homology_ranks(builtin_bivector("zero"), 6)
    assert rep0["stable"]
    assert (rep0["even"], rep0["odd"]) == (1, 0)


def test_poisson_homology_so3():
    rep = poisson_homology_ranks(builtin_bivector("so3"), 5)
    assert rep["stable"]
    assert (rep["even"], rep["odd"]) == (1, 0)


def test_hbar_scaling():
    # with hbar = 0 the deformation term drops and L contributes nothing
    alpha = builtin_bivector("standard")
    zero_h = Bivector(2, alpha.components, name="h0", hbar=Fraction(0))
    rep = poisson_homology_ranks(zero_h, 4)
    rep_zero = poisson_homology_ranks(builtin_bivector("zero"), 4)
    assert (rep["even"], rep["odd"]) == (rep_zero["even"], rep_zero["odd"])


def test_catalogue_complete():
    assert set(BIVECTOR_CATALOGUE) == {"standard", "xy", "so3", "nonjacobi4",
                                       "zero"}


# sha256 of each catalogue bivector's (nvars, name, hbar, sorted components),
# recorded before the catalogue became one table
_BIVECTOR_DIGESTS = {
    "standard": "aaf1221fe4e1a4e94d639cfaa36778aeeea704affb4ee0d025b1913851e0f980",
    "xy": "490859f70f92f476e2cf03c51e35f7e08ecf72fa843b07e3aba27dcdb15b4348",
    "so3": "052bcc3b82efce641e3f7ad406e5786e4dfd407994a33d64b642e6a68575e9b7",
    "nonjacobi4": "e30be651652d7a3f33e7c8d9a73b54727eddda73cc5349ba62c15414e42f5cc9",
    "zero": "5ff46999bf0b7271bbcf13e0ec4ca763e033ad94f6c846693ab9f4b4c69e85ae",
}


@pytest.mark.parametrize("name", _BIVECTOR_DIGESTS)
def test_catalogue_bivectors_keep_their_bytes(name):
    b = builtin_bivector(name)
    key = (b.nvars, b.name, b.hbar,
           sorted((k, sorted(v.items())) for k, v in b.components.items()))
    assert hashlib.sha256(repr(key).encode()).hexdigest() == _BIVECTOR_DIGESTS[name]


def test_catalogue_command_lists_the_table_in_order(capsys):
    assert main(["catalogue"]) == 0
    listed = json.loads(capsys.readouterr().out)["result"]["bivectors"]
    assert listed == list(BIVECTOR_CATALOGUE) == list(_BIVECTOR_DIGESTS)
    assert all(builtin_bivector(name).name == name for name in BIVECTOR_CATALOGUE)
    with pytest.raises(PoissonError, match="unknown bivector 'sl2'"):
        builtin_bivector("sl2")


def test_homology_refuses_truncation_that_breaks_the_complex():
    # Poisson (Jacobi holds), but mixing a constant and a cubic coefficient:
    # terms dropped above the cutoff would map back below it, so the
    # truncated folded complex is not a complex
    one = Fraction(1)
    alpha = Bivector(3, {(0, 2): {(1, 2, 0): 2 * one}, (1, 2): {(0, 0, 0): one}})
    assert jacobi_check(alpha)["pass"]
    with pytest.raises(PoissonError, match="breaks"):
        poisson_homology_ranks(alpha, 4)


# ---------------------------------------------------------------------------
# the term-table operators against a plain per-term reference
# ---------------------------------------------------------------------------

SEED = 20261018


def _acc(out, key, c):
    s = out.get(key, 0) + c
    if s == 0:
        out.pop(key, None)
    else:
        out[key] = s


def _ref_bracket(f, g, alpha):
    """{f, g} expanded term by term, with no tables."""
    out = {}
    for (i, j), p in alpha.components.items():
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                for a, b, sign in ((i, j, 1), (j, i, -1)):
                    if not (e1[a] and e2[b]):
                        continue
                    c = sign * c1 * c2 * e1[a] * e2[b]
                    e = [x + y for x, y in zip(e1, e2)]
                    e[a] -= 1
                    e[b] -= 1
                    for e3, c3 in p.items():
                        _acc(out, tuple(x + y for x, y in zip(e, e3)), c * c3)
    return out


def _ref_d(terms, v):
    out = {}
    for (e, S), c in terms.items():
        for i in range(v):
            if e[i] and i not in S:
                sign = (-1) ** sum(1 for j in S if j < i)
                _acc(out, (e[:i] + (e[i] - 1,) + e[i + 1:], tuple(sorted(S + (i,)))),
                     sign * c * e[i])
    return out


def _ref_iota(terms, alpha):
    out = {}
    for (e, S), c in terms.items():
        for (i, j), p in alpha.components.items():
            if i in S and j in S:
                pi = S.index(i)
                rest = S[:pi] + S[pi + 1:]
                pj = rest.index(j)
                rest = rest[:pj] + rest[pj + 1:]
                for e2, c2 in p.items():
                    _acc(out, (tuple(x + y for x, y in zip(e, e2)), rest),
                         (-1) ** (pi + pj) * c * c2)
    return out


def _ref_add(p, q, scale=1):
    out = dict(p)
    for k, c in q.items():
        _acc(out, k, scale * c)
    return out


def _ref_exp_iota(terms, alpha, sign):
    out, power, k = dict(terms), terms, 1
    while power:
        power = _ref_iota(power, alpha)
        out = _ref_add(out, power, Fraction(sign ** k, factorial(k)))
        k += 1
    return out


def _ref_jacobi_check(alpha, D):
    v = alpha.nvars
    mons = [e for e in sorted(product(range(D + 1), repeat=v), key=lambda e: (sum(e), e))
            if 0 < sum(e) <= D]

    def jac(f, g, h):
        f, g, h = {f: 1}, {g: 1}, {h: 1}
        out = {}
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            out = _ref_add(out, _ref_bracket(a, _ref_bracket(b, c, alpha), alpha))
        return out

    coords = [tuple(int(k == i) for k in range(v)) for i in range(v)]
    for trip in combinations(range(v), 3):
        r = jac(*(coords[i] for i in trip))
        if r:
            return {"pass": False, "witness": ["coords", list(trip)], "value": _poly_str(r)}
    for a, b, c in combinations_with_replacement(range(len(mons)), 3):
        r = jac(mons[a], mons[b], mons[c])
        if r:
            return {"pass": False, "witness": ["monomials", [a, b, c]], "value": _poly_str(r)}
    return {"pass": True, "witness": None}


def _ref_conjugation_check(alpha, D):
    v = alpha.nvars
    for e in sorted(product(range(D + 1), repeat=v), key=lambda e: (sum(e), e)):
        if sum(e) > D:
            continue
        for r in range(v + 1):
            for S in combinations(range(v), r):
                mu = {(e, S): 1}
                lhs = _ref_exp_iota(_ref_d(_ref_exp_iota(mu, alpha, -1), v), alpha, 1)
                dmu = _ref_d(mu, v)
                rhs = _ref_add(_ref_add(dmu, _ref_iota(dmu, alpha)),
                               _ref_d(_ref_iota(mu, alpha), v), -1)
                if lhs != rhs:
                    return {"pass": False, "witness": {"exponents": list(e), "dxs": list(S)}}
    return {"pass": True, "witness": None}


def _random_bivector(rng, v):
    comps = {}
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < 0.6:
                e = [0] * v
                for _ in range(rng.randrange(3)):
                    e[rng.randrange(v)] += 1
                comps[(i, j)] = {tuple(e): Fraction(rng.choice([-3, -1, 1, 2]),
                                                    rng.choice([1, 2, 3]))}
    return Bivector(v, comps, name="random")


def _random_bivectors(count):
    rng = random.Random(SEED)
    return [_random_bivector(rng, rng.randint(2, 4)) for _ in range(count)]


def test_checks_agree_with_the_per_term_reference():
    # the reference sweeps every monomial term up to degree D; the checks
    # evaluate the generators only, and must agree with it at every D
    failing = 0
    for alpha in _random_bivectors(30) + [builtin_bivector(n) for n in ("so3", "nonjacobi4")]:
        jac, conj = jacobi_check(alpha), conjugation_check(alpha)
        assert jac["pass"] == (jacobiator_components(alpha) == {}), alpha
        for D in range(4):
            assert jac == _ref_jacobi_check(alpha, D), (alpha, D)
            assert conj == _ref_conjugation_check(alpha, D), (alpha, D)
        failing += (not jac["pass"]) + (not conj["pass"])
    assert failing >= 10  # the sample reaches failing witnesses, not only passes


def test_bracket_agrees_with_the_per_term_reference():
    rng = random.Random(SEED + 1)
    for alpha in _random_bivectors(10):
        v = alpha.nvars
        f = {tuple(rng.randrange(3) for _ in range(v)): Fraction(rng.randint(-3, 3) or 1, 2)
             for _ in range(3)}
        g = {tuple(rng.randrange(3) for _ in range(v)): rng.randint(1, 4) for _ in range(2)}
        assert poisson_bracket(f, g, alpha) == _ref_bracket(f, g, alpha)


def _full_walk_bracket(f, g, alpha):
    """{f, g} summed over every component of alpha, none skipped."""
    out = {}
    for (i, j), p in alpha.components.items():
        term = poly_mul(poly_diff(f, i), poly_diff(g, j))
        for e, c in poly_mul(poly_diff(f, j), poly_diff(g, i)).items():
            _acc(term, e, -c)
        for e, c in poly_mul(p, term).items():
            _acc(out, e, c)
    return out


def test_bracket_skips_only_components_whose_terms_vanish():
    # the bracket visits (i, j) only when one of f and g has x_i and the
    # other x_j; on the random bivectors, with f and g in few variables so
    # that most components are skipped, it equals the walk over them all,
    # in both orientations of each component
    rng = random.Random(SEED + 7)
    skipped = 0
    for alpha in _random_bivectors(30) + [builtin_bivector(n) for n in ("so3", "nonjacobi4")]:
        v = alpha.nvars
        for _ in range(6):
            f, g = ({tuple(rng.randrange(2) if i in chosen else 0 for i in range(v)):
                     rng.choice((1, -2, Fraction(1, 3)))
                     for _ in range(rng.randint(1, 3))}
                    for chosen in (rng.sample(range(v), rng.randint(1, 2)) for _ in range(2)))
            assert poisson_bracket(f, g, alpha) == _full_walk_bracket(f, g, alpha), (alpha, f, g)
            fv, gv = ({i for e in p for i, k in enumerate(e) if k} for p in (f, g))
            skipped += sum(not ((i in fv and j in gv) or (j in fv and i in gv))
                           for i, j in alpha.components)
    assert skipped >= 100
    # x_1 and x_0 on the component (0, 1): only the second product is live
    alpha = Bivector(2, {(0, 1): {(0, 0): Fraction(3)}})
    assert poisson_bracket({(0, 1): 1}, {(1, 0): 1}, alpha) == {(0, 0): -3}


def _assert_invariants(form, nvars):
    assert form.nvars == nvars
    for (e, S), c in form.terms.items():
        assert type(e) is tuple and len(e) == nvars and all(x >= 0 for x in e)
        assert type(S) is tuple and list(S) == sorted(set(S))
        assert all(0 <= i < nvars for i in S)
        assert c != 0


def _random_form(rng, v):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randrange(3) for _ in range(v))
        S = tuple(sorted(rng.sample(range(v), rng.randint(0, v))))
        terms[(e, S)] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return PolyForm(v, terms)


def test_operator_results_keep_the_form_invariants():
    rng = random.Random(SEED + 2)
    for alpha in _random_bivectors(20):
        v = alpha.nvars
        form = _random_form(rng, v)
        _assert_invariants(form, v)  # the constructor drops zero coefficients
        for result in (d(form), iota(alpha, form), lie_derivative(alpha, form),
                       form.add(d(form), -1), form.scale(Fraction(1, 3)), form.add(form, -1)):
            _assert_invariants(result, v)
        assert d(form).terms == _ref_d(form.terms, v)
        assert iota(alpha, form).terms == _ref_iota(form.terms, alpha)
        if v % 2 == 0:
            _assert_invariants(hodge_star(form, ConstantSymplectic(v)), v)


def test_constructor_validates_outside_input():
    with pytest.raises(PoissonError):
        PolyForm(2, {((1, -1), ()): 1})
    with pytest.raises(PoissonError):
        PolyForm(2, {((1, 0), (1, 0)): 1})
    with pytest.raises(PoissonError):
        monomial_form(2, (0, 0), (0, 2))
    with pytest.raises(PoissonError, match="out of order"):
        Bivector(2, {(1, 0): {(0, 0): 1}})
    with pytest.raises(PoissonError, match="variable count mismatch"):
        hodge_star(monomial_form(2, (0, 0), ()), ConstantSymplectic(4))


@pytest.mark.parametrize("nvars", [0, -2, 3])
def test_symplectic_needs_a_positive_even_dimension(nvars):
    with pytest.raises(PoissonError, match="positive and even"):
        ConstantSymplectic(nvars)


def _clear_process_caches():
    for value in vars(poisson).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_star_reads_every_dx_from_one_exp_b_per_v(monkeypatch):
    # exp(B) is the one exponential the star takes of the empty product ();
    # the check's other exponentials are of forms (e, S).  One exp(B) per v
    # serves every dx_S, where one per S made the check grow like 4^v.
    calls = []
    original = poisson._exp_term

    def counting(image_of_term, sign, term):
        calls.append(term)
        return original(image_of_term, sign, term)

    monkeypatch.setattr(poisson, "_exp_term", counting)
    for v in (2, 4, 6):
        _clear_process_caches()
        calls.clear()
        assert star_identity_check(v)["pass"]
        assert calls.count(()) == 1, v
    _clear_process_caches()


def _star_of_dx_by_subset(v: int, S: tuple) -> list:
    """The star of dx_S from its own exp(B): dx_S ^ exp(B), Berezin
    integrated over the xi's (the terms whose xi-part is full), times the
    global sign (-1)^{v/2}; generators 0..v-1 are xi_i, v..2v-1 eta_i."""
    kernel_b = {}
    for i, j in ConstantSymplectic(v).pairs():
        kernel_b[(i, v + j)] = 1
        kernel_b[(j, v + i)] = -1
    exp_b = poisson._exp_term(poisson._Table(lambda W: poisson._times(W, kernel_b)), 1, ())
    return [(tuple(i - v for i in g if i >= v), (-1) ** (v // 2) * c)
            for g, c in poisson._times(S, exp_b).items()
            if tuple(i for i in g if i < v) == tuple(range(v))]


def test_star_of_every_dx_matches_its_own_exp_b():
    for v in (2, 4, 6):
        omega = ConstantSymplectic(v)
        zero = (0,) * v
        for r in range(v + 1):
            for S in combinations(range(v), r):
                star = hodge_star(monomial_form(v, zero, S), omega).terms
                assert list(star.items()) == [((zero, eta), c) for eta, c
                                              in _star_of_dx_by_subset(v, S)], (v, S)


def test_symplectic_dimension_is_bounded():
    assert ConstantSymplectic(MAX_NVARS).nvars == MAX_NVARS
    for nvars in (MAX_NVARS + 2, 10 ** 9):
        with pytest.raises(SizeError, match="MAX_NVARS"):
            ConstantSymplectic(nvars)
        with pytest.raises(SizeError, match="MAX_NVARS"):
            star_identity_check(nvars)


def test_monomials_of_no_variables():
    assert _monomials_upto(0, 3) == [()]
    assert _monomials_upto(0, -1) == []
    assert _monomials_upto(2, -1) == []
    assert _monomials_upto(2, 1) == [(0, 0), (0, 1), (1, 0)]


def test_conjugation_and_homology_sizes_are_bounded(monkeypatch):
    assert MAX_NVARS == 12
    for check in (jacobi_check, conjugation_check):
        assert check(Bivector(MAX_NVARS, {}))["pass"]
        for nvars in (MAX_NVARS + 1, 10 ** 9):
            with pytest.raises(SizeError, match="MAX_NVARS"):
                check(Bivector(nvars, {}))
    # the closed-form count is exact: a bound of len(_form_basis) admits the
    # complex, and one less refuses it
    for v in range(4):
        for D in range(2, 7):
            count = len(poisson._form_basis(v, D))
            assert count > v * D  # the lower bound tried first
            monkeypatch.setattr(poisson, "MAX_HOMOLOGY_FORMS", count)
            poisson._require_form_count(v, D)
            monkeypatch.setattr(poisson, "MAX_HOMOLOGY_FORMS", count - 1)
            with pytest.raises(SizeError, match="MAX_HOMOLOGY_FORMS"):
                poisson._require_form_count(v, D)
    monkeypatch.undo()
    # so3: 19 649 forms at D = 24, 21 ... at 25; the lower bound alone
    # refuses sizes whose binomials would be huge
    poisson._require_form_count(3, 24)
    for v, D in ((3, 25), (3, 10 ** 9), (10 ** 9, 2), (10 ** 9, 10 ** 9)):
        with pytest.raises(SizeError, match="MAX_HOMOLOGY_FORMS"):
            poisson._require_form_count(v, D)
    with pytest.raises(SizeError, match="MAX_HOMOLOGY_FORMS"):
        poisson_homology_ranks(builtin_bivector("so3"), 25)


# ---------------------------------------------------------------------------
# the premises that let each check evaluate generators only
# ---------------------------------------------------------------------------


def _random_polynomial_bivector(rng, v):
    """A bivector whose components are polynomials of one to three terms of
    degree <= 2; most are not Poisson."""
    comps = {}
    for i in range(v):
        for j in range(i + 1, v):
            if rng.random() < 0.7:
                comps[(i, j)] = {tuple(rng.randrange(2) for _ in range(v)):
                                 Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
                                 for _ in range(rng.randint(1, 3))}
    return Bivector(v, comps, name="random")


def _jacobiator(f, g, h, alpha):
    out = {}
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        out = _ref_add(out, poisson_bracket(a, poisson_bracket(b, c, alpha), alpha))
    return out


def test_the_jacobiator_is_a_triderivation():
    # J(f, g, h) = sum_{i,j,k} d_i f d_j g d_k h J(x_i, x_j, x_k) on monomial
    # triples: so the coordinate triples decide the Jacobi identity
    rng = random.Random(SEED + 3)
    nonzero = 0
    for v in (3, 3, 4, 4, 4):
        alpha = _random_polynomial_bivector(rng, v)
        x = [monomial(v, {i: 1}) for i in range(v)]
        at_coords = {ijk: _jacobiator(*(x[i] for i in ijk), alpha)
                     for ijk in product(range(v), repeat=3)}
        nonzero += any(at_coords.values())
        mons = [e for e in _monomials_upto(v, 2) if sum(e)]
        for f, g, h in rng.sample(list(product(mons, repeat=3)), 12):
            expected = {}
            for (i, j, k), value in at_coords.items():
                weight = poisson.poly_mul(poisson.poly_mul(poisson.poly_diff({f: 1}, i),
                                                           poisson.poly_diff({g: 1}, j)),
                                          poisson.poly_diff({h: 1}, k))
                expected = _ref_add(expected, poisson.poly_mul(weight, value))
            assert _jacobiator({f: 1}, {g: 1}, {h: 1}, alpha) == expected, (alpha, f, g, h)
    assert nonzero >= 3  # the sample holds bivectors that are not Poisson


def _shifted(image, e):
    """x^e times a form given by its terms."""
    return {(tuple(a + b for a, b in zip(e, e2)), S): c for (e2, S), c in image.items()}


def _assert_commutes_with_monomials(maps, v, exponents):
    """Each map sends x^e dx_S to x^e times its image of dx_S."""
    zero = (0,) * v
    for r in range(v + 1):
        for S in combinations(range(v), r):
            for f in maps:
                at_zero = f((zero, S))
                for e in exponents:
                    assert f((e, S)) == _shifted(at_zero, e), (f, e, S)


def _exponents(rng, v, count):
    return rng.sample([e for e in _monomials_upto(v, 3) if sum(e)], count)


def test_the_star_identity_operators_commute_with_monomials():
    rng = random.Random(SEED + 4)
    for v in (2, 4, 6):
        omega = ConstantSymplectic(v)
        alpha = omega.inverse_bivector()
        maps = (*poisson._star_sides(v), lambda mu: iota(alpha, PolyForm(v, {mu: 1})).terms,
                lambda mu: hodge_star(PolyForm(v, {mu: 1}), omega).terms)
        _assert_commutes_with_monomials(maps, v, _exponents(rng, v, 6))


def _conjugation_defect(alpha):
    """E = exp(iota) d exp(-iota) - d - L_alpha, as a map of one basis term
    to its image."""
    lhs, rhs = poisson._conjugation_sides(alpha)
    return lambda mu: _ref_add(lhs(mu), rhs(mu), -1)


def test_the_conjugation_defect_commutes_with_monomials():
    # E = exp(iota) d exp(-iota) - d - L_alpha, on bivectors that are Poisson
    # (E = 0) and that are not
    rng = random.Random(SEED + 5)
    alphas = [builtin_bivector(name) for name in ("so3", "xy", "nonjacobi4")]
    alphas += [_random_polynomial_bivector(rng, v) for v in (3, 3, 4, 4)]
    nonzero = 0
    for alpha in alphas:
        defect = _conjugation_defect(alpha)
        nonzero += any(defect(((0,) * alpha.nvars, S)) for r in range(alpha.nvars + 1)
                       for S in combinations(range(alpha.nvars), r))
        _assert_commutes_with_monomials([defect], alpha.nvars,
                                        _exponents(rng, alpha.nvars, 6))
    assert nonzero >= 3  # the sample reaches a nonzero defect


def test_the_conjugation_defect_is_a_trivector_contraction():
    # E(dx_S) = sum over the 3-subsets T of S of sgn(T, S - T) E(dx_T)
    # dx_{S - T}, with each E(dx_T) a function: so the forms dx_ijk decide
    # the conjugation identity, and E is zero below degree 3
    rng = random.Random(SEED + 6)
    alphas = [_random_polynomial_bivector(rng, v) for v in (3, 4, 5, 6) for _ in range(6)]
    alphas += [builtin_bivector(name) for name in ("so3", "nonjacobi4")]
    # Poisson on more than three variables: constant symplectic on 4 and 6,
    # and d1^d2 + x1 d2^d3 on 5
    alphas += [ConstantSymplectic(v).inverse_bivector() for v in (4, 6)]
    alphas.append(Bivector(5, {(0, 1): {(0,) * 5: 1}, (1, 2): {(1, 0, 0, 0, 0): 1}}))
    nonzero = zero = 0
    for alpha in alphas:
        v, defect = alpha.nvars, _conjugation_defect(alpha)
        null = (0,) * v
        at_triples = {T: defect((null, T)) for T in combinations(range(v), 3)}
        assert all(S == () for image in at_triples.values() for _, S in image), alpha
        for r in range(v + 1):
            for S in combinations(range(v), r):
                expected = {}
                for T in combinations(S, 3):
                    R = tuple(i for i in S if i not in T)
                    sign = (-1) ** sum(1 for t in T for i in R if t > i)
                    for (e, _), c in at_triples[T].items():
                        _acc(expected, (e, R), sign * c)
                assert defect((null, S)) == expected, (alpha, S)
        nonzero += any(at_triples.values())
        zero += not any(at_triples.values())
    assert nonzero >= 10 and zero >= 5  # the sample holds Poisson bivectors and others


@pytest.mark.parametrize("argv", [("jacobi", "--bivector", "so3"),
                                  ("jacobi", "--bivector", "nonjacobi4"),
                                  ("conjugation", "--bivector", "so3"),
                                  ("conjugation", "--bivector", "nonjacobi4"),
                                  ("star", "--nvars", "4")],
                         ids=lambda argv: "-".join(argv[::2]))
def test_the_checks_evaluate_the_same_terms_at_every_degree(monkeypatch, capsys, argv):
    # every bracket jacobi takes and every term conjugation and star compare
    # is recorded: --degree 0 and --degree 6 evaluate the same ones, and
    # conjugation compares the forms dx_ijk, in order, up to its witness
    monkeypatch.delenv("NCHODGE_CACHE_DIR", raising=False)
    evaluated = []
    bracket, first_difference = poisson.poisson_bracket, poisson._first_difference

    def recording_bracket(f, g, alpha):
        evaluated.append((sorted(f), sorted(g)))
        return bracket(f, g, alpha)

    def recording_difference(*args):
        *head, lhs, rhs = args
        return first_difference(*head, lambda mu: evaluated.append(mu) or lhs(mu), rhs)

    monkeypatch.setattr(poisson, "poisson_bracket", recording_bracket)
    monkeypatch.setattr(poisson, "_first_difference", recording_difference)
    runs = []
    for degree in ("0", "6"):
        del evaluated[:]
        main(["poisson", *argv, "--degree", degree])
        runs.append((list(evaluated), json.loads(capsys.readouterr().out)["result"]))
    assert runs[0][0] and runs[0] == runs[1]
    if argv[0] == "conjugation":
        forms, result = runs[0]
        v = builtin_bivector(argv[2]).nvars
        triples = [((0,) * v, T) for T in combinations(range(v), 3)]
        if not result["pass"]:
            triples = triples[:triples.index(((0,) * v, tuple(result["witness"]["dxs"]))) + 1]
        assert forms == triples
