from fractions import Fraction

import pytest

from nchodge.poisson import (BIVECTOR_CATALOGUE, Bivector, ConstantSymplectic,
                             PoissonError, builtin_bivector, conjugation_check,
                             d, hodge_star, iota, jacobi_check, lie_derivative,
                             monomial, monomial_form, poisson_bracket,
                             poisson_homology_ranks, star_identity_check)


def test_d_squared_zero():
    for e, S in (((2, 1), ()), ((1, 0), (1,)), ((3, 2), (0,))):
        assert d(d(monomial_form(2, e, S))).is_zero()


def test_iota_pairing_convention():
    # <d/dx ^ d/dy, dx ^ dy> = 1
    alpha = builtin_bivector("standard", 2)
    dxdy = monomial_form(2, (0, 0), (0, 1))
    assert iota(alpha, dxdy).terms == {((0, 0), ()): Fraction(1)}


def test_standard_bracket():
    alpha = builtin_bivector("standard", 2)
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
    assert jacobi_check(builtin_bivector("standard", 2), 2)["pass"]
    assert jacobi_check(builtin_bivector("so3"), 3)["pass"]
    assert jacobi_check(builtin_bivector("xy"), 2)["pass"]
    bad = jacobi_check(builtin_bivector("nonjacobi4"), 2)
    assert not bad["pass"]
    assert bad["witness"] is not None


def test_lie_derivative_values():
    alpha = builtin_bivector("standard", 2)
    # L_alpha(x dy) = 1
    r = lie_derivative(alpha, monomial_form(2, (1, 0), (1,)))
    assert r.terms == {((0, 0), ()): Fraction(1)}
    # L_alpha(x dx ^ dy) = -dx
    r2 = lie_derivative(alpha, monomial_form(2, (1, 0), (0, 1)))
    assert r2.terms == {((0, 0), (0,)): Fraction(-1)}


def test_lie_squared_zero_for_poisson():
    alpha = builtin_bivector("standard", 2)
    for e, S in (((1, 2), (0,)), ((2, 0), (0, 1)), ((3, 1), ())):
        assert lie_derivative(alpha, lie_derivative(
            alpha, monomial_form(2, e, S))).is_zero()


def test_conjugation_identity():
    assert conjugation_check(builtin_bivector("standard", 2), 6)["pass"]
    assert conjugation_check(builtin_bivector("so3"), 4)["pass"]
    bad = conjugation_check(builtin_bivector("nonjacobi4"), 2)
    assert not bad["pass"]


def test_hodge_star_2var_signs():
    omega = ConstantSymplectic(2)
    star = lambda e, S: hodge_star(monomial_form(2, e, S), omega).terms
    assert star((0, 0), ()) == {((0, 0), (0, 1)): Fraction(1)}
    assert star((0, 0), (0,)) == {((0, 0), (0,)): Fraction(1)}
    assert star((0, 0), (1,)) == {((0, 0), (1,)): Fraction(1)}
    assert star((0, 0), (0, 1)) == {((0, 0), ()): Fraction(-1)}


def test_star_identity():
    assert star_identity_check(2, 6)["pass"]
    assert star_identity_check(4, 4)["pass"]


def test_symplectic_needs_even_vars():
    with pytest.raises(PoissonError):
        ConstantSymplectic(3)


def test_poisson_homology_standard_and_zero():
    rep = poisson_homology_ranks(builtin_bivector("standard", 2), 6)
    assert (rep["even"], rep["odd"]) == (1, 0)
    assert rep["stable"]
    rep0 = poisson_homology_ranks(builtin_bivector("zero", 2), 6)
    assert rep0["stable"]
    assert (rep0["even"], rep0["odd"]) == (1, 0)


def test_poisson_homology_so3():
    rep = poisson_homology_ranks(builtin_bivector("so3"), 5)
    assert rep["stable"]
    assert (rep["even"], rep["odd"]) == (1, 0)


def test_hbar_scaling():
    # with hbar = 0 the deformation term drops and L contributes nothing
    alpha = builtin_bivector("standard", 2)
    zero_h = Bivector(2, alpha.components, name="h0", hbar=Fraction(0))
    rep = poisson_homology_ranks(zero_h, 4)
    rep_zero = poisson_homology_ranks(builtin_bivector("zero", 2), 4)
    assert (rep["even"], rep["odd"]) == (rep_zero["even"], rep_zero["odd"])


def test_catalogue_complete():
    assert set(BIVECTOR_CATALOGUE) == {"standard", "xy", "so3", "nonjacobi4",
                                       "zero"}


def test_homology_refuses_truncation_that_breaks_the_complex():
    # Poisson (Jacobi holds), but mixing a constant and a cubic coefficient:
    # terms dropped above the cutoff would map back below it, so the
    # truncated folded complex is not a complex
    one = Fraction(1)
    alpha = Bivector(3, {(0, 2): {(1, 2, 0): 2 * one}, (1, 2): {(0, 0, 0): one}})
    assert jacobi_check(alpha, 2)["pass"]
    with pytest.raises(PoissonError, match="breaks"):
        poisson_homology_ranks(alpha, 4)
