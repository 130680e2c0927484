"""Polynomial differential forms with the semiclassical operators: the
Poisson bracket, contraction iota_alpha, the Brylinski differential
L_alpha = [iota_alpha, d], the symplectic Hodge star (odd-variable Fourier
transform), and the folded Poisson homology of the 2-periodic complex.

All coefficients are exact rationals.  Conventions: the contraction is
fixed by <dx ^ dy, del_x ^ del_y> via iota_alpha = sum_{i<j} alpha^{ij}
iota_{del_j} iota_{del_i} (so iota_{del_x ^ del_y}(dx ^ dy) = 1); the star
sign is pinned by the identity e^{w ^ .} = e^{iota} * e^{-iota}, which the
test suite verifies exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from math import factorial

from .fields import QQ
from .sparse import SparseMatrix, homology_rank

Poly = dict  # exponent tuple -> Fraction


class PoissonError(ValueError):
    pass


def poly_add(p: Poly, q: Poly, scale: Fraction = Fraction(1)) -> Poly:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + scale * c
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def poly_diff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[i]:
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, Fraction(0)) + c * e[i]
    return {e: c for e, c in out.items() if c != 0}


def monomial(nvars: int, exps: dict | tuple) -> Poly:
    if isinstance(exps, dict):
        e = [0] * nvars
        for i, v in exps.items():
            e[i] = v
        exps = tuple(e)
    return {tuple(exps): Fraction(1)}


@dataclass
class PolyForm:
    """Polynomial differential form sum c . x^e dx_S on affine nvars-space.

    terms maps (exponent tuple, strictly increasing dx index tuple) to a
    nonzero rational.
    """

    nvars: int
    terms: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        for (e, S), c in list(self.terms.items()):
            if len(e) != self.nvars or any(x < 0 for x in e):
                raise PoissonError(f"bad exponent vector {e}")
            if list(S) != sorted(set(S)) or any(not 0 <= i < self.nvars for i in S):
                raise PoissonError(f"bad index set {S}")
            if c == 0:
                del self.terms[(e, S)]

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "PolyForm", scale: Fraction = Fraction(1)) -> "PolyForm":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + scale * c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return PolyForm(self.nvars, out)

    def scale(self, a: Fraction) -> "PolyForm":
        if a == 0:
            return PolyForm(self.nvars, {})
        return PolyForm(self.nvars, {k: a * c for k, c in self.terms.items()})

    def coefficient_degree(self) -> int:
        return max((sum(e) for (e, _) in self.terms), default=0)

    def __eq__(self, other):
        return isinstance(other, PolyForm) and self.nvars == other.nvars \
            and self.terms == other.terms


def form_from_poly(nvars: int, p: Poly) -> PolyForm:
    return PolyForm(nvars, {(e, ()): c for e, c in p.items() if c != 0})


def monomial_form(nvars: int, exps, dxs) -> PolyForm:
    if isinstance(exps, dict):
        e = [0] * nvars
        for i, v in exps.items():
            e[i] = v
        exps = tuple(e)
    return PolyForm(nvars, {(tuple(exps), tuple(dxs)): Fraction(1)})


def d(form: PolyForm) -> PolyForm:
    """Exterior derivative."""
    out: dict = {}
    for (e, S), c in form.terms.items():
        for i in range(form.nvars):
            if e[i] == 0 or i in S:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            pos = sum(1 for j in S if j < i)
            sign = Fraction(-1) ** pos
            S2 = tuple(sorted(S + (i,)))
            key = (e2, S2)
            s = out.get(key, Fraction(0)) + sign * c * e[i]
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return PolyForm(form.nvars, out)


def _interior(form: PolyForm, i: int) -> PolyForm:
    """Contraction with del_i: removes dx_i with the positional sign."""
    out: dict = {}
    for (e, S), c in form.terms.items():
        if i not in S:
            continue
        pos = S.index(i)
        sign = Fraction(-1) ** pos
        key = (e, S[:pos] + S[pos + 1:])
        s = out.get(key, Fraction(0)) + sign * c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return PolyForm(form.nvars, out)


@dataclass
class Bivector:
    """Antisymmetric bivector alpha = sum_{i<j} alpha^{ij} del_i ^ del_j,
    components stored for i < j only; hbar is an optional rational scale
    multiplying L_alpha in the semiclassical differential."""

    nvars: int
    components: dict  # (i, j) with i < j -> Poly
    name: str = ""
    hbar: Fraction = Fraction(1)

    def __post_init__(self):
        for (i, j) in self.components:
            if not (0 <= i < j < self.nvars):
                raise PoissonError(f"bivector component ({i},{j}) out of order")

    def coefficient_degree(self) -> int:
        return max((sum(e) for p in self.components.values() for e in p),
                   default=0)


def iota(alpha: Bivector, form: PolyForm) -> PolyForm:
    """iota_alpha = sum_{i<j} alpha^{ij} iota_{del_j} iota_{del_i};
    lowers form degree by 2 and fixes <dx^dy, del_x^del_y> = 1."""
    out = PolyForm(form.nvars, {})
    for (i, j), p in alpha.components.items():
        contracted = _interior(_interior(form, i), j)
        if contracted.is_zero():
            continue
        terms: dict = {}
        for (e, S), c in contracted.terms.items():
            for e2, c2 in p.items():
                key = (tuple(a + b for a, b in zip(e, e2)), S)
                s = terms.get(key, Fraction(0)) + c * c2
                if s == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = s
        out = out.add(PolyForm(form.nvars, terms))
    return out


def lie_derivative(alpha: Bivector, form: PolyForm) -> PolyForm:
    """The Brylinski differential L_alpha = iota_alpha d - d iota_alpha."""
    return iota(alpha, d(form)).add(d(iota(alpha, form)), Fraction(-1))


def poisson_bracket(f: Poly, g: Poly, alpha: Bivector) -> Poly:
    """{f, g} = sum_{i<j} alpha^{ij} (d_i f d_j g - d_j f d_i g)."""
    out: Poly = {}
    for (i, j), p in alpha.components.items():
        term = poly_add(poly_mul(poly_diff(f, i), poly_diff(g, j)),
                        poly_mul(poly_diff(f, j), poly_diff(g, i)), Fraction(-1))
        out = poly_add(out, poly_mul(p, term))
    return out


def _monomials_upto(nvars: int, deg: int):
    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            for e in range(left + 1):
                out.append(tuple(prefix + [e]))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e, slots - 1)

    rec([], deg, nvars)
    return sorted(set(out), key=lambda e: (sum(e), e))


def jacobi_check(alpha: Bivector, D: int) -> dict:
    """Evaluate the Jacobiator {f,{g,h}} + cyclic on all coordinate triples
    and all monomial triples of degree <= D; pass iff identically zero."""
    v = alpha.nvars
    coords = [monomial(v, {i: 1}) for i in range(v)]
    mons = [monomial(v, e) for e in _monomials_upto(v, D) if sum(e) > 0]

    def jacobiator(f, g, h):
        out = poisson_bracket(f, poisson_bracket(g, h, alpha), alpha)
        out = poly_add(out, poisson_bracket(g, poisson_bracket(h, f, alpha), alpha))
        out = poly_add(out, poisson_bracket(h, poisson_bracket(f, g, alpha), alpha))
        return out

    for trip in combinations(range(len(coords)), 3):
        r = jacobiator(coords[trip[0]], coords[trip[1]], coords[trip[2]])
        if r:
            return {"pass": False, "witness": ["coords", list(trip)], "value": _poly_str(r)}
    for a in range(len(mons)):
        for b in range(a, len(mons)):
            for c in range(b, len(mons)):
                r = jacobiator(mons[a], mons[b], mons[c])
                if r:
                    return {"pass": False, "witness": ["monomials", [a, b, c]],
                            "value": _poly_str(r)}
    return {"pass": True, "witness": None}


def _poly_str(p: Poly) -> str:
    bits = []
    for e in sorted(p):
        mon = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k) or "1"
        bits.append(f"{p[e]}*{mon}")
    return " + ".join(bits) or "0"


def _exp_iota(alpha: Bivector, form: PolyForm, sign: int = 1) -> PolyForm:
    """exp(sign * iota_alpha) applied to a form (finite: degree drops by 2)."""
    out = form
    term = form
    k = 1
    while True:
        term = iota(alpha, term)
        if term.is_zero():
            return out
        out = out.add(term, Fraction(sign ** k, factorial(k)))
        k += 1


def conjugation_check(alpha: Bivector, D: int) -> dict:
    """Verify exp(iota) d exp(-iota) = d + L_alpha on every monomial form of
    coefficient degree <= D (exactly; no truncation is needed since the
    exponentials are finite)."""
    v = alpha.nvars
    for e in _monomials_upto(v, D):
        for r in range(v + 1):
            for S in combinations(range(v), r):
                mu = monomial_form(v, e, S)
                lhs = _exp_iota(alpha, d(_exp_iota(alpha, mu, -1)))
                rhs = d(mu).add(lie_derivative(alpha, mu))
                if lhs != rhs:
                    return {"pass": False,
                            "witness": {"exponents": list(e), "dxs": list(S)}}
    return {"pass": True, "witness": None}


# ---------------------------------------------------------------------------
# constant symplectic structures and the odd-variable Fourier transform
# ---------------------------------------------------------------------------


@dataclass
class ConstantSymplectic:
    """The standard form w = dx1^dx2 + dx3^dx4 + ... on even dimension."""

    nvars: int

    def __post_init__(self):
        if self.nvars % 2 != 0:
            raise PoissonError("symplectic dimension must be even")

    def pairs(self):
        return [(2 * a, 2 * a + 1) for a in range(self.nvars // 2)]

    def form(self) -> PolyForm:
        zero = tuple([0] * self.nvars)
        return PolyForm(self.nvars, {(zero, (i, j)): Fraction(1)
                                     for i, j in self.pairs()})

    def inverse_bivector(self) -> Bivector:
        zero = tuple([0] * self.nvars)
        return Bivector(self.nvars, {(i, j): {zero: Fraction(1)}
                                     for i, j in self.pairs()}, name="standard")


def _grassmann_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ga, ca in a.items():
        for gb, cb in b.items():
            if set(ga) & set(gb):
                continue
            merged = ga + gb
            # Koszul sign of sorting the concatenation
            sign = 1
            lst = list(merged)
            for i in range(len(lst)):
                for j in range(i + 1, len(lst)):
                    if lst[i] > lst[j]:
                        sign = -sign
            key = tuple(sorted(merged))
            s = out.get(key, Fraction(0)) + sign * ca * cb
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def hodge_star(form: PolyForm, omega: ConstantSymplectic) -> PolyForm:
    """The symplectic Hodge star as the Fourier transform in odd variables.

    dx_i become odd generators xi_i; the kernel is exp(B) with
    B = sum_pairs (xi_i eta_j - xi_j eta_i), and the Berezin integral over
    the xi's (normalized so int xi_1...xi_v dxi = 1) yields the transform
    in the eta's, scaled by the global sign (-1)^{v/2}.  With this pinning
    *(1) = dx^dy and *(dx^dy) = -1 in two variables, and the star identity
    e^{w ^ .} = e^{iota_alpha} o * o e^{iota_alpha} holds exactly (see
    star_identity_check); no other degree-homogeneous star satisfies it.
    """
    v = omega.nvars
    if form.nvars != v:
        raise PoissonError("variable count mismatch")
    # generators: 0..v-1 are xi_i, v..2v-1 are eta_i
    kernel_b: dict = {}
    for i, j in omega.pairs():
        kernel_b = poly_add(kernel_b, {(i, v + j): Fraction(1)})
        kernel_b = poly_add(kernel_b, {(j, v + i): Fraction(-1)})
    exp_b = {(): Fraction(1)}
    term = {(): Fraction(1)}
    for k in range(1, v + 1):
        term = _grassmann_mul(term, kernel_b)
        if not term:
            break
        for g, c in term.items():
            s = exp_b.get(g, Fraction(0)) + c / factorial(k)
            if s == 0:
                exp_b.pop(g, None)
            else:
                exp_b[g] = s
    full = tuple(range(v))
    global_sign = Fraction(-1) ** (v // 2)
    out: dict = {}
    for (e, S), c in form.terms.items():
        c = c * global_sign
        integrand = _grassmann_mul({tuple(S): Fraction(1)}, exp_b)
        for g, cg in integrand.items():
            xi_part = tuple(i for i in g if i < v)
            if xi_part != full:
                continue
            eta_part = tuple(i - v for i in g if i >= v)
            key = (e, eta_part)
            s = out.get(key, Fraction(0)) + c * cg
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return PolyForm(v, out)


def star_identity_check(nvars: int, D: int) -> dict:
    """Verify the star identity on all monomial forms of coefficient degree
    <= D, for the standard constant symplectic structure.

    The identity checked is e^{w ^ .} = e^{iota_alpha} o * o e^{iota_alpha}.
    With the contraction normalized by <del_x ^ del_y, dx ^ dy> = 1 this is
    the only sign placement admitting any degree-homogeneous star at all:
    comparing the degree-0 and top-degree diagonal components shows the
    variant with opposite exponents forces +1 = -1.
    """
    omega = ConstantSymplectic(nvars)
    alpha = omega.inverse_bivector()
    w = omega.form()

    def wedge_exp_omega(mu: PolyForm) -> PolyForm:
        out = mu
        term = mu
        k = 1
        while True:
            nxt: dict = {}
            for (e, S), c in term.terms.items():
                for (_, W), cw in w.terms.items():
                    if set(W) & set(S):
                        continue
                    lst = list(S) + list(W)
                    sign = 1
                    for ii in range(len(lst)):
                        for jj in range(ii + 1, len(lst)):
                            if lst[ii] > lst[jj]:
                                sign = -sign
                    key = (e, tuple(sorted(lst)))
                    s = nxt.get(key, Fraction(0)) + sign * c * cw
                    if s == 0:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = s
            term = PolyForm(mu.nvars, nxt)
            if term.is_zero():
                return out
            out = out.add(term, Fraction(1, factorial(k)))
            k += 1

    for e in _monomials_upto(nvars, D):
        for r in range(nvars + 1):
            for S in combinations(range(nvars), r):
                mu = monomial_form(nvars, e, S)
                lhs = wedge_exp_omega(mu)
                rhs = _exp_iota(alpha, hodge_star(_exp_iota(alpha, mu), omega))
                if lhs != rhs:
                    return {"pass": False,
                            "witness": {"exponents": list(e), "dxs": list(S)}}
    return {"pass": True, "witness": None}


# ---------------------------------------------------------------------------
# folded Poisson homology
# ---------------------------------------------------------------------------


def _form_basis(nvars: int, D: int):
    """Monomial forms of total degree |e| + |S| <= D.

    Truncating by total degree (each dx counting 1) keeps whole homogeneous
    pieces of the de Rham complex, so for operators that do not raise total
    degree the truncation is an honest subcomplex.
    """
    out = []
    for r in range(nvars + 1):
        for S in combinations(range(nvars), r):
            for e in _monomials_upto(nvars, D - r):
                out.append((e, tuple(S)))
    return out


def _folded_ranks(alpha: Bivector, D: int):
    """Ranks of the folded (d + hbar L_alpha)-complex on forms of total
    degree <= D (overflowing terms dropped)."""
    v = alpha.nvars
    basis = _form_basis(v, D)
    evens = [b for b in basis if len(b[1]) % 2 == 0]
    odds = [b for b in basis if len(b[1]) % 2 == 1]
    idx_e = {b: i for i, b in enumerate(evens)}
    idx_o = {b: i for i, b in enumerate(odds)}

    def diff_matrix(src, dst_idx):
        entries = {}
        for c, (e, S) in enumerate(src):
            mu = monomial_form(v, e, S)
            img = d(mu).add(lie_derivative(alpha, mu).scale(alpha.hbar))
            for (e2, S2), coeff in img.terms.items():
                if sum(e2) + len(S2) > D:
                    continue  # truncation overflow, flagged by guard logic
                entries[(dst_idx[(e2, S2)], c)] = coeff
        return SparseMatrix(len(dst_idx), len(src), entries)

    d_eo = diff_matrix(evens, idx_o)
    d_oe = diff_matrix(odds, idx_e)

    if not (d_eo.mul(d_oe, QQ).is_zero() and d_oe.mul(d_eo, QQ).is_zero()):
        # alpha mixes coefficients of degree <= 1 and >= 3: terms dropped
        # above the cutoff would have mapped back below it
        raise PoissonError(f"truncation at total degree {D} breaks "
                           f"(d + hbar L_alpha)^2 = 0; no homology to report")
    even = homology_rank(d_eo, d_oe, QQ)
    # Both parities are dims minus the same two ranks, so they differ by
    # the difference of the dims (the 2-periodic Euler characteristic).
    return {"even": even, "odd": even - len(evens) + len(odds)}


def poisson_homology_ranks(alpha: Bivector, D: int) -> dict:
    """Stable ranks per parity of the folded (d + L_alpha)-complex on
    polynomial forms of total degree <= D, with a cutoff-comparison guard
    band.

    Ranks are computed at cutoff D and at the guarded cutoff
    D - max(2, top coefficient degree of alpha); they are reported stable
    only when the two agree.
    """
    guard = max(2, alpha.coefficient_degree())
    if D - guard < 0:
        raise PoissonError(f"degree bound {D} too small for guard band {guard}")
    full = _folded_ranks(alpha, D)
    guarded = _folded_ranks(alpha, D - guard)
    stable = full == guarded
    return {
        "even": guarded["even"],
        "odd": guarded["odd"],
        "stable": stable,
        "at_cutoff": full,
        "at_guarded_cutoff": guarded,
        "cutoff": D,
        "guard_band": guard,
    }


# ---------------------------------------------------------------------------
# bivector catalogue
# ---------------------------------------------------------------------------


def builtin_bivector(name: str, nvars: int | None = None) -> Bivector:
    """Named sample bivectors: standard (constant symplectic inverse),
    xy (the comparison example xy del_x ^ del_y), so3 (the linear
    3-dimensional Lie-Poisson structure), nonjacobi4 (a constant-plus-linear
    bivector in 4 variables with nonzero Jacobiator), zero."""
    one = Fraction(1)
    if name == "standard":
        v = nvars or 2
        return ConstantSymplectic(v).inverse_bivector()
    if name == "xy":
        return Bivector(2, {(0, 1): {(1, 1): one}}, name="xy")
    if name == "so3":
        return Bivector(3, {
            (0, 1): {(0, 0, 1): one},      # x3 d1^d2
            (1, 2): {(1, 0, 0): one},      # x1 d2^d3
            (0, 2): {(0, 1, 0): -one},     # x2 d3^d1 = -x2 d1^d3
        }, name="so3")
    if name == "nonjacobi4":
        # alpha = x2 d1^d2 + d2^d3 + d3^d4: the Jacobiator on (x1,x2,x3)
        # evaluates to the constant -1.
        z = (0, 0, 0, 0)
        return Bivector(4, {
            (0, 1): {(0, 1, 0, 0): one},
            (1, 2): {z: one},
            (2, 3): {z: one},
        }, name="nonjacobi4")
    if name == "zero":
        v = nvars or 2
        return Bivector(v, {}, name="zero")
    raise PoissonError(f"unknown bivector {name!r}")


BIVECTOR_CATALOGUE = ("standard", "xy", "so3", "nonjacobi4", "zero")
