"""Polynomial differential forms with the semiclassical operators: the
Poisson bracket, contraction iota_alpha, the Brylinski differential
L_alpha = [iota_alpha, d], the symplectic Hodge star (odd-variable Fourier
transform), and the folded Poisson homology of the 2-periodic complex.

All coefficients are exact rationals.  Conventions: the contraction is
fixed by <dx ^ dy, del_x ^ del_y> via iota_alpha = sum_{i<j} alpha^{ij}
iota_{del_j} iota_{del_i} (so iota_{del_x ^ del_y}(dx ^ dy) = 1); the star
sign is pinned by the identity e^{w ^ .} = e^{iota} * e^{-iota}, which the
test suite verifies exactly.

Every operator is linear and is applied as a linear map over term tables.
A form is its dict of terms, (exponent tuple, increasing dx index tuple)
-> nonzero coefficient, and a polynomial its dict exponent tuple ->
coefficient.  `_apply` adds scale * L(terms) into an output dict, reading
the image of each basis term from a table; a `_Table` computes the image of
a term on first use and keeps it.  Each check makes its tables (d, iota,
exp(+-iota), wedge with w, the star) once per call, so no image is computed
twice within a call.

Each identity check evaluates the generators that decide it, and nothing
else.  The Jacobiator of the bracket is an alternating triderivation, so
the coordinate triples (x_i, x_j, x_k), i < j < k, decide the Jacobi
identity.  The conjugation defect exp(iota) d exp(-iota) - d - L_alpha is
ad(iota)^2(d) / 2 = [iota, L_alpha] / 2, a contraction by a trivector with
polynomial coefficients (ad(iota)^3(d) = 0, as contractions commute); so
the forms dx_ijk, i < j < k, decide the conjugation identity.  Both sides
of the star identity commute with multiplication by every monomial x^e,
so the 2^nvars forms dx_S decide it.  The identity checks take no degree
bound, and refuse more than MAX_NVARS variables before anything is built.
One thing is kept for the whole process: `_star_table`, a module-level
`lru_cache` of the star of every dx_S in v variables, read off one exp(B)
per v.  Sharing it across calls is safe because its value depends only on
v, not on any bivector, form or field of a call.

The folded homology is the homology of the 2-periodic complex of forms
of total degree <= D, even forms against odd ones, under d + hbar
L_alpha.  Its two matrices go to `umodule.u_module_decompose` at N = 1,
the route of every folded complex into the elimination: one square-zero
check and one elimination per differential, with the homology read off
as free ranks.

Validation happens where outside input enters: the public `PolyForm(...)`
constructor (used by `monomial_form` and by the command line's --form)
checks every term.  Results of the operators keep the invariants by
construction (sorted distinct dx indices in range, non-negative exponents
of length nvars, no zero coefficient) and are wrapped unchecked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import comb, factorial
from operator import add

from .algebra import _monomials_upto
from .fields import QQ, SizeError
from .sparse import SparseMatrix
from .umodule import ContractViolation, UComplex, UTruncation, u_module_decompose

Poly = dict  # exponent tuple -> rational (int or Fraction)


class PoissonError(ValueError):
    pass


# ---------------------------------------------------------------------------
# linear maps over term tables
# ---------------------------------------------------------------------------


class _Table(dict):
    """The images of basis terms under one linear map: term -> image dict,
    each computed by `image_of` on first use and kept.  Images are shared,
    so they are read, never written."""

    __slots__ = ("image_of",)

    def __init__(self, image_of):
        super().__init__()
        self.image_of = image_of

    def __missing__(self, term):
        image = self[term] = self.image_of(term)
        return image


def _apply(image_of_term, terms: dict, scale, out: dict) -> dict:
    """out += scale * L(terms), where image_of_term maps each basis term to
    its image under L (None: L is the identity); zero sums are dropped.
    Returns out."""
    for k, c in terms.items():
        c = c * scale
        for k2, c2 in ((k, 1),) if image_of_term is None else image_of_term[k].items():
            s = out.get(k2, 0) + c * c2
            if s:
                out[k2] = s
            else:
                out.pop(k2, None)
    return out


def _exp_term(image_of_term, sign: int, term) -> dict:
    """exp(sign * L) of one basis term, for a nilpotent L given by its
    table: the series stops at the first zero power."""
    out = {term: 1}
    power = {term: 1}
    k = 1
    while True:
        power = _apply(image_of_term, power, 1, {})
        if not power:
            return out
        _apply(None, power, QQ.from_fraction(Fraction(sign ** k, factorial(k))), out)
        k += 1


def _times(S: tuple, b: dict) -> dict:
    """dx_S ^ b for b a dict of increasing index tuples -> coefficients,
    with the Koszul sign of sorting each concatenation."""
    out = {}
    for W, c in b.items():
        if set(S).isdisjoint(W):
            swaps = sum(1 for s in S for t in W if s > t)
            out[tuple(sorted(S + W))] = -c if swaps % 2 else c
    return out


# ---------------------------------------------------------------------------
# polynomials and forms
# ---------------------------------------------------------------------------


def poly_mul(p: Poly, q: Poly) -> Poly:
    return _apply({e1: {tuple(map(add, e1, e2)): c2 for e2, c2 in q.items()} for e1 in p},
                  p, 1, {})


def poly_diff(p: Poly, i: int) -> Poly:
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.items() if e[i]}


def monomial(nvars: int, exps: dict | tuple) -> Poly:
    if isinstance(exps, dict):
        e = [0] * nvars
        for i, v in exps.items():
            e[i] = v
        exps = tuple(e)
    return {tuple(exps): 1}


class PolyForm:
    """Polynomial differential form sum c . x^e dx_S on affine nvars-space.

    terms maps (exponent tuple, strictly increasing dx index tuple) to a
    nonzero rational.  The constructor checks every term and drops zero
    coefficients; operator results are built by `_of`, unchecked.
    """

    def __init__(self, nvars: int, terms: dict):
        for (e, S), c in list(terms.items()):
            if len(e) != nvars or any(x < 0 for x in e):
                raise PoissonError(f"bad exponent vector {e}")
            if list(S) != sorted(set(S)) or any(not 0 <= i < nvars for i in S):
                raise PoissonError(f"bad index set {S}")
            if c == 0:
                del terms[(e, S)]
        self.nvars = nvars
        self.terms = terms

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "PolyForm":
        """A form from terms that keep the invariants, without checking."""
        form = cls.__new__(cls)
        form.nvars, form.terms = nvars, terms
        return form

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "PolyForm", scale=1) -> "PolyForm":
        return PolyForm._of(self.nvars, _apply(None, other.terms, scale, dict(self.terms)))

    def scale(self, a) -> "PolyForm":
        return PolyForm._of(self.nvars, _apply(None, self.terms, a, {}))


def monomial_form(nvars: int, exps, dxs) -> PolyForm:
    return PolyForm(nvars, {(tuple(exps), tuple(dxs)): 1})


def _d_term(term) -> dict:
    """d(x^e dx_S) = sum_i e_i x^{e - 1_i} dx_i ^ dx_S."""
    e, S = term
    out = {}
    for i, k in enumerate(e):
        if k and i not in S:
            pos = sum(1 for j in S if j < i)
            out[(e[:i] + (k - 1,) + e[i + 1:], tuple(sorted(S + (i,))))] = -k if pos % 2 else k
    return out


def _iota_term(alpha: "Bivector", term) -> dict:
    """iota_alpha(x^e dx_S) = sum_{i<j} alpha^{ij} x^e iota_{del_j} iota_{del_i} dx_S."""
    e, S = term
    out: dict = {}
    for (i, j), p in alpha.components.items():
        if i not in S or j not in S:
            continue
        pi = S.index(i)
        rest = S[:pi] + S[pi + 1:]
        pj = rest.index(j)
        rest = rest[:pj] + rest[pj + 1:]
        _apply(None, {(tuple(map(add, e, e2)), rest): c2 for e2, c2 in p.items()},
               (-1) ** (pi + pj), out)
    return out


def _lie(d_of: _Table, iota_of: _Table, terms: dict, scale, out: dict) -> dict:
    """out += scale * L_alpha(terms), L_alpha = iota_alpha d - d iota_alpha."""
    _apply(iota_of, _apply(d_of, terms, 1, {}), scale, out)
    return _apply(d_of, _apply(iota_of, terms, 1, {}), -scale, out)


def d(form: PolyForm) -> PolyForm:
    """Exterior derivative."""
    return PolyForm._of(form.nvars, _apply(_Table(_d_term), form.terms, 1, {}))


class Bivector:
    """Antisymmetric bivector alpha = sum_{i<j} alpha^{ij} del_i ^ del_j,
    components stored for i < j only; hbar is an optional rational scale
    multiplying L_alpha in the semiclassical differential."""

    def __init__(self, nvars: int, components: dict, name: str = "",
                 hbar: int | Fraction = 1):
        for (i, j) in components:
            if not (0 <= i < j < nvars):
                raise PoissonError(f"bivector component ({i},{j}) out of order")
        self.nvars = nvars
        self.components = components  # (i, j) with i < j -> Poly
        self.name = name
        self.hbar = hbar

    def coefficient_degree(self) -> int:
        return max((sum(e) for p in self.components.values() for e in p),
                   default=0)


def iota(alpha: Bivector, form: PolyForm) -> PolyForm:
    """iota_alpha = sum_{i<j} alpha^{ij} iota_{del_j} iota_{del_i};
    lowers form degree by 2 and fixes <dx^dy, del_x^del_y> = 1."""
    return PolyForm._of(form.nvars, _apply(_Table(partial(_iota_term, alpha)),
                                           form.terms, 1, {}))


def lie_derivative(alpha: Bivector, form: PolyForm) -> PolyForm:
    """The Brylinski differential L_alpha = iota_alpha d - d iota_alpha."""
    return PolyForm._of(form.nvars, _lie(_Table(_d_term), _Table(partial(_iota_term, alpha)),
                                         form.terms, 1, {}))


def _variables(p: Poly) -> set:
    """The variables that occur in p."""
    return {i for e in p for i, k in enumerate(e) if k}


def poisson_bracket(f: Poly, g: Poly, alpha: Bivector) -> Poly:
    """{f, g} = sum_{i<j} alpha^{ij} (d_i f d_j g - d_j f d_i g), summed
    over the components (i, j) where one of f and g has x_i and the other
    x_j: on every other component both products are zero."""
    fv, gv = _variables(f), _variables(g)
    out: Poly = {}
    for (i, j), p in alpha.components.items():
        if not ((i in fv and j in gv) or (j in fv and i in gv)):
            continue
        term = _apply(None, poly_mul(poly_diff(f, j), poly_diff(g, i)), -1,
                      poly_mul(poly_diff(f, i), poly_diff(g, j)))
        _apply(None, poly_mul(p, term), 1, out)
    return out


# One bound on the variable count of every identity check.  At 12
# variables each stays under 1 s on the worst input measured: the star
# identity 0.43-0.72 s; jacobi 0.11 s on the quadratic bivector
# sum_{i<j} (i+j+1) x_i x_j d_i^d_j, as each bracket visits only the
# components that touch both its arguments; conjugation on the dx_ijk
# 0.02-0.04 s (on every dx_S it took 44 s and 2.0 GB).
MAX_NVARS = 12


def _triples(nvars: int):
    """The coordinate triples i < j < k of nvars variables, in order: the
    generators of the Jacobi and the conjugation identity.  More than
    MAX_NVARS variables are refused when this is called, before any triple
    is made."""
    if nvars > MAX_NVARS:
        raise SizeError(f"bivector on {nvars} variables exceeds MAX_NVARS = {MAX_NVARS}")
    return combinations(range(nvars), 3)


def jacobi_check(alpha: Bivector) -> dict:
    """Evaluate the Jacobiator {f,{g,h}} + cyclic on the coordinate triples
    (x_i, x_j, x_k), i < j < k; pass iff it vanishes on each, else fail with
    the first triple where it does not.

    The coordinate triples decide the identity.  The bracket is an
    antisymmetric biderivation, so its Jacobiator J is an alternating
    triderivation: J(f, g, h) = sum_{i,j,k} d_i f d_j g d_k h J(x_i, x_j, x_k),
    and J is zero on a triple that repeats a coordinate."""
    v = alpha.nvars
    for trip in _triples(v):
        f, g, h = ({tuple(int(k == i) for k in range(v)): 1} for i in trip)
        r: Poly = {}
        for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
            _apply(None, poisson_bracket(a, poisson_bracket(b, c, alpha), alpha), 1, r)
        if r:
            return {"pass": False, "witness": ["coords", list(trip)], "value": _poly_str(r)}
    return {"pass": True, "witness": None}


def _poly_str(p: Poly) -> str:
    bits = []
    for e in sorted(p):
        mon = "*".join(f"x{i+1}^{k}" for i, k in enumerate(e) if k) or "1"
        bits.append(f"{p[e]}*{mon}")
    return " + ".join(bits) or "0"


def _first_difference(nvars: int, subsets, lhs, rhs) -> dict:
    """Compare lhs(mu) and rhs(mu) on the forms mu = dx_S (exponent 0), S in
    subsets, in order: pass, or fail with the first dx_S where the two
    differ."""
    zero = (0,) * nvars
    for S in subsets:
        if lhs((zero, S)) != rhs((zero, S)):
            return {"pass": False, "witness": {"exponents": list(zero), "dxs": list(S)}}
    return {"pass": True, "witness": None}


def _conjugation_sides(alpha: Bivector):
    """The two sides of exp(iota) d exp(-iota) = d + L_alpha, each as a map
    of one basis term to its image."""
    d_of = _Table(_d_term)
    iota_of = _Table(partial(_iota_term, alpha))
    exp_plus = _Table(partial(_exp_term, iota_of, 1))
    exp_minus = _Table(partial(_exp_term, iota_of, -1))
    return (lambda mu: _apply(exp_plus, _apply(d_of, exp_minus[mu], 1, {}), 1, {}),
            lambda mu: _lie(d_of, iota_of, {mu: 1}, 1, dict(d_of[mu])))


def conjugation_check(alpha: Bivector) -> dict:
    """Verify exp(iota) d exp(-iota) = d + L_alpha exactly (the exponentials
    are finite) on the forms dx_ijk, i < j < k, which decide it for every
    bivector; fail with the first dx_ijk where the two sides differ.

    The defect E = exp(iota) d exp(-iota) - d - L_alpha is the sum of the
    terms ad(iota)^k (d) / k!, k >= 2.  ad(iota)^2(d) = [iota, L_alpha] is
    a contraction by a trivector with polynomial coefficients, and
    ad(iota)^3(d) = 0, as contractions commute.  So E is zero on forms of
    degree below 3, E(x^e dx_S) = x^e E(dx_S), and E(dx_S) is the sum over
    the 3-subsets T of S of E(dx_T) dx_{S - T}, signed as dx_S =
    +-dx_T ^ dx_{S - T}.  The triples are those of `jacobi_check`, in its
    order, and bounded as there."""
    return _first_difference(alpha.nvars, _triples(alpha.nvars), *_conjugation_sides(alpha))


# ---------------------------------------------------------------------------
# constant symplectic structures and the odd-variable Fourier transform
# ---------------------------------------------------------------------------


class ConstantSymplectic:
    """The standard form w = dx1^dx2 + dx3^dx4 + ... on even dimension, at
    most MAX_NVARS."""

    def __init__(self, nvars: int):
        if nvars < 2 or nvars % 2 != 0:
            raise PoissonError(f"symplectic dimension must be positive and even, "
                               f"got {nvars}")
        if nvars > MAX_NVARS:
            raise SizeError(f"symplectic dimension {nvars} exceeds MAX_NVARS = {MAX_NVARS}")
        self.nvars = nvars

    def pairs(self):
        return [(2 * a, 2 * a + 1) for a in range(self.nvars // 2)]

    def inverse_bivector(self) -> Bivector:
        zero = tuple([0] * self.nvars)
        return Bivector(self.nvars, {(i, j): {zero: 1}
                                     for i, j in self.pairs()}, name="standard")


@lru_cache(maxsize=None)
def _star_table(v: int) -> dict:
    """The star of every dx_S in the standard v-variable structure, S ->
    ((eta index tuple, coefficient), ...); see `hodge_star`.

    One exp(B) serves every S.  A term g of exp(B) survives dx_S ^ g and
    the Berezin integral exactly when its xi-part is the complement of S,
    and it then contributes its eta-part, with the Koszul sign of sorting
    dx_S into that xi-part (the eta's come after every xi).  So the terms
    of exp(B) are grouped by the S whose star they make, in exp(B)'s order;
    exp(B) is the product over the pairs of 1 + B_pair + B_pair^2 / 2, so
    every xi-part, and with it every S, occurs.
    """
    # generators: 0..v-1 are xi_i, v..2v-1 are eta_i
    kernel_b: dict = {}
    for i, j in ConstantSymplectic(v).pairs():
        kernel_b[(i, v + j)] = 1
        kernel_b[(j, v + i)] = -1
    # exp(B) = exp(. ^ B) applied to the empty product 1
    exp_b = _exp_term(_Table(partial(_times, b=kernel_b)), 1, ())
    global_sign = (-1) ** (v // 2)
    table: dict = {}
    for g, cg in exp_b.items():
        xi = [i for i in g if i < v]
        S = tuple(i for i in range(v) if i not in xi)
        sign = global_sign * (-1) ** sum(1 for s in S for t in xi if s > t)
        table.setdefault(S, []).append((tuple(i - v for i in g if i >= v),
                                        QQ.from_fraction(Fraction(sign * cg))))
    return {S: tuple(terms) for S, terms in table.items()}


def _star_term(v: int, term) -> dict:
    """star(x^e dx_S) = x^e * star(dx_S)."""
    e, S = term
    return {(e, eta): c for eta, c in _star_table(v)[S]}


def hodge_star(form: PolyForm, omega: ConstantSymplectic) -> PolyForm:
    """The symplectic Hodge star as the Fourier transform in odd variables.

    dx_i become odd generators xi_i; the kernel is exp(B) with
    B = sum_pairs (xi_i eta_j - xi_j eta_i), and the Berezin integral over
    the xi's (normalized so int xi_1...xi_v dxi = 1) yields the transform
    in the eta's, scaled by the global sign (-1)^{v/2}.  With this pinning
    *(1) = dx^dy and *(dx^dy) = -1 in two variables, and the star identity
    e^{w ^ .} = e^{iota_alpha} o * o e^{iota_alpha} holds exactly (see
    star_identity_check); no other degree-homogeneous star satisfies it.
    The transforms of every dx_S are read off one exp(B) per v
    (`_star_table`); the star maps x^e dx_S to x^e * star(dx_S).
    """
    v = omega.nvars
    if form.nvars != v:
        raise PoissonError("variable count mismatch")
    return PolyForm._of(v, _apply(_Table(partial(_star_term, v)), form.terms, 1, {}))


def _star_sides(nvars: int):
    """The two sides of e^{w ^ .} = e^{iota_alpha} o * o e^{iota_alpha} for
    the standard structure on nvars variables, each as a map of one basis
    term to its image."""
    omega = ConstantSymplectic(nvars)
    w = dict.fromkeys(omega.pairs(), 1)
    iota_of = _Table(partial(_iota_term, omega.inverse_bivector()))
    exp_iota = _Table(partial(_exp_term, iota_of, 1))
    star_of = _Table(partial(_star_term, nvars))
    # mu -> mu ^ w
    wedge_w = _Table(lambda term: {(term[0], S): c for S, c in _times(term[1], w).items()})
    exp_wedge = _Table(partial(_exp_term, wedge_w, 1))
    return (lambda mu: exp_wedge[mu],
            lambda mu: _apply(exp_iota, _apply(star_of, exp_iota[mu], 1, {}), 1, {}))


def star_identity_check(nvars: int) -> dict:
    """Verify the star identity on the forms dx_S, for the standard constant
    symplectic structure; they decide it, as every operator in it (wedge
    with w, iota_alpha of a constant alpha, the star) commutes with
    multiplication by x^e.

    The identity checked is e^{w ^ .} = e^{iota_alpha} o * o e^{iota_alpha}.
    With the contraction normalized by <del_x ^ del_y, dx ^ dy> = 1 this is
    the only sign placement admitting any degree-homogeneous star at all:
    comparing the degree-0 and top-degree diagonal components shows the
    variant with opposite exponents forces +1 = -1.
    """
    every_dx = (S for r in range(nvars + 1) for S in combinations(range(nvars), r))
    return _first_difference(nvars, every_dx, *_star_sides(nvars))


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


def _folded_ranks(alpha: Bivector, D: int, diff: _Table):
    """Homology ranks of the folded (d + hbar L_alpha)-complex on forms of
    total degree <= D (overflowing terms dropped); diff is the table of
    d + hbar L_alpha.

    The complex goes to `u_module_decompose` as a complex over k[u]/u^1,
    evens at position 0 and odds at position 1, and each parity's rank is
    the free rank there.  Its check that D^2 = 0 is the check that the
    truncation keeps a complex."""
    basis = _form_basis(alpha.nvars, D)
    evens, odds = ([b for b in basis if len(b[1]) % 2 == q] for q in (0, 1))

    def diff_matrix(src, dst):
        index = {b: i for i, b in enumerate(dst)}
        entries = {}
        for c, mu in enumerate(src):
            for (e2, S2), coeff in diff[mu].items():
                if sum(e2) + len(S2) > D:
                    continue  # truncation overflow, flagged by guard logic
                entries[(index[(e2, S2)], c)] = coeff
        return SparseMatrix(len(dst), len(src), entries)

    folded = UComplex(UTruncation(1), {0: len(evens), 1: len(odds)},
                      {0: [diff_matrix(evens, odds)], 1: [diff_matrix(odds, evens)]})
    try:
        reports = u_module_decompose(folded, QQ)
    except ContractViolation:
        # alpha mixes coefficients of degree <= 1 and >= 3: terms dropped
        # above the cutoff would have mapped back below it
        raise PoissonError(f"truncation at total degree {D} breaks "
                           f"(d + hbar L_alpha)^2 = 0; no homology to report") from None
    return {"even": reports[0].free_rank, "odd": reports[1].free_rank}


# The folded complex has one basis form per monomial form of total degree
# <= D.  At 20 000 forms the slowest bivector measured (constant on all
# pairs of 6 variables, D = 7: 19 825 forms) took 1.05 s and 82 MB; so3 at
# D = 24 (19 649 forms) 0.79 s.  40 081 forms (6 variables, D = 8) took
# 2.8 s and 184 MB.
MAX_HOMOLOGY_FORMS = 20_000


def _require_form_count(nvars: int, D: int):
    """Refuse a folded complex of more than MAX_HOMOLOGY_FORMS basis forms,
    before any is built.  `_form_basis` lists sum_r C(nvars, r)
    C(D - r + nvars, nvars) forms, more than nvars * D: 1 and each x_i^k,
    0 < k <= D, are among them.  That bound is tried first, so the
    binomials are taken of small numbers only."""
    count = nvars * D
    if count <= MAX_HOMOLOGY_FORMS:
        count = sum(comb(nvars, r) * comb(D - r + nvars, nvars)
                    for r in range(min(nvars, D) + 1))
    if count > MAX_HOMOLOGY_FORMS:
        raise SizeError(f"homology to total degree {D} in {nvars} variables needs more "
                        f"than MAX_HOMOLOGY_FORMS = {MAX_HOMOLOGY_FORMS} basis forms")


def poisson_homology_ranks(alpha: Bivector, D: int) -> dict:
    """Stable ranks per parity of the folded (d + L_alpha)-complex on
    polynomial forms of total degree <= D, with a cutoff-comparison guard
    band.

    Ranks are computed at cutoff D and at the guarded cutoff
    D - max(2, top coefficient degree of alpha); they are reported stable
    only when the two agree.  A complex of more than MAX_HOMOLOGY_FORMS
    basis forms at cutoff D is refused before anything is built.
    """
    guard = max(2, alpha.coefficient_degree())
    if D - guard < 0:
        raise SizeError(f"degree bound {D} too small for guard band {guard}")
    _require_form_count(alpha.nvars, D)
    d_of = _Table(_d_term)
    iota_of = _Table(partial(_iota_term, alpha))
    diff = _Table(lambda mu: _lie(d_of, iota_of, {mu: 1}, alpha.hbar, dict(d_of[mu])))
    full = _folded_ranks(alpha, D, diff)
    guarded = _folded_ranks(alpha, D - guard, diff)
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


# name -> builder of a named sample bivector: standard (the inverse of the
# constant symplectic form on 2 variables), xy (the comparison example
# xy del_x ^ del_y), so3 (the linear 3-dimensional Lie-Poisson structure),
# nonjacobi4 (x2 d1^d2 + d2^d3 + d3^d4, whose Jacobiator on (x1,x2,x3) is
# the constant -1) and zero (on 2 variables).
BIVECTOR_CATALOGUE = {
    "standard": lambda: ConstantSymplectic(2).inverse_bivector(),
    "xy": lambda: Bivector(2, {(0, 1): {(1, 1): 1}}, name="xy"),
    "so3": lambda: Bivector(3, {
        (0, 1): {(0, 0, 1): 1},      # x3 d1^d2
        (1, 2): {(1, 0, 0): 1},      # x1 d2^d3
        (0, 2): {(0, 1, 0): -1},     # x2 d3^d1 = -x2 d1^d3
    }, name="so3"),
    "nonjacobi4": lambda: Bivector(4, {
        (0, 1): {(0, 1, 0, 0): 1},
        (1, 2): {(0, 0, 0, 0): 1},
        (2, 3): {(0, 0, 0, 0): 1},
    }, name="nonjacobi4"),
    "zero": lambda: Bivector(2, {}, name="zero"),
}


def builtin_bivector(name: str) -> Bivector:
    """The catalogue bivector `name`, built afresh."""
    builder = BIVECTOR_CATALOGUE.get(name)
    if builder is None:
        raise PoissonError(f"unknown bivector {name!r}")
    return builder()
