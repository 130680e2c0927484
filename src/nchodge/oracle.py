"""Independent brute-force oracles used by the test suite.

Everything here recomputes fixture values by naive dense linear algebra and
its own enumeration; nothing is shared with the engine's sparse elimination.
The arithmetic is the oracle's own too: it reads `field.p` and calls no
`Field` method.  Over Q a scalar is an exact int or Fraction (a division only
as `Fraction(1, x)`); over F_p it is an int reduced mod p.  Matrices are
built as raw sums of structure constants and reduced when they are
eliminated.  Slowness is a feature: the point of this module is to be
obviously correct, and the test suite asserts that the main path agrees
with it.  Importing this module loads `algebra` and `fields` only; a
fixture that runs the engine imports it itself.

There is one elimination, `_echelon`: first-nonzero pivots, each pivot row
normalized to a leading 1 and subtracted, along its nonzero entries, from
the rows below it.  `dense_rank` is the number of its pivots, and
`dense_kernel` back-substitutes through it.  It stays forward-only: a rank
needs nothing more and a kernel is read off by back-substitution, so
clearing above each pivot as well (a reduced echelon form) would add
elimination steps and no answer.

The fixture registry is the module-level FIXTURES table, fixture id ->
(description, function, registered value); ``certify`` runs one entry,
raises FixtureMismatch unless it gives the registered value, and returns
the value.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import builtin, glue, zero_bimodule
from .fields import GF, QQ


class FixtureError(KeyError):
    pass


class FixtureMismatch(AssertionError):
    """A fixture computed a value other than its registered one."""


# ---------------------------------------------------------------------------
# dense elimination (independent of nchodge.sparse)
# ---------------------------------------------------------------------------


def _arith(field):
    """(reduce, inverse) of the oracle's arithmetic over field."""
    p = field.p
    if p is None:
        return (lambda x: x), (lambda x: Fraction(1, x))
    return (lambda x: x % p), (lambda x: pow(x, p - 2, p))


def _echelon(rows, ncols: int, field) -> list[tuple[int, list]]:
    """Row echelon form of a dense matrix as (pivot column, row) pairs in
    column order, each row normalized to 1 at its pivot and 0 before it.

    The pivot of a column is the first remaining row that is nonzero there;
    it is eliminated from the rows below and never from those above.
    """
    red, inv = _arith(field)
    pending = [[red(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        sel = next((i for i, row in enumerate(pending) if row[col]), None)
        if sel is None:
            continue
        prow = pending.pop(sel)
        s = inv(prow[col])
        prow = [red(x * s) for x in prow]
        nonzero = [(c, prow[c]) for c in range(col, ncols) if prow[c]]
        for row in pending:
            if f := row[col]:
                for c, v in nonzero:
                    row[c] = red(row[c] - f * v)
        pivots.append((col, prow))
        if not pending:
            break
    return pivots


def dense_rank(rows, field) -> int:
    return len(_echelon(rows, len(rows[0]) if rows else 0, field))


def dense_kernel(rows, ncols: int, field) -> list[list]:
    """Basis of {x : rows . x = 0}, one vector per free column f: x_f = 1,
    the other free entries 0, and the pivot entries back-substituted
    through `_echelon`, last pivot first."""
    red, _ = _arith(field)
    echelon = _echelon(rows, ncols, field)
    tails = [(col, [(c, x) for c, x in enumerate(row) if c > col and x])
             for col, row in reversed(echelon)]
    pivot_cols = {col for col, _ in echelon}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [0] * ncols
        v[free] = 1
        for col, tail in tails:
            v[col] = red(-sum(x * v[c] for c, x in tail))
        basis.append(v)
    return basis


def _sparse_to_rows(M):
    rows = [[0] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    return rows


# ---------------------------------------------------------------------------
# dense Hochschild complexes (own word enumeration)
# ---------------------------------------------------------------------------


def _words(dim: int, n: int, reduced: bool):
    """Words (a_0, ..., a_n) of basis indices; in the reduced complex no
    a_i with i > 0 is the unit, basis element 0."""
    words = [(i,) for i in range(dim)]
    for _ in range(n):
        words = [w + (i,) for w in words for i in range(1 if reduced else 0, dim)]
    return words


def _boundary_images(A, n: int, reduced: bool):
    """b(w) for each word w of C_n, a dense vector of raw sums over the
    words of C_{n-1}: the rows of the transpose of b, recomputed from
    scratch.  In the reduced complex a face that puts the unit into a_i,
    i > 0, is zero.  The last face moves a_n past a_0 ... a_{n-1}, with the
    Koszul sign of that move."""
    dst_index = {w: i for i, w in enumerate(_words(A.dim, n - 1, reduced))}
    par = A.parity
    images = []
    for w in _words(A.dim, n, reduced):
        image = [0] * len(dst_index)
        for i in range(n):
            for k, v in A.mul_basis(w[i], w[i + 1]).items():
                if not (reduced and i and k == 0):
                    image[dst_index[w[:i] + (k,) + w[i + 2:]]] += (-1) ** i * v
        sign = (-1) ** n
        if par is not None and par[w[n]] % 2 and sum(par[j] for j in w[:n]) % 2:
            sign = -sign
        for k, v in A.mul_basis(w[n], w[0]).items():
            image[dst_index[(k,) + w[1:n]]] += sign * v
        images.append(image)
    return images


def _hh_ranks(A, n_top: int, reduced: bool) -> list[int]:
    """dim HH_n = dim C_n - rank b_n - rank b_{n+1} for n = 0..n_top, each
    boundary's rank taken once."""
    ranks = [0] + [dense_rank(_boundary_images(A, n, reduced), A.field)
                   for n in range(1, n_top + 2)]
    return [len(_words(A.dim, n, reduced)) - ranks[n] - ranks[n + 1]
            for n in range(n_top + 1)]


def unreduced_hh_ranks(A, n_top: int) -> list[int]:
    """Unreduced Hochschild homology ranks for n = 0..n_top (dense)."""
    if A.dim > 3 or n_top > 3:
        raise FixtureError("fixture too large for the unreduced dense oracle")
    return _hh_ranks(A, n_top, reduced=False)


def reduced_hh_ranks(A, n_top: int) -> list[int]:
    """Reduced Hochschild homology ranks for n = 0..n_top (dense)."""
    return _hh_ranks(A, n_top, reduced=True)


def commutator_span_rank(A) -> int:
    """Rank of span{e_i e_j - (-1)^{|i||j|} e_j e_i} by dense elimination."""
    par = A.parity
    rows = []
    for i in range(A.dim):
        for j in range(A.dim):
            sign = -1 if par is not None and par[i] % 2 and par[j] % 2 else 1
            v = [0] * A.dim
            for k, c in A.mul_basis(i, j).items():
                v[k] += c
            for k, c in A.mul_basis(j, i).items():
                v[k] -= sign * c
            rows.append(v)
    return dense_rank(rows, A.field)


# ---------------------------------------------------------------------------
# dense u-module decomposition
# ---------------------------------------------------------------------------


def _u_expand(coeffs, N: int):
    """Dense k-matrix of a matrix over k[u]/u^N given by its u-coefficients
    (dense row lists): slot j of generator v of a free module of rank r is
    coordinate j * r + v, and u^t moves slot j to slot j + t."""
    rows = len(coeffs[0])
    cols = len(coeffs[0][0]) if rows else 0
    out = [[0] * (N * cols) for _ in range(N * rows)]
    for t, M in enumerate(coeffs[:N]):
        for r, row in enumerate(M):
            for c, v in enumerate(row):
                if v:
                    for j in range(N - t):
                        out[(j + t) * rows + r][j * cols + c] = v
    return out


def dense_u_homology_dims(d_out, d_in, r: int, N: int, field) -> list[int]:
    """dims d_t = dim u^t H for t < N, H the homology at one position of a
    complex of free k[u]/u^N-modules, the one there of rank r.

    d_out (out of the position, r columns) and d_in (into it, r rows) are
    given by their u-coefficients, as for `_u_expand`; [] for none.  d_t is
    the rank of u^t times the cycles beside the boundaries, less the rank of
    the boundaries.
    """
    n = N * r
    cycles = dense_kernel(_u_expand(d_out, N) if d_out else [], n, field)
    boundaries = [list(col) for col in zip(*_u_expand(d_in, N))] if d_in else []
    b_rank = dense_rank(boundaries, field)
    dims = []
    for _ in range(N):
        dims.append(dense_rank(cycles + boundaries, field) - b_rank)
        cycles = [[0] * r + v[:n - r] for v in cycles]
    return dims


def dense_blocks_from_dims(dims: list[int]) -> tuple[int, dict]:
    """(free rank, torsion block multiplicities) from the dims d_t = dim u^t M
    over k[u]/u^N; independent re-derivation of the main-path formula.

    A block k[u]/u^s contributes max(s - t, 0) to d_t and a free summand
    contributes N - t, so the first differences D_t = d_t - d_{t+1} satisfy
    D_t = free + #{blocks of size > t}.
    """
    N = len(dims)
    free = dims[N - 1]
    drops = [dims[t] - dims[t + 1] for t in range(N - 1)]
    blocks = {}
    for s in range(1, N - 1):
        mult = drops[s - 1] - drops[s]
        if mult < 0:
            raise ValueError("inconsistent filtration dims")
        if mult:
            blocks[s] = mult
    if N >= 2:
        top = drops[N - 2] - free
        if top < 0:
            raise ValueError("inconsistent filtration dims")
        if top:
            blocks[N - 1] = top
    return free, blocks


# ---------------------------------------------------------------------------
# independent Jacobiator (trivector components, not nested brackets)
# ---------------------------------------------------------------------------


def _alpha_component(alpha, i: int, j: int) -> dict:
    if i == j:
        return {}
    if (i, j) in alpha.components:
        return dict(alpha.components[(i, j)])
    if (j, i) in alpha.components:
        return {e: -c for e, c in alpha.components[(j, i)].items()}
    return {}


def _pdiff(p: dict, l: int) -> dict:
    out = {}
    for e, c in p.items():
        if e[l]:
            e2 = e[:l] + (e[l] - 1,) + e[l + 1:]
            out[e2] = out.get(e2, Fraction(0)) + c * e[l]
    return {e: c for e, c in out.items() if c != 0}


def _pmul(p: dict, q: dict) -> dict:
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def jacobiator_components(alpha) -> dict:
    """J^{ijk} = sum_l (a^{il} d_l a^{jk} + a^{jl} d_l a^{ki} + a^{kl} d_l a^{ij})
    for i < j < k; alpha is Poisson iff all components vanish."""
    v = alpha.nvars
    out = {}
    for i in range(v):
        for j in range(i + 1, v):
            for k in range(j + 1, v):
                acc: dict = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for l in range(v):
                        term = _pmul(_alpha_component(alpha, a, l),
                                     _pdiff(_alpha_component(alpha, b, c), l))
                        for e, coeff in term.items():
                            s = acc.get(e, Fraction(0)) + coeff
                            if s == 0:
                                acc.pop(e, None)
                            else:
                                acc[e] = s
                if acc:
                    out[(i, j, k)] = acc
    return out


# ---------------------------------------------------------------------------
# fixture registry
# ---------------------------------------------------------------------------


def _fx_two_term_u_complex():
    # k[u]/u^3 --u--> k[u]/u^3 at positions 1 -> 0, its one differential
    # written by u-coefficients: 0, 1, 0
    u = [[[0]], [[1]], [[0]]]
    out = {}
    for pos, d_out, d_in in ((0, [], u), (1, u, [])):
        free, blocks = dense_blocks_from_dims(dense_u_homology_dims(d_out, d_in, 1, 3, QQ))
        out[pos] = {"free": free, "torsion": blocks}
    return out


def _fx_dual_numbers_nc_even():
    from .cyclic import negative_cyclic
    from .hochschild import DegreeWindow
    A = builtin("dual_numbers", QQ)
    rep = negative_cyclic(A, DegreeWindow(6), 3)
    return {"even_free": rep.even.free_rank, "odd_free": rep.odd.free_rank,
            "even_torsion": dict(rep.even.torsion_blocks)}


def _fx_quantum_plane_count():
    from .hochschild import chain_basis
    A = builtin("quantum_plane", QQ, q="2", max_weight=3)
    words = chain_basis(A, 1, weight=2)
    # independent enumeration: heads over all monomials, tails non-unit,
    # weights summing to 2
    wts = A.weight
    count = sum(1 for i0 in range(A.dim) for i1 in range(1, A.dim)
                if wts[i0] + wts[i1] == 2)
    return {"main": len(words), "independent": count}


def _fx_mat2_boundary_image_rank():
    from .hochschild import ChainComplex
    A = builtin("mat", QQ, m=2)
    return dense_rank(_sparse_to_rows(ChainComplex(A).boundary(1)), A.field)


def _fx_glue_dual_truncated_hh():
    from .hochschild import DegreeWindow, hh_ranks
    D, T = builtin("dual_numbers", QQ), builtin("truncated_poly", QQ, m=3)
    A = glue(D, T, zero_bimodule(T, D))
    # the main path works relative to the corner idempotents, the oracle
    # on the dense absolute complex
    main = hh_ranks(A, DegreeWindow(4))["per_n"]
    return {"main": [main[n] for n in range(4)], "oracle": reduced_hh_ranks(A, 3)}


def _fx_a2_path_hh0():
    A = builtin("a2_path", QQ)
    return A.dim - commutator_span_rank(A)


def _fx_unreduced_vs_reduced_dual():
    A = builtin("dual_numbers", QQ)
    return {"unreduced": unreduced_hh_ranks(A, 3), "reduced": reduced_hh_ranks(A, 3)}


def _fx_dual_numbers_hp():
    from .cyclic import hp_ranks
    from .hochschild import DegreeWindow
    rep = hp_ranks(builtin("dual_numbers", QQ), DegreeWindow(8), 3)
    return {"hp": [rep["hp_even"], rep["hp_odd"]], "conclusive": rep["conclusive"],
            "verdict": rep["verdict"]}


def _fx_dual_numbers_filtration():
    from .cyclic import hodge_filtration
    from .hochschild import DegreeWindow
    return hodge_filtration(builtin("dual_numbers", QQ), DegreeWindow(8), 3)


def _fx_degeneration(name, n_max, N, **params):
    def run():
        from .cyclic import degeneration_check
        from .hochschild import DegreeWindow
        A = builtin(name, QQ, **params)
        return degeneration_check(A, DegreeWindow(n_max), N)["verdict"]
    return run


def _fx_charp_compare_dual_f2():
    from .cyclic import char_p_compare
    from .hochschild import DegreeWindow
    rep = char_p_compare(builtin("dual_numbers", GF(2)), DegreeWindow(8), 3)
    return {"agree": rep["agree"]}


def _fx_graded_piece_v1_n2_p2():
    from .cyclic import graded_piece_analysis
    r = graded_piece_analysis(1, 2, GF(2))
    return [r["ker_one_minus_sigma_mod_norm"], r["ker_norm_mod_one_minus_sigma"]]


def _fx_chern_e11_mat2():
    from .kchern import Idempotent, chern_idempotent, cycle_certificate, u0_class_nonzero
    A = builtin("mat", QQ, m=2)
    lbl = {A.label(i): i for i in range(A.dim)}
    pi = Idempotent(A, {lbl["E11*1"]: 1})
    ch = chern_idempotent(pi, 3)
    cert = cycle_certificate(ch)
    return {"cycle": cert["is_cycle"], "u0_nonzero": u0_class_nonzero(ch)}


def _fx_mat2_f2_ppower_e12():
    A = builtin("mat", GF(2), m=2)
    # independent arithmetic: HH0 rank from the dense commutator span, and
    # e12^2 straight from the structure constants
    lbl = {A.label(i): i for i in range(A.dim)}
    e12 = lbl["E12*1"]
    return {"hh0_rank": A.dim - commutator_span_rank(A),
            "e12_square_zero": A.mul_basis(e12, e12) == {}}


def _fx_dual_f2_lift_eps():
    from .kchern import ppower_lift_p2
    A = builtin("dual_numbers", GF(2))
    lift = ppower_lift_p2(A, {1: 1})  # the class of eps
    return {"components": [sorted((list(k), int(v)) for k, v in comp.items())
                           for comp in lift.components],
            "cycle": True}  # emission raises if the certificate fails


def _fx_mat2_f2_lift_additivity():
    from .kchern import lift_difference_is_boundary
    A = builtin("mat", GF(2), m=2)
    return all(lift_difference_is_boundary(A, {a: 1}, {b: 1})
               for a in range(A.dim) for b in range(A.dim))


def _fx_so3_jacobi():
    from .poisson import builtin_bivector
    return jacobiator_components(builtin_bivector("so3")) == {}


def _fx_nonjacobi4_jacobi():
    from .poisson import builtin_bivector
    comps = jacobiator_components(builtin_bivector("nonjacobi4"))
    return {"nonzero": bool(comps),
            "witness": sorted(str(k) for k in comps)}


def _fx_lie_values():
    from .poisson import builtin_bivector, lie_derivative, monomial_form
    alpha = builtin_bivector("standard")
    a = lie_derivative(alpha, monomial_form(2, (1, 0), (1,)))     # L(x dy)
    b = lie_derivative(alpha, monomial_form(2, (1, 0), (0, 1)))   # L(x dx^dy)
    return {"L_x_dy": {str(k): str(v) for k, v in a.terms.items()},
            "L_x_dxdy": {str(k): str(v) for k, v in b.terms.items()}}


def _fx_nonjacobi4_conjugation():
    from .poisson import builtin_bivector, conjugation_check
    r = conjugation_check(builtin_bivector("nonjacobi4"))
    return {"pass": r["pass"], "has_witness": r["witness"] is not None}


def _fx_star_2var_signs():
    from .poisson import ConstantSymplectic, hodge_star, monomial_form
    omega = ConstantSymplectic(2)
    s0 = hodge_star(monomial_form(2, (0, 0), ()), omega)
    s2 = hodge_star(monomial_form(2, (0, 0), (0, 1)), omega)
    return {"star_1": {str(k): str(v) for k, v in s0.terms.items()},
            "star_dxdy": {str(k): str(v) for k, v in s2.terms.items()}}


def _fx_star_4var():
    from .poisson import star_identity_check
    return star_identity_check(4)["pass"]


def _fx_ph(name):
    def run():
        from .poisson import builtin_bivector, poisson_homology_ranks
        alpha = builtin_bivector(name)
        r = poisson_homology_ranks(alpha, 6)
        return {"even": r["even"], "odd": r["odd"], "stable": r["stable"]}
    return run


# fixture id -> (description, function, registered value)
FIXTURES = {
    "two_term_u_complex_N3": (
        "k[u]/u^3 --u--> k[u]/u^3: one torsion block of size 1 at each position",
        _fx_two_term_u_complex,
        {0: {"free": 0, "torsion": {1: 1}}, 1: {"free": 0, "torsion": {1: 1}}}),
    "dual_numbers_nc_N3_even_free": (
        "truncated negative cyclic of dual numbers over Q, n<=6, N=3: even free rank 1",
        _fx_dual_numbers_nc_even,
        {"even_free": 1, "odd_free": 0, "even_torsion": {1: 3}}),
    "quantum_plane_n1_w2_count": (
        "quantum_plane(q=2, mw=3) chain words at n=1, weight 2: main vs independent enumeration",
        _fx_quantum_plane_count,
        {"main": 7, "independent": 7}),
    "mat2_boundary_image_rank_n1": (
        "Mat2(Q): rank of the image of the n=1 boundary = commutator subspace rank 3",
        _fx_mat2_boundary_image_rank,
        3),
    "glue_dual_truncated_hh_n3": (
        "glue(dual_numbers, truncated_poly(3)) over Q, zero bimodule: HH ranks (5,3,3,3) "
        "for n=0..3, relative main path vs dense absolute complex",
        _fx_glue_dual_truncated_hh,
        {"main": [5, 3, 3, 3], "oracle": [5, 3, 3, 3]}),
    "mat2_commutator_rank": (
        "Mat2(Q) commutator span rank 3 (trace-zero matrices)",
        lambda: commutator_span_rank(builtin("mat", QQ, m=2)),
        3),
    "dual_numbers_hh_n4": (
        "dual numbers over Q: dense reduced HH ranks (2,1,1,1,1) for n=0..4",
        lambda: reduced_hh_ranks(builtin("dual_numbers", QQ), 4),
        [2, 1, 1, 1, 1]),
    "mat2_hh_n4": (
        "Mat2(Q): dense reduced HH ranks (1,0,0,0,0) for n=0..4 (Morita-trivial)",
        lambda: reduced_hh_ranks(builtin("mat", QQ, m=2), 4),
        [1, 0, 0, 0, 0]),
    "a2_path_hh0": (
        "A2 path algebra over Q: HH0 rank 2 by dense commutator span",
        _fx_a2_path_hh0,
        2),
    "unreduced_vs_reduced_dual_n3": (
        "dual numbers: unreduced and reduced dense HH ranks agree for n<=3",
        _fx_unreduced_vs_reduced_dual,
        {"unreduced": [2, 1, 1, 1], "reduced": [2, 1, 1, 1]}),
    "dual_numbers_hp_N3": (
        "hp_ranks(dual_numbers, n<=8, N=3) = (1,0) conclusive",
        _fx_dual_numbers_hp,
        {"hp": [1, 0], "conclusive": True, "verdict": "finite-torsion-found"}),
    "dual_numbers_filtration_profile": (
        "full Hodge filtration profile of dual numbers (regression value)",
        _fx_dual_numbers_filtration,
        {"0": 1, "1/2": 0, "1": 1, "3/2": 0, "2": 1, "5/2": 0, "3": 0, "7/2": 0}),
    "dual_numbers_degeneration": (
        "degeneration_check(dual_numbers) = finite-torsion-found",
        _fx_degeneration("dual_numbers", 8, 3),
        "finite-torsion-found"),
    "mat2_degeneration": (
        "degeneration_check(mat2) = collapses-in-window",
        _fx_degeneration("mat", 6, 2, m=2),
        "collapses-in-window"),
    "charp_compare_dual_F2": (
        "char_p_compare(F2[x]/x^2, n<=8, N=3): free ranks agree per guard-safe weight",
        _fx_charp_compare_dual_f2,
        {"agree": True}),
    "graded_piece_v1_n2_p2": (
        "graded pieces dimV=1, n=2, p=2: ranks (1,1) = the (1-sigma) two-term complex",
        _fx_graded_piece_v1_n2_p2,
        [1, 1]),
    "chern_e11_mat2": (
        "chern_idempotent(e11 in Mat2(Q), N=3): exact cycle, nonzero u^0 class",
        _fx_chern_e11_mat2,
        {"cycle": True, "u0_nonzero": True}),
    "mat2_f2_ppower_e12": (
        "Mat2(F2): HH0 rank 1; class of e12 squares to 0",
        _fx_mat2_f2_ppower_e12,
        {"hh0_rank": 1, "e12_square_zero": True}),
    "dual_f2_lift_eps": (
        "p=2 lift of eps in dual numbers over F2 = 1(x)eps(x)eps . u, cycle certified",
        _fx_dual_f2_lift_eps,
        {"components": [[], [([0, 1, 1], 1)]], "cycle": True}),
    "mat2_f2_lift_additivity": (
        "Mat2(F2): lift(a+b) - lift(a) - lift(b) is a boundary for all basis pairs",
        _fx_mat2_f2_lift_additivity,
        True),
    "so3_jacobi": (
        "so(3) linear bivector has identically zero Jacobiator (independent trivector formula)",
        _fx_so3_jacobi,
        True),
    "nonjacobi4_jacobi": (
        "registered non-Jacobi 4-variable bivector has a nonzero Jacobiator component",
        _fx_nonjacobi4_jacobi,
        {"nonzero": True, "witness": ["(0, 1, 2)"]}),
    "lie_derivative_values": (
        "L_alpha(x dy) = 1 and L_alpha(x dx^dy) = -dx for alpha = dx-dy inverse",
        _fx_lie_values,
        {"L_x_dy": {"((0, 0), ())": "1"}, "L_x_dxdy": {"((0, 0), (0,))": "-1"}}),
    "nonjacobi4_conjugation": (
        "conjugation identity fails for the non-Jacobi bivector with a witness form",
        _fx_nonjacobi4_conjugation,
        {"pass": False, "has_witness": True}),
    "star_2var_signs": (
        "*(1) = dx^dy and *(dx^dy) = -1 under the pinned convention",
        _fx_star_2var_signs,
        {"star_1": {"((0, 0), (0, 1))": "1"}, "star_dxdy": {"((0, 0), ())": "-1"}}),
    "star_identity_4var_D4": (
        "star identity holds in 4 variables at D=4",
        _fx_star_4var,
        True),
    "ph_standard_D6": (
        "Poisson homology of alpha = dx^dy inverse at D=6: stable ranks (1,0)",
        _fx_ph("standard"),
        {"even": 1, "odd": 0, "stable": True}),
    "ph_zero_D6": (
        "Poisson homology of alpha = 0 at D=6: 2-periodic de Rham, stable ranks (1,0)",
        _fx_ph("zero"),
        {"even": 1, "odd": 0, "stable": True}),
}


def certify(fixture_id: str):
    """Run one fixture and return its value; FixtureMismatch unless it is
    the registered value."""
    if fixture_id not in FIXTURES:
        raise FixtureError(f"unknown fixture {fixture_id!r}")
    _description, fn, expected = FIXTURES[fixture_id]
    value = fn()
    if value != expected:
        raise FixtureMismatch(f"fixture {fixture_id!r} computed {value!r}, "
                              f"registered {expected!r}")
    return value
