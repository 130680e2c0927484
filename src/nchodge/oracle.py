"""Independent brute-force oracles used by the test suite.

Everything here recomputes fixture values by naive dense elimination with
first-nonzero pivoting and no heuristics; no linear-algebra routine is
shared with the sparse main path.  Slowness is a feature: the point of this
module is to be obviously correct, and the test suite asserts that the
main path agrees with it.

The fixture registry is the module-level FIXTURES table; ``certify`` runs
one entry and returns an OracleResult carrying the computed value and a
hash of the fixture inputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction


class FixtureError(KeyError):
    pass


@dataclass
class OracleResult:
    fixture_id: str
    value: object
    inputs_hash: str
    description: str


# ---------------------------------------------------------------------------
# dense elimination (independent of nchodge.sparse)
# ---------------------------------------------------------------------------


def dense_rank_q(rows: list[list[Fraction]]) -> int:
    """Row reduction over Q, first nonzero pivot, no heuristics."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        piv = rows[pivot_row][col]
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / piv
                row = rows[r]
                prow = rows[pivot_row]
                for c in range(col, ncols):
                    row[c] -= f * prow[c]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def dense_rank_p(rows: list[list[int]], p: int) -> int:
    """Row reduction over F_p."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        for r in range(pivot_row + 1, len(rows)):
            if rows[r][col]:
                f = (rows[r][col] * inv) % p
                row = rows[r]
                prow = rows[pivot_row]
                for c in range(col, ncols):
                    row[c] = (row[c] - f * prow[c]) % p
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def dense_rank(rows, field) -> int:
    if field.p is None:
        return dense_rank_q([[Fraction(x) for x in r] for r in rows])
    return dense_rank_p([[int(x) for x in r] for r in rows], field.p)


def dense_kernel(rows, ncols: int, field) -> list[list]:
    """Basis of {x : rows . x = 0}, one vector per free column, by naive
    reduced row echelon form with first-nonzero pivots."""
    p = field.p
    red = (lambda x: Fraction(x)) if p is None else (lambda x: int(x) % p)
    inv = (lambda x: 1 / x) if p is None else (lambda x: pow(x, p - 2, p))
    m = [[red(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        sel = next((r for r in range(top, len(m)) if m[r][col]), None)
        if sel is None:
            continue
        m[top], m[sel] = m[sel], m[top]
        s = inv(m[top][col])
        m[top] = [red(x * s) for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col]:
                f = m[r][col]
                m[r] = [red(a - f * b) for a, b in zip(m[r], m[top])]
        pivots.append(col)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [red(0)] * ncols
        v[free] = red(1)
        for r, pc in enumerate(pivots):
            v[pc] = red(-m[r][free])
        basis.append(v)
    return basis


def dense_homology_rank(d_out_rows, d_in_rows, ncols_here, field) -> int:
    """dim ker(d_out) - rank(d_in) from dense matrices given as row lists.

    d_out has ncols_here columns; d_in has ncols_here rows.
    """
    r_out = dense_rank(d_out_rows, field) if d_out_rows else 0
    r_in = dense_rank(_transpose_rows(d_in_rows), field) if d_in_rows else 0
    return ncols_here - r_out - r_in


def _transpose_rows(rows):
    if not rows:
        return []
    return [[rows[r][c] for r in range(len(rows))] for c in range(len(rows[0]))]


def _sparse_to_rows(M, field):
    zero = field.zero()
    rows = [[zero] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    return rows


# ---------------------------------------------------------------------------
# dense Hochschild complexes (own word enumeration; no plain-parity algebras
# beyond what the registered fixtures need)
# ---------------------------------------------------------------------------


def _unreduced_words(dim: int, n: int):
    words = [()]
    for _ in range(n + 1):
        words = [w + (i,) for w in words for i in range(dim)]
    return words


def _unreduced_boundary_rows(A, n: int):
    """Dense matrix of the unreduced b: A^{(x)(n+1)} -> A^{(x)n}, row list."""
    F = A.field
    src = _unreduced_words(A.dim, n)
    dst = _unreduced_words(A.dim, n - 1)
    dst_index = {w: i for i, w in enumerate(dst)}
    rows = [[F.zero()] * len(src) for _ in dst]
    for c, w in enumerate(src):
        for i in range(n):
            sign = F.one() if i % 2 == 0 else F.neg(F.one())
            for k, v in A.mul_basis(w[i], w[i + 1]).items():
                t = w[:i] + (k,) + w[i + 2:]
                r = dst_index[t]
                rows[r][c] = F.add(rows[r][c], F.mul(sign, v))
        sign = F.one() if n % 2 == 0 else F.neg(F.one())
        for k, v in A.mul_basis(w[n], w[0]).items():
            t = (k,) + w[1:n]
            r = dst_index[t]
            rows[r][c] = F.add(rows[r][c], F.mul(sign, v))
    return rows, len(src)


def unreduced_hh_ranks(A, n_top: int) -> list[int]:
    """Unreduced Hochschild homology ranks for n = 0..n_top (dense)."""
    if A.dim > 3 or n_top > 3:
        raise FixtureError("fixture too large for the unreduced dense oracle")
    out = []
    for n in range(n_top + 1):
        d_out, here = _unreduced_boundary_rows(A, n) if n > 0 else ([], A.dim ** 1)
        if n == 0:
            here = A.dim
        d_in, _ = _unreduced_boundary_rows(A, n + 1)
        out.append(dense_homology_rank(d_out, d_in, here, A.field))
    return out


def _reduced_words(dim: int, n: int):
    words = [(i,) for i in range(dim)]
    for _ in range(n):
        words = [w + (i,) for w in words for i in range(1, dim)]
    return words


def _reduced_boundary_rows(A, n: int):
    """Dense matrix of the reduced boundary, recomputed from scratch."""
    F = A.field
    src = _reduced_words(A.dim, n)
    dst = _reduced_words(A.dim, n - 1)
    dst_index = {w: i for i, w in enumerate(dst)}
    rows = [[F.zero()] * len(src) for _ in dst]
    par = A.parity

    def put(r, c, v):
        rows[r][c] = F.add(rows[r][c], v)

    for c, w in enumerate(src):
        for i in range(n):
            sign = F.one() if i % 2 == 0 else F.neg(F.one())
            for k, v in A.mul_basis(w[i], w[i + 1]).items():
                if i > 0 and k == 0:
                    continue
                put(dst_index[w[:i] + (k,) + w[i + 2:]], c, F.mul(sign, v))
        sign = F.one() if n % 2 == 0 else F.neg(F.one())
        if par is not None and par[w[n]] % 2 and sum(par[j] for j in w[:n]) % 2:
            sign = F.neg(sign)
        for k, v in A.mul_basis(w[n], w[0]).items():
            put(dst_index[(k,) + w[1:n]], c, F.mul(sign, v))
    return rows, len(src)


def reduced_hh_ranks(A, n_top: int) -> list[int]:
    """Reduced Hochschild homology ranks for n = 0..n_top (dense)."""
    out = []
    for n in range(n_top + 1):
        if n > 0:
            d_out, here = _reduced_boundary_rows(A, n)
        else:
            d_out, here = [], A.dim
        d_in, _ = _reduced_boundary_rows(A, n + 1)
        out.append(dense_homology_rank(d_out, d_in, here, A.field))
    return out


def commutator_span_rank(A) -> int:
    """Rank of span{e_i e_j - (-1)^{|i||j|} e_j e_i} by dense elimination."""
    F = A.field
    rows = []
    for i in range(A.dim):
        for j in range(A.dim):
            v = [F.zero()] * A.dim
            for k, c in A.mul_basis(i, j).items():
                v[k] = F.add(v[k], c)
            sign = F.one()
            if A.parity is not None and A.parity[i] % 2 and A.parity[j] % 2:
                sign = F.neg(F.one())
            for k, c in A.mul_basis(j, i).items():
                v[k] = F.sub(v[k], F.mul(sign, c))
            if any(not F.is_zero(x) for x in v):
                rows.append(v)
    return dense_rank(rows, F)


# ---------------------------------------------------------------------------
# dense u-module decomposition
# ---------------------------------------------------------------------------


def dense_u_module_dims(apply_u, vectors: list[list[Fraction]], N: int, field):
    """dims d_t = dim u^t M for a module M given by spanning vectors and a
    dense u-action callable; naive elimination throughout."""
    dims = []
    current = [list(v) for v in vectors]
    for _ in range(N):
        dims.append(dense_rank(current, field) if current else 0)
        current = [apply_u(v) for v in current]
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
    from .fields import QQ
    from .umodule import two_term_u_complex, u_module_decompose
    N = 3
    cx = two_term_u_complex(N, QQ)
    reports = u_module_decompose(cx, QQ)
    # independent hand value: coker(u) = k[u]/u, ker(u) = u^{N-1}k[u]/u^N = k
    return {pos: {"free": r.free_rank, "torsion": dict(r.torsion_blocks)}
            for pos, r in reports.items()}


def _fx_dual_numbers_nc_even():
    from .algebra import builtin
    from .cyclic import negative_cyclic
    from .fields import QQ
    from .hochschild import DegreeWindow
    A = builtin("dual_numbers", QQ)
    rep = negative_cyclic(A, DegreeWindow(6), 3)
    return {"even_free": rep.even.free_rank, "odd_free": rep.odd.free_rank,
            "even_torsion": dict(rep.even.torsion_blocks)}


def _fx_quantum_plane_count():
    from .algebra import builtin
    from .fields import QQ
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
    from .algebra import builtin
    from .fields import QQ
    from .hochschild import ChainComplex
    A = builtin("mat", QQ, m=2)
    M = ChainComplex(A).boundary(1)
    rows = _sparse_to_rows(M, A.field)
    return dense_rank(rows, A.field)


def _fx_dual_numbers_hh():
    from .algebra import builtin
    from .fields import QQ
    return reduced_hh_ranks(builtin("dual_numbers", QQ), 4)


def _fx_mat2_hh():
    from .algebra import builtin
    from .fields import QQ
    return reduced_hh_ranks(builtin("mat", QQ, m=2), 4)


def _fx_mat2_commutator_rank():
    from .algebra import builtin
    from .fields import QQ
    return commutator_span_rank(builtin("mat", QQ, m=2))


def _fx_a2_path_hh0():
    from .algebra import builtin
    from .fields import QQ
    A = builtin("a2_path", QQ)
    return A.dim - commutator_span_rank(A)


def _fx_unreduced_vs_reduced_dual():
    from .algebra import builtin
    from .fields import QQ
    A = builtin("dual_numbers", QQ)
    return {"unreduced": unreduced_hh_ranks(A, 3), "reduced": reduced_hh_ranks(A, 3)}


def _fx_dual_numbers_hp():
    from .algebra import builtin
    from .cyclic import hp_ranks
    from .fields import QQ
    from .hochschild import DegreeWindow
    rep = hp_ranks(builtin("dual_numbers", QQ), DegreeWindow(8), 3)
    return {"hp": [rep.hp_even, rep.hp_odd], "conclusive": rep.conclusive,
            "verdict": rep.verdict}


def _fx_dual_numbers_filtration():
    from .algebra import builtin
    from .cyclic import hodge_filtration
    from .fields import QQ
    from .hochschild import DegreeWindow
    return hodge_filtration(builtin("dual_numbers", QQ), DegreeWindow(8), 3)


def _fx_degeneration(name):
    def run():
        from .algebra import builtin
        from .cyclic import degeneration_check
        from .fields import QQ
        from .hochschild import DegreeWindow
        if name == "mat2":
            rep = degeneration_check(builtin("mat", QQ, m=2), DegreeWindow(6), 2)
        else:
            rep = degeneration_check(builtin("dual_numbers", QQ), DegreeWindow(8), 3)
        return rep["verdict"]
    return run


def _fx_charp_compare_dual_f2():
    from .algebra import builtin
    from .cyclic import char_p_compare
    from .fields import GF
    from .hochschild import DegreeWindow
    rep = char_p_compare(builtin("dual_numbers", GF(2)), DegreeWindow(8), 3)
    return {"agree": rep["agree"]}


def _fx_graded_piece_v1_n2_p2():
    from .cyclic import graded_piece_analysis
    from .fields import GF
    r = graded_piece_analysis(1, 2, GF(2))
    return [r["ker_one_minus_sigma_mod_norm"], r["ker_norm_mod_one_minus_sigma"]]


def _fx_chern_e11_mat2():
    from .algebra import builtin
    from .fields import QQ
    from .kchern import Idempotent, chern_idempotent, cycle_certificate, u0_class_nonzero
    A = builtin("mat", QQ, m=2)
    lbl = {A.label(i): i for i in range(A.dim)}
    pi = Idempotent(A, {lbl["E11*1"]: A.field.one()})
    ch = chern_idempotent(pi, 3)
    cert = cycle_certificate(ch)
    return {"cycle": cert["is_cycle"], "u0_nonzero": u0_class_nonzero(ch)}


def _fx_mat2_f2_ppower_e12():
    from .algebra import builtin
    from .fields import GF
    A = builtin("mat", GF(2), m=2)
    # independent arithmetic: HH0 rank from the dense commutator span, and
    # e12^2 straight from the structure constants
    lbl = {A.label(i): i for i in range(A.dim)}
    e12 = lbl["E12*1"]
    return {"hh0_rank": A.dim - commutator_span_rank(A),
            "e12_square_zero": A.mul_basis(e12, e12) == {}}


def _fx_dual_f2_lift_eps():
    from .algebra import builtin
    from .fields import GF
    from .kchern import ppower_lift_p2
    A = builtin("dual_numbers", GF(2))
    lift = ppower_lift_p2(A, {1: A.field.one()})  # the class of eps
    return {"components": [sorted((list(k), int(v)) for k, v in comp.items())
                           for comp in lift.components],
            "cycle": True}  # emission raises if the certificate fails


def _fx_mat2_f2_lift_additivity():
    from .algebra import builtin
    from .fields import GF
    from .kchern import lift_difference_is_boundary
    A = builtin("mat", GF(2), m=2)
    one = A.field.one()
    return all(lift_difference_is_boundary(A, {a: one}, {b: one})
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
    alpha = builtin_bivector("standard", 2)
    a = lie_derivative(alpha, monomial_form(2, (1, 0), (1,)))     # L(x dy)
    b = lie_derivative(alpha, monomial_form(2, (1, 0), (0, 1)))   # L(x dx^dy)
    return {"L_x_dy": {str(k): str(v) for k, v in a.terms.items()},
            "L_x_dxdy": {str(k): str(v) for k, v in b.terms.items()}}


def _fx_nonjacobi4_conjugation():
    from .poisson import builtin_bivector, conjugation_check
    r = conjugation_check(builtin_bivector("nonjacobi4"), 2)
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
    return star_identity_check(4, 4)["pass"]


def _fx_ph(name):
    def run():
        from .poisson import builtin_bivector, poisson_homology_ranks
        alpha = builtin_bivector(name, 2)
        r = poisson_homology_ranks(alpha, 6)
        return {"even": r["even"], "odd": r["odd"], "stable": r["stable"]}
    return run


FIXTURES = {
    "two_term_u_complex_N3": (
        "k[u]/u^3 --u--> k[u]/u^3: one torsion block of size 1 at each position",
        _fx_two_term_u_complex),
    "dual_numbers_nc_N3_even_free": (
        "truncated negative cyclic of dual numbers over Q, n<=6, N=3: even free rank 1",
        _fx_dual_numbers_nc_even),
    "quantum_plane_n1_w2_count": (
        "quantum_plane(q=2, mw=3) chain words at n=1, weight 2: main vs independent enumeration",
        _fx_quantum_plane_count),
    "mat2_boundary_image_rank_n1": (
        "Mat2(Q): rank of the image of the n=1 boundary = commutator subspace rank 3",
        _fx_mat2_boundary_image_rank),
    "mat2_commutator_rank": (
        "Mat2(Q) commutator span rank 3 (trace-zero matrices)",
        _fx_mat2_commutator_rank),
    "dual_numbers_hh_n4": (
        "dual numbers over Q: dense reduced HH ranks (2,1,1,1,1) for n=0..4",
        _fx_dual_numbers_hh),
    "mat2_hh_n4": (
        "Mat2(Q): dense reduced HH ranks (1,0,0,0,0) for n=0..4 (Morita-trivial)",
        _fx_mat2_hh),
    "a2_path_hh0": (
        "A2 path algebra over Q: HH0 rank 2 by dense commutator span",
        _fx_a2_path_hh0),
    "unreduced_vs_reduced_dual_n3": (
        "dual numbers: unreduced and reduced dense HH ranks agree for n<=3",
        _fx_unreduced_vs_reduced_dual),
    "dual_numbers_hp_N3": (
        "hp_ranks(dual_numbers, n<=8, N=3) = (1,0) conclusive",
        _fx_dual_numbers_hp),
    "dual_numbers_filtration_profile": (
        "full Hodge filtration profile of dual numbers (regression value)",
        _fx_dual_numbers_filtration),
    "dual_numbers_degeneration": (
        "degeneration_check(dual_numbers) = finite-torsion-found",
        _fx_degeneration("dual")),
    "mat2_degeneration": (
        "degeneration_check(mat2) = collapses-in-window",
        _fx_degeneration("mat2")),
    "charp_compare_dual_F2": (
        "char_p_compare(F2[x]/x^2, n<=8, N=3): free ranks agree per guard-safe weight",
        _fx_charp_compare_dual_f2),
    "graded_piece_v1_n2_p2": (
        "graded pieces dimV=1, n=2, p=2: ranks (1,1) = the (1-sigma) two-term complex",
        _fx_graded_piece_v1_n2_p2),
    "chern_e11_mat2": (
        "chern_idempotent(e11 in Mat2(Q), N=3): exact cycle, nonzero u^0 class",
        _fx_chern_e11_mat2),
    "mat2_f2_ppower_e12": (
        "Mat2(F2): HH0 rank 1; class of e12 squares to 0",
        _fx_mat2_f2_ppower_e12),
    "dual_f2_lift_eps": (
        "p=2 lift of eps in dual numbers over F2 = 1(x)eps(x)eps . u, cycle certified",
        _fx_dual_f2_lift_eps),
    "mat2_f2_lift_additivity": (
        "Mat2(F2): lift(a+b) - lift(a) - lift(b) is a boundary for all basis pairs",
        _fx_mat2_f2_lift_additivity),
    "so3_jacobi": (
        "so(3) linear bivector has identically zero Jacobiator (independent trivector formula)",
        _fx_so3_jacobi),
    "nonjacobi4_jacobi": (
        "registered non-Jacobi 4-variable bivector has a nonzero Jacobiator component",
        _fx_nonjacobi4_jacobi),
    "lie_derivative_values": (
        "L_alpha(x dy) = 1 and L_alpha(x dx^dy) = -dx for alpha = dx-dy inverse",
        _fx_lie_values),
    "nonjacobi4_conjugation": (
        "conjugation identity fails for the non-Jacobi bivector with a witness form",
        _fx_nonjacobi4_conjugation),
    "star_2var_signs": (
        "*(1) = dx^dy and *(dx^dy) = -1 under the pinned convention",
        _fx_star_2var_signs),
    "star_identity_4var_D4": (
        "star identity holds in 4 variables at D=4",
        _fx_star_4var),
    "ph_standard_D6": (
        "Poisson homology of alpha = dx^dy inverse at D=6: stable ranks (1,0)",
        _fx_ph("standard")),
    "ph_zero_D6": (
        "Poisson homology of alpha = 0 at D=6: 2-periodic de Rham, stable ranks (1,0)",
        _fx_ph("zero")),
}


def certify(fixture_id: str) -> OracleResult:
    if fixture_id not in FIXTURES:
        raise FixtureError(f"unknown fixture {fixture_id!r}")
    description, fn = FIXTURES[fixture_id]
    value = fn()
    digest = hashlib.sha256(
        json.dumps({"id": fixture_id, "description": description},
                   sort_keys=True).encode()).hexdigest()
    return OracleResult(fixture_id, value, digest, description)
