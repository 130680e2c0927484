"""Acceptance suite: one test per criterion, in order.

Each test is an independent pass/fail line; every numeric expectation that
has an oracle fixture is certified through nchodge.oracle before use.
"""

import os
import subprocess
import sys
import time

from nchodge import oracle
from nchodge.algebra import AlgebraSpec, builtin, glue, matrix_algebra, \
    trivial_bimodule, validate, zero_bimodule
from nchodge.cyclic import char_p_compare, graded_piece_analysis, hp_ranks
from nchodge.fields import GF, QQ
from nchodge.hochschild import (ChainComplex, DegreeWindow, chain_basis,
                                hh0_direct, hh_ranks, hkr_reference)
from nchodge.kchern import (Idempotent, chern_idempotent, cycle_certificate,
                            lift_difference_is_boundary, ppower_lift_p2,
                            ppower_on_hh0, u0_class_nonzero)
from nchodge.poisson import (builtin_bivector, conjugation_check,
                             star_identity_check)


def _catalogue_specimens(field):
    """One representative per catalogue entry, all of dimension <= 8."""
    out = []
    for name in ("point", "dual_numbers", "truncated_poly", "poly_truncated",
                 "quantum_plane", "mat", "group_z2", "clifford1", "a2_path"):
        params = {}
        if name == "quantum_plane":
            params = {"q": "1" if field.characteristic == 2 else "2",
                      "max_weight": 2}
        elif name == "poly_truncated":
            params = {"vars": 2, "max_weight": 2}
        elif name == "truncated_poly":
            params = {"m": 3}
        elif name == "mat":
            params = {"m": 2}
        out.append(builtin(name, field, **params))
    return out


def test_criterion_01_differential_identities():
    """d^2 = B^2 = dB + Bd = 0 exactly, catalogue x {Q, F2, F3}, n <= 6."""
    start = time.time()
    for field in (QQ, GF(2), GF(3)):
        for A in _catalogue_specimens(field):
            assert A.dim <= 8, A.name
            F = A.field
            fzero, fadd, fmul, fis0 = F.zero(), F.add, F.mul, F.is_zero
            cx = ChainComplex(A)
            bnd, con = cx.boundary_word, cx.connes_word
            for n in range(7):
                for w in chain_basis(A, n):
                    dw = bnd(w)
                    bw = con(w)
                    for first, second in ((dw, bnd), (bw, con)):
                        acc = {}
                        for w1, c1 in first.items():
                            for w2, c2 in second(w1).items():
                                s = fadd(acc.get(w2, fzero), fmul(c1, c2))
                                if fis0(s):
                                    acc.pop(w2, None)
                                else:
                                    acc[w2] = s
                        assert not acc, (A.name, str(F), w)
                    acc = {}
                    for w1, c1 in bw.items():
                        for w2, c2 in bnd(w1).items():
                            s = fadd(acc.get(w2, fzero), fmul(c1, c2))
                            if fis0(s):
                                acc.pop(w2, None)
                            else:
                                acc[w2] = s
                    for w1, c1 in dw.items():
                        for w2, c2 in con(w1).items():
                            s = fadd(acc.get(w2, fzero), fmul(c1, c2))
                            if fis0(s):
                                acc.pop(w2, None)
                            else:
                                acc[w2] = s
                    assert not acc, (A.name, str(F), w, "anticommutator")
    assert time.time() - start < 120


def test_criterion_02_hh0_agreement():
    """hh_ranks at n = 0 equals the direct A/[A,A] computation."""
    assert oracle.certify("a2_path_hh0") == 2
    for field in (QQ, GF(2), GF(3)):
        for A in _catalogue_specimens(field):
            ranks = hh_ranks(A, DegreeWindow(2))
            assert ranks["per_n"][0] == hh0_direct(A), (A.name, str(field))


def test_criterion_03_hkr_desk_scale():
    """HH per (degree, weight) matches the polynomial-forms count."""
    start = time.time()
    for v in (1, 2):
        A = builtin("poly_truncated", QQ, vars=v, max_weight=5)
        pnw = hh_ranks(A, DegreeWindow(6, 0, 3))["per_n_weight"]
        for w in range(0, 4):  # guard-safe: w <= max_weight - 2
            for n in range(6):
                got = pnw.get((n, w), 0)
                if n > v:
                    assert got == 0, (v, n, w)
                else:
                    assert got == hkr_reference(v, n, w), (v, n, w)
    assert time.time() - start < 180


def test_criterion_04_morita_invariance():
    """mat(2) ~ point and Mat2(dual numbers) ~ dual numbers."""
    assert oracle.certify("mat2_hh_n4") == [1, 0, 0, 0, 0]
    P = builtin("point")
    M2 = builtin("mat", QQ, m=2)
    hh_p = hh_ranks(P, DegreeWindow(5))["per_n"]
    hh_m = hh_ranks(M2, DegreeWindow(5))["per_n"]
    assert hh_p == hh_m == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
    hp_p = hp_ranks(P, DegreeWindow(6), 2)
    hp_m = hp_ranks(M2, DegreeWindow(6), 2)
    assert hp_p["conclusive"] and hp_m["conclusive"]
    assert (hp_p["hp_even"], hp_p["hp_odd"]) == (hp_m["hp_even"], hp_m["hp_odd"])
    D = builtin("dual_numbers")
    M2D = matrix_algebra(D, 2)
    assert (hh_ranks(D, DegreeWindow(4))["per_n"]
            == hh_ranks(M2D, DegreeWindow(4))["per_n"])


def test_criterion_05_feigin_tsygan_fat_points():
    """hp of dual numbers and k[x]/x^3 is (1, 0), conclusive at N = 3."""
    assert oracle.certify("dual_numbers_hp_N3") == {
        "hp": [1, 0], "conclusive": True, "verdict": "finite-torsion-found"}
    for A in (builtin("dual_numbers"), builtin("truncated_poly", QQ, m=3)):
        rep = hp_ranks(A, DegreeWindow(8), 3)
        assert (rep["hp_even"], rep["hp_odd"]) == (1, 0), A.name
        assert rep["conclusive"], A.name


def test_criterion_06_super_example():
    """hp(clifford1) = (0, 1) over Q, conclusive."""
    rep = hp_ranks(builtin("clifford1"), DegreeWindow(8), 3)
    assert (rep["hp_even"], rep["hp_odd"]) == (0, 1)
    assert rep["conclusive"]


def test_criterion_07_rank_inequality():
    """hp_even + hp_odd <= total HH rank in the window, on conclusive runs."""
    matrix = [
        (builtin("point"), 6, 2),
        (builtin("mat", QQ, m=2), 6, 2),
        (builtin("dual_numbers"), 8, 3),
        (builtin("truncated_poly", QQ, m=3), 8, 3),
        (builtin("clifford1"), 8, 3),
    ]
    checked = 0
    for A, n_max, N in matrix:
        rep = hp_ranks(A, DegreeWindow(n_max), N)
        if not rep["conclusive"]:
            continue
        total_hh = sum(hh_ranks(A, DegreeWindow(n_max))["per_n"].values())
        assert rep["hp_even"] + rep["hp_odd"] <= total_hh, A.name
        checked += 1
    assert checked == len(matrix)


def test_criterion_08_chern_cycles():
    """(d + uB) ch(pi) = 0 for e11 in Mat2, (1,0) in k x k, and every
    diagonal idempotent of mat(3); u^0-class nonzero iff the trace is."""
    assert oracle.certify("chern_e11_mat2") == {
        "cycle": True, "u0_nonzero": True}
    M2 = builtin("mat", QQ, m=2)
    labels2 = {M2.label(i): i for i in range(M2.dim)}
    ch = chern_idempotent(Idempotent(M2, {labels2["E11*1"]: M2.field.one()}), 3)
    assert cycle_certificate(ch)["is_cycle"] and u0_class_nonzero(ch)

    KK = glue(builtin("point"), builtin("point"),
              zero_bimodule(builtin("point"), builtin("point")))
    pi = next({i: KK.field.one()} for i in range(1, KK.dim)
              if KK.mul_vec({i: KK.field.one()}, {i: KK.field.one()})
              == {i: KK.field.one()})
    ch2 = chern_idempotent(Idempotent(KK, pi), 3)
    assert cycle_certificate(ch2)["is_cycle"] and u0_class_nonzero(ch2)

    M3 = builtin("mat", QQ, m=3)
    F = M3.field
    labels3 = {M3.label(i): i for i in range(M3.dim)}
    one, neg = F.one(), F.neg(F.one())
    for mask in range(8):
        S = [i + 1 for i in range(3) if mask & (1 << i)]
        vec = {}
        for i in S:
            lbl = f"E{i}{i}*1"
            if lbl in labels3:
                vec[labels3[lbl]] = F.add(vec.get(labels3[lbl], F.zero()), one)
            else:  # E33 = unit - E11 - E22 after the unit rebasing
                vec[0] = F.add(vec.get(0, F.zero()), one)
                for other in ("E11*1", "E22*1"):
                    j = labels3[other]
                    vec[j] = F.add(vec.get(j, F.zero()), neg)
        vec = {k: v for k, v in vec.items() if not F.is_zero(v)}
        chain = chern_idempotent(Idempotent(M3, vec), 3)
        assert cycle_certificate(chain)["is_cycle"], S
        # trace pairing: the u^0 class is nonzero exactly when |S| != 0
        assert u0_class_nonzero(chain) == bool(S), S


def test_criterion_09_char_p_operations():
    """p-power certificates on HH0 and the p = 2 cyclic lifts."""
    assert oracle.certify("mat2_f2_ppower_e12") == {
        "hh0_rank": 1, "e12_square_zero": True}
    lift = oracle.certify("dual_f2_lift_eps")
    assert lift["cycle"] and lift["components"] == [[], [([0, 1, 1], 1)]]
    assert oracle.certify("mat2_f2_lift_additivity") is True
    for A in (builtin("mat", GF(2), m=2),
              builtin("truncated_poly", GF(3), m=3),
              builtin("a2_path", GF(2))):
        rep = ppower_on_hh0(A)
        assert rep["well_defined"] and rep["additive"], A.name
    for A in (builtin("dual_numbers", GF(2)), builtin("mat", GF(2), m=2)):
        for i in range(A.dim):
            chain = ppower_lift_p2(A, {i: A.field.one()})
            assert cycle_certificate(chain)["is_cycle"], (A.name, i)
    M2 = builtin("mat", GF(2), m=2)
    one = M2.field.one()
    assert lift_difference_is_boundary(M2, {1: one}, {2: one})


def test_criterion_10_graded_pieces():
    """(1 - sigma, norm) complex acyclic exactly when gcd(n, p) = 1."""
    start = time.time()
    assert oracle.certify("graded_piece_v1_n2_p2") == [1, 1]
    for p in (2, 3, 5):
        F = GF(p)
        for dimV in (1, 2):
            for n in range(1, 7):
                rep = graded_piece_analysis(dimV, n, F)
                expect = n % p != 0
                if dimV == 1 and n % 2 == 0 and p % 2 == 1:
                    # signed corner: on a 1-dimensional V^{(x)n} with n even
                    # the cyclic rotation carries the sign (-1)^{n-1} = -1,
                    # so 1 - sigma = 2 is invertible mod odd p and the
                    # complex is acyclic even when p divides n
                    expect = True
                assert rep["acyclic"] == expect, (dimV, n, p)
    rep = graded_piece_analysis(1, 2, GF(2))
    # for (dimV, n, p) = (1, 2, 2) both ranks equal the rank of the
    # one-dimensional (1 - sigma) complex on V^{(x)1}: 1 - sigma = 0 and
    # norm = 2 = 0, so each homology is all of V^{(x)1}, rank 1
    assert rep["ker_one_minus_sigma_mod_norm"] == 1
    assert rep["ker_norm_mod_one_minus_sigma"] == 1
    assert time.time() - start < 60


def test_criterion_11_semiclassical_identities():
    """Conjugation and star identities, with the registered failure case."""
    start = time.time()
    assert oracle.certify("so3_jacobi") is True
    assert oracle.certify("nonjacobi4_jacobi")["nonzero"]
    assert not oracle.certify("nonjacobi4_conjugation")["pass"]
    assert oracle.certify("star_identity_4var_D4") is True
    assert conjugation_check(builtin_bivector("standard"))["pass"]
    assert conjugation_check(builtin_bivector("so3"))["pass"]
    assert not conjugation_check(builtin_bivector("nonjacobi4"))["pass"]
    assert star_identity_check(2)["pass"]
    assert star_identity_check(4)["pass"]
    assert time.time() - start < 120


def test_criterion_12_gluing_additivity():
    """HH of glue(k, k, k) = HH(point) + HH(point) for n <= 4."""
    assert oracle.certify("glue_dual_truncated_hh_n3") == {
        "main": [5, 3, 3, 3], "oracle": [5, 3, 3, 3]}
    P1, P2 = builtin("point"), builtin("point")
    T = glue(P1, P2, trivial_bimodule(P2, P1))
    per_n = hh_ranks(T, DegreeWindow(5))["per_n"]
    point = hh_ranks(P1, DegreeWindow(5))["per_n"]
    assert per_n == {n: 2 * point[n] for n in point}
    assert per_n == {0: 2, 1: 0, 2: 0, 3: 0, 4: 0}
    # a super input keeps its odd letters: with them dropped, Lambda(xi)
    # became k[x]/x^2 and the sum read (4, 2, 2, 2, 2)
    D = builtin("dual_numbers")
    L = AlgebraSpec("exterior1", QQ, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                    weight=(0, 1), parity=(0, 1))
    S = glue(D, L, trivial_bimodule(L, D))
    assert validate(S).ok and S.is_super
    per_n = hh_ranks(S, DegreeWindow(5))["per_n"]
    parts = [hh_ranks(X, DegreeWindow(5))["per_n"] for X in (D, L)]
    assert per_n == {n: parts[0][n] + parts[1][n] for n in per_n}
    assert per_n == {0: 4, 1: 3, 2: 3, 3: 3, 4: 3}


def test_criterion_13_char_p_comparison_evidence():
    """Free ranks of the (d + uB) and d complexes agree on F2[x]/x^2."""
    assert oracle.certify("charp_compare_dual_F2") == {"agree": True}
    A = builtin("dual_numbers", GF(2))
    rep = char_p_compare(A, DegreeWindow(8), 3)
    assert rep["agree"]
    for slot in rep["per_slot"]:
        if slot["guard_safe"]:
            assert slot["agree"], slot
    for off in rep["off_frobenius"]:
        if off["guard_safe"]:
            assert off["vanishes"], off


def test_criterion_14_determinism(tmp_path):
    """Two fresh-process runs produce byte-identical reports."""
    commands = [
        ["hh", "--algebra", "dual_numbers", "--field", "Q", "--n-max", "4"],
        ["hp", "--algebra", "clifford1", "--field", "Q", "--n-max", "8",
         "--u-trunc", "3"],
        ["poisson", "homology", "--bivector", "standard", "--degree", "5"],
        ["catalogue"],
    ]
    for cmd in commands:
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("NCHODGE_CACHE_DIR", None)
            proc = subprocess.run(
                [sys.executable, "-m", "nchodge.cli"] + cmd,
                capture_output=True, env=env, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], cmd


def test_criterion_15_oracle_completeness():
    """Every registered fixture certifies cleanly."""
    assert len(oracle.FIXTURES) >= 28
    for fid, (description, _fn, value) in sorted(oracle.FIXTURES.items()):
        assert description
        assert oracle.certify(fid) == value
