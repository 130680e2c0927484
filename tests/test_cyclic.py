import json
from collections import Counter

import pytest

from nchodge import cyclic, hochschild, oracle, sparse, umodule
from nchodge.algebra import CATALOGUE, AlgebraError, builtin
from nchodge.cli import main
from nchodge.cyclic import (UnsupportedError, char_p_compare,
                            degeneration_check, graded_piece_analysis,
                            hodge_filtration, hp_ranks, negative_cyclic)
from nchodge.fields import GF, QQ, SizeError
from nchodge.hochschild import DegreeWindow, hh_ranks
from test_block_layout import _exterior


def test_window_precondition():
    A = builtin("dual_numbers")
    with pytest.raises(SizeError, match="too small for truncation"):
        hp_ranks(A, DegreeWindow(4), 3)  # needs n_max >= 2N
    with pytest.raises(SizeError, match="window too small"):
        hh_ranks(A, DegreeWindow(0))  # degree n needs the block at n + 1


def test_negative_cyclic_dual_numbers():
    A = builtin("dual_numbers")
    rep = negative_cyclic(A, DegreeWindow(6), 3)
    assert rep.even.free_rank == 1
    assert rep.odd.free_rank == 0
    assert rep.even.torsion_list == [1, 1, 1]


def test_hp_dual_numbers_fat_point():
    A = builtin("dual_numbers")
    rep = hp_ranks(A, DegreeWindow(8), 3)
    assert (rep["hp_even"], rep["hp_odd"]) == (1, 0)
    assert rep["conclusive"]
    assert rep["verdict"] == "finite-torsion-found"


def test_hp_point_and_mat2_agree():
    P = builtin("point")
    M = builtin("mat", QQ, m=2)
    rp = hp_ranks(P, DegreeWindow(6), 2)
    rm = hp_ranks(M, DegreeWindow(6), 2)
    assert rp["conclusive"] and rm["conclusive"]
    assert (rp["hp_even"], rp["hp_odd"]) == (rm["hp_even"], rm["hp_odd"]) == (1, 0)


def test_filtration_dual_numbers():
    A = builtin("dual_numbers")
    filt = hodge_filtration(A, DegreeWindow(8), 4)
    assert filt["0"] == 1 and filt["1"] == 1 and filt["1/2"] == 0


def test_filtration_inconclusive_raises():
    # a window too tight to stabilize must refuse to hand out a filtration
    A = builtin("truncated_poly", QQ, m=3)
    with pytest.raises((UnsupportedError, SizeError)):
        hodge_filtration(A, DegreeWindow(4), 2)


def test_degeneration_verdicts():
    A = builtin("mat", QQ, m=2)
    rep = degeneration_check(A, DegreeWindow(6), 2)
    assert rep["verdict"] == "collapses-in-window"
    B = builtin("dual_numbers")
    rep2 = degeneration_check(B, DegreeWindow(8), 3)
    assert rep2["verdict"] == "finite-torsion-found"
    assert rep2["torsion_inventory"]


def test_char_p_compare_requires_prime_field():
    A = builtin("dual_numbers")
    with pytest.raises(UnsupportedError):
        char_p_compare(A, DegreeWindow(8), 3)


def test_char_p_compare_dual_f2():
    A = builtin("dual_numbers", GF(2))
    rep = char_p_compare(A, DegreeWindow(8), 3)
    assert rep["agree"]
    # Frobenius pairing: slot w is compared against slot 2w
    for slot in rep["per_slot"]:
        assert slot["partner_weight"] == 2 * slot["weight"]
    # odd weights of the (d + uB) complex vanish
    for off in rep["off_frobenius"]:
        assert off["weight"] % 2 == 1
        assert not off["guard_safe"] or off["vanishes"]


def test_char_p_compare_truncated_poly_f3():
    A = builtin("truncated_poly", GF(3), m=3)
    rep = char_p_compare(A, DegreeWindow(8), 3)
    assert rep["agree"]


def test_char_p_compare_judges_guard_safe_weights_only():
    # poly_truncated(2, 2) over F2 at N = 1: a slot and an off-Frobenius
    # weight that feel the truncation disagree, but the guard band flags
    # them, so the comparison still agrees
    A = builtin("poly_truncated", GF(2), vars=2, max_weight=2)
    rep = char_p_compare(A, DegreeWindow(2), 1)
    assert any(not s["guard_safe"] and not s["agree"] for s in rep["per_slot"])
    assert any(not o["guard_safe"] and not o["vanishes"] for o in rep["off_frobenius"])
    assert rep["agree"]
    # at max_weight 3 the guard-safe weight 1 does not vanish: no agreement
    A = builtin("poly_truncated", GF(2), vars=1, max_weight=3)
    rep = char_p_compare(A, DegreeWindow(6), 1)
    assert not rep["agree"]


def _d_only_free_ranks(A, n_top):
    """(even, odd) free ranks of the d-only complex (C (x) k[u]/u^N, d) in
    lengths n <= n_top, for every N: it is u-free of rank dim H(C, d).  d
    keeps the word parity, so the dense oracle's boundary images, restricted
    to the words of one parity p, give the ranks per p; a class of length n
    and word parity p has total parity n + p."""
    out = [0, 0]
    for p in (0, 1):
        dims, ranks = [], [0]
        for n in range(n_top + 2):
            keep = [hochschild.word_parity(A, w) == p for w in oracle._words(A.dim, n, True)]
            dims.append(sum(keep))
            if n:
                images = oracle._boundary_images(A, n, True)
                ranks.append(oracle.dense_rank([v for v, k in zip(images, keep) if k], A.field))
        for n in range(n_top + 1):
            out[(n + p) % 2] += dims[n] - ranks[n] - ranks[n + 1]
    return out


@pytest.mark.parametrize("name, params, n_max_top", [
    ("mat", {"m": 2}, 6), ("a2_path", {}, 8), ("group_z2", {}, 8), ("clifford1", {}, 8)])
@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=str)
def test_ungraded_d_only_side_is_the_hochschild_homology(name, params, n_max_top, field):
    # The d-only side of char_p_compare on an ungraded algebra is the
    # staircase at N = 1 on a window 2(N - 1) shorter: C (x) k[u]/u^N is u-free
    # of rank dim H(C, d), counted in the lengths n < n_max - 2(N - 1).
    A = builtin(name, field, **params)
    if A.is_super:
        expected = {n_top: _d_only_free_ranks(A, n_top) for n_top in range(n_max_top)}
    else:
        hh = oracle.reduced_hh_ranks(A, n_max_top - 1)
        expected = {n_top: [sum(hh[n] for n in range(par, n_top + 1, 2)) for par in (0, 1)]
                    for n_top in range(n_max_top)}
    for N in (1, 2, 3):
        for n_max in range(2 * N, n_max_top + 1):
            rep = char_p_compare(A, DegreeWindow(n_max), N)
            assert rep["per_slot"][0]["without_b"] == expected[n_max - 2 * N + 1], (N, n_max)


def test_graded_pieces_acyclicity():
    # acyclic exactly when gcd(n, p) = 1
    for p in (2, 3):
        F = GF(p)
        for n in (1, 2, 3, 4):
            rep = graded_piece_analysis(2, n, F)
            assert rep["acyclic"] == (n % p != 0), (p, n)


def test_graded_pieces_char_zero_always_acyclic():
    for n in (1, 2, 3):
        assert graded_piece_analysis(2, n, QQ)["acyclic"]


def test_graded_pieces_size_is_bounded(monkeypatch):
    # the count is exact: a bound of n * dimV^n admits the complex, and one
    # less refuses it
    for dimV, n in ((1, 1), (1, 40), (2, 1), (2, 5), (3, 3), (7, 2), (2, 17), (40, 1)):
        count = n * dimV ** n
        monkeypatch.setattr(cyclic, "MAX_ROTATION_TERMS", count)
        assert graded_piece_analysis(dimV, n, QQ)["n"] == n
        monkeypatch.setattr(cyclic, "MAX_ROTATION_TERMS", count - 1)
        with pytest.raises(SizeError, match="MAX_ROTATION_TERMS"):
            graded_piece_analysis(dimV, n, QQ)
    monkeypatch.undo()
    # the benchmark's 3^6 is far inside; n = 12 and 10^9 are refused with
    # no large power taken
    assert cyclic.MAX_ROTATION_TERMS == 100_000
    graded_piece_analysis(1, cyclic.MAX_ROTATION_TERMS, GF(2))
    for dimV, n in ((1, cyclic.MAX_ROTATION_TERMS + 1), (3, 12), (2, 10 ** 9),
                    (10 ** 9, 1), (10 ** 9, 10 ** 9)):
        with pytest.raises(SizeError, match="MAX_ROTATION_TERMS"):
            graded_piece_analysis(dimV, n, GF(2))


def test_each_boundary_block_is_eliminated_once(monkeypatch):
    # count eliminations per matrix object; the complexes memoize their
    # blocks, so a repeated id is a block eliminated twice (the matrices are
    # kept alive so that no id is reused)
    calls = Counter()
    alive = []
    original = sparse.rank

    def counting_rank(M, field):
        calls[id(M)] += 1
        alive.append(M)
        return original(M, field)

    for module in (sparse, hochschild, cyclic):
        if getattr(module, "rank", None) is original:
            monkeypatch.setattr(module, "rank", counting_rank)
    rep = degeneration_check(builtin("mat", QQ, m=2), DegreeWindow(4), 2)
    assert rep["verdict"] == "collapses-in-window"
    staircase_blocks = len(calls)
    assert staircase_blocks and set(calls.values()) == {1}
    ranks = hh_ranks(builtin("mat", QQ, m=2), DegreeWindow(4))
    assert ranks["per_n"] == {0: 1, 1: 0, 2: 0, 3: 0}
    ranks = hh_ranks(builtin("dual_numbers", QQ), DegreeWindow(5))
    assert ranks["per_n"] == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}
    assert len(calls) > staircase_blocks and set(calls.values()) == {1}


def test_each_staircase_block_is_eliminated_once(monkeypatch):
    # rank and kernel_basis both eliminate a block; a block whose cycles are
    # built takes its rank from them, so no matrix may reach both (the
    # matrices are kept alive so that no id is reused)
    calls = Counter()
    alive = []
    for name in ("rank", "kernel_basis"):
        original = getattr(sparse, name)

        def counting(M, field, _original=original):
            calls[id(M)] += 1
            alive.append(M)
            return _original(M, field)

        for module in (sparse, cyclic):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    rep = degeneration_check(builtin("mat", QQ, m=2), DegreeWindow(6), 2)
    assert rep["verdict"] == "collapses-in-window"
    hp = hp_ranks(builtin("a2_path", QQ), DegreeWindow(8), 3)
    assert (hp["hp_even"], hp["hp_odd"], hp["conclusive"]) == (2, 0, True)
    assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("name, n_max, N", [("dual_numbers", 8, 4), ("a2_path", 8, 3)])
def test_hp_and_filtration_build_one_chain_complex(monkeypatch, name, n_max, N):
    # the N - 1 pass reuses the bases and word indexes of the N pass, on the
    # folded (dual_numbers) and the staircase (a2_path) realization; the one
    # complex is the one relative to the vertex idempotents
    built, relatives = [], []

    class Counting(hochschild.ChainComplex):
        def __init__(self, A, relative=False):
            built.append(A)
            relatives.append(relative)
            super().__init__(A, relative)

    monkeypatch.setattr(cyclic, "ChainComplex", Counting)
    A = builtin(name, QQ)
    for operation in (hp_ranks, hodge_filtration):
        built.clear()
        relatives.clear()
        operation(A, DegreeWindow(n_max), N)
        assert built == [A], operation.__name__
        assert relatives == [True], operation.__name__


def test_graded_path_decomposes_only_positions_0_and_1(monkeypatch):
    # the folded complex is the pair of positions 0 and 1, so only they get
    # a decomposition.  Its two differentials (the one out of 0 into 1 and
    # the one out of 1 into 0) are eliminated once each, by one
    # leading_ranks call, where both positions have chains; with one
    # occupied position both maps are empty
    decomposed = []
    occupied = []
    eliminations = Counter()
    original = cyclic.u_module_decompose
    original_ranks = umodule.leading_ranks

    def recording(c, field, *args, **kwargs):
        reports = original(c, field, *args, **kwargs)
        decomposed.append(sorted(reports))
        occupied.append(sum(1 for pos in (0, 1) if c.ranks.get(pos, 0)))
        return reports

    def counting_ranks(rows, field, stride):
        eliminations[len(decomposed)] += 1
        return original_ranks(rows, field, stride)

    monkeypatch.setattr(cyclic, "u_module_decompose", recording)
    monkeypatch.setattr(umodule, "leading_ranks", counting_ranks)
    A = builtin("truncated_poly", QQ, m=3)
    rep = negative_cyclic(A, DegreeWindow(8), 3)
    assert len(decomposed) == len(rep.per_weight) > 1
    assert all(positions == [0, 1] for positions in decomposed)
    assert 1 in occupied and 2 in occupied
    assert [eliminations[i] for i in range(len(decomposed))] == \
        [2 if n == 2 else 0 for n in occupied]


@pytest.mark.parametrize("name,params,p", [
    ("truncated_poly", {"m": 3}, 3), ("poly_truncated", {}, 2),
    ("poly_truncated", {}, 3), ("quantum_plane", {}, 5)])
def test_char_p_compare_d_only_side_matches_decomposition(name, params, p):
    # the d-only free ranks come from ranks of the folded d blocks; an N-fold
    # decomposition of (C (x) k[u]/u^N, d) must give the same, with no torsion
    A = builtin(name, GF(p), **params)
    window, N = DegreeWindow(8), 3
    rep = char_p_compare(A, window, N)
    assert rep["per_slot"]
    cx = hochschild.ChainComplex(A)
    for slot in rep["per_slot"]:
        uc = cyclic._folded_weight_complex(cx, slot["weight"], N, window.n_max)
        for pos, coeffs in uc.diffs.items():
            uc.diffs[pos] = [coeffs[0]] + [sparse.SparseMatrix(coeffs[0].rows, coeffs[0].cols, {})
                                           for _ in range(N - 1)]
        reports = umodule.u_module_decompose(uc, A.field)
        assert not reports[0].torsion_blocks and not reports[1].torsion_blocks
        assert slot["without_b"] == [reports[0].free_rank, reports[1].free_rank], slot


def _charp_graded_algebras(F):
    """Every catalogue algebra that is connected-graded over F, and the
    exterior algebra on two odd generators (super, which none of them is)."""
    for name in CATALOGUE:
        try:
            A = builtin(name, F)
        except AlgebraError:  # q = 2 is zero over F2
            continue
        if A.connected_graded:
            yield A
    yield _exterior(F, 2)


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(5)], ids=str)
def test_graded_charp_without_b_is_the_hochschild_homology_per_weight(F):
    # graded char_p_compare reads its d-only side off the folded profile
    # modulo u; here it is counted from Hochschild ranks instead: a class of
    # length n <= w and word parity p has total parity (n + p) mod 2
    checked = set()  # the algebras with a slot above weight 0
    algebras = list(_charp_graded_algebras(F))
    for A in algebras:
        cx = hochschild.ChainComplex(A)
        parities = (0, 1) if A.is_super else (0,)
        for N in (2, 3, 4):
            for n_max in sorted({2 * N, 8}):
                rep = char_p_compare(A, DegreeWindow(n_max), N)
                for slot in rep["per_slot"]:
                    w = slot["weight"]
                    expected = [0, 0]
                    for n in range(w + 1):
                        for p in parities:
                            expected[(n + p) % 2] += cx.hh_rank(n, w, p)
                    assert slot["without_b"] == expected, (A.name, N, n_max, slot)
                    if w:
                        checked.add(A.name)
    # a slot's partner weight p * w lies in the window only when the
    # algebra's weights reach p (and point has weight 0 only)
    assert checked == {A.name for A in algebras if A.name != "point"
                       and (A.max_weight is None or A.max_weight >= F.p)}


def test_graded_charp_compare_runs_no_hochschild_pass(monkeypatch, capsys):
    # neither path runs hh_rank: the graded one reads its d-only side off the
    # folded profile modulo u, the ungraded one off the staircase at N = 1
    calls = []
    hh_rank = hochschild.ChainComplex.hh_rank

    def counting(self, *args):
        calls.append(args)
        return hh_rank(self, *args)

    monkeypatch.setattr(hochschild.ChainComplex, "hh_rank", counting)
    window = ["--field", "F3", "--n-max", "6", "--u-trunc", "3"]
    assert main(["charp-compare", "--algebra", "poly_truncated", *window]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["per_slot"]
    assert calls == []
    assert main(["charp-compare", "--algebra", "a2_path", *window]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["per_slot"]
    assert calls == []


@pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
@pytest.mark.parametrize("name, slot_disagrees", [("poly_truncated", True),
                                                  ("dual_numbers", False)])
def test_graded_charp_compare_that_disagrees_exits_2(capsys, name, slot_disagrees, strict):
    # over F2 at N = 1, weight 1 is off Frobenius and guard-safe, and its
    # with_b pair does not vanish; for poly_truncated the guard-safe weight-1
    # slot disagrees as well.  No catalogue algebra disagrees on a slot alone.
    argv = ["charp-compare", "--algebra", name, "--field", "F2", "--n-max", "4",
            "--u-trunc", "1", *strict]
    assert main(argv) == 2
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["agree"] is False
    off = {s["weight"]: s for s in result["off_frobenius"]}
    assert off[1]["guard_safe"] and not off[1]["vanishes"]
    (slot,) = [s for s in result["per_slot"] if s["weight"] == 1]
    assert slot["guard_safe"] and slot["agree"] is not slot_disagrees


def _graded_cases(F):
    """(algebra, window, truncations) for every catalogue algebra that is
    connected-graded over F, and for the exterior algebra on two odd
    generators (super, which none of them is) at a shorter window."""
    for name in CATALOGUE:
        try:
            A = builtin(name, F)
        except AlgebraError:  # q = 2 is zero over F2
            continue
        if A.connected_graded:
            yield A, DegreeWindow(8), (2, 3, 4)
    yield _exterior(F, 2), DegreeWindow(6), (2, 3)


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3), GF(5)], ids=str)
def test_graded_profile_truncates_to_the_smaller_truncation(F):
    # on a connected-graded algebra the profile mod u^N fixes the one mod
    # u^{N-1}: blocks of size N - 1 become free, weight by weight, which is
    # how hp_ranks derives its profile_previous
    cases = list(_graded_cases(F))
    assert len(cases) >= 5
    for A, window, truncations in cases:
        for N in truncations:
            big, small = negative_cyclic(A, window, N), negative_cyclic(A, window, N - 1)
            assert sorted(big.per_weight) == sorted(small.per_weight), (A.name, N)
            for w, pair in big.per_weight.items():
                assert [r.truncated(N - 1).to_dict() for r in pair] == \
                    [r.to_dict() for r in small.per_weight[w]], (A.name, N, w)
            assert hp_ranks(A, window, N)["profile_previous"] == small.to_dict(), \
                (A.name, N)
