"""Block layout of the chain complexes against a word-indexed reference.

`ChainComplex` is the one place where chain words are enumerated and
numbered and ∂/B matrices assembled: the folded per-weight complex, the
ungraded staircase and the p = 2 lift test lay its (length, weight, word
parity) blocks side by side (`layout`) and assemble them with `matrix`.
`chain_basis` builds each block in one walk, checked here against every
word of the length filtered afterwards.  The reference
assemblers below number words themselves, one {(length or u-power, word):
position} index per complex, and build every matrix word by word from
`boundary_word` / `connes_word`.  Both must give the same matrices, entry
for entry, and the same char_p_compare and lift results.
"""

import json
from itertools import product

import pytest

from nchodge import cli, cyclic, hochschild, kchern, umodule
from nchodge.algebra import CATALOGUE as CATALOGUE_NAMES
from nchodge.algebra import AlgebraError, AlgebraSpec, algebra_to_json, builtin, validate
from nchodge.fields import GF, QQ, linear_combination, reduced_entries
from nchodge.hochschild import (ChainComplex, DegreeWindow, Letters, chain_basis, hh_ranks,
                                vertex_idempotents, word_parity)
from nchodge.oracle import dense_blocks_from_dims, dense_kernel, dense_rank
from nchodge.sparse import (SparseMatrix, homology_from_ranks, leading_ranks, rank,
                            rank_of_columns)
from nchodge.umodule import UComplex, UTruncation, u_module_decompose
from test_relative_complex import CASES as RELATIVE_CASES, _catalogue_entry

FIELDS = [QQ, GF(2), GF(3)]

# every catalogue algebra, at sizes that keep the full chain blocks small
CATALOGUE = [("point", {}), ("dual_numbers", {}), ("truncated_poly", {"m": 3}),
             ("poly_truncated", {"vars": 2, "max_weight": 2}),
             ("quantum_plane", {"max_weight": 2}), ("mat", {"m": 2}), ("group_z2", {}),
             ("clifford1", {}), ("a2_path", {})]


def _exterior(F, odd):
    """The exterior algebra on `odd` generators, each odd of weight 1: with
    one generator k[xi]/xi^2.  Super and connected-graded, which no
    catalogue algebra is."""
    monomials = [m for r in range(odd + 1) for m in _subsets(odd, r)]
    pos = {m: i for i, m in enumerate(monomials)}
    structure = {}
    for a in monomials:
        for b in monomials:
            if set(a) & set(b):
                continue
            # sign of the shuffle that sorts a + b
            swaps = sum(1 for x in a for y in b if x > y)
            structure[(pos[a], pos[b])] = {pos[tuple(sorted(a + b))]: F.from_int((-1) ** swaps)}
    A = AlgebraSpec(f"exterior{odd}", F, len(monomials), structure,
                    weight=tuple(len(m) for m in monomials),
                    parity=tuple(len(m) % 2 for m in monomials))
    assert validate(A).ok
    return A


def _super_mat11(F):
    """Mat(1|1): 2 x 2 matrices with E12, E21 odd, on the basis 1, E11, E12,
    E21 (E22 = 1 - E11).  Super and not graded."""
    units = {0: ((1, 0), (0, 1)), 1: ((1, 0), (0, 0)), 2: ((0, 1), (0, 0)),
             3: ((0, 0), (1, 0))}
    structure = {}
    for i, a in units.items():
        for j, b in units.items():
            m = [[sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2)]
                 for r in range(2)]
            coords = (m[1][1], m[0][0] - m[1][1], m[0][1], m[1][0])
            if any(coords):
                structure[(i, j)] = {k: F.from_int(v) for k, v in enumerate(coords) if v}
    A = AlgebraSpec("mat(1|1)", F, 4, structure, parity=(0, 0, 1, 1))
    assert validate(A).ok
    return A


def _subsets(n, r):
    if r == 0:
        return [()]
    return [s + (x,) for s in _subsets(n, r - 1) for x in range(n) if not s or x > s[-1]]


def _algebras(F):
    out = []
    for name, params in CATALOGUE:
        try:
            out.append(builtin(name, F, **params))
        except (AlgebraError, ZeroDivisionError):
            pass  # a parameter that vanishes in this field
    return out + [_exterior(F, 1), _exterior(F, 2), _super_mat11(F)]


def _matrix(M):
    return M.rows, M.cols, M.entries


# -- reference assemblers: each complex numbers its own words ---------------


def _ref_folded(cx, w, N, n_max):
    """(ranks, {position: [coefficient matrices as (rows, cols, entries)]})."""
    A = cx.A
    bases, index = {0: [], 1: []}, {0: {}, 1: {}}
    for n in range(min(w, n_max) + 1):
        for word in chain_basis(A, n, w):
            q = (n + word_parity(A, word)) % 2
            index[q][(n, word)] = len(bases[q])
            bases[q].append((n, word))
    out = {}
    for q in (0, 1):
        dst = index[1 - q]
        d_entries, b_entries = {}, {}
        for c, (n, word) in enumerate(bases[q]):
            if n >= 1:
                for target, v in cx.boundary_word(word).items():
                    d_entries[(dst[(n - 1, target)], c)] = v
            if N > 1:
                for target, v in cx.connes_word(word).items():
                    if (n + 1, target) in dst:
                        b_entries[(dst[(n + 1, target)], c)] = v
        shape = (len(bases[1 - q]), len(bases[q]))
        coeffs = [(*shape, d_entries)]
        if N > 1:
            coeffs.append((*shape, b_entries))
        out[q] = coeffs
    return {0: len(bases[0]), 1: len(bases[1])}, out


class _RefStaircase:
    """T^m_p = sum_{j<N} u^j C_{2j-m} with (j, word) keys."""

    def __init__(self, A, n_max, N):
        self.A, self.n_max, self.N = A, n_max, N
        self.cx = ChainComplex(A)

    def basis(self, m, p):
        return [(j, word) for j in range(self.N) if 0 <= 2 * j - m <= self.n_max
                for word in chain_basis(self.A, 2 * j - m)
                if word_parity(self.A, word) == p]

    def diff(self, m, p):
        src, dst = self.basis(m, p), self.basis(m + 1, p)
        index = {elt: i for i, elt in enumerate(dst)}
        entries = {}
        for c, (j, word) in enumerate(src):
            if len(word) > 1:
                for target, v in self.cx.boundary_word(word).items():
                    entries[(index[(j, target)], c)] = v
            if j + 1 < self.N:
                for target, v in self.cx.connes_word(word).items():
                    entries[(index[(j + 1, target)], c)] = v
        return len(dst), len(src), entries

    def shift(self, vectors, m, p, t):
        src = self.basis(m, p)
        index = {elt: i for i, elt in enumerate(self.basis(m + 2 * t, p))}
        return [{index[(src[i][0] + t, src[i][1])]: c for i, c in v.items()
                 if src[i][0] + t < self.N} for v in vectors]


def _ref_d_only(A, window, N):
    """The d-only side of char_p_compare from N = 1 complexes: the folded
    complex per weight, or the staircase on a window 2(N - 1) shorter."""
    F = A.field
    if A.connected_graded:
        out = {}
        for w in range(window.n_max + 1):
            _, diffs = _ref_folded(ChainComplex(A), w, 1, window.n_max)
            (r0, c0, e0), (r1, c1, e1) = diffs[0][0], diffs[1][0]
            rk0 = rank(SparseMatrix(r0, c0, e0), F)
            rk1 = rank(SparseMatrix(r1, c1, e1), F)
            out[w] = [homology_from_ranks(c0, rk0, rk1), homology_from_ranks(c1, rk1, rk0)]
        return out
    n_max = window.n_max - 2 * (N - 1)
    st = _RefStaircase(A, n_max, 1)
    floor = -n_max
    dims = [0, 0]
    for p in ((0, 1) if A.is_super else (0,)):
        for m in range(floor + 1, 1):
            out_rank = rank(SparseMatrix(*st.diff(m, p)), F)
            in_rank = rank(SparseMatrix(*st.diff(m - 1, p)), F)
            dims[(m + p) % 2] += homology_from_ranks(len(st.basis(m, p)), out_rank, in_rank)
    return {None: dims}


def _ref_lift_is_boundary(A, a, b):
    F = A.field
    la, lb = kchern.ppower_lift_p2(A, a), kchern.ppower_lift_p2(A, b)
    lab = kchern.ppower_lift_p2(A, linear_combination(((1, a), (1, b)), F))
    diff = linear_combination([(1, c) for c in lab.components]
                              + [(-1, c) for c in la.components + lb.components], F)
    if not diff:
        return True
    cx = ChainComplex(A)
    index = {w: i for i, w in enumerate(chain_basis(A, 0) + chain_basis(A, 2))}
    cols = []
    for n in (1, 3):
        for word in chain_basis(A, n):
            acc = dict(cx.boundary_word(word))
            if n == 1:
                acc.update(cx.connes_word(word))  # B(C_1) lies in C_2, d(C_1) in C_0
            cols.append({index[w]: v for w, v in acc.items()})
    target = {index[w]: v for w, v in diff.items()}
    return rank_of_columns(cols + [target], F) == rank_of_columns(cols, F)


# -- the tests --------------------------------------------------------------


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_super_identities_with_several_odd_elements(F):
    # d^2 = B^2 = dB + Bd = 0 on super algebras with two or three odd basis
    # elements; B's rotation sign once used degrees shifted by one, which
    # agrees with the plain-parity Koszul sign only when a single odd letter
    # occurs, and dB + Bd was nonzero on exterior2 and mat(1|1)
    for A in (_exterior(F, 2), _exterior(F, 3), _super_mat11(F)):
        cx = ChainComplex(A)

        def apply(image, vec):
            acc = {}
            for word, c in vec.items():
                for target, v in image(word).items():
                    acc[target] = acc.get(target, 0) + c * v
            return reduced_entries(acc, F)

        for n in range(4):
            for word in chain_basis(A, n):
                d, b = cx.boundary_word(word), cx.connes_word(word)
                assert not apply(cx.boundary_word, d), (A.name, word)
                assert not apply(cx.connes_word, b), (A.name, word)
                db = apply(cx.boundary_word, b)
                bd = apply(cx.connes_word, d)
                assert reduced_entries({t: db.get(t, 0) + bd.get(t, 0)
                                        for t in set(db) | set(bd)}, F) == {}, (A.name, word)


def test_hp_of_super_algebras_with_several_odd_elements():
    # the exterior algebras are super connected-graded (folded path) and
    # Mat(1|1) super ungraded (staircase); both have the HP of a point.  The
    # exterior algebra on two generators raised ContractViolation (dB + Bd
    # != 0) before B's rotation sign used plain parities.
    for A, n_max, N in ((_exterior(QQ, 2), 8, 3), (_super_mat11(QQ), 6, 2)):
        rep = cyclic.hp_ranks(A, DegreeWindow(n_max), N)
        assert rep["conclusive"] and (rep["hp_even"], rep["hp_odd"]) == (1, 0), A.name


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_folded_weight_complex_matches_reference(F):
    n_max = 5
    checked = 0
    for A in _algebras(F):
        if not A.connected_graded:
            continue
        cx = ChainComplex(A)
        for w in range(n_max + 1):
            for N in (1, 2, 3):
                uc = cyclic._folded_weight_complex(cx, w, N, n_max)
                ranks, diffs = _ref_folded(cx, w, N, n_max)
                assert uc.ranks == ranks, (A.name, w, N)
                assert {q: [_matrix(M) for M in coeffs] for q, coeffs in uc.diffs.items()} \
                    == diffs, (A.name, w, N)
                checked += 1
    assert checked >= 6 * 3 * 6


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_single_vertex_letters_are_the_tables_of_the_algebra(F):
    # S = k is the one-vertex case of the Peirce letters: the unit is the
    # vertex, and the letters come out as the basis of A, their products as
    # its structure table, with its weights and parities
    algebras = [A for name in CATALOGUE_NAMES
                if (A := _catalogue_entry(name, F)) and not vertex_idempotents(A)]
    assert len(algebras) >= 6
    for A in algebras + [_exterior(F, 2)]:
        L = Letters(A)
        assert (L.vertices, L.source, L.target) == (1, (0,) * A.dim, (0,) * A.dim), A.name
        assert L.products == A.structure, A.name
        assert (L.weight, L.parity) == (A.weight, A.parity), A.name


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_folded_expansion_is_the_weight_staircase_by_degree(F):
    # u^t e with e in a block of length n has total degree m = 2t - n, so the
    # k-expansion of the folded weight-w complex mod u^j splits by m (and
    # word parity): each summand is the D_m of the weight-w staircase
    # T^m = sum_{t<j} u^t C_{2t-m} at truncation j, up to the order of rows
    # and columns.  So both paths eliminate the same matrices, grouped
    # differently: the leading ranks of the two folded differentials add up
    # to the ranks of the staircase's D_m over every degree and word parity
    n_max = 8
    algebras = [A for name in CATALOGUE_NAMES
                if (A := _catalogue_entry(name, F)) and A.connected_graded]
    checked = 0
    for A in algebras + [_exterior(F, 2)]:
        cx = ChainComplex(A)
        top = n_max if A.max_weight is None else min(n_max, A.max_weight)
        for w in range(top + 1):

            def layout(m, p, j):
                return cx.layout((n, w, p) for n in range(-m, 2 * j - m, 2) if 0 <= n <= n_max)

            # truncation j -> the sum of the ranks of the staircase's D_m
            staircase = {j: sum(rank(cx.matrix(layout(m, p, j), layout(m + 1, p, j),
                                               ("boundary", "connes")), F)
                                for m in range(-n_max, 2 * j - 1) for p in (0, 1))
                         for j in range(1, 5)}
            for N in (2, 3, 4):
                uc = cyclic._folded_weight_complex(cx, w, N, n_max)
                folded = [0] * N
                for q in (0, 1):
                    src, dst = uc.ranks[q], uc.ranks[1 - q]
                    if src and dst:
                        expanded = umodule._k_expand(uc.diffs[q], N, src, dst)
                        for j, r in enumerate(leading_ranks(expanded, F, dst)):
                            folded[j] += r
                assert folded == [staircase[j] for j in range(1, N + 1)], (A.name, N, w)
                checked += 1
    assert checked >= 100


def _staircase_window(A):
    # the largest n_max <= 6 whose top block stays under 2000 words; N runs
    # up to n_max / 2, so small algebras reach u^2 shifts
    n = 1
    while n < 6 and A.dim * max(A.dim - 1, 1) ** (n + 1) <= 2000:
        n += 1
    return n


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_staircase_diff_and_shift_match_reference(F):
    for A in _algebras(F):
        n_max = _staircase_window(A)
        cx = ChainComplex(A)
        for N in range(1, n_max // 2 + 1):
            ref = _RefStaircase(A, n_max, N)
            m_hi = 2 * (N - 1)

            def layout(m, p):
                return cyclic._staircase_layout(cx, m, p, n_max, N)

            for p in (0, 1):
                for m in range(m_hi - n_max, m_hi + 1):
                    src = layout(m, p)
                    D = cx.matrix(src, layout(m + 1, p), ("boundary", "connes"))
                    assert _matrix(D) == ref.diff(m, p), (A.name, N, m, p)
                    assert src[1] == len(ref.basis(m, p))
                    units = [{i: 1} for i in range(src[1])]
                    for t in range(1, N):
                        if m + 2 * t <= m_hi:
                            shifted = cyclic._staircase_shift(units, src,
                                                              layout(m + 2 * t, p))
                            assert shifted == ref.shift(units, m, p, t)


def _dense_staircase(A, n_max, N):
    """({total parity: [dim u^t . H, t < N]}, floor dims) of the staircase,
    from the word-indexed reference and the oracle's dense elimination:
    H^m = ker D_m / im D_{m-1} over stable degrees m_floor < m <= m_hi, and
    u^t . H^m is the rank of the shifted cycles of D_m beside the columns of
    D_{m+2t-1}, less the rank of those columns."""
    F = A.field
    ref = _RefStaircase(A, n_max, N)
    m_hi = 2 * (N - 1)
    m_floor = m_hi - n_max

    def rows(m, p):
        n_rows, n_cols, entries = ref.diff(m, p)
        out = [[0] * n_cols for _ in range(n_rows)]
        for (r, c), v in entries.items():
            out[r][c] = v
        return out

    def columns(m, p):
        return [list(col) for col in zip(*rows(m, p))]

    dims = {0: [0] * N, 1: [0] * N}
    floor_dims = [0, 0]
    for p in ((0, 1) if A.is_super else (0,)):
        for m in range(m_floor, m_hi + 1):
            par = (m + p) % 2
            dim = len(ref.basis(m, p))
            rank_in = dense_rank(columns(m - 1, p), F) if m > m_floor else 0
            h = dim - dense_rank(rows(m, p), F) - rank_in
            if m == m_floor:
                floor_dims[par] += h
                continue
            dims[par][0] += h
            if not h:
                continue
            cycles = [{i: c for i, c in enumerate(v) if c}
                      for v in dense_kernel(rows(m, p), dim, F)]
            for t in range(1, N):
                target = m + 2 * t
                if target > m_hi:
                    break
                size = len(ref.basis(target, p))
                shifted = [[v.get(i, 0) for i in range(size)]
                           for v in ref.shift(cycles, m, p, t)]
                bd = columns(target - 1, p)
                dims[par][t] += dense_rank(shifted + bd, F) - dense_rank(bd, F)
    return dims, floor_dims


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_staircase_profile_matches_dense_reference(F):
    # the ascending pass keeps only D_{m-1} and the cycles still to be
    # shifted; the reference recomputes every block densely, in any order.
    # The pass runs on the complex relative to the vertex idempotents and the
    # reference on the absolute one: the floor dims, a window-edge artefact
    # of the absolute complex, are recomputed from its block sizes.
    checked = 0
    relative_N = set()  # the truncations checked where S is not k
    # windows whose largest block stays small enough for dense elimination
    windows = []
    for A in _algebras(F):
        top = 2
        while top < 6 and A.dim * max(A.dim - 1, 1) ** (top + 1) <= 400:
            top += 1
        windows.append((A, top))
    relative = [build(F) for name, (build, _) in RELATIVE_CASES.items()
                if name not in ("mat2", "a2_path")]  # catalogue entries above
    for A in relative:
        # about half the words of a super algebra's block have each parity
        top = 2
        while A.dim * (A.dim - 1) ** (top + 1) // (2 if A.is_super else 1) <= 800:
            top += 1
        windows.append((A, top))
    for A, top in windows:
        if A.connected_graded:
            continue
        for N in (1, 2, 3):
            for n_max in range(2 * N, top + 1):
                rep = cyclic.negative_cyclic(A, DegreeWindow(n_max), N)
                dims, floor_dims = _dense_staircase(A, n_max, N)
                for par, got in ((0, rep.even), (1, rep.odd)):
                    free, blocks = dense_blocks_from_dims(dims[par])
                    assert (got.free_rank, got.torsion_blocks) == (free, blocks), \
                        (A.name, N, n_max, par)
                assert rep.flags.get("unstable_floor_dims", [0, 0]) == floor_dims
                checked += 1
                if ChainComplex(A, relative=True).letters.vertices > 1:
                    relative_N.add(N)
    assert checked >= 20 + len(relative) and relative_N == {1, 2, 3}


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_smaller_staircase_is_a_sub_block(F):
    # T^{m-2} at N - 1 holds the blocks of lengths 2j - m, 1 <= j < N: the
    # u-power >= 1 blocks of T^m at N, which `_staircase_layout` lays last.
    # So the D of the N - 1 staircase at degree m - 2 is the D of the N
    # staircase at degree m on those trailing columns and rows, and those
    # columns have no entries in the u^0 rows (d keeps the u-power, uB
    # raises it).  mat(2) stops at n_max = 7: its length-8 block holds
    # 26 244 words.
    checked = 0
    for name, top in (("a2_path", 8), ("mat", 7), ("group_z2", 8), ("clifford1", 8)):
        A = builtin(name, F, **({"m": 2} if name == "mat" else {}))
        cx = ChainComplex(A)
        for p in ((0, 1) if A.is_super else (0,)):
            for N in (2, 3, 4):
                for n_max in sorted({2 * N, 2 * N + 1, 8}):
                    if n_max > top:
                        continue

                    def layout(m, n):
                        return cyclic._staircase_layout(cx, m, p, n_max, n)

                    for m in range(2 * (N - 1) - n_max, 2 * N - 1):
                        src, dst = layout(m, N), layout(m + 1, N)
                        small_src, small_dst = layout(m - 2, N - 1), layout(m - 1, N - 1)
                        col0, row0 = src[1] - small_src[1], dst[1] - small_dst[1]
                        for degree, big, small, shift in ((m, src, small_src, col0),
                                                          (m + 1, dst, small_dst, row0)):
                            # the blocks of u-power j >= 1 have lengths n > -degree
                            assert {n: offset + shift for n, (offset, _, _)
                                    in small[0].items()} == \
                                {n: offset for n, (offset, _, _) in big[0].items()
                                 if n > -degree}
                        D = cx.matrix(src, dst, ("boundary", "connes"))
                        d = cx.matrix(small_src, small_dst, ("boundary", "connes"))
                        tail = {(r, c): v for (r, c), v in D.entries.items() if c >= col0}
                        assert all(r >= row0 for r, _ in tail), (name, N, n_max, m, p)
                        assert (d.rows, d.cols) == (D.rows - row0, D.cols - col0)
                        assert d.entries == {(r - row0, c - col0): v
                                             for (r, c), v in tail.items()}, \
                            (name, N, n_max, m, p)
                        checked += 1
    assert checked == 238


@pytest.mark.parametrize("F", [GF(2), GF(3)], ids=str)
def test_char_p_compare_matches_reference(F):
    for A in _algebras(F):
        N = 2
        window = DegreeWindow(5 if A.connected_graded else 2 * N)
        rep = cyclic.char_p_compare(A, window, N)
        d_only = _ref_d_only(A, window, N)
        if not A.connected_graded:
            (slot,) = rep["per_slot"]
            assert slot["without_b"] == d_only[None], A.name
            assert slot["agree"] == (slot["with_b"] == d_only[None])
            continue
        cx = ChainComplex(A)
        with_b = {}
        for w in range(window.n_max + 1):
            ranks, diffs = _ref_folded(cx, w, N, window.n_max)
            uc = UComplex(UTruncation(N), ranks,
                          {q: [SparseMatrix(*m) for m in coeffs] for q, coeffs in diffs.items()})
            if ranks[0] or ranks[1]:
                reports = u_module_decompose(uc, F)
                with_b[w] = [reports[0].free_rank, reports[1].free_rank]
        for slot in rep["per_slot"]:
            assert slot["without_b"] == d_only[slot["weight"]], (A.name, slot)
            assert slot["with_b"] == with_b.get(slot["partner_weight"], [0, 0]), (A.name, slot)
        for off in rep["off_frobenius"]:
            assert off["with_b"] == with_b[off["weight"]], (A.name, off)


def test_lift_difference_matches_reference():
    F = GF(2)
    checked = 0
    for A in _algebras(F):
        vectors = [{i: 1} for i in range(A.dim)] + [{i: 1 for i in range(A.dim)}]
        for i, a in enumerate(vectors):
            for b in vectors[i:]:
                assert kchern.lift_difference_is_boundary(A, a, b) \
                    == _ref_lift_is_boundary(A, a, b), (A.name, a, b)
                checked += 1
    assert checked > 100


def _negative_weight_poly(tmp_path, F=QQ):
    """k[x]/x^3 with x of weight -1, read back from an ncg-algebra/1 file."""
    obj = algebra_to_json(builtin("truncated_poly", F, m=3))
    obj["weight"] = [0, -1, -2]
    path = tmp_path / f"truncated-poly-negative-{F}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    A, report = cli.load_algebra(str(path), F, {})
    assert report.ok and min(A.weight) < 0
    return A


def test_negative_weight_file_algebra_hh_ranks_match_reference(tmp_path):
    A = _negative_weight_poly(tmp_path)
    window = DegreeWindow(5)
    ranks = hh_ranks(A, window)
    cx = ChainComplex(A)

    def ref_boundary(n, w):
        src = chain_basis(A, n, w)
        if n == 0:
            return 0, len(src), {}
        index = {word: i for i, word in enumerate(chain_basis(A, n - 1, w))}
        return len(index), len(src), {(index[t], c): v for c, word in enumerate(src)
                                      for t, v in cx.boundary_word(word).items()}

    expected = {}
    # every weight a chain of length <= n_max carries
    weights = {sum(A.weight[i] for i in word)
               for n in range(window.n_max + 1) for word in chain_basis(A, n)}
    for w in sorted(weights):
        for n in range(window.n_max):
            d_out, d_in = ref_boundary(n, w), ref_boundary(n + 1, w)
            assert _matrix(cx.boundary(n, w)) == d_out, (n, w)
            h = homology_from_ranks(d_out[1], rank(SparseMatrix(*d_out), QQ),
                                    rank(SparseMatrix(*d_in), QQ))
            if h:
                expected[(n, w)] = h
    assert ranks["per_n_weight"] == expected
    assert any(w < 0 for _, w in expected)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_parity_blocks_split_the_chain_blocks(F):
    # the word-parity blocks split each (length, weight) block; their
    # boundary and B columns are the images of their words, and their
    # Hochschild ranks add up to the unfiltered one
    for A in _algebras(F):
        cx = ChainComplex(A)
        for w in ([None] if A.weight is None else range(4)):
            for n in range(3):
                parts = [cx.basis(n, w, p) for p in (0, 1)]
                assert sorted(parts[0] + parts[1]) == sorted(cx.basis(n, w))
                for p, words in enumerate(parts):
                    assert all(word_parity(A, word) == p for word in words)
                    for image, target, mat in (
                            (cx.boundary_word, n - 1, cx.boundary(n, w, p)),
                            (cx.connes_word, n + 1, cx.connes(n, w, p))):
                        rows = cx.basis(target, w, p) if target >= 0 else []
                        columns = mat.columns()
                        assert (mat.rows, mat.cols) == (len(rows), len(words))
                        assert [{rows[r]: v for r, v in col.items()} for col in columns] \
                            == [image(word) for word in words]
                assert sum(cx.hh_rank(n, w, p) for p in (0, 1)) == cx.hh_rank(n, w)


def test_chain_basis_is_the_filtered_product(tmp_path):
    # one walk per (length, weight, parity) block, pruned by the weights
    # still reachable, against every word of the length filtered afterwards
    algebras = (_algebras(QQ) + [_exterior(QQ, 3), _negative_weight_poly(tmp_path)])
    blocks = 0
    for A in algebras:
        for n in range(6):
            if A.dim * max(A.dim - 1, 1) ** n > 10000:
                break
            words = list(product(range(A.dim), *[range(1, A.dim)] * n))
            weights = [None]
            if A.weight is not None:
                sums = {sum(A.weight[i] for i in word) for word in words} or {0}
                weights += list(range(min(sums) - 1, max(sums) + 2))
            for w in weights:
                for p in (None, 0, 1):
                    expected = [word for word in words
                                if (w is None or sum(A.weight[i] for i in word) == w)
                                and (p is None or word_parity(A, word) == p)]
                    assert chain_basis(A, n, w, p) == expected, (A.name, n, w, p)
                    blocks += 1
    assert blocks > 500


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_every_word_weighs_within_the_weight_bound(F, tmp_path):
    # cx.weights(n) is the one bound on the weight of a length-n word: hh
    # and the folded cyclic complex compute only inside it, chain_basis
    # prunes by it.  With S = k every head and tail letter combine, so both
    # ends of the range are weights of words.
    algebras = [A for A in _algebras(F) if A.weight is not None]
    algebras += [_negative_weight_poly(tmp_path, F)]
    assert {"exterior2", "mat(2)", "poly_truncated(2,2)"} <= {A.name for A in algebras}
    for A in algebras:
        for relative in (False, True):
            cx = ChainComplex(A, relative)
            weight = cx.letters.weight
            for n in range(6):
                weights = cx.weights(n)
                words = cx.basis(n)
                seen = {sum(weight[i] for i in word) for word in words}
                assert seen <= set(weights), (A.name, relative, n)
                if cx.letters.vertices == 1 and words:
                    assert {weights[0], weights[-1]} <= seen, (A.name, relative, n)


def _chain_basis_calls(monkeypatch, capsys, commands) -> int:
    calls = []

    def counted(*args):
        calls.append(args)
        return chain_basis(*args)

    monkeypatch.setattr(hochschild, "chain_basis", counted)
    for command in commands:
        assert cli.main(command.split()) == 0
    capsys.readouterr()
    return len(calls)


def test_long_windows_walk_only_blocks_that_hold_words(monkeypatch, capsys):
    # two words per length: hh walked every weight up to (n_max + 1) at
    # every length (162 006 walks at n_max 400), the folded path every
    # length up to each weight (20 301 walks)
    assert _chain_basis_calls(monkeypatch, capsys,
                              ["hh --algebra dual_numbers --n-max 400"]) <= 1700
    assert _chain_basis_calls(monkeypatch, capsys,
                              ["hc --algebra dual_numbers --n-max 200 --u-trunc 2"]) <= 450


# the graded-cyclic jobs of perfbench/workloads.py
_GRADED_CYCLIC = (
    "hc --algebra poly_truncated --param vars=2 --param max_weight=4 --field Q --n-max 8 "
    "--u-trunc 4",
    "hp --algebra truncated_poly --param m=3 --field Q --n-max 10 --u-trunc 4",
    "hc --algebra quantum_plane --param max_weight=4 --field F5 --n-max 8 --u-trunc 4",
    "charp-compare --algebra truncated_poly --param m=3 --field F3 --n-max 10 --u-trunc 4",
    "degeneration --algebra poly_truncated --param vars=2 --param max_weight=4 --field Q "
    "--n-max 8 --u-trunc 4")


def test_graded_cyclic_jobs_walk_each_block_once(monkeypatch, capsys):
    # a parity-1 block of an algebra without odd letters is empty and not
    # walked: counting those walks doubled the calls; nor is a block whose
    # length cannot carry its weight
    assert _chain_basis_calls(monkeypatch, capsys, _GRADED_CYCLIC) <= 137
