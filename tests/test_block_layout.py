"""Block layout of the chain complexes against a word-indexed reference.

`ChainComplex` is the one place where chain words are numbered: the folded
per-weight complex, the ungraded staircase and the p = 2 lift test lay its
(length, weight, word parity) blocks side by side by offset.  The reference
assemblers below number words themselves, one {(length or u-power, word):
position} index per complex, and build every matrix word by word from
`boundary_word` / `connes_word`.  Both must give the same matrices, entry
for entry, and the same char_p_compare and lift results.
"""

import json

import pytest

from nchodge import cli, cyclic, kchern
from nchodge.algebra import AlgebraError, AlgebraSpec, algebra_to_json, builtin, validate
from nchodge.fields import GF, QQ, linear_combination, reduced_entries
from nchodge.hochschild import (ChainComplex, DegreeWindow, chain_basis, hh_ranks,
                                word_parity)
from nchodge.sparse import SparseMatrix, homology_from_ranks, rank, rank_of_columns
from nchodge.umodule import UComplex, UTruncation, u_module_decompose

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
            coeffs += [(*shape, b_entries)] + [(*shape, {})] * (N - 2)
        out[q] = coeffs
    ranks = {-1: len(bases[1]), 0: len(bases[0]), 1: len(bases[1]), 2: len(bases[0])}
    return ranks, {0: out[0], 1: out[1], 2: out[0]}


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
        assert rep.conclusive and (rep.hp_even, rep.hp_odd) == (1, 0), A.name


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
        for N in range(1, n_max // 2 + 1):
            st = cyclic._Staircase(ChainComplex(A), n_max, N)
            ref = _RefStaircase(A, n_max, N)
            for p in (0, 1):
                for m in range(st.m_floor, st.m_hi + 1):
                    assert _matrix(st.diff(m, p)) == ref.diff(m, p), (A.name, N, m, p)
                    dim = st.layout(m, p)[1]
                    assert dim == len(ref.basis(m, p))
                    units = [{i: 1} for i in range(dim)]
                    for t in range(1, N):
                        if m + 2 * t <= st.m_hi:
                            assert st.shift(units, m, p, t) == ref.shift(units, m, p, t)


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
                reports = u_module_decompose(uc, F, positions=(0, 1))
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


def test_negative_weight_file_algebra_hh_ranks_match_reference(tmp_path):
    # k[x]/x^3 with x of weight -1, read back from an ncg-algebra/1 file
    obj = algebra_to_json(builtin("truncated_poly", QQ, m=3))
    obj["weight"] = [0, -1, -2]
    path = tmp_path / "truncated-poly-negative.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    A, report = cli.load_algebra(str(path), QQ, {})
    assert report.ok and min(A.weight) < 0
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
