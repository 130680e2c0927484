import random
from fractions import Fraction

import pytest

from nchodge import oracle
from nchodge.fields import GF, QQ, linear_combination, reduced_entries
from nchodge.sparse import (Echelon, SparseMatrix, StructuralError, homology_from_ranks,
                            kernel_basis, leading_ranks, rank, rank_of_columns)
from nchodge.umodule import UComplex, UTruncation, u_module_decompose


def M(rows, cols, entries, field=QQ):
    conv = {(i, j): field.from_int(v) for (i, j), v in entries.items()}
    return SparseMatrix(rows, cols, conv)


def _annihilates(m, v, field):
    """Whether m @ v = 0, the vector v taken as a one-column matrix."""
    return not m.mul(SparseMatrix(m.cols, 1, {(c, 0): x for c, x in v.items()}), field).entries


def test_rank_rational():
    m = M(3, 3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4, (2, 2): 1})
    assert rank(m, QQ) == 2


def test_rank_exact_fractions():
    m = SparseMatrix(2, 2, {(0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3),
                            (1, 0): Fraction(1, 2), (1, 1): Fraction(1)})
    assert rank(m, QQ) == 1


def test_rank_mod_p_differs_from_q():
    # determinant 2: invertible over Q, singular over F2
    entries = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 3}
    assert rank(M(2, 2, entries), QQ) == 2
    assert rank(M(2, 2, entries, GF(2)), GF(2)) == 1


def test_kernel_basis_is_exact_kernel():
    m = M(2, 3, {(0, 0): 1, (0, 1): 1, (1, 2): 1})
    ker = kernel_basis(m, QQ)
    assert len(ker) == 1
    for v in ker:
        assert _annihilates(m, v, QQ)


def test_rank_of_columns():
    cols = [{0: Fraction(1)}, {0: Fraction(2)}, {1: Fraction(1)}]
    assert rank_of_columns(cols, QQ) == 2


def test_structural_errors():
    with pytest.raises(StructuralError):
        SparseMatrix(1, 1, {(2, 0): Fraction(1)})
    with pytest.raises(StructuralError):
        SparseMatrix(1, 1, {(0, 0): Fraction(0)})
    with pytest.raises(StructuralError, match="shape mismatch"):
        M(2, 3, {(0, 0): 1}).mul(M(2, 2, {(0, 0): 1}), QQ)


def test_mul_and_identity():
    a = M(2, 2, {(0, 1): 1, (1, 0): 1})
    ident = SparseMatrix.identity(2, QQ)
    assert a.mul(a, QQ).entries == ident.entries


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_mul_matches_the_dense_product(field):
    # raw sums, reduced mod p once per entry and cleared of zeros once
    rng = random.Random(7)
    p = field.p or 0
    for _ in range(30):
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        scalars = [Fraction(1, 2), -1, 2, 3] if p == 0 else list(range(1, p))
        a = {(i, j): rng.choice(scalars) for i in range(n) for j in range(k) if rng.random() < 0.6}
        b = {(i, j): rng.choice(scalars) for i in range(k) for j in range(m) if rng.random() < 0.6}
        dense = {}
        for i in range(n):
            for j in range(m):
                s = sum(a.get((i, t), 0) * b.get((t, j), 0) for t in range(k))
                s = s % p if p else s
                if s:
                    dense[(i, j)] = s
        assert M(n, k, a).mul(M(k, m, b), field).entries == dense
    # 1*2 + 2*2 = 6: the raw sum vanishes mod 3, so the entry is dropped
    assert M(1, 2, {(0, 0): 1, (0, 1): 2}).mul(M(2, 1, {(0, 0): 2, (1, 0): 2}), GF(3)).is_zero()


# ---------------------------------------------------------------------------
# property tests: the elimination core against the dense oracle
# ---------------------------------------------------------------------------

FIELDS = (QQ, GF(2), GF(3))


def _scalar(rng, F):
    return F.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))


def _random_matrix(rng, F, shape):
    """Random sparse matrix of a named shape; entries are nonzero scalars."""
    rows, cols = rng.randint(0, 9), rng.randint(0, 9)
    entries = {}
    if shape == "equal-length" and cols:
        # every nonempty row has the same length: ties in the pivot key
        k = rng.randint(1, cols)
        for r in range(rows):
            for c in rng.sample(range(cols), k):
                entries[(r, c)] = _scalar(rng, F)
    elif shape != "zero":
        density = rng.choice((0.15, 0.35, 0.7))
        for r in range(rows):
            if shape == "empty-rows" and r % 2:
                continue
            for c in range(cols):
                if rng.random() < density:
                    entries[(r, c)] = _scalar(rng, F)
        if shape == "duplicate-rows" and rows >= 2:
            for r in range(1, rows, 2):
                for c in range(cols):
                    entries.pop((r, c), None)
                    if (r - 1, c) in entries:
                        entries[(r, c)] = entries[(r - 1, c)]
    entries = {k: v for k, v in entries.items() if not F.is_zero(v)}
    return SparseMatrix(rows, cols, entries)


def _dense(M, F):
    rows = [[F.zero()] * M.cols for _ in range(M.rows)]
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    return rows


SHAPES = ("random", "duplicate-rows", "empty-rows", "zero", "equal-length")


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_rank_and_kernel_match_dense_oracle(F):
    rng = random.Random(20260 + F.characteristic)
    for trial in range(150):
        M = _random_matrix(rng, F, SHAPES[trial % len(SHAPES)])
        expected = oracle.dense_rank(_dense(M, F), F) if M.rows and M.cols else 0
        assert rank(M, F) == expected
        assert rank_of_columns(M.columns(), F) == expected
        ker = kernel_basis(M, F)
        assert len(ker) == M.cols - expected
        for v in ker:
            assert _annihilates(M, v, F)
        if ker:
            dense_ker = [[v.get(c, F.zero()) for c in range(M.cols)] for v in ker]
            assert oracle.dense_rank(dense_ker, F) == len(ker)


def _random_invertible(rng, F, n):
    """(P, P^-1) as dense matrices, from a product of elementary operations."""
    P = [[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(3 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = _scalar(rng, F)
        # P <- P (I + c E_ij): column j += c * column i; the inverse
        # (I - c E_ij) acts on the left: row i -= c * row j
        for r in range(n):
            P[r][j] = F.add(P[r][j], F.mul(c, P[r][i]))
        Pinv[i] = [F.sub(a, F.mul(c, b)) for a, b in zip(Pinv[i], Pinv[j])]
    return P, Pinv


def _matmul(A, B, F, inner):
    cols = len(B[0]) if B else 0
    return [[_dot(A[r], [B[k][c] for k in range(inner)], F) for c in range(cols)]
            for r in range(len(A))]


def _dot(a, b, F):
    acc = F.zero()
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _to_sparse(rows, nrows, ncols, F):
    return SparseMatrix(nrows, ncols, {(r, c): v for r, row in enumerate(rows)
                                       for c, v in enumerate(row) if not F.is_zero(v)})


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_homology_from_ranks_matches_dense_oracle(F):
    rng = random.Random(31 + F.characteristic)
    for _ in range(60):
        n = rng.randint(1, 7)
        a, b = rng.randint(0, 5), rng.randint(0, 5)
        r = rng.randint(0, n)
        s = rng.randint(0, n - r)
        P, Pinv = _random_invertible(rng, F, n)
        # d_in = P [first r coordinates] X and d_out = Y [next s coordinates] P^-1,
        # so d_out . d_in = 0
        X = [[_scalar(rng, F) if i < r and rng.random() < 0.6 else F.zero()
              for _ in range(a)] for i in range(n)]
        Y = [[_scalar(rng, F) if r <= j < r + s and rng.random() < 0.6 else F.zero()
              for j in range(n)] for _ in range(b)]
        d_in_rows = _matmul(P, X, F, n)
        d_out_rows = _matmul(Y, Pinv, F, n)
        d_in = _to_sparse(d_in_rows, n, a, F)
        d_out = _to_sparse(d_out_rows, b, n, F)
        assert d_out.mul(d_in, F).is_zero()
        expected = (n - oracle.dense_rank(d_out_rows if b else [], F)
                    - oracle.dense_rank(d_in_rows if a else [], F))
        assert homology_from_ranks(n, rank(d_out, F), rank(d_in, F)) == expected


def test_homology_from_ranks_refuses_a_non_complex():
    # d_out . d_in = id != 0 on a 1-dimensional block: dim - ranks = 1 - 1 - 1
    one = M(1, 1, {(0, 0): 1})
    assert not one.mul(one, QQ).is_zero()
    with pytest.raises(StructuralError, match="do not compose to zero"):
        homology_from_ranks(1, rank(one, QQ), rank(one, QQ))
    with pytest.raises(StructuralError):
        homology_from_ranks(3, 2, 2)
    assert homology_from_ranks(3, 2, 1) == 0


def _solve_in_span(columns, target, F):
    """Coefficients x with sum_i x[i] * columns[i] = target, from an Echelon
    of the columns, or None when target is not in their span."""
    echelon, kept = Echelon(F), []
    for i, col in enumerate(columns):
        if echelon.add(col):
            kept.append(i)
    rest, coords = echelon.reduce(target)
    return None if rest else {kept[j]: x for j, x in coords.items()}


def test_solve_in_span():
    for F in FIELDS:
        one = F.one()
        target = {r: v for r, v in {0: F.from_int(2), 1: one}.items() if not F.is_zero(v)}
        cols = [{0: one, 1: one}, {1: one}, {0: one}]  # dependent
        sol = _solve_in_span(cols, target, F)
        assert sol is not None
        total = {}
        for i, x in sol.items():
            for r, v in cols[i].items():
                total[r] = F.add(total.get(r, F.zero()), F.mul(x, v))
        assert {r: v for r, v in total.items() if not F.is_zero(v)} == target
        assert _solve_in_span(cols, {2: one}, F) is None
        assert _solve_in_span(cols, {}, F) == {}
        assert _solve_in_span([], {0: one}, F) is None


def _raw_vector(rng, F, dim, density):
    """A random vector of unreduced scalars: ints (and Fractions over Q)
    that may be zero or, over F_p, outside 0..p-1."""
    vec = {}
    for r in range(dim):
        if rng.random() < density:
            x = rng.randint(-7, 7)
            vec[r] = Fraction(x, rng.randint(2, 5)) if F.p is None and rng.random() < 0.4 else x
    return vec


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3)], ids=str)
def test_echelon_answers_span_questions(F):
    # add is true exactly when the rank grows; the remainder of reduce is
    # empty exactly on the span, has no entry at a pivot, is linear, and
    # with the coordinates rebuilds the vector
    rng = random.Random(20 + F.characteristic)
    for _ in range(80):
        dim, density = rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8))
        echelon, kept = Echelon(F), []
        for _ in range(rng.randint(0, 10)):
            if kept and rng.random() < 0.3:  # a combination of the kept vectors
                vec = linear_combination([(rng.randint(-3, 3), v) for v in kept], F)
            else:
                vec = _raw_vector(rng, F, dim, density)
            clean = reduced_entries(vec, F)
            grows = rank_of_columns(kept + [clean], F) > len(kept)
            assert echelon.add(vec) == grows
            if grows:
                kept.append(clean)
        pivots = {pivot for pivot, _, _ in echelon.rows}
        assert len(pivots) == len(echelon.rows) == len(kept)
        for _ in range(6):
            vecs = [_raw_vector(rng, F, dim, density) for _ in range(2)]
            if kept and rng.random() < 0.5:
                vecs[0] = linear_combination([(rng.randint(-3, 3), v) for v in kept], F)
            rests = []
            for vec in vecs:
                clean = reduced_entries(vec, F)
                rest, coords = echelon.reduce(vec)
                assert (not rest) == (rank_of_columns(kept + [clean], F) == len(kept))
                assert not pivots & set(rest)
                assert all(coords.values()) and set(coords) <= set(range(len(kept)))
                assert linear_combination([(c, kept[j]) for j, c in coords.items()], F) == \
                    linear_combination([(1, clean), (-1, rest)], F)
                rests.append(rest)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            combined = linear_combination([(a, vecs[0]), (b, vecs[1])], F)
            assert echelon.reduce(combined)[0] == \
                linear_combination([(a, rests[0]), (b, rests[1])], F)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_leading_ranks_are_the_ranks_of_the_leading_blocks(F):
    # block-lower-triangular: rows of slot s (height `rstride`) hold columns
    # of slots <= s (width `cstride`) only; each leading block is its own
    # rank computation
    rng = random.Random(53 + F.characteristic)
    for _ in range(80):
        stages, rstride, cstride = rng.randint(1, 5), rng.randint(1, 4), rng.randint(0, 4)
        density = rng.choice((0.2, 0.5, 0.9))
        entries = {(r, c): v for r in range(stages * rstride)
                   for c in range((r // rstride + 1) * cstride)
                   if rng.random() < density and not F.is_zero(v := _scalar(rng, F))}
        Mx = SparseMatrix(stages * rstride, stages * cstride, entries)
        expected = [rank(SparseMatrix(j * rstride, j * cstride, {
            k: v for k, v in entries.items() if k[0] < j * rstride}), F)
            for j in range(1, stages + 1)]
        assert leading_ranks(Mx, F, rstride, stages) == expected
    with pytest.raises(StructuralError):
        leading_ranks(SparseMatrix(3, 2, {}), F, 2, 2)


# random complexes of free k[u]-modules ---------------------------------------


def _rmat_mul(A, B, F):
    """Product of matrices over k[u], given as lists of dense coefficient
    matrices (u^0 first), untruncated: the degrees add."""
    rows, inner, cols = len(A[0]), len(B[0]), len(B[0][0]) if B[0] else 0
    out = [[[F.zero()] * cols for _ in range(rows)] for _ in range(len(A) + len(B) - 1)]
    for a, X in enumerate(A):
        if all(F.is_zero(x) for row in X for x in row):
            continue
        for b, Y in enumerate(B):
            term = _matmul(X, Y, F, inner)
            out[a + b] = [[F.add(x, y) for x, y in zip(r1, r2)]
                          for r1, r2 in zip(out[a + b], term)]
    return out


def _random_r_invertible(rng, F, n, N):
    """(G, G^-1) over k[u] from unipotent elementary operations with
    entries c u^t, t < N."""
    def ident():
        return [[[F.one() if i == j else F.zero() for j in range(n)] for i in range(n)]]
    G, Ginv = ident(), ident()
    for _ in range(2 * n if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        t, c = rng.randrange(N), _scalar(rng, F)
        E = ident() + [[[F.zero()] * n for _ in range(n)] for _ in range(t)]
        Einv = [[row[:] for row in m] for m in E]
        E[t][i][j] = F.add(E[t][i][j], c)
        Einv[t][i][j] = F.sub(Einv[t][i][j], c)
        G = _rmat_mul(G, E, F)
        Ginv = _rmat_mul(Einv, Ginv, F)
    return G, Ginv


def _random_u_complex(rng, F, N):
    """A random Z/2 pair of free k[u]-modules, as `cyclic` folds its
    complexes: a direct sum of free summands and two-term pieces
    R --u^a--> R, 0 <= a <= N, from position q to 1 - q, conjugated by
    random maps invertible over k[u], so that D0 . D1 and D1 . D0 vanish
    over k[u] and not only mod u^N.

    Returns the pair and its expected {pos: (free, {block: mult})} mod u^N.
    """
    ranks = {0: 0, 1: 0}
    pieces = []
    expected = {p: [0, {}] for p in ranks}
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.25:
            p = rng.randrange(2)
            ranks[p] += 1
            expected[p][0] += 1
            continue
        q, a = rng.randrange(2), rng.randint(0, N)
        pieces.append((q, ranks[1 - q], ranks[q], a))
        for p in (0, 1):
            ranks[p] += 1
            if a == N:
                expected[p][0] += 1
            elif a:
                expected[p][1][a] = expected[p][1].get(a, 0) + 1
    diffs = {}
    conj = {p: _random_r_invertible(rng, F, ranks[p], N) for p in ranks}
    for q in (0, 1):
        rows, cols = ranks[1 - q], ranks[q]
        d = [[[F.zero()] * cols for _ in range(rows)] for _ in range(N + 1)]
        for pq, dst, src, a in pieces:
            if pq == q:
                d[a][dst][src] = F.one()
        if rows and cols:
            d = _rmat_mul(_rmat_mul(conj[1 - q][0], d, F), conj[q][1], F)
        diffs[q] = [_to_sparse(m, rows, cols, F) for m in d]
    return UComplex(UTruncation(N), ranks, diffs), expected


def _coeffs(cx, pos, F):
    """The u-coefficients of the differential out of pos as dense row lists."""
    return [_dense(M, F) for M in cx.diffs[pos]]


def _oracle_dims(cx, pos, F):
    return oracle.dense_u_homology_dims(_coeffs(cx, pos, F), _coeffs(cx, 1 - pos, F),
                                        cx.ranks[pos], cx.truncation.N, F)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_u_module_decompose_matches_dense_oracle(F):
    rng = random.Random(7 + F.characteristic)
    for _ in range(25):
        N = rng.randint(1, 4)
        cx, expected = _random_u_complex(rng, F, N)
        reports = u_module_decompose(cx, F)
        for pos, (free, blocks) in expected.items():
            rep = reports[pos]
            assert (rep.free_rank, rep.torsion_blocks) == (free, blocks), (pos, N)
            if cx.ranks[pos]:
                o_free, o_blocks = oracle.dense_blocks_from_dims(_oracle_dims(cx, pos, F))
                assert (o_free, o_blocks) == (free, blocks), (pos, N)


# Q scalars are ints or Fractions: mixed entries, no floats -------------------


def _mixed_q_scalar(rng):
    if rng.random() < 0.5:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3, 7)))


def _no_float(obj):
    if isinstance(obj, dict):
        return all(_no_float(k) and _no_float(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(_no_float(v) for v in obj)
    return not isinstance(obj, float)


def test_mixed_int_fraction_entries_match_dense_oracle():
    rng = random.Random(4242)
    for _ in range(120):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        density = rng.choice((0.2, 0.4, 0.7))
        M = SparseMatrix(rows, cols, {(r, c): _mixed_q_scalar(rng)
                                      for r in range(rows) for c in range(cols)
                                      if rng.random() < density})
        expected = oracle.dense_rank(_dense(M, QQ), QQ) if rows and cols else 0
        assert rank(M, QQ) == expected
        assert rank_of_columns(M.columns(), QQ) == expected
        ker = kernel_basis(M, QQ)
        assert _no_float(ker)
        assert len(ker) == cols - expected
        for v in ker:
            assert _annihilates(M, v, QQ)
        if ker:
            dense_ker = [[v.get(c, 0) for c in range(cols)] for v in ker]
            assert oracle.dense_rank(dense_ker, QQ) == len(ker)
        # a combination of the columns is in their span; a fresh unit
        # vector appended below them is not
        columns = M.columns()
        coeffs = {i: _mixed_q_scalar(rng) for i in range(cols) if rng.random() < 0.5}
        target = {}
        for i, x in coeffs.items():
            for r, v in columns[i].items():
                target[r] = target.get(r, 0) + x * v
        target = {r: v for r, v in target.items() if v != 0}
        sol = _solve_in_span(columns, target, QQ)
        assert sol is not None and _no_float(sol)
        total = {}
        for i, x in sol.items():
            for r, v in columns[i].items():
                total[r] = total.get(r, 0) + x * v
        assert {r: v for r, v in total.items() if v != 0} == target
        assert _solve_in_span(columns, {rows: Fraction(1, 3)}, QQ) is None
