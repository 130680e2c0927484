"""Seeded property test of the raw-sum paths: every linear combination
outside the elimination core is summed with plain + and * and reduced once.

Each path is compared with a reference kept here that accumulates with the
`Field` methods term by term (add, then drop a zero sum), which is how these
paths computed before.  Vectors are random over Q (ints and Fractions), F_2,
F_3 and F_7, and every output must hold field elements only: no stored
zero, no residue outside 1..p-1 and no float.  The graded pieces, which
`cyclic` counts from rotation orbits, are checked against the homology of
the (1 - sigma, norm) matrices summed the same way.
"""

import random
from fractions import Fraction

import pytest

from nchodge import oracle
from nchodge.algebra import (CATALOGUE, bilinear, builtin, glue, trivial_bimodule,
                             zero_bimodule)
from nchodge.cyclic import MAX_ROTATION_TERMS, graded_piece_analysis
from nchodge.fields import GF, QQ
from nchodge.hochschild import commutator_columns
from nchodge.sparse import Echelon, SparseMatrix, kernel_basis

FIELDS = [QQ, GF(2), GF(3), GF(7)]
SEED = 20261018


def _catalogue(field):
    for name in CATALOGUE:
        params = {}
        if name == "quantum_plane":
            params = {"q": "1" if field.characteristic == 2 else "2", "max_weight": 3}
        elif name == "poly_truncated":
            params = {"vars": 2, "max_weight": 2}
        yield builtin(name, field, **params)


def _scalar(rng, field):
    if field.p is not None:
        return rng.randrange(1, field.p)
    num = rng.choice([n for n in range(-9, 10) if n])
    return num if rng.random() < 0.5 else Fraction(num, rng.randint(2, 6))


def _vector(rng, field, dim, size=None):
    keys = rng.sample(range(dim), min(dim, size or rng.randint(1, 4)))
    return {k: _scalar(rng, field) for k in keys}


def _accumulate(out, key, value, F):
    s = F.add(out.get(key, F.zero()), value)
    if F.is_zero(s):
        out.pop(key, None)
    else:
        out[key] = s


def _assert_field_elements(values, F):
    for v in values:
        assert not isinstance(v, float) and v != 0, v
        if F.p is None:
            assert isinstance(v, (int, Fraction)), v
        else:
            assert type(v) is int and 0 < v < F.p, v


def ref_bilinear(table, v, w, F):
    out = {}
    for i, a in v.items():
        for j, b in w.items():
            ab = F.mul(a, b)
            for k, c in table.get((i, j), {}).items():
                _accumulate(out, k, F.mul(ab, c), F)
    return out


def ref_with_unit_first(structure, unit_vec, dim, F):
    """The structure constants of the parent's `_with_unit_first`."""
    drop = max(i for i, c in unit_vec.items() if not F.is_zero(c))
    keep = [i for i in range(dim) if i != drop]
    new_index = {old: pos + 1 for pos, old in enumerate(keep)}

    def to_new(vec):
        alpha = vec.get(drop, F.zero())
        out = {} if F.is_zero(alpha) else {0: alpha}
        for i in set(vec) | set(unit_vec):
            if i != drop:
                s = F.sub(vec.get(i, F.zero()), F.mul(alpha, unit_vec.get(i, F.zero())))
                if not F.is_zero(s):
                    out[new_index[i]] = s
        return out

    basis = [unit_vec] + [{i: F.one()} for i in keep]
    out = {}
    for a, va in enumerate(basis):
        for b, vb in enumerate(basis):
            prod = to_new(ref_bilinear(structure, va, vb, F))
            if prod:
                out[(a, b)] = prod
    return out


def ref_glue_structure(A, B, M, F):
    """glue(A, B, M) before the unit is rebased, with the actions applied
    by `ref_bilinear`."""
    dA, dM = A.dim, M.dim
    structure = {}
    for (i1, i2), comps in A.structure.items():
        structure[(i1, i2)] = dict(comps)
    for (j1, j2), comps in B.structure.items():
        structure[(dA + dM + j1, dA + dM + j2)] = {dA + dM + k: c for k, c in comps.items()}
    for t in range(dM):
        for i in range(dA):
            prod = ref_bilinear(M.right_action, {t: F.one()}, {i: F.one()}, F)
            if prod:
                structure[(dA + t, i)] = {dA + t2: c for t2, c in prod.items()}
        for j in range(B.dim):
            prod = ref_bilinear(M.left_action, {j: F.one()}, {t: F.one()}, F)
            if prod:
                structure[(dA + dM + j, dA + t)] = {dA + t2: c for t2, c in prod.items()}
    unit = {0: F.one(), dA + dM: F.one()}
    return ref_with_unit_first(structure, unit, dA + dM + B.dim, F)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_products_match_the_field_method_reference(F):
    rng = random.Random(SEED)
    for A in _catalogue(F):
        for _ in range(40):
            v, w = _vector(rng, F, A.dim), _vector(rng, F, A.dim)
            expected = ref_bilinear(A.structure, v, w, F)
            for got in (A.mul_vec(v, w), bilinear(A.structure, v, w, F)):
                assert got == expected, (A.name, v, w)
                _assert_field_elements(got.values(), F)
            # an input may be a raw sum: residues not reduced, zeros stored
            raw = {k: c + (F.p or 0) * rng.randint(1, 3) for k, c in v.items()}
            raw.update({k: 0 for k in range(A.dim) if k not in v})
            assert A.mul_vec(raw, w) == expected


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("bimodule", [trivial_bimodule, zero_bimodule],
                         ids=["trivial", "zero"])
def test_glue_matches_the_field_method_reference(F, bimodule):
    rng = random.Random(SEED + 1)
    specimens = list(_catalogue(F))
    for A in specimens:
        B = rng.choice(specimens)
        M = bimodule(B, A)
        C = glue(A, B, M)
        assert C.structure == ref_glue_structure(A, B, M, F), (A.name, B.name)
        for comps in C.structure.values():
            _assert_field_elements(comps.values(), F)
        for _ in range(10):
            b, m, a = (_vector(rng, F, B.dim), _vector(rng, F, M.dim) if M.dim else {},
                       _vector(rng, F, A.dim))
            got_left = bilinear(M.left_action, b, m, F)
            got_right = bilinear(M.right_action, m, a, F)
            assert got_left == ref_bilinear(M.left_action, b, m, F)
            assert got_right == ref_bilinear(M.right_action, m, a, F)
            _assert_field_elements(list(got_left.values()) + list(got_right.values()), F)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_commutator_columns_match_the_field_method_reference(F):
    for A in _catalogue(F):
        expected = []
        for i in range(A.dim):
            for j in range(i, A.dim):
                v = dict(A.mul_basis(i, j))
                sign = F.one()
                if A.parity is not None and A.parity[i] % 2 and A.parity[j] % 2:
                    sign = F.neg(F.one())
                for k, c in A.mul_basis(j, i).items():
                    _accumulate(v, k, F.neg(F.mul(sign, c)), F)
                if v:
                    expected.append(v)
        got = commutator_columns(A)
        assert got == expected, A.name
        for col in got:
            _assert_field_elements(col.values(), F)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_span_quotient_matches_the_field_method_reference(F):
    rng = random.Random(SEED + 2)
    for _ in range(30):
        rows = rng.randint(1, 7)
        columns = [_vector(rng, F, rows) for _ in range(rng.randint(0, 4))]
        annihilator = kernel_basis(SparseMatrix(len(columns), rows, {
            (i, r): x for i, col in enumerate(columns) for r, x in col.items()}), F)
        echelon = Echelon(F)
        for col in columns:
            echelon.add(col)
        pairings, remainders = [], []
        for _ in range(5):
            # w; w plus a combination of the columns, summed raw; and that
            # combination alone
            w = _vector(rng, F, rows)
            shift = {}
            for col in columns:
                c = rng.randint(-3, 3)
                for r, x in col.items():
                    shift[r] = shift.get(r, 0) + c * x
            shifted = dict(w)
            for r, x in shift.items():
                shifted[r] = shifted.get(r, 0) + x
            for vec in (w, shifted, shift):
                expected = {}
                for k, y in enumerate(annihilator):
                    for r, x in vec.items():
                        if r in y:
                            _accumulate(expected, k, F.mul(x, y[r]), F)
                got = echelon.reduce(vec)[0]
                assert (not got) == (not expected)
                _assert_field_elements(got.values(), F)
                pairings.append(expected)
                remainders.append(got)
        # two remainders agree exactly when their pairings with the
        # annihilator of the span do
        for a, b in zip(pairings, remainders):
            for c, d in zip(pairings, remainders):
                assert (b == d) == (a == c)


def _sigma_power_reference(dimV, n, F):
    """(1 - sigma, norm) on V^{(x)n} from their definition: the identity plus
    -1 times sigma, and the norm as the sum of the products sigma^k, k < n."""
    dim = dimV ** n
    sign = F.one() if (n - 1) % 2 == 0 else F.neg(F.one())
    sigma = {(i // dimV + (i % dimV) * dimV ** (n - 1), i): sign for i in range(dim)}
    one_minus = {(i, i): F.one() for i in range(dim)}
    for k, v in sigma.items():
        _accumulate(one_minus, k, F.neg(v), F)
    sigma_of = {c: (r, w) for (r, c), w in sigma.items()}
    norm, power = {}, {(i, i): F.one() for i in range(dim)}
    for _ in range(n):
        for k, v in power.items():
            _accumulate(norm, k, v, F)
        product = {}  # sigma times power
        for (r, c), v in power.items():
            r2, w = sigma_of[r]
            _accumulate(product, (r2, c), F.mul(w, v), F)
        power = product
    return one_minus, norm


@pytest.mark.parametrize("F", [QQ, GF(2), GF(3), GF(5), GF(7)], ids=str)
def test_graded_pieces_count_the_homology_of_the_sigma_power_construction(F):
    # the orbit count against dimV^n - rank(1 - sigma) - rank(norm) of the
    # reference matrices, ranked by the oracle's dense elimination
    for dimV in range(1, 5):
        for n in range(1, 8):
            dim = dimV ** n
            if dim > 128:
                continue
            ranks = []
            for matrix in _sigma_power_reference(dimV, n, F):
                rows = [[0] * dim for _ in range(dim)]
                for (r, c), v in matrix.items():
                    rows[r][c] = v
                ranks.append(oracle.dense_rank(rows, F))
            h = dim - sum(ranks)
            rep = graded_piece_analysis(dimV, n, F)
            assert rep["ker_one_minus_sigma_mod_norm"] == h, (dimV, n)
            assert rep["ker_norm_mod_one_minus_sigma"] == h, (dimV, n)
            assert rep["acyclic"] == (h == 0), (dimV, n)
    # n = p over F_p: the dimV constant words are the orbits that count
    p = F.characteristic
    for dimV in range(1, 7):
        if p and p * dimV ** p <= MAX_ROTATION_TERMS:
            assert graded_piece_analysis(dimV, p, F)["ker_norm_mod_one_minus_sigma"] == dimV