"""The Hochschild complex relative to the vertex idempotents.

`hh_ranks` works on the normalized complex relative to S, spanned by the
orthogonal idempotent basis elements and their complement (see the
`hochschild` docstring).  Its ranks are checked here against the dense
absolute complex of the oracle, which shares no code with it; its
differentials against d^2 = B^2 = dB + Bd = 0; and its S = k case, word for
word, against the absolute words.
"""

from itertools import product

import pytest

from nchodge import oracle
from nchodge.algebra import (CATALOGUE, AlgebraError, AlgebraSpec, bilinear, builtin, glue,
                             matrix_algebra, trivial_bimodule, zero_bimodule)
from nchodge.fields import GF, QQ, linear_combination
from nchodge.hochschild import (ChainComplex, DegreeWindow, absolute_block_size, chain_basis,
                                hh_ranks, vertex_idempotents, word_parity)
from nchodge.sparse import Echelon, rank_of_columns

FIELDS = (QQ, GF(2), GF(3), GF(101))


def _glue_dual_truncated(F, bimodule):
    D, T = builtin("dual_numbers", F), builtin("truncated_poly", F, m=3)
    return glue(D, T, bimodule(T, D))


def _super_glue(F):
    # criterion 12's super input: the dual numbers glued to Lambda(xi)
    D = builtin("dual_numbers", F)
    L = AlgebraSpec("exterior1", F, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                    weight=(0, 1), parity=(0, 1))
    return glue(D, L, trivial_bimodule(L, D))


# name -> (algebra over a field, the top length n checked); each window is as
# long as the dense oracle affords
CASES = {
    "mat2": (lambda F: builtin("mat", F, m=2), 3),
    "mat3": (lambda F: builtin("mat", F, m=3), 1),
    "mat2(dual_numbers)": (lambda F: matrix_algebra(builtin("dual_numbers", F), 2), 1),
    "mat2(clifford1)": (lambda F: matrix_algebra(builtin("clifford1", F), 2), 1),
    "a2_path": (lambda F: builtin("a2_path", F), 4),
    "glue-zero": (lambda F: _glue_dual_truncated(F, zero_bimodule), 2),
    "glue-trivial": (lambda F: _glue_dual_truncated(F, trivial_bimodule), 2),
    "glue-super": (_super_glue, 2),
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", CASES)
def test_relative_ranks_equal_the_dense_absolute_oracle(name, field):
    build, n_top = CASES[name]
    A = build(field)
    assert ChainComplex(A, relative=True).letters.vertices > 1, name
    per_n = hh_ranks(A, DegreeWindow(n_top + 1))["per_n"]
    assert [per_n[n] for n in range(n_top + 1)] == oracle.reduced_hh_ranks(A, n_top)


@pytest.mark.parametrize("field", (QQ, GF(2)), ids=str)
def test_relative_ranks_per_weight_equal_the_absolute_ones(field):
    # Mat_2 of the dual numbers is graded: each weight block on its own
    A = matrix_algebra(builtin("dual_numbers", field), 2)
    ranks = hh_ranks(A, DegreeWindow(4))
    absolute = ChainComplex(A)
    assert ranks["per_n_weight"] == {
        (n, w): r for n in range(4) for w in range(5) if (r := absolute.hh_rank(n, w))}


def test_the_vertex_rule():
    # E11 and E22 of Mat_3 (E33 is the complement); e1 of the A2 quiver; the
    # corner idempotent 1_A of a gluing
    mat3 = builtin("mat", QQ, m=3)
    assert [mat3.label(i) for i in vertex_idempotents(mat3)] == ["E11*1", "E22*1"]
    assert vertex_idempotents(builtin("a2_path", QQ)) == [1]
    glued = _glue_dual_truncated(QQ, trivial_bimodule)
    assert [glued.label(i) for i in vertex_idempotents(glued)] == ["A.1"]
    for name in ("point", "dual_numbers", "truncated_poly", "poly_truncated",
                 "quantum_plane", "group_z2", "clifford1"):
        assert vertex_idempotents(builtin(name, QQ)) == [], name
    # m (m - 1)^n composable words at length n for Mat_m: 96 at m = 3, n = 5
    assert len(ChainComplex(mat3, relative=True).basis(5)) == 96


def test_letters_are_homogeneous_peirce_vectors():
    # the vertex idempotents are letters 0..V-1, and every product of letters
    # runs from the first letter's source to the second one's target
    A = matrix_algebra(builtin("dual_numbers", QQ), 2)
    L = ChainComplex(A, relative=True).letters
    assert L.vertices == 2 and sorted(L.weight) == sorted(A.weight)
    assert all(L.source[v] == L.target[v] == v for v in range(L.vertices))
    for (i, j), prod in L.products.items():
        assert L.target[i] == L.source[j]
        assert all(L.source[k] == L.source[i] and L.target[k] == L.target[j]
                   and L.weight[k] == L.weight[i] + L.weight[j] for k in prod)
    assert L.inner == {ij: {k: c for k, c in prod.items() if k >= 2}
                       for ij, prod in L.products.items()
                       if any(k >= 2 for k in prod)}


def _reference_letters(A, idempotents):
    """The Peirce letters by one rank computation per candidate: the vectors
    e_a x e_b for x in basis order and vertices a, b in turn, each kept when
    it raises the rank of those kept before."""
    F = A.field
    vertices = [{i: 1} for i in idempotents]
    vertices.append(linear_combination([(1, {0: 1})] + [(-1, {i: 1}) for i in idempotents], F))
    vectors, source, target, letter_of = [], [], [], []
    for x in range(A.dim):
        for a, ea in enumerate(vertices):
            for b, eb in enumerate(vertices):
                vec = bilinear(A.structure, bilinear(A.structure, ea, {x: 1}, F), eb, F)
                if vec and rank_of_columns(vectors + [vec], F) > len(vectors):
                    vectors.append(vec)
                    source.append(a)
                    target.append(b)
                    letter_of.append(x)
    return vectors, source, target, letter_of


def _skewed_mat2(F):
    """Mat_2 in the basis 1, E11, x = 2 E12 + E21, E12: the Peirce vector
    E11 x E22 = 2 E12 is the first with a pivot at E12, where it is 2."""
    A = builtin("mat", F, m=2)  # basis 1, E11, E12, E21
    basis = [{0: 1}, {1: 1}, {2: 2, 3: 1}, {2: 1}]
    echelon = Echelon(F)
    assert all(echelon.add(u) for u in basis)
    structure = {}
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            prod = bilinear(A.structure, u, v, F)
            if prod:
                structure[(i, j)] = echelon.reduce(prod)[1]
    return AlgebraSpec("mat2-skewed", F, 4, structure)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_peirce_letters_and_their_products(field):
    # the letters of the one incremental echelon form are those of a rank
    # test per candidate, and products[(i, j)] spells the product of letter
    # vectors i and j in letters
    algebras = [A for name in CATALOGUE if (A := _catalogue_entry(name, field))]
    algebras += [build(field) for build, _ in CASES.values()] + [builtin("mat", field, m=4)]
    if field.p != 2:
        algebras.append(_skewed_mat2(field))
    for A in algebras:
        idempotents = vertex_idempotents(A)
        if not idempotents:
            continue
        L = ChainComplex(A, relative=True).letters
        vectors, source, target, letter_of = _reference_letters(A, idempotents)
        assert (L.vertices, L.source, L.target) == \
            (len(idempotents) + 1, tuple(source), tuple(target)), A.name
        assert L.weight == (None if A.weight is None else tuple(A.weight[x] for x in letter_of))
        assert L.parity == (None if A.parity is None else tuple(A.parity[x] for x in letter_of))
        F = A.field
        for i, vi in enumerate(vectors):
            for j, vj in enumerate(vectors):
                prod = bilinear(A.structure, vi, vj, F) if target[i] == source[j] else {}
                assert (i, j) in L.products or not prod, (A.name, i, j)
                if prod:
                    rebuilt = linear_combination(
                        [(c, vectors[k]) for k, c in L.products[(i, j)].items()], F)
                    assert rebuilt == prod and all(L.products[(i, j)].values()), (A.name, i, j)


def _catalogue_entry(name, field):
    try:
        return builtin(name, field)
    except AlgebraError:
        return None  # a default parameter that vanishes over the field


@pytest.mark.parametrize("name", [name for name in CATALOGUE
                                  if not vertex_idempotents(builtin(name, QQ))])
def test_single_vertex_bases_are_the_absolute_words(name):
    # S = k: every word of A (x) (A/1)^n, in lexicographic order, per block
    A = builtin(name, QQ)
    cx = ChainComplex(A, relative=True)
    assert cx.letters.vertices == 1
    for n in range(5):
        if A.dim * max(A.dim - 1, 1) ** n > 5000:
            break
        words = list(product(range(A.dim), *[range(1, A.dim)] * n))
        weights = [None] if A.weight is None else \
            [None] + sorted({sum(A.weight[i] for i in word) for word in words})
        for w in weights:
            for p in (None, 0, 1):
                expected = [word for word in words
                            if (w is None or sum(A.weight[i] for i in word) == w)
                            and (p is None or word_parity(A, word) == p)]
                assert cx.basis(n, w, p) == expected, (name, n, w, p)


def test_absolute_block_size_counts_the_absolute_words():
    # the staircase's floor reads the sizes of the absolute blocks, counted
    # per word parity without a walk
    algebras = [builtin(name, QQ) for name in CATALOGUE]
    algebras += [build(QQ) for build, _ in CASES.values()]
    for A in algebras:
        for n in range(7):
            if A.dim * max(A.dim - 1, 1) ** n > 50000:
                break
            for p in (0, 1):
                assert absolute_block_size(A, n, p) == len(chain_basis(A, n, None, p)), \
                    (A.name, n, p)


def _apply(image, chain: dict, field) -> dict:
    return linear_combination(((c, image(word)) for word, c in chain.items()), field)


@pytest.mark.parametrize("name, n_top", [("mat2", 5), ("a2_path", 6), ("glue-super", 4)])
def test_relative_differential_identities(name, n_top):
    for field in (QQ, GF(2), GF(3)):
        A = CASES[name][0](field)
        cx = ChainComplex(A, relative=True)
        d, B = cx.boundary_word, cx.connes_word
        for n in range(n_top + 1):
            for word in cx.basis(n):
                assert not _apply(d, d(word), field), (name, word)
                assert not _apply(B, B(word), field), (name, word)
                anti = linear_combination(((1, _apply(d, B(word), field)),
                                           (1, _apply(B, d(word), field))), field)
                assert not anti, (name, word)
