"""The block images of `ChainComplex.boundary_blocks` and `connes_blocks`,
summed into word codes by `add_blocks`, against the tuple images of
`boundary_word` and `connes_word`.

The two are separate implementations of the same face and rotation rules:
the tuple ones assemble matrices and check criterion 01, the block ones
certify Chern chains.  Here a block's images, decoded, must be exactly the
sum of its words' tuple images times their coefficients: for single words
(a block of singleton supports), on random words of every tensor length
0-6, and for random full-product blocks (random supports per slot, random
int coefficients, Fractions over Q) of tensor length 0-5, over every
catalogue algebra and the algebras with vertex idempotents of the
relative-complex tests, over Q, F_2 and F_3.  The boundary is checked on
the absolute and the relative complex, B on the absolute one, the only
one its block form takes.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from nchodge.algebra import CATALOGUE, AlgebraError, builtin
from nchodge.fields import GF, QQ, reduced_entries
from nchodge.hochschild import ChainComplex

from test_relative_complex import CASES

FIELDS = (QQ, GF(2), GF(3))


def _algebras(F):
    out = []
    for name in CATALOGUE:
        try:
            out.append(builtin(name, F))
        except AlgebraError:
            pass  # a default parameter that vanishes over F (q = 2 over F_2)
    return out + [build(F) for build, _ in CASES.values()]


def _random_words(cx, n, rng, tries=60) -> set:
    """Random basis words of tensor length n: cyclically composable paths
    of letters with the tail avoiding S (on the absolute complex, any head
    and a non-unit tail), from random walks that close."""
    L = cx.letters
    out = set()
    for _ in range(tries):
        word = [rng.randrange(cx.A.dim)]
        at = L.target[word[0]]
        for _ in range(n):
            if not L.successors[at]:
                break
            word.append(rng.choice(L.successors[at]))
            at = L.target[word[-1]]
        if len(word) == n + 1 and at == L.source[word[0]]:
            out.add(tuple(word))
    return out


def _decoded(cx, images, length):
    acc = {}
    cx.add_blocks(images, acc)
    return {cx.decode(code, length): v for code, v in reduced_entries(acc, cx.A.field).items()}


def _word_sum(cx, word_image, terms):
    """sum of c * word_image(w) over the (w, c) terms, in field methods."""
    F = cx.A.field
    out = {}
    for w, c in terms:
        for t, v in word_image(w).items():
            out[t] = F.add(out.get(t, F.zero()), F.mul(F.from_fraction(Fraction(c)), v))
    return {t: v for t, v in out.items() if not F.is_zero(v)}


@pytest.mark.parametrize("relative", (False, True), ids=("absolute", "relative"))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_single_word_blocks_decode_to_the_word_images(field, relative):
    rng = random.Random(20261018)
    checked = 0
    for A in _algebras(field):
        cx = ChainComplex(A, relative)
        for n in range(7):
            for word in sorted(_random_words(cx, n, rng))[:12]:
                block = (tuple((x,) for x in word), [1])
                assert _decoded(cx, cx.boundary_blocks(*block), n) == cx.boundary_word(word), \
                    (A.name, word)
                if not relative:
                    assert _decoded(cx, cx.connes_blocks(*block), n + 2) \
                        == cx.connes_word(word), (A.name, word)
                checked += 1
    assert checked > 500


@pytest.mark.parametrize("relative", (False, True), ids=("absolute", "relative"))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_full_product_blocks_decode_to_the_sum_of_word_images(field, relative):
    # every slot draws from all letters, S ones included, so the head
    # restriction of B (the unit), every face table and both Koszul masks
    # are reached;
    # the supports are long enough for faces that run contiguous and strided
    rng = random.Random(20261019)
    coeffs = list(range(-9, 10))
    checked = 0
    for A in _algebras(field):
        cx = ChainComplex(A, relative)
        d = A.dim
        for n in range(6):
            for _ in range(3):
                supports = tuple(tuple(sorted(rng.sample(range(d), rng.randint(1, min(d, 3)))))
                                 for _ in range(n + 1))
                nums = [rng.choice(coeffs) for _ in product(*supports)]
                if field.p is None:
                    nums = [Fraction(c, rng.choice((1, 2, 3))) for c in nums]
                terms = list(zip(product(*supports), nums))
                assert _decoded(cx, cx.boundary_blocks(supports, nums), n) \
                    == _word_sum(cx, cx.boundary_word, terms), (A.name, supports)
                if not relative:
                    assert _decoded(cx, cx.connes_blocks(supports, nums), n + 2) \
                        == _word_sum(cx, cx.connes_word, terms), (A.name, supports)
                checked += 1
    assert checked >= 6 * 3 * len(_algebras(field))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_connes_blocks_refuses_a_complex_of_several_vertices(field):
    # relative to the vertex idempotents of Mat_2 a rotation goes under the
    # vertex where its first letter starts, which the block form of B does
    # not do: it raises rather than give wrong images.  With one vertex the
    # relative complex is the absolute one, and B applies.
    build, _ = CASES["mat2"]
    cx = ChainComplex(build(field), relative=True)
    assert cx.letters.vertices == 2
    word = next(w for w in cx.basis(1) if w[0] >= cx.letters.vertices)
    with pytest.raises(ValueError, match="absolute complex"):
        cx.connes_blocks(tuple((x,) for x in word), [1])
    one_vertex = ChainComplex(builtin("dual_numbers", field), relative=True)
    assert one_vertex.letters.vertices == 1
    assert _decoded(one_vertex, one_vertex.connes_blocks(((1,), (1,)), [1]), 3) \
        == one_vertex.connes_word((1, 1))
