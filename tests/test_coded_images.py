"""The coded word images of `ChainComplex.add_boundaries` and
`add_connes` against the tuple
images of `boundary_word` and `connes_word`.

The two are separate implementations of the same face and rotation rules:
the tuple ones assemble matrices and check criterion 01, the coded ones
certify Chern chains.  Here each single word's coded image, decoded, must be
exactly its tuple image, on random words of every tensor length 0-6, over
every catalogue algebra and the algebras with vertex idempotents of the
relative-complex tests, on the absolute and the relative complex, over Q,
F_2 and F_3.
"""

import random

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


def _decoded(cx, word, add_images, length):
    acc = {}
    add_images({word: 1}, acc)
    return {cx.decode(code, length): v for code, v in reduced_entries(acc, cx.A.field).items()}


@pytest.mark.parametrize("relative", (False, True), ids=("absolute", "relative"))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coded_images_decode_to_the_word_images(field, relative):
    rng = random.Random(20261018)
    checked = 0
    for A in _algebras(field):
        cx = ChainComplex(A, relative)
        for n in range(7):
            for word in sorted(_random_words(cx, n, rng))[:12]:
                assert _decoded(cx, word, cx.add_boundaries, n) == cx.boundary_word(word), \
                    (A.name, word)
                assert _decoded(cx, word, cx.add_connes, n + 2) == cx.connes_word(word), \
                    (A.name, word)
                checked += 1
    assert checked > 500
