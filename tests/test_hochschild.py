import json
import random
import sys
from fractions import Fraction

import pytest

from nchodge.algebra import AlgebraSpec, builtin
from nchodge.cli import main
from nchodge.fields import GF, QQ, reduced_entries
from nchodge.hochschild import (ChainComplex, DegreeWindow, chain_basis,
                                guard_safe_weights, hh0_direct, hh_ranks,
                                hkr_reference)
from nchodge.sparse import StructuralError


def _compose_is_zero(A, first, second, n_top):
    F = A.field
    fzero, fadd, fmul, fis0 = F.zero(), F.add, F.mul, F.is_zero
    for n in range(n_top + 1):
        for w in chain_basis(A, n):
            acc = {}
            for w1, c1 in first(w).items():
                for w2, c2 in second(w1).items():
                    s = fadd(acc.get(w2, fzero), fmul(c1, c2))
                    if fis0(s):
                        acc.pop(w2, None)
                    else:
                        acc[w2] = s
            if acc:
                return (w, acc)
    return None


def test_chain_basis_shape():
    A = builtin("dual_numbers")
    assert chain_basis(A, 0) == [(0,), (1,)]
    assert chain_basis(A, 2) == [(0, 1, 1), (1, 1, 1)]


def test_chain_basis_weight_filter():
    A = builtin("poly_truncated", QQ, vars=2, max_weight=3)
    for w in chain_basis(A, 2, weight=2):
        assert sum(A.weight[i] for i in w) == 2


def test_differential_identities_small():
    # exhaustive d^2 = B^2 = dB + Bd = 0 on small algebras; the full catalogue
    # sweep is acceptance criterion 1
    for name in ("dual_numbers", "clifford1", "group_z2"):
        for F in (QQ, GF(3)):
            A = builtin(name, F)
            cx = ChainComplex(A)
            assert _compose_is_zero(A, cx.boundary_word, cx.boundary_word, 5) is None
            assert _compose_is_zero(A, cx.connes_word, cx.connes_word, 5) is None

            def anti(w, cx=cx, A=A):
                out = {}
                Fl = A.field
                for w1, c1 in cx.connes_word(w).items():
                    for w2, c2 in cx.boundary_word(w1).items():
                        s = Fl.add(out.get(w2, Fl.zero()), Fl.mul(c1, c2))
                        if Fl.is_zero(s):
                            out.pop(w2, None)
                        else:
                            out[w2] = s
                return out
            assert _compose_is_zero(A, anti,
                                    lambda w: {w: A.field.one()}, 0) is None


def test_b_vanishes_on_unit_heads():
    A = builtin("dual_numbers")
    cx = ChainComplex(A)
    assert cx.connes_word((0, 1, 1)) == {}


def test_dual_numbers_hh():
    A = builtin("dual_numbers")
    ranks = hh_ranks(A, DegreeWindow(5))
    assert ranks["per_n"] == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1}


def test_mat2_morita_trivial_hh():
    A = builtin("mat", QQ, m=2)
    ranks = hh_ranks(A, DegreeWindow(4))
    assert ranks["per_n"] == {0: 1, 1: 0, 2: 0, 3: 0}


def test_hh0_direct_matches_complex():
    for name in ("dual_numbers", "a2_path", "group_z2", "clifford1"):
        A = builtin(name)
        assert hh0_direct(A) == hh_ranks(A, DegreeWindow(2))["per_n"][0]


def test_hkr_reference_values():
    # 1 variable: functions and 1-forms only
    assert hkr_reference(1, 0, 3) == 1
    assert hkr_reference(1, 1, 3) == 1
    assert hkr_reference(1, 2, 3) == 0
    # 2 variables, weight 2: 3 functions, 2*2 one-forms, 1 two-form
    assert hkr_reference(2, 0, 2) == 3
    assert hkr_reference(2, 1, 2) == 4
    assert hkr_reference(2, 2, 2) == 1


def test_guard_safe_weights():
    A = builtin("poly_truncated", QQ, vars=1, max_weight=4)
    flags = guard_safe_weights(A, [1, 2, 3, 4])
    assert flags == {1: True, 2: True, 3: False, 4: False}


def test_super_wrap_sign():
    # clifford1: wrap face of (xi; xi) picks up the plain-parity Koszul sign
    A = builtin("clifford1")
    cx = ChainComplex(A)
    img = cx.boundary_word((1, 1))
    # d(xi (x) xi) = xi.xi - (-1)^{...} xi.xi; for this word the two faces
    # reinforce: the identity d^2 = 0 is what pins the convention, so only
    # check the image is a multiple of the unit word
    assert set(img) <= {(0,)}


def test_add_images_accumulates_scaled_images():
    # add_images adds c times the image of each word of a combination, keyed
    # by word code, with plain + and *; decoded after reduced_entries it
    # equals the field-method sum of the scaled images, for unreduced int
    # scales over F_p and Fraction scales over Q, on both complexes
    rng = random.Random(5)
    for name, F in (("mat", QQ), ("clifford1", QQ), ("clifford1", GF(3)),
                    ("a2_path", GF(5)), ("quantum_plane", GF(7))):
        A = builtin(name, F)
        for relative in (False, True):
            cx = ChainComplex(A, relative)
            for n in (1, 2, 3):
                words = cx.basis(n)
                for _ in range(15 if words else 0):
                    picked = {rng.choice(words): rng.randint(-20, 20) for _ in range(3)}
                    if F.p is None:
                        picked = {w: Fraction(c, rng.choice((1, 2, 3)))
                                  for w, c in picked.items()}
                    for image, word_image, length in (("boundary", cx.boundary_word, n),
                                                      ("connes", cx.connes_word, n + 2)):
                        acc = {}
                        cx.add_images(picked, image, acc)
                        expected = {}
                        for w, c in picked.items():
                            for t, v in word_image(w).items():
                                expected[t] = F.add(expected.get(t, F.zero()),
                                                    F.mul(F.from_fraction(Fraction(c)), v))
                        expected = {t: v for t, v in expected.items() if not F.is_zero(v)}
                        assert {cx.decode(code, length): v for code, v
                                in reduced_entries(acc, F).items()} == expected


def test_add_images_refuses_mixed_lengths_and_unknown_images():
    cx = ChainComplex(builtin("mat", QQ))
    with pytest.raises(ValueError):
        cx.add_images({(1, 2): 1, (1, 2, 3): 1}, "boundary", {})
    with pytest.raises(ValueError):
        cx.add_images({(1, 2): 1}, "differential", {})
    acc = {}
    cx.add_images({}, "boundary", acc)
    cx.add_images({}, "connes", acc)
    assert acc == {}


def test_codes_sort_as_their_words():
    # radix dim, most significant letter first: one length sorts as words do
    cx = ChainComplex(builtin("mat", QQ, m=3))
    words = chain_basis(cx.A, 2)
    codes = [(w[0] * 9 + w[1]) * 9 + w[2] for w in words]
    assert [cx.decode(c, 3) for c in codes] == words
    assert sorted(codes) == codes


def test_hh_rank_refuses_a_non_associative_structure():
    # mat(2) with E11*E12 doubled is not associative, so its "boundary" does
    # not square to zero and dim - rank - rank goes negative at n = 1
    A = builtin("mat", QQ, m=2)
    structure = dict(A.structure)
    structure[(1, 2)] = {k: 2 * c for k, c in structure[(1, 2)].items()}
    cx = ChainComplex(AlgebraSpec(A.name, A.field, A.dim, structure, None, A.parity,
                                  A.max_weight, A.basis_labels))
    with pytest.raises(StructuralError):
        [cx.hh_rank(n) for n in range(4)]


def test_hh_ranks_with_negative_weights():
    # regrading eps to weight -2 moves every class to a negative weight but
    # keeps the ranks per n, and a grading of mat(2) by -1/+1 on E12/E21
    # keeps them too
    window = DegreeWindow(5)
    dual = builtin("dual_numbers", QQ)
    negative = hh_ranks(AlgebraSpec(dual.name, dual.field, dual.dim, dual.structure, (0, -2),
                                    dual.parity, dual.max_weight, dual.basis_labels), window)
    assert negative["per_n"] == hh_ranks(dual, window)["per_n"]
    assert all(w <= 0 for _, w in negative["per_n_weight"])
    mat = builtin("mat", QQ, m=2)
    regraded = AlgebraSpec(mat.name, mat.field, mat.dim, mat.structure, (0, 0, -1, 1),
                           mat.parity, mat.max_weight, mat.basis_labels)
    ungraded = AlgebraSpec(mat.name, mat.field, mat.dim, mat.structure, None,
                           mat.parity, mat.max_weight, mat.basis_labels)
    assert (hh_ranks(regraded, window)["per_n"]
            == hh_ranks(ungraded, window)["per_n"])


def test_chain_basis_walks_blocks_longer_than_the_recursion_limit():
    # a walk with one Python frame per letter raised RecursionError on any
    # block longer than about 990 letters
    dual = builtin("dual_numbers", QQ)
    mat2 = ChainComplex(builtin("mat", QQ, m=2), relative=True)  # E11, E22, E12, E21
    for n in (sys.getrecursionlimit() + 100, sys.getrecursionlimit() + 101):
        assert chain_basis(dual, n) == [(0,) + (1,) * n, (1,) * (n + 1)]
        assert chain_basis(dual, n, n) == [(0,) + (1,) * n]
        half = (n + 1) // 2
        expected = ([(0,) + (2, 3) * half, (1,) + (3, 2) * half] if n % 2 == 0
                    else [(2, 3) * half, (3, 2) * half])
        assert chain_basis(mat2.A, n, letters=mat2.letters) == expected, n


def test_hh_of_a_long_window_exits_0(capsys):
    assert main(["hh", "--algebra", "mat", "--n-max", "1000"]) == 0
    per_n = json.loads(capsys.readouterr().out)["result"]["per_n"]
    assert per_n == {str(n): int(n == 0) for n in range(1001)}
