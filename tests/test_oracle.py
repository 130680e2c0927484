import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nchodge import oracle
from nchodge.fields import GF, QQ


def test_import_loads_no_engine_module():
    code = ("import sys, nchodge.oracle; print(' '.join(sorted(m for m in sys.modules "
            "if m.startswith('nchodge'))))")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.split() == ["nchodge", "nchodge.algebra", "nchodge.fields",
                                   "nchodge.oracle"]


def test_registry_is_populated_and_described():
    assert len(oracle.FIXTURES) >= 20
    for fid, (description, fn, _value) in oracle.FIXTURES.items():
        assert isinstance(description, str) and description
        assert callable(fn)


def test_certify_known_values():
    assert oracle.certify("dual_numbers_hh_n4") == [2, 1, 1, 1, 1]
    r2 = oracle.certify("quantum_plane_n1_w2_count")
    assert r2["main"] == r2["independent"] == 7
    assert oracle.certify("mat2_commutator_rank") == 3


def test_certify_hash_is_deterministic():
    a = oracle.certify("two_term_u_complex_N3")
    b = oracle.certify("two_term_u_complex_N3")
    assert a == b == oracle.FIXTURES["two_term_u_complex_N3"][2]


def test_certify_refuses_a_value_other_than_the_registered_one(monkeypatch):
    description, fn, value = oracle.FIXTURES["mat2_commutator_rank"]
    monkeypatch.setitem(oracle.FIXTURES, "mat2_commutator_rank", (description, fn, 4))
    with pytest.raises(oracle.FixtureMismatch,
                       match=r"'mat2_commutator_rank' computed 3, registered 4"):
        oracle.certify("mat2_commutator_rank")


def test_unknown_fixture_rejected():
    with pytest.raises(oracle.FixtureError):
        oracle.certify("no_such_fixture")


def test_dense_rank_agrees_with_hand_values():
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    assert oracle.dense_rank(rows, QQ) == 2
    assert oracle.dense_rank([[1, 1], [1, 3]], GF(2)) == 1


def _random_rows(rng, F, nrows, ncols):
    """A random dense matrix with some zero rows and columns, and some rows
    that are combinations of earlier ones."""
    zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
    scalars = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)) if F.p is None else range(1, F.p)
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.choice(scalars)
            row = [x + c * y for x, y in zip(a, b)]
        elif rng.random() < 0.15:
            row = [0] * ncols
        else:
            row = [rng.choice(scalars) if c not in zero_cols and rng.random() < 0.5 else 0
                   for c in range(ncols)]
        rows.append(row if F.p is None else [x % F.p for x in row])
    return rows


@pytest.mark.parametrize("F", (QQ, GF(2), GF(3)), ids=str)
def test_echelon_rank_and_kernel(F):
    rng = random.Random(97 + F.characteristic)
    for _ in range(200):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
        rows = _random_rows(rng, F, nrows, ncols)
        echelon = oracle._echelon(rows, ncols, F)
        rank = oracle.dense_rank(rows, F)
        assert len(echelon) == rank
        assert [col for col, _ in echelon] == sorted({col for col, _ in echelon})
        for col, row in echelon:
            assert row[col] == 1 and not any(row[:col])
        kernel = oracle.dense_kernel(rows, ncols, F)
        assert rank + len(kernel) == ncols
        for v in kernel:
            for row in rows:
                dot = sum(x * y for x, y in zip(row, v))
                assert (dot if F.p is None else dot % F.p) == 0
        assert oracle.dense_rank(kernel, F) == len(kernel)
        transpose = [list(col) for col in zip(*rows)]
        assert oracle.dense_rank(transpose, F) == rank


@pytest.mark.parametrize("F", (QQ, GF(2), GF(3)), ids=str)
def test_unreduced_and_reduced_agree_on_a_super_algebra(F):
    # the exterior algebra on one odd generator: the last face of both
    # complexes carries the Koszul sign (HH_n = 2 for every n)
    from nchodge.algebra import AlgebraSpec
    A = AlgebraSpec("exterior1", F, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
                    weight=(0, 1), parity=(0, 1))
    assert oracle.unreduced_hh_ranks(A, 3) == oracle.reduced_hh_ranks(A, 3) == [2, 2, 2, 2]


def test_unreduced_oracle_size_guard():
    from nchodge.algebra import builtin
    A = builtin("mat", QQ, m=2)  # dim 4 > 3
    with pytest.raises(oracle.FixtureError):
        oracle.unreduced_hh_ranks(A, 3)


def test_dense_blocks_from_dims():
    # free rank 1 and one block of size 2 at N = 4
    dims = [(4 - j) + max(2 - j, 0) for j in range(4)]
    free, blocks = oracle.dense_blocks_from_dims(dims)
    assert free == 1
    assert blocks == {2: 1}
    # a negative count of blocks below the top, and of blocks at the top
    for dims in ([2, 2, 1], [3, 1, 1]):
        with pytest.raises(ValueError, match="inconsistent filtration dims"):
            oracle.dense_blocks_from_dims(dims)


def test_independent_jacobiator():
    from nchodge.poisson import builtin_bivector
    comps = oracle.jacobiator_components(builtin_bivector("so3"))
    assert all(not poly for poly in comps.values())
    bad = oracle.jacobiator_components(builtin_bivector("nonjacobi4"))
    assert any(poly for poly in bad.values())


def test_registry_document_in_sync():
    # docs/fixtures.md is the checked-in, human-readable registry; every
    # fixture id must appear there, with its registered value
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "fixtures.md")
    text = open(path, encoding="utf-8").read()
    for fid, (_description, _fn, value) in oracle.FIXTURES.items():
        assert f"`{fid}` | `{value!r}` |" in text, fid
