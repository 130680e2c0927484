import pytest

from nchodge.fields import GF, QQ
from nchodge.sparse import SparseMatrix
from nchodge.umodule import (ContractViolation, UComplex, UModuleReport,
                             UTruncation, blocks_from_filtration_dims,
                             two_term_u_complex, u_module_decompose)


def test_two_term_complex_torsion():
    # k[u]/u^N --u--> k[u]/u^N has homology k at both ends: torsion block of
    # size 1 at position 0 (coker u) and at position 1 (ker u = u^{N-1}k).
    for N in (2, 3, 5):
        reports = u_module_decompose(two_term_u_complex(N, QQ), QQ)
        for pos in (0, 1):
            rep = reports[pos]
            assert rep.free_rank == 0
            assert rep.torsion_blocks == {1: 1}
            assert rep.saturated_at_N == (N >= 3)


def test_identity_complex_acyclic():
    N = 3
    diff = [SparseMatrix.identity(1, QQ)] + [SparseMatrix.zero(1, 1)] * (N - 1)
    c = UComplex(UTruncation(N), {0: 1, 1: 1}, {1: diff})
    reports = u_module_decompose(c, QQ)
    assert reports[0].free_rank == 0 and reports[0].torsion_blocks == {}
    assert reports[1].free_rank == 0 and reports[1].torsion_blocks == {}


def test_zero_complex_free():
    N = 3
    c = UComplex(UTruncation(N), {0: 2}, {})
    reports = u_module_decompose(c, QQ)
    assert reports[0].free_rank == 2
    assert reports[0].torsion_blocks == {}


def test_square_zero_enforced():
    # d has a u^0 part that does not square to zero
    N = 2
    d1 = [SparseMatrix.identity(1, QQ), SparseMatrix.zero(1, 1)]
    c = UComplex(UTruncation(N), {0: 1, 1: 1, 2: 1}, {1: d1, 2: d1})
    with pytest.raises(ContractViolation):
        u_module_decompose(c, QQ)


def test_square_zero_enforced_over_k_u_not_only_mod_u_n():
    # D = u at both parities of a rank-1 Z/2-folded complex: D^2 = u^2 is 0
    # mod u^2, and the homology mod u^2 is 0, but leading ranks would give
    # free rank 1 - 1 - 1 = -1; the complex is refused instead
    N = 2
    u = [SparseMatrix.zero(1, 1), SparseMatrix.identity(1, QQ)]
    for field in (QQ, GF(2)):
        c = UComplex(UTruncation(N), {-1: 1, 0: 1, 1: 1, 2: 1}, {0: u, 1: u, 2: u})
        with pytest.raises(ContractViolation, match=r"u\^2 coefficient"):
            u_module_decompose(c, field, positions=(0, 1))


def test_truncated_report_frees_the_blocks_at_or_above_the_new_truncation():
    rep = UModuleReport(1, {1: 2, 2: 1, 3: 4}, 5)
    assert rep.truncated(5).to_dict() == rep.to_dict()
    low = rep.truncated(3)
    assert (low.free_rank, low.torsion_blocks, low.N) == (5, {1: 2, 2: 1}, 3)
    assert rep.truncated(1).to_dict() == UModuleReport(8, {}, 1).to_dict()


def test_square_zero_reports_the_reduced_entry():
    # d^2 has no u^0 part (A0 B0 = 0); its u^1 part A0 B1 + A1 B0 has the
    # raw entry 1 * 2 + 2 * 1 = 4 at (0, 0), which the message names reduced
    # mod 3
    F = GF(3)
    A0 = SparseMatrix(2, 2, {(0, 0): 1})
    A1 = SparseMatrix(2, 2, {(0, 1): 2, (1, 1): 2})
    B0 = SparseMatrix(2, 2, {(1, 0): 1, (1, 1): 1})
    B1 = SparseMatrix(2, 2, {(0, 0): 2, (0, 1): 2})
    c = UComplex(UTruncation(2), {0: 2, 1: 2, 2: 2}, {1: [A0, A1], 2: [B0, B1]})
    with pytest.raises(ContractViolation, match=r"u\^1 coefficient, entry \(0,0\) = 1$"):
        u_module_decompose(c, F)


def test_blocks_from_filtration_dims():
    # dims[j] = dim_k u^j M: one free generator contributes N - j, one
    # torsion block of size 2 contributes max(2 - j, 0)
    N = 4
    dims = [(N - j) + max(2 - j, 0) for j in range(N)]
    rep = blocks_from_filtration_dims(dims, N)
    assert rep.free_rank == 1
    assert rep.torsion_blocks == {2: 1}
    assert rep.torsion_list == [2]
    assert rep.total_k_dimension() == N + 2


def test_report_merge_and_saturation():
    a = UModuleReport(1, {1: 2}, 4)
    b = UModuleReport(0, {3: 1}, 4)
    m = a.merge(b)
    assert m.free_rank == 1 and m.torsion_blocks == {1: 2, 3: 1}
    assert not m.saturated_at_N  # block of size 3 > N-2


def test_mod_p_decomposition():
    reports = u_module_decompose(two_term_u_complex(3, GF(2)), GF(2))
    assert reports[0].torsion_blocks == {1: 1}
    assert reports[1].torsion_blocks == {1: 1}


def test_truncation_validation():
    with pytest.raises(ValueError):
        UTruncation(0)


def test_truncation_is_an_immutable_value():
    assert UTruncation(3) == UTruncation(3) and UTruncation(3) != UTruncation(4)
    assert len({UTruncation(3), UTruncation(3), UTruncation(4)}) == 2
    with pytest.raises(AttributeError):
        UTruncation(3).N = 4
