import pytest

from nchodge import umodule
from nchodge.fields import GF, QQ
from nchodge.sparse import SparseMatrix, StructuralError
from nchodge.umodule import (ContractViolation, UComplex, UModuleReport,
                             UTruncation, blocks_from_filtration_dims, u_module_decompose)


def _pair(N, r0, r1, d0=(), d1=()):
    """The Z/2 pair of ranks r0, r1 with D0 (0 -> 1) and D1 (1 -> 0) given
    by their u-coefficients, each zero when not given."""
    return UComplex(UTruncation(N), {0: r0, 1: r1},
                    {0: list(d0) or [SparseMatrix(r1, r0, {})],
                     1: list(d1) or [SparseMatrix(r0, r1, {})]})


def two_term_u_complex(N, field):
    """The pair k[u]/u^N --(mult by u)--> k[u]/u^N from position 1 to 0,
    with D0 = 0."""
    diff = [SparseMatrix(1, 1, {}) for _ in range(N)]
    if N > 1:
        diff[1] = SparseMatrix(1, 1, {(0, 0): field.one()})
    return _pair(N, 1, 1, d1=diff)


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
    diff = [SparseMatrix(1, 1, {(0, 0): 1})] + [SparseMatrix(1, 1, {})] * (N - 1)
    reports = u_module_decompose(_pair(N, 1, 1, d1=diff), QQ)
    assert reports[0].free_rank == 0 and reports[0].torsion_blocks == {}
    assert reports[1].free_rank == 0 and reports[1].torsion_blocks == {}


def test_zero_complex_free():
    N = 3
    reports = u_module_decompose(_pair(N, 2, 0), QQ)
    assert reports[0].free_rank == 2
    assert reports[0].torsion_blocks == {}
    assert (reports[1].free_rank, reports[1].torsion_blocks) == (0, {})


def test_square_zero_enforced():
    # d has a u^0 part that does not square to zero
    N = 2
    d = [SparseMatrix(1, 1, {(0, 0): 1}), SparseMatrix(1, 1, {})]
    with pytest.raises(ContractViolation):
        u_module_decompose(_pair(N, 1, 1, d, d), QQ)


def test_square_zero_names_the_position_the_product_starts_from():
    # D0 = (1 0) from rank 2 to rank 1 and D1 = (0 1)^T back: D0 . D1, from
    # position 1, is 0, and D1 . D0, from position 0, has a 1 at (1, 0)
    D0 = SparseMatrix(1, 2, {(0, 0): 1})
    D1 = SparseMatrix(2, 1, {(1, 0): 1})
    with pytest.raises(ContractViolation,
                       match=r"at position 0, u\^0 coefficient, entry \(1,0\) = 1$"):
        u_module_decompose(_pair(1, 2, 1, [D0], [D1]), QQ)
    # the other way round the nonzero product starts from position 1
    with pytest.raises(ContractViolation, match=r"at position 1, u\^0 coefficient"):
        u_module_decompose(_pair(1, 1, 2, [D1], [D0]), QQ)


def test_each_differential_is_eliminated_once(monkeypatch):
    # D0 sends e0 to u f0 and D1 sends f1 to e1: each is the out-map of one
    # position and the in-map of the other, and is eliminated once, by one
    # leading_ranks call; the piece of size 1 leaves a block at both
    # positions, the identity piece nothing
    calls = []
    original = umodule.leading_ranks

    def counting(rows, field, stride):
        calls.append(len(rows))
        assert all(c < N * 2 for row in rows for c in row)  # N * src_rank columns
        return original(rows, field, stride)

    monkeypatch.setattr(umodule, "leading_ranks", counting)
    N = 3
    zero = SparseMatrix(2, 2, {})
    d0 = [zero, SparseMatrix(2, 2, {(0, 0): 1})]
    d1 = [SparseMatrix(2, 2, {(1, 1): 1}), zero]
    reports = u_module_decompose(_pair(N, 2, 2, d0, d1), QQ)
    assert [(rep.free_rank, rep.torsion_blocks) for rep in reports.values()] == \
        [(0, {1: 1}), (0, {1: 1})]
    assert calls == [2 * N] * 2
    # no chain at one position: both maps are empty and nothing is eliminated
    calls.clear()
    u_module_decompose(_pair(N, 2, 0), QQ)
    assert calls == []


def test_square_zero_enforced_over_k_u_not_only_mod_u_n():
    # D = u at both parities of a rank-1 Z/2-folded complex: D^2 = u^2 is 0
    # mod u^2, and the homology mod u^2 is 0, but leading ranks would give
    # free rank 1 - 1 - 1 = -1; the complex is refused instead
    N = 2
    u = [SparseMatrix(1, 1, {}), SparseMatrix(1, 1, {(0, 0): 1})]
    for field in (QQ, GF(2)):
        with pytest.raises(ContractViolation, match=r"u\^2 coefficient"):
            u_module_decompose(_pair(N, 1, 1, u, u), field)


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
    with pytest.raises(ContractViolation, match=r"u\^1 coefficient, entry \(0,0\) = 1$"):
        u_module_decompose(_pair(2, 2, 2, [A0, A1], [B0, B1]), F)


def test_blocks_from_filtration_dims():
    # dims[j] = dim_k u^j M: one free generator contributes N - j, one
    # torsion block of size 2 contributes max(2 - j, 0)
    N = 4
    dims = [(N - j) + max(2 - j, 0) for j in range(N)]
    rep = blocks_from_filtration_dims(dims, N)
    assert rep.free_rank == 1
    assert rep.torsion_blocks == {2: 1}
    assert rep.torsion_list == [2]


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


def test_expansion_refuses_a_coefficient_of_the_wrong_shape():
    # a 2 x 1 coefficient of a map from rank 1 to rank 1, a nonzero one and
    # a zero one
    with pytest.raises(StructuralError, match="shape mismatch"):
        u_module_decompose(_pair(2, 1, 1, [SparseMatrix(2, 1, {(0, 0): 1})]), QQ)
    with pytest.raises(StructuralError, match="shape mismatch"):
        u_module_decompose(_pair(2, 1, 1, [SparseMatrix(1, 1, {(0, 0): 1}),
                                           SparseMatrix(2, 1, {})]), QQ)
    # a position of rank 0, where nothing is expanded: D0 must be 2 x 0
    with pytest.raises(StructuralError, match="shape mismatch"):
        u_module_decompose(_pair(2, 0, 2, [SparseMatrix(3, 0, {})],
                                 [SparseMatrix(0, 3, {})]), QQ)


def test_truncation_validation():
    with pytest.raises(ValueError):
        UTruncation(0)


def test_truncation_is_an_immutable_value():
    with pytest.raises(AttributeError):
        UTruncation(3).N = 4
    with pytest.raises(AttributeError):
        del UTruncation(3).N
