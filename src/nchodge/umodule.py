"""Homology of Z/2-folded complexes of free k[u]-modules, modulo u^N.

Each differential D is a list of matrices over k, the coefficients of u^0,
u^1, ...  D must square to zero over k[u] itself, not only modulo u^N;
`u_module_decompose` checks that first (else ContractViolation).

Over the PID k[u] such a complex is a direct sum of free pieces k[u] and
pieces k[u] --u^a--> k[u].  Modulo u^N a piece with a < N leaves k[u]/u^a
at both of its positions, and one with a >= N leaves k[u]/u^N at both, so
homology is (k[u]/u^N)^f + sum_i k[u]/u^{a_i}.  A piece of size a adds
max(j - a, 0) to rho_j = rank_k(D mod u^j), so L_j = rho_j - rho_{j-1}
counts the pieces of size < j, and at a position of rank r

    free = r - L_N(out) - L_N(in),  blocks[a] = dL_a(out) + dL_a(in),

with dL_a = L_{a+1} - L_a.  All rho_j of D come from one elimination of
its k-linear expansion (u shifting coefficient slots), in which a row of
slot s holds columns of slots <= s only: `sparse.leading_ranks`.  Without
D^2 = 0 over k[u] there are no pieces: D = u on a rank-1 Z/2-folded
complex squares to zero mod u^2, has homology 0, and gives free rank -1.

The complex is a Z/2-folded pair (`UComplex`): positions 0 and 1, D0 from
0 to 1 and D1 from 1 to 0.  `cyclic` builds the (b + uB)-complex of each
weight, and `poisson` its folded (d + hbar L_alpha)-complex at N = 1, a
complex over k, whose homology is then the free rank.  Each differential
is the out-map of one position and the in-map of the other, so it is
eliminated once and read at both.  Its coefficient matrices
(`SparseMatrix`) are checked for their shapes and multiplied for D^2 = 0,
then expanded straight into the row dicts that the elimination consumes.
"""

from __future__ import annotations

from .fields import Field, Immutable, SizeError, reduced_entries
# kernel_basis is unused here; perfbench's tracer test pins it in this namespace
from .sparse import SparseMatrix, StructuralError, kernel_basis, leading_ranks  # noqa: F401


class UTruncation(Immutable):
    """The truncation order N of k[u]/u^N.  Immutable."""

    def __init__(self, N: int):
        if N < 1:
            raise SizeError("truncation order must be >= 1")
        object.__setattr__(self, "N", N)


class ContractViolation(ValueError):
    """A differential fails to square to zero over k[u]."""


class UModuleReport:
    """Homology at one position: free rank over k[u]/u^N plus u-torsion blocks.

    torsion_blocks maps block size a (1 <= a < N) to multiplicity.
    saturated_at_N is True when every torsion block has size <= N-2, i.e.
    there is headroom below the truncation and the profile can be trusted.
    """

    def __init__(self, free_rank: int, torsion_blocks: dict, N: int):
        self.free_rank = free_rank
        self.torsion_blocks = torsion_blocks
        self.N = N

    @property
    def saturated_at_N(self) -> bool:
        return all(a <= self.N - 2 for a in self.torsion_blocks)

    @property
    def torsion_list(self) -> list[int]:
        out = []
        for a in sorted(self.torsion_blocks):
            out.extend([a] * self.torsion_blocks[a])
        return out

    def truncated(self, M: int) -> "UModuleReport":
        """The profile modulo u^M, M <= N, of the same k[u]-complex: blocks
        of size >= M become free rank."""
        blocks = {a: m for a, m in self.torsion_blocks.items() if a < M}
        free = self.free_rank + sum(m for a, m in self.torsion_blocks.items() if a >= M)
        return UModuleReport(free, blocks, M)

    def merge(self, other: "UModuleReport") -> "UModuleReport":
        blocks = dict(self.torsion_blocks)
        for a, m in other.torsion_blocks.items():
            blocks[a] = blocks.get(a, 0) + m
        return UModuleReport(self.free_rank + other.free_rank, blocks, self.N)

    def to_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion_blocks": self.torsion_list,
            "saturated_at_N": self.saturated_at_N,
            "truncation": self.N,
        }


def blocks_from_filtration_dims(dims: list[int], N: int) -> UModuleReport:
    """Recover block multiplicities from dims[j] = dim_k u^j * M, j = 0..N-1.

    A block k[u]/u^a contributes max(a - j, 0) to dims[j]; the multiplicities
    are the second differences of the dims sequence.  The dims of a
    k[u]/u^N-module have none negative, so the ValueError on a negative one
    is raised only on a fault: dims that belong to no module.
    """
    d = list(dims) + [0, 0]
    free = d[N - 1]
    blocks = {}
    for a in range(1, N):
        m = d[a - 1] - 2 * d[a] + d[a + 1]
        if m < 0:
            raise ValueError(f"inconsistent filtration dims {dims}")
        if m:
            blocks[a] = m
    return UModuleReport(free, blocks, N)


class UComplex:
    """A Z/2-folded complex of free k[u]-modules, read modulo u^N.

    ranks = {0: r0, 1: r1} are the free ranks of the two positions, and
    diffs = {0: D0, 1: D1} the maps D0 from 0 to 1 (r1 x r0) and D1 from 1
    to 0 (r0 x r1), each a list of sparse matrices over k, the coefficients
    of u^0, u^1, ...
    """

    def __init__(self, truncation: UTruncation, ranks: dict, diffs: dict):
        self.truncation = truncation
        self.ranks = ranks
        self.diffs = diffs


def _k_expand(diff: list[SparseMatrix], N: int, src_rank: int, dst_rank: int) -> list[dict]:
    """Expand an R-linear map to the N * dst_rank rows of a k-matrix on
    coefficient slots, as row dicts for `leading_ranks`.

    Basis element (j, v) = u^j e_v is column j*src_rank + v; u^t coefficient
    matrices shift the slot index by t, truncating at N (the coefficients of
    u^t, t >= N, drop out).  Every coefficient is dst_rank x src_rank:
    `u_module_decompose` checks that before it expands anything.
    """
    rows = [{} for _ in range(N * dst_rank)]
    for t, mat in enumerate(diff):
        for j in range(N - t):
            row0, col0 = (j + t) * dst_rank, j * src_rank
            for (r, c), v in mat.entries.items():
                rows[row0 + r][col0 + c] = v
    return rows


def _check_square_zero(c: UComplex, field: Field):
    """D0 . D1 = 0 and D1 . D0 = 0 over k[u]: every coefficient of each
    product, not only those below u^N.  A product that is not zero is named
    by the position it starts from."""
    for q in (0, 1):
        d1, d2 = c.diffs[q], c.diffs[1 - q]
        for t in range(len(d1) + len(d2) - 1):
            acc: dict = {}
            for a in range(max(0, t + 1 - len(d2)), min(t + 1, len(d1))):
                d1[a].mul_into(d2[t - a], acc)
            acc = reduced_entries(acc, field)
            if acc:
                (r, cidx), v = min(acc.items())
                raise ContractViolation(f"d^2 != 0 at position {1 - q}, u^{t} coefficient, "
                                        f"entry ({r},{cidx}) = {v}")


def u_module_decompose(c: UComplex, field: Field) -> dict:
    """Decompose the homology modulo u^N at positions 0 and 1, from the
    leading ranks of D0 and D1, one elimination each.

    Returns {0: UModuleReport, 1: UModuleReport}.  Every coefficient of
    D_q, a zero one and one of a rank-0 position too, is checked first to be
    r[1 - q] x r[q] (else StructuralError), and then the differentials to
    square to zero over k[u] (see the module docstring).
    """
    N = c.truncation.N
    r = c.ranks
    for q in (0, 1):
        if any((mat.rows, mat.cols) != (r[1 - q], r[q]) for mat in c.diffs[q]):
            raise StructuralError("differential coefficient shape mismatch")
    _check_square_zero(c, field)
    pieces = [[0] * (N + 1)] * 2  # per D_q, [L_0..L_N], L_j the pieces of size < j
    for q in (0, 1):
        if r[q] and r[1 - q]:
            rho = leading_ranks(_k_expand(c.diffs[q], N, r[q], r[1 - q]), field, r[1 - q])
            pieces[q] = [0] + [b - a for a, b in zip([0] + rho, rho)]
    reports = {}
    for q in (0, 1):
        out, in_ = pieces[q], pieces[1 - q]
        blocks = {}
        for a in range(1, N):
            if m := out[a + 1] - out[a] + in_[a + 1] - in_[a]:
                blocks[a] = m
        reports[q] = UModuleReport(r[q] - out[N] - in_[N], blocks, N)
    return reports
