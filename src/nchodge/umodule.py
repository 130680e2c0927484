"""Module decomposition of finite complexes over the truncated ring k[u]/u^N.

A complex of free k[u]/u^N-modules is given per homological position, with
each differential as a tuple of N matrices (the coefficients of u^0..u^{N-1}).
Homology at each position is a finitely generated module over the local ring
and therefore a direct sum (k[u]/u^N)^f + sum_i k[u]/u^{a_i}.  The block
sizes are recovered from the k-dimensions of u^j * H, computed by exact
elimination on the k-linear expansion (u acting as the shift on coefficient
slots).

Only the positions a caller names are decomposed: the folded complexes of
`cyclic` carry padding positions whose homology nobody reads.  At each
position the quotient by the boundaries B is taken in cycle coordinates.
Every `kernel_basis` vector is 1 at its own free column and 0 at every
other free column, so reading a cycle at the free columns is an isomorphism
Z -> k^{dim Z}.  B lies in Z (d^2 = 0 is checked first) and so does u^j Z,
so B and the shifted cycles are restricted to the free columns and
eliminated in k^{dim Z} rather than in the whole expansion k^{N r}.
"""

from __future__ import annotations

from .fields import Field, SizeError, reduced_entries
from .sparse import SparseMatrix, StructuralError, kernel_basis, rank_of_columns, span_quotient


class UTruncation:
    """The truncation order N of k[u]/u^N.  Immutable, and equal and hashed
    by N."""

    def __init__(self, N: int):
        if N < 1:
            raise SizeError("truncation order must be >= 1")
        object.__setattr__(self, "N", N)

    def __setattr__(self, name, value):
        raise AttributeError("a UTruncation is immutable")

    def __delattr__(self, name):
        raise AttributeError("a UTruncation is immutable")

    def __eq__(self, other):
        return self.N == other.N if other.__class__ is UTruncation else NotImplemented

    def __hash__(self):
        return hash(self.N)


class ContractViolation(ValueError):
    """A differential fails to square to zero over k[u]/u^N."""


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

    def total_k_dimension(self) -> int:
        return self.free_rank * self.N + sum(a * m for a, m in self.torsion_blocks.items())

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
    are the second differences of the dims sequence.
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
    """Finite complex of free k[u]/u^N-modules.

    ranks[pos] is the free rank at homological position pos; diffs[pos] is the
    differential out of position pos (into pos-1) as a list of N sparse
    matrices over k, the coefficients of u^0..u^{N-1}.
    """

    def __init__(self, truncation: UTruncation, ranks: dict, diffs: dict):
        self.truncation = truncation
        self.ranks = ranks
        self.diffs = diffs

    def positions(self) -> list[int]:
        return sorted(self.ranks)

    def rank_at(self, pos: int) -> int:
        return self.ranks.get(pos, 0)

    def diff_at(self, pos: int) -> list[SparseMatrix] | None:
        return self.diffs.get(pos)


def _k_expand(diff: list[SparseMatrix], N: int, src_rank: int, dst_rank: int) -> SparseMatrix:
    """Expand an R-linear map to a k-matrix on coefficient slots.

    Basis element (j, v) = u^j e_v is column j*src_rank + v; u^t coefficient
    matrices shift the slot index by t, truncating at N.
    """
    entries = {}
    for t, mat in enumerate(diff):
        if mat is None or mat.is_zero():
            continue
        if (mat.rows, mat.cols) != (dst_rank, src_rank):
            raise StructuralError("differential coefficient shape mismatch")
        for (r, c), v in mat.entries.items():
            for j in range(N - t):
                entries[((j + t) * dst_rank + r, j * src_rank + c)] = v
    return SparseMatrix(N * dst_rank, N * src_rank, entries)


def _check_square_zero(c: UComplex, field: Field):
    N = c.truncation.N
    for pos in c.positions():
        d1 = c.diff_at(pos)
        d2 = c.diff_at(pos + 1)
        if d1 is None or d2 is None:
            continue
        for t in range(N):
            acc: dict = {}
            for a in range(max(0, t + 1 - len(d2)), min(t + 1, len(d1))):
                d1[a].mul_into(d2[t - a], acc)
            acc = reduced_entries(acc, field)
            if acc:
                (r, cidx), v = min(acc.items())
                raise ContractViolation(
                    f"d^2 != 0 at position {pos + 1}, u^{t} coefficient, "
                    f"entry ({r},{cidx}) = {v}"
                )


def _in_cycle_coordinates(vec: dict, coord: dict, shift: int = 0) -> dict:
    """A vector of Z, moved by shift slots (u^j moves index i to i + j * rank),
    in cycle coordinates: coord maps each free column to its cycle's index.
    An index moved past u^{N-1} is no free column, so truncation at N is
    automatic."""
    return {coord[k]: v for i, v in vec.items() if (k := i + shift) in coord}


def u_module_decompose(c: UComplex, field: Field, positions=None) -> dict:
    """Decompose the homology of the complex at the given positions (default:
    every position).

    Returns {position: UModuleReport}.  The differentials are checked to
    square to zero over k[u]/u^N first.
    """
    N = c.truncation.N
    _check_square_zero(c, field)
    reports = {}
    for pos in c.positions() if positions is None else positions:
        r = c.rank_at(pos)
        if r == 0:
            reports[pos] = UModuleReport(0, {}, N)
            continue
        d_out = c.diff_at(pos)
        if d_out is not None:
            dst = d_out[0].rows if d_out else 0
            cycles = kernel_basis(_k_expand(d_out, N, r, dst), field)
        else:
            cycles = [{i: field.one()} for i in range(N * r)]
        # each cycle's first key is its free column
        coord = {next(iter(z)): i for i, z in enumerate(cycles)}
        d_in = c.diff_at(pos + 1)
        boundary_cols = [] if d_in is None else [
            _in_cycle_coordinates(col, coord)
            for col in _k_expand(d_in, N, c.rank_at(pos + 1), r).columns()]
        # dim u^j H = dim (u^j Z + B) / B; B lies in Z, so dims[0] needs no
        # elimination, and the others reduce u^j Z modulo B.  u^j H = 0
        # forces u^{j+1} H = 0.
        b_rank, reduce = span_quotient(boundary_cols, len(cycles), field)
        dims = [len(cycles) - b_rank]
        for j in range(1, N):
            if not dims[-1]:
                dims.append(0)
                continue
            dims.append(rank_of_columns(
                [reduce(_in_cycle_coordinates(z, coord, j * r)) for z in cycles], field))
        reports[pos] = blocks_from_filtration_dims(dims, N)
    return reports


def two_term_u_complex(N: int, field: Field) -> UComplex:
    """The complex k[u]/u^N --(mult by u)--> k[u]/u^N at positions 1, 0."""
    one = field.one()
    diff = [SparseMatrix.zero(1, 1) for _ in range(N)]
    if N > 1:
        diff[1] = SparseMatrix(1, 1, {(0, 0): one})
    return UComplex(UTruncation(N), {0: 1, 1: 1}, {1: diff})
