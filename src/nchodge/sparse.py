"""Exact sparse linear algebra over Q and F_p.

A matrix takes one of two forms.  `SparseMatrix` holds its entries as a
mapping (row, col) -> nonzero value, checked when it is built: the form
that assembly writes and that a product (`mul_into`) reads.  The
elimination consumes a list of row dicts {col: value}, one per row, and
changes them as it goes; `SparseMatrix.row_dicts` gives them, and a
caller that builds rows itself (`umodule`'s k[u] expansion) hands them in
directly.  All arithmetic is exact, and elimination takes one of two
forms, each suited to one shape of question.

* `_row_echelon`, for batch ranks and kernels: `rank`, `rank_of_columns`,
  `leading_ranks` and `kernel_basis` hand it a whole matrix as rows, and
  it picks its pivots across all the rows at once (below), which keeps
  fill-in low on the large boundary and B matrices.
* `Echelon`, for span questions asked in order: vectors are added one at a
  time, and each is reduced against those kept before it.  `add` says
  whether a vector was independent of them; `reduce` gives its remainder,
  which names its class modulo their span, and its coordinates in them.
  It suits a greedy choice in a fixed order (letters, representatives of
  A/[A,A]), where each answer depends on the vectors before, and many
  questions against one small span, each of which costs one pass over the
  kept rows rather than a fresh elimination.  Its pivots follow the order
  of arrival, not Markowitz, so a large batch goes to `_row_echelon`.

The batch core is sparse Gaussian elimination with a Markowitz-style pivot
rule: take the shortest row, then its least-populated column.

* Pivot queue.  Rows wait in a heap keyed by (row slot, length, first
  column, original row order), packed into one integer.  A row that
  elimination changes is pushed again under its new key; entries whose key
  no longer matches their row are stale and are skipped when popped.
  Because the original order breaks every tie, the queue picks exactly the
  pivot sequence of a linear scan for the smallest key, so kernel bases
  are the same vectors run to run, not just the same span.  A rank is the
  one slot's pivot count; `leading_ranks` gives each row block a slot, and
  so reads the ranks of all leading row blocks off one elimination.
* Column index.  Each column maps to the rows that have held it, so a
  pivot touches only the rows containing its column.  The lists are
  append-only (a row that loses the column is skipped when the list is
  read), which costs a word per entry instead of a set slot, and a pivot
  column's list is dropped once its pivot is taken.  Column populations
  are counted beside the lists; rows used as pivots stay in the counts,
  and the pivot columns chosen (hence the kernel bases) depend on that.

A homology rank dim ker(d_out) / im(d_in) needs no kernel basis: its
callers take the two ranks with `rank` and hand them to
`homology_from_ranks`, the one place that formula is written.  A
Z/2-folded complex goes to `umodule` instead, which reads its homology
off the leading ranks.

Arithmetic.  Both forms of elimination reduce at every step: a pivot or a
fill-in entry must be tested against zero in the field as soon as it is
formed.  One sparse row update, `_subtract` (dst -= f * src, each entry
reduced and a zero dropped as it forms), serves back-substitution and both
halves of `Echelon.reduce`, its remainder and its coordinates.  The
elimination loop of `_row_echelon` keeps its own copy of that update,
because it also keeps the column index and the column counts in step with
every entry it adds or clears.  The one matrix product, `mul_into`,
follows the rule of `fields`: sum in plain arithmetic, then reduce once
with `reduced_entries`, as `Echelon.reduce` does to its input.
"""
from __future__ import annotations

import heapq
from itertools import accumulate

from .fields import Field, reduced_entries


class StructuralError(ValueError):
    """Raised on malformed matrix data (index out of bounds, shape mismatch)."""


class SparseMatrix:
    """A rows x cols matrix as its entries, (row, col) -> nonzero value:
    the form that assembly writes and a product reads (see the module
    docstring).  The constructor checks every entry, in bounds and not a
    stored zero, and raises StructuralError otherwise."""

    def __init__(self, rows: int, cols: int, entries: dict):
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise StructuralError(f"entry ({r},{c}) out of bounds for {rows}x{cols}")
            if v == 0:
                raise StructuralError(f"stored zero entry at ({r},{c})")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def nnz(self) -> int:
        return len(self.entries)

    def columns(self) -> list[dict]:
        """All columns as row->value dicts (including empty ones)."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def row_dicts(self) -> list[dict]:
        """All rows as col->value dicts (including empty ones): the form
        that the elimination consumes."""
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def mul_into(self, other: "SparseMatrix", out: dict) -> dict:
        """out += self @ other in plain arithmetic: entries are neither
        reduced mod p nor cleared of zeros; `reduced_entries` does both once
        per entry.  Returns out."""
        if self.cols != other.rows:
            raise StructuralError("shape mismatch in mul")
        if not (self.entries and other.entries):
            return out
        left_cols = self.columns()
        for (r, c), v in other.entries.items():
            for rr, w in left_cols[r].items():
                k = (rr, c)
                out[k] = out.get(k, 0) + w * v
        return out


def _subtract(dst: dict, f, src: dict, field: Field) -> None:
    """dst -= f * src in place, each entry reduced as it is formed and
    dropped once it is zero."""
    sub, mul, is_zero, zero = field.sub, field.mul, field.is_zero, field.zero()
    for c, v in src.items():
        s = sub(dst.get(c, zero), mul(f, v))
        if is_zero(s):
            dst.pop(c, None)
        else:
            dst[c] = s


def _row_echelon(rows: list, field: Field, want_basis: bool, stride: int | None = None):
    """Shared elimination core on a list of row dicts {col: value}, which
    it consumes.

    Row i lies in slot i // stride (one slot without a stride), and the
    slot comes first in the pivot queue's key: every row of a slot is used
    or emptied before a row of a later slot is taken, so the pivots taken
    from slots < j are an elimination of those rows alone.

    Returns (per_slot, None), or with want_basis (per_slot, pivots):
    per_slot counts the pivots taken per slot, which sum to the rank, and
    pivots is the reduced row echelon form as (pivot column, row) pairs
    sorted by pivot column, each row 1 at its own pivot and 0 at every
    other pivot column.
    """
    sub, mul, is_zero, zero = field.sub, field.mul, field.is_zero, field.zero()
    holders: dict[int, list] = {}
    colcount: dict[int, int] = {}
    for i, rd in enumerate(rows):
        for c in rd:
            holders.setdefault(c, []).append(i)
            colcount[c] = colcount.get(c, 0) + 1
    width, height = 1 + max(colcount, default=0), len(rows)
    stride = stride or max(height, 1)
    per_slot = [0] * (height // stride)

    def key(i, rd):
        # (slot, length, first column, row) packed into one int, smaller than
        # a tuple: a length is at most width, and fill-in adds no wider column
        return ((i // stride * (width + 1) + len(rd)) * width + min(rd)) * height + i

    queue = [key(i, rd) for i, rd in enumerate(rows) if rd]
    heapq.heapify(queue)
    pivots = []
    while queue:
        k = heapq.heappop(queue)
        i = k % height
        row = rows[i]
        if not row or key(i, row) != k:
            continue  # stale key: the row was used or changed since
        rows[i] = None
        per_slot[i // stride] += 1
        pc = min(row, key=lambda c: (colcount[c], c))
        del colcount[pc]
        inv = field.inv(row[pc])
        row = {c: mul(inv, v) for c, v in row.items()}
        if want_basis:
            pivots.append((pc, row))
        rest = [(c, v) for c, v in row.items() if c != pc]
        for j in holders.pop(pc):
            rd = rows[j]
            if rd is None or pc not in rd:
                continue  # a used pivot row, or the row has lost pc since
            f = rd.pop(pc)
            for c, v in rest:
                had = c in rd
                s = sub(rd[c] if had else zero, mul(f, v))
                if is_zero(s):
                    if had:
                        del rd[c]
                        colcount[c] -= 1
                else:
                    if not had:
                        holders[c].append(j)
                        colcount[c] += 1
                    rd[c] = s
            if rd:
                heapq.heappush(queue, key(j, rd))
    if not want_basis:
        return per_slot, None
    # Back-substitute to reduced echelon form.  A pivot row holds no earlier
    # pivot column, so clearing rows from the last pivot back to the first
    # reduces each row against rows that are already fully reduced.  The
    # pivot row of qc holds 1 at qc, so subtracting row[qc] times it clears qc.
    owner = {pc: row for pc, row in pivots}
    for pc, row in reversed(pivots):
        for qc in [c for c in row if c != pc and c in owner]:
            _subtract(row, row[qc], owner[qc], field)
    pivots.sort(key=lambda t: t[0])
    return per_slot, pivots


def rank(M: SparseMatrix, field: Field) -> int:
    """Exact rank of M over the field."""
    return sum(_row_echelon(M.row_dicts(), field, want_basis=False)[0])


def leading_ranks(rows: list[dict], field: Field, stride: int) -> list[int]:
    """[rank of the first j * stride rows for j = 1..len(rows) // stride],
    from one elimination of the row dicts, which it consumes; a row count
    that is not a whole number of slots of stride raises StructuralError.

    On block-lower-triangular rows (row slot i // stride, a row of slot s
    holding columns of slots <= s only, for the same column stride) the
    first j * stride rows are the leading block of the first j slots, with
    zeros beside it, so these are the ranks of the leading blocks.
    """
    if len(rows) % stride:
        raise StructuralError(f"{len(rows)} rows are not whole slots of {stride}")
    return list(accumulate(_row_echelon(rows, field, False, stride)[0]))


def kernel_basis(M: SparseMatrix, field: Field) -> list[dict]:
    """Basis of the right null space, as sparse vectors {col_index: value}.

    Returns cols - rank(M) vectors; each free column yields one vector with
    a 1 in that position, its first key, and 0 at every other free column
    (deterministic given the matrix).
    """
    _, pivots = _row_echelon(M.row_dicts(), field, want_basis=True)
    pivot_cols = {pc for pc, _ in pivots}
    one = field.one()
    basis = {f: {f: one} for f in range(M.cols) if f not in pivot_cols}
    for pc, row in pivots:
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = field.neg(v)
    return list(basis.values())


def rank_of_columns(columns: list[dict], field: Field) -> int:
    """Rank of the span of sparse column vectors {row: value}."""
    rows = [dict(c) for c in columns if c]
    return sum(_row_echelon(rows, field, want_basis=False)[0])


def homology_from_ranks(dim: int, rank_out: int, rank_in: int) -> int:
    """dim ker(d_out) / im(d_in) = dim - rank(d_out) - rank(d_in) at a block
    of dimension `dim`.  The formula holds only when d_out . d_in = 0; a
    negative value proves that it does not, and raises StructuralError."""
    h = dim - rank_out - rank_in
    if h < 0:
        raise StructuralError(f"homology dimension {dim} - {rank_out} - {rank_in} "
                              f"< 0: the differentials do not compose to zero")
    return h


class Echelon:
    """An echelon form grown one vector at a time (see the module
    docstring).

    The vectors that `add` keeps are numbered 0, 1, ... in the order it
    kept them.  Each row is (pivot, row, coords): row has a 1 at its pivot
    and a 0 at every earlier pivot, and equals the sum of coords[j] times
    kept vector j.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: list = []

    def reduce(self, vec: dict) -> tuple[dict, dict]:
        """(rest, coords): vec, reduced once by `reduced_entries`, less the
        combination of the kept vectors with coefficients coords (zeros
        left out).  Rows are cleared in the order they were kept, and none
        refills an earlier pivot, so rest has no entry at any pivot: it is
        linear in vec, empty exactly when vec lies in the span, and names
        the class of vec modulo the span."""
        F = self.field
        rest, coords = reduced_entries(vec, F), {}
        for pivot, row, row_coords in self.rows:
            f = rest.get(pivot)
            if f is not None:
                _subtract(rest, f, row, F)
                _subtract(coords, F.neg(f), row_coords, F)
        return rest, coords

    def add(self, vec: dict) -> bool:
        """Keep vec, as the next kept vector, when it is independent of the
        vectors kept before; return whether it was."""
        rest, coords = self.reduce(vec)
        if not rest:
            return False
        F = self.field
        pivot = min(rest)
        inv = F.inv(rest[pivot])
        row_coords = {j: F.neg(F.mul(inv, v)) for j, v in coords.items()}
        row_coords[len(self.rows)] = inv
        self.rows.append((pivot, {c: F.mul(inv, v) for c, v in rest.items()}, row_coords))
        return True
