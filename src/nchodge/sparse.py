"""Exact sparse linear algebra over Q and F_p.

Matrices are stored as mappings (row, col) -> nonzero entry.  All
arithmetic is exact, and every elimination runs through one core,
`_row_echelon`, reached from `rank`, `rank_of_columns` or `kernel_basis`.

The core is sparse Gaussian elimination with a Markowitz-style pivot rule:
take the shortest row, then its least-populated column.

* Pivot queue.  Rows wait in a heap keyed by (length, first column,
  original row order), packed into one integer.  A row that elimination
  changes is pushed again under its new key; entries whose key no longer
  matches their row are stale and are skipped when popped.  Because the
  original order breaks every tie, the queue picks exactly the pivot
  sequence of a linear scan for the smallest key, so kernel bases are the
  same vectors run to run, not just the same span.
* Column index.  Each column maps to the rows that have held it, so a
  pivot touches only the rows containing its column.  The lists are
  append-only (a row that loses the column is skipped when the list is
  read), which costs a word per entry instead of a set slot, and a pivot
  column's list is dropped once its pivot is taken.  Column populations
  are counted beside the lists; rows used as pivots stay in the counts,
  and the pivot columns chosen (hence the kernel bases) depend on that.

On top of the core: `homology_rank` gives dim ker(d_out) / im(d_in) as
cols - rank(d_out) - rank(d_in), with no kernel basis, through
`homology_from_ranks`, the one place that formula is written; `span_quotient`
eliminates a set of columns once and then reduces any number of vectors
modulo their span; `solve_in_span` expresses a vector in the span of
columns.

Arithmetic.  The elimination core (`_row_echelon`, with `kernel_basis` and
`solve_in_span` on top of it) reduces at every step: a pivot or a fill-in
entry must be tested against zero in the field as soon as it is formed.
Every other product here (`mul`, `mul_into`, `apply`, the `reduce` of
`span_quotient`) follows the rule of `fields`: sum in plain arithmetic,
then reduce once with `reduced_entries`.
"""

from __future__ import annotations

import heapq

from .fields import Field, reduced_entries


class StructuralError(ValueError):
    """Raised on malformed matrix data (index out of bounds, shape mismatch)."""


class SparseMatrix:
    def __init__(self, rows: int, cols: int, entries: dict):
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise StructuralError(f"entry ({r},{c}) out of bounds for {rows}x{cols}")
            if v == 0:
                raise StructuralError(f"stored zero entry at ({r},{c})")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, n: int, field: Field) -> "SparseMatrix":
        one = field.one()
        return cls(n, n, {(i, i): one for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols, {})

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def columns(self) -> list[dict]:
        """All columns as row->value dicts (including empty ones)."""
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def mul(self, other: "SparseMatrix", field: Field) -> "SparseMatrix":
        """Matrix product self @ other."""
        return SparseMatrix(self.rows, other.cols,
                            reduced_entries(self.mul_into(other, {}), field))

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

    def apply(self, vec: dict, field: Field) -> dict:
        """Apply to a sparse column vector {index: value}."""
        if any(not 0 <= c < self.cols for c in vec):
            raise StructuralError("vector index out of bounds")
        if not vec:
            return {}
        cols = self.columns()
        out: dict = {}
        get = out.get
        for c, v in vec.items():
            for r, w in cols[c].items():
                out[r] = get(r, 0) + w * v
        return reduced_entries(out, field)


def _row_echelon(data, field: Field, want_basis: bool):
    """Shared elimination core on a SparseMatrix or a list of row dicts
    (which it consumes).

    Returns (rank, None), or with want_basis (rank, pivots): the reduced
    row echelon form as (pivot column, row) pairs sorted by pivot column,
    each row 1 at its own pivot and 0 at every other pivot column.
    """
    if isinstance(data, SparseMatrix):
        rows = [dict() for _ in range(data.rows)]
        for (r, c), v in data.entries.items():
            rows[r][c] = v
    else:
        rows = data
    sub, mul, is_zero, zero = field.sub, field.mul, field.is_zero, field.zero()
    holders: dict[int, list] = {}
    colcount: dict[int, int] = {}
    for i, rd in enumerate(rows):
        for c in rd:
            holders.setdefault(c, []).append(i)
            colcount[c] = colcount.get(c, 0) + 1
    width, height = 1 + max(colcount, default=0), len(rows)

    def key(i, rd):
        # (length, first column, row) packed into one int: fill-in never
        # adds a column wider than width, and an int is smaller than a tuple
        return (len(rd) * width + min(rd)) * height + i

    queue = [key(i, rd) for i, rd in enumerate(rows) if rd]
    heapq.heapify(queue)
    pivots = []
    count = 0
    while queue:
        k = heapq.heappop(queue)
        i = k % height
        row = rows[i]
        if not row or key(i, row) != k:
            continue  # stale key: the row was used or changed since
        rows[i] = None
        count += 1
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
        return count, None
    # Back-substitute to reduced echelon form.  A pivot row holds no earlier
    # pivot column, so clearing rows from the last pivot back to the first
    # reduces each row against rows that are already fully reduced.
    owner = {pc: row for pc, row in pivots}
    for pc, row in reversed(pivots):
        for qc in [c for c in row if c != pc and c in owner]:
            f = row.pop(qc)
            for c, v in owner[qc].items():
                if c == qc:
                    continue
                s = sub(row.get(c, zero), mul(f, v))
                if is_zero(s):
                    row.pop(c, None)
                else:
                    row[c] = s
    pivots.sort(key=lambda t: t[0])
    return count, pivots


def rank(M: SparseMatrix, field: Field) -> int:
    """Exact rank of M over the field."""
    r, _ = _row_echelon(M, field, want_basis=False)
    return r


def kernel_basis(M: SparseMatrix, field: Field) -> list[dict]:
    """Basis of the right null space, as sparse vectors {col_index: value}.

    Returns cols - rank(M) vectors; each free column yields one vector with
    a 1 in that position, its first key, and 0 at every other free column
    (deterministic given the matrix).
    """
    _, pivots = _row_echelon(M, field, want_basis=True)
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
    r, _ = _row_echelon(rows, field, want_basis=False)
    return r


def homology_from_ranks(dim: int, rank_out: int, rank_in: int) -> int:
    """dim ker(d_out) / im(d_in) = dim - rank(d_out) - rank(d_in) at a block
    of dimension `dim`.  The formula holds only when d_out . d_in = 0; a
    negative value proves that it does not, and raises StructuralError."""
    h = dim - rank_out - rank_in
    if h < 0:
        raise StructuralError(f"homology dimension {dim} - {rank_out} - {rank_in} "
                              f"< 0: the differentials do not compose to zero")
    return h


def homology_rank(d_out: SparseMatrix, d_in: SparseMatrix | None, field: Field) -> int:
    """dim ker(d_out) / im(d_in); d_in None stands for the zero map."""
    r_in = rank(d_in, field) if d_in is not None else 0
    return homology_from_ranks(d_out.cols, rank(d_out, field), r_in)


def span_quotient(columns: list[dict], dim: int, field: Field):
    """(rank of span(columns), reduce), where reduce(v) is the class of v in
    k^dim / span(columns) as a sparse vector: reduce(v) == reduce(w) exactly
    when v - w lies in the span.

    One `kernel_basis` call eliminates the columns once: the null space of
    the matrix whose rows are the columns is the annihilator of their span,
    and pairing v with that basis reduces v against the reduced echelon
    form of the span.
    """
    rows = SparseMatrix(len(columns), dim, {(i, r): v for i, col in enumerate(columns)
                                            for r, v in col.items()})
    annihilator = kernel_basis(rows, field)
    pairing: dict[int, list] = {}
    for k, y in enumerate(annihilator):
        for r, v in y.items():
            pairing.setdefault(r, []).append((k, v))

    def reduce(vec: dict) -> dict:
        out: dict = {}
        get = out.get
        for r, a in vec.items():
            for k, v in pairing.get(r, ()):
                out[k] = get(k, 0) + a * v
        return reduced_entries(out, field)

    return dim - len(annihilator), reduce


def solve_in_span(columns: list[dict], target: dict, field: Field) -> dict | None:
    """Coefficients x with sum_i x[i] * columns[i] = target, or None when
    target is not in the span.  Zero coefficients are left out; when the
    columns are dependent, the solution is one of many."""
    m = len(columns)
    aug = columns + [{r: v for r, v in target.items() if not field.is_zero(v)}]
    dim = 1 + max((r for col in aug for r in col), default=-1)
    for vec in kernel_basis(matrix_from_columns(aug, dim), field):
        t = vec.get(m)
        if t is not None:
            scale = field.neg(field.inv(t))
            return {i: field.mul(scale, v) for i, v in vec.items() if i != m}
    return None


def matrix_from_columns(columns: list[dict], rows: int) -> SparseMatrix:
    entries = {}
    for c, col in enumerate(columns):
        for r, v in col.items():
            if v != 0:
                entries[(r, c)] = v
    return SparseMatrix(rows, len(columns), entries)
