"""Reduced Hochschild chains: bases, the boundary, Connes' B, and HH ranks.

Chains in length n are words (i0; i1..in) spanning A (x) (A/k.1)^{(x)n},
with the tail indices running over the non-unit basis elements (basis
element 0 is the unit, and the span of the rest is the chosen complement
of k.1).  The boundary is the alternating sum of slot multiplications with
the cyclic wrap term; B sums signed cyclic rotations prefixed by the unit.

`ChainComplex` alone numbers chain words, in blocks keyed by (length,
weight, word parity).  The cyclic complexes and the p = 2 lift test lay
blocks side by side (`ChainComplex.layout`) and write each block's boundary
or B images at its offset (`ChainComplex.place`).

Sign conventions (pinned by the exact identities d^2 = B^2 = dB + Bd = 0,
verified in the test suite on commutative, non-commutative and super
samples, the latter with one and with several odd basis elements): the
i-th inner face carries (-1)^i; the wrap face carries (-1)^n times the
Koszul sign for moving a_n past a_0..a_{n-1}; the i-th cyclic rotation in
B carries (-1)^{n i} times the Koszul sign for moving a_i..a_n past
a_0..a_{i-1}.  Koszul signs use the plain parities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebra import AlgebraSpec, AlgebraError
from .fields import SizeError, linear_combination, reduced_entries
from .sparse import SparseMatrix, homology_from_ranks, rank, rank_of_columns


@dataclass
class DegreeWindow:
    """Truncation of the unbounded chain complex: lengths n <= n_max and an
    optional internal-weight range."""

    n_max: int
    w_min: int | None = None
    w_max: int | None = None

    def __post_init__(self):
        if self.n_max < 0:
            raise SizeError("n_max must be >= 0")
        if self.w_min is not None and self.w_max is not None and self.w_min > self.w_max:
            raise SizeError(f"weight window w_min={self.w_min} > w_max={self.w_max} is empty")

    def refuse_weight_bounds(self, why: str):
        """Raise SizeError if a weight bound is set on a computation that
        does not split by weight, where it would be silently ignored."""
        bounds = [f"{name}={v}" for name, v in (("w_min", self.w_min), ("w_max", self.w_max))
                  if v is not None]
        if bounds:
            raise SizeError(f"weight bound {', '.join(bounds)} does not apply: {why}")


def word_parity(A: AlgebraSpec, word: tuple) -> int:
    if A.parity is None:
        return 0
    return sum(A.parity[i] for i in word) % 2


def chain_basis(A: AlgebraSpec, n: int, weight: int | None = None) -> list[tuple]:
    """Ordered basis of A (x) (A/1)^{(x)n}, optionally filtered by total weight.

    Words are tuples (i0, i1, ..., in); i0 ranges over the full basis and the
    tail over non-unit indices; lexicographic order.
    """
    if weight is not None and A.weight is None:
        raise AlgebraError("weight filter requested on an ungraded algebra")
    d = A.dim
    out: list[tuple] = []
    # a prefix heavier than the weight stays so only if no weight is negative
    prune = weight is not None and min(A.weight) >= 0

    def rec(prefix: list, remaining: int, wsum: int):
        if prune and wsum > weight:
            return
        if remaining == 0:
            if weight is None or wsum == weight:
                out.append(tuple(prefix))
            return
        for i in range(1, d):
            prefix.append(i)
            rec(prefix, remaining - 1,
                wsum + (A.weight[i] if A.weight is not None else 0))
            prefix.pop()

    for i0 in range(d):
        rec([i0], n, A.weight[i0] if A.weight is not None else 0)
    return out


class ChainComplex:
    """Reduced Hochschild chain data for one algebra, and the one place
    where chain words are numbered.

    A block is keyed by (length n, weight, word parity), None meaning
    unfiltered; the boundary and B keep weight and word parity.  Bases,
    word indexes and boundary ranks are memoized per block, so each boundary
    block is eliminated once; matrices are built on demand and not kept.
    """

    def __init__(self, A: AlgebraSpec):
        self.A = A
        self._bases: dict = {}
        self._indexes: dict = {}
        self._ranks: dict = {}

    def _key(self, n: int, weight: int | None, parity: int | None) -> tuple:
        # without odd basis elements every word is even: parity 0 is no filter
        if parity == 0 and not self.A.is_super:
            parity = None
        return n, weight, parity

    def basis(self, n: int, weight: int | None = None, parity: int | None = None) -> list:
        key = self._key(n, weight, parity)
        if key not in self._bases:
            if key[2] is None:
                self._bases[key] = chain_basis(self.A, n, weight)
            else:
                self._bases[key] = [w for w in self.basis(n, weight)
                                    if word_parity(self.A, w) == parity]
        return self._bases[key]

    def index(self, n: int, weight: int | None = None, parity: int | None = None) -> dict:
        """Position of each word of the block in `basis`."""
        key = self._key(n, weight, parity)
        if key not in self._indexes:
            self._indexes[key] = {w: i for i, w in enumerate(self.basis(*key))}
        return self._indexes[key]

    def layout(self, blocks) -> tuple:
        """({n: offset}, dim) of blocks (n, weight, parity) laid side by side
        in turn; their lengths n are distinct."""
        offsets, dim = {}, 0
        for n, weight, parity in blocks:
            offsets[n] = dim
            dim += len(self.basis(n, weight, parity))
        return offsets, dim

    def place(self, image: str, n: int, target: int, weight: int | None,
              parity: int | None, entries: dict, row0: int = 0, col0: int = 0):
        """Write the images of block (n, weight, parity) under `image`
        ("boundary" or "connes") into entries as {(row, col): value}: the
        block's words are the columns from col0 on, and the words of block
        (target, weight, parity), target = n - 1 or n + 1, the rows from row0."""
        word_image = {"boundary": self.boundary_word, "connes": self.connes_word}[image]
        dst = self.index(target, weight, parity)
        if row0:
            # shifted once per block, so that the entries of a row share one int
            dst = {w: i + row0 for w, i in dst.items()}
        for c, word in enumerate(self.basis(n, weight, parity), col0):
            for t, v in word_image(word).items():
                entries[(dst[t], c)] = v

    # -- boundary -----------------------------------------------------------

    def add_boundary(self, word: tuple, c, acc: dict):
        """Add c times the boundary of a basis word into acc ({word:
        coefficient}), with plain + and *.

        The sums are left raw: entries may be zero and, over F_p, unreduced
        ints; `fields.reduced_entries` drops the zeros and reduces once, when
        the caller has added every image.  c is an int or a Fraction.
        """
        A = self.A
        n = len(word) - 1
        if n == 0:
            return
        get = acc.get
        products = A.structure.get  # (i, j) -> {k: c}, as A.mul_basis reads it
        for i in range(n):
            prod = products(word[i:i + 2])
            if not prod:
                continue
            ci = -c if i % 2 else c
            head, tail = word[:i], word[i + 2:]
            skip_unit = i > 0
            for k, v in prod.items():
                if skip_unit and k == 0:
                    continue  # tail product landing on the unit dies in A/k.1
                target = head + (k,) + tail
                acc[target] = get(target, 0) + ci * v
        # wrap face: a_n a_0 (x) a_1 ... a_{n-1}
        negate = n % 2
        if A.parity is not None and A.parity[word[n]] % 2:
            others = sum(A.parity[j] for j in word[:n]) % 2
            if others:
                negate = 1 - negate
        ci = -c if negate else c
        tail = word[1:n]
        for k, v in products((word[n], word[0]), {}).items():
            target = (k,) + tail
            acc[target] = get(target, 0) + ci * v

    def add_connes(self, word: tuple, c, acc: dict):
        """Add c times B of a basis word into acc, raw as in `add_boundary`."""
        A = self.A
        if word[0] == 0:
            return  # unit head: every rotation puts the unit in a tail slot
        get = acc.get
        n = len(word) - 1
        total = word_parity(A, word)
        front = 0  # parity of a_0 .. a_{i-1}
        for i in range(n + 1):
            # rotation: (a_i, ..., a_n, a_0, ..., a_{i-1}) prefixed by 1
            negate = (n * i + front * (total ^ front)) % 2
            target = (0,) + word[i:] + word[:i]
            acc[target] = get(target, 0) + (-c if negate else c)
            if A.parity is not None:
                front ^= A.parity[word[i]] % 2

    def boundary_word(self, word: tuple) -> dict:
        """Image of a basis word under the boundary, as {word: coefficient}."""
        acc: dict = {}
        self.add_boundary(word, 1, acc)
        return reduced_entries(acc, self.A.field)

    def boundary(self, n: int, weight: int | None = None,
                 parity: int | None = None) -> SparseMatrix:
        """Matrix of the boundary block(n) -> block(n-1)."""
        cols = len(self.basis(n, weight, parity))
        if n == 0:
            return SparseMatrix.zero(0, cols)
        entries: dict = {}
        self.place("boundary", n, n - 1, weight, parity, entries)
        return SparseMatrix(len(self.basis(n - 1, weight, parity)), cols, entries)

    # -- Connes' B ----------------------------------------------------------

    def connes_word(self, word: tuple) -> dict:
        """Image of a basis word under B, as {word: coefficient}."""
        acc: dict = {}
        self.add_connes(word, 1, acc)
        return reduced_entries(acc, self.A.field)

    def connes(self, n: int, weight: int | None = None,
               parity: int | None = None) -> SparseMatrix:
        """Matrix of B: block(n) -> block(n+1)."""
        entries: dict = {}
        self.place("connes", n, n + 1, weight, parity, entries)
        return SparseMatrix(len(self.basis(n + 1, weight, parity)),
                            len(self.basis(n, weight, parity)), entries)

    # -- homology -----------------------------------------------------------

    def boundary_rank(self, n: int, weight: int | None = None,
                      parity: int | None = None) -> int:
        """Rank of the boundary block(n) -> block(n-1)."""
        key = self._key(n, weight, parity)
        if key not in self._ranks:
            self._ranks[key] = rank(self.boundary(*key), self.A.field)
        return self._ranks[key]

    def hh_rank(self, n: int, weight: int | None = None, parity: int | None = None) -> int:
        """Rank of ker(boundary_n) / im(boundary_{n+1}) at one block:
        dim - rank(boundary_n) - rank(boundary_{n+1})."""
        return homology_from_ranks(len(self.basis(n, weight, parity)),
                                   self.boundary_rank(n, weight, parity),
                                   self.boundary_rank(n + 1, weight, parity))


def guard_safe_weights(A: AlgebraSpec, weights) -> dict:
    """Split weights into guard-safe and flagged for truncated algebras: the
    top two weights of a weight-truncated algebra feel the truncation."""
    return {w: A.max_weight is None or w <= A.max_weight - 2 for w in weights}


def hh_ranks(A: AlgebraSpec, window: DegreeWindow) -> dict:
    """Hochschild homology ranks per n (and per weight for graded algebras).

    Returns {"per_n": {n: rank}} for ungraded algebras and
    {"per_n_weight": {(n, w): rank}, "per_n": {n: total}} for graded ones,
    plus guard-band flags for weight-truncated algebras.  Computing degree n
    needs the block at n+1, so ranks are reported for n <= n_max - 1.
    """
    cx = ChainComplex(A)
    n_top = window.n_max - 1
    if n_top < 0:
        raise SizeError("window too small: n_max must be >= 1")
    result: dict = {"n_max": window.n_max, "algebra": A.name}
    if A.weight is None:
        window.refuse_weight_bounds(f"{A.name} has no weights")
        per_n = {n: cx.hh_rank(n) for n in range(n_top + 1)}
        result["per_n"] = per_n
        return result
    w_lo = window.w_min
    if w_lo is None:
        w_lo = min(0, min(A.weight) * (window.n_max + 1))
    w_hi = window.w_max
    if w_hi is None:
        # Truncated quotients are only meaningful up to the cutoff (the guard
        # band flags the top two weights); genuine graded algebras get the
        # full weight range a window of this length can reach.
        if A.max_weight is not None:
            w_hi = A.max_weight
        else:
            w_hi = max(A.weight) * (window.n_max + 1)
    per_nw = {}
    for w in range(w_lo, w_hi + 1):
        for n in range(n_top + 1):
            if cx.basis(n, w) or cx.basis(n + 1, w):
                r = cx.hh_rank(n, w)
                if r:
                    per_nw[(n, w)] = r
    per_n = {}
    for (n, w), r in per_nw.items():
        per_n[n] = per_n.get(n, 0) + r
    result["per_n_weight"] = per_nw
    result["per_n"] = {n: per_n.get(n, 0) for n in range(n_top + 1)}
    result["guard_safe"] = guard_safe_weights(A, sorted({w for (_, w) in per_nw}))
    return result


def commutator_columns(A: AlgebraSpec) -> list[dict]:
    """Nonzero super commutators e_i e_j - (-1)^{|i||j|} e_j e_i for i <= j,
    as coefficient vectors; they span [A, A].

    The diagonal matters in the super case: [e_i, e_i] = 2 e_i^2 for odd e_i.
    """
    cols = []
    for i in range(A.dim):
        for j in range(i, A.dim):
            sign = 1
            if A.parity is not None and A.parity[i] % 2 and A.parity[j] % 2:
                sign = -1
            v = linear_combination(((1, A.mul_basis(i, j)), (-sign, A.mul_basis(j, i))),
                                   A.field)
            if v:
                cols.append(v)
    return cols


def hh0_direct(A: AlgebraSpec) -> dict:
    """Rank and commutator data of A/[A,A], computed without chain machinery."""
    commutator_rank = rank_of_columns(commutator_columns(A), A.field)
    return {"rank": A.dim - commutator_rank, "commutator_rank": commutator_rank}


def hkr_reference(v: int, i: int, w: int) -> int:
    """Number of monomial i-forms f dx_{j1} ^ ... ^ dx_{ji} of total weight w
    in v variables, each dx counting with weight 1 (char 0 only)."""
    if i > v or i < 0 or w < i:
        return 0
    return comb(v, i) * comb(w - i + v - 1, v - 1)
