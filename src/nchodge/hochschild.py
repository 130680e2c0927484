"""Reduced Hochschild chains: bases, the boundary, Connes' B, and HH ranks.

Chains in length n are words (i0; i1..in) of letters, a basis of A that the
complex is relative to.  On the absolute complex the letters are the basis
of A itself: words span A (x) (A/k.1)^{(x)n}, the tail indices run over the
non-unit basis elements (basis element 0 is the unit, and the span of the
rest is the chosen complement of k.1).  The boundary is the alternating sum
of slot multiplications with the cyclic wrap term; B sums signed cyclic
rotations prefixed by the unit.

The relative complex.  Let S = k.e_0 + ... + k.e_{V-1} be spanned by
orthogonal idempotents with sum 1: the basis elements e_i (i >= 1) with
e_i^2 = e_i that are mutually orthogonal, taken greedily in basis order
(`vertex_idempotents`), and their complement f = 1 - sum e_i.  S is
separable, and the normalized complex relative to it,
A (x)_{S^e} (A/S)^{(x)_S n}, has the same Hochschild homology as the
absolute one (Loday, *Cyclic Homology*, 1.2, Hochschild homology relative
to a separable subalgebra).  Its letters (`Letters`) are the vectors
e_a x e_b of the Peirce decomposition, each with a source vertex a and a
target vertex b; the vertex idempotents are letters 0..V-1, and weights
and parities are those of the basis elements x, so every letter stays
homogeneous.  A word is a cyclically composable path: each letter's target
is the next letter's source, and the last letter's target is the head's
source.  Inner faces drop the S components of a product where the absolute
complex drops its unit coordinate; B prefixes each rotation with the
vertex idempotent at the cut.  With no idempotent basis element, S = k
(V = 1, the one vertex is the unit): the same Peirce construction gives
back the basis of A as letters, and the relative complex is the absolute
one, word for word and in the same order.  Connected-graded algebras, dual
numbers, group_z2 and clifford1 have S = k.  Letters are internal: nothing
is emitted in them.

`hh_ranks` and every cyclic command (`cyclic.negative_cyclic`, `hp_ranks`,
`degeneration_check`, `char_p_compare`) work relative to the vertex
idempotents.  Their ranks and u-module profiles are the same on both
complexes; the one window-edge artefact that depends on the complex, the
floor homology of a truncated staircase (`unstable_floor_dims`), is
reported for the absolute complex, recomputed from the sizes of its blocks
(`absolute_block_size`; see the `cyclic` docstring).  Only `chern`,
`ppower` and the p = 2 lift test keep the absolute complex: the Chern
chains and lifts are emitted word by word in the basis of A.  HH_0 has
one chain-free form, the commutators' `Echelon` (`commutator_classes`).

`ChainComplex` alone enumerates and numbers chain words, in blocks keyed
by (length, weight, word parity), one walk per block (`chain_basis`), and
alone assembles matrices from them: `ChainComplex.layout` lays blocks side
by side, and `ChainComplex.matrix` writes each source block's boundary
and/or B images into a target layout.  The cyclic complexes and the p = 2
lift test only say which blocks a map runs between.

Word images come in two forms, one rule for each face and rotation.
`boundary_word` and `connes_word` give the image of one word as a {word
tuple: coefficient} dict: matrix assembly looks each image word up in a
block index, and the differential identities compose images word by word.
`boundary_blocks` and `connes_blocks` apply the boundary and B to a block,
a dense combination: one sorted letter support per slot and the row-major
list of coefficients over the words of their product, as the Chern cycle
certificate holds its chains.  Their images are blocks again, moved with
list slices: face i contracts slots i and i + 1 through the letters'
product table, in contiguous runs along the suffix when it is at least as
long as the prefix count and in strided runs otherwise.  The wrap face
and each rotation of B are one move, `_rotate`: slots i.. go in front of
slots ..i-1 with one transpose and, on super algebras, a Koszul sign mask
built from the slot parities (the wrap face is i = n; B adds its sign
(-1)^{n i}).  B drops unit heads by restricting slot 0 and puts every
rotation under the unit.  The block form of B is for the absolute
complex, the one the certificate builds, and refuses a complex relative
to more than one vertex.
`add_blocks` sums image blocks that agree outside their head slot row by
row, and scatters only the nonzero rows into an accumulator keyed by word
codes, the ints whose digits in radix dim A are the words' letters
(`decode` turns one back); a code hashes at once, where a tuple is
rehashed on every lookup.  The two forms are checked against each other,
single words and random full-product blocks, in the test suite.

Sign conventions (pinned by the exact identities d^2 = B^2 = dB + Bd = 0,
verified in the test suite on commutative, non-commutative and super
samples, the latter with one and with several odd basis elements, and on
relative complexes): the i-th inner face carries (-1)^i; the wrap face
carries (-1)^n times the Koszul sign for moving a_n past a_0..a_{n-1}; the
i-th cyclic rotation in B carries (-1)^{n i} times the Koszul sign for
moving a_i..a_n past a_0..a_{i-1}.  Koszul signs use the plain parities.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .algebra import AlgebraSpec, AlgebraError, bilinear
from .fields import SizeError, linear_combination, reduced_entries
from .sparse import Echelon, SparseMatrix, homology_from_ranks, rank


class DegreeWindow:
    """Truncation of the unbounded chain complex: lengths n <= n_max and an
    optional internal-weight range."""

    def __init__(self, n_max: int, w_min: int | None = None, w_max: int | None = None):
        if n_max < 0:
            raise SizeError("n_max must be >= 0")
        if w_min is not None and w_max is not None and w_min > w_max:
            raise SizeError(f"weight window w_min={w_min} > w_max={w_max} is empty")
        self.n_max = n_max
        self.w_min = w_min
        self.w_max = w_max

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


def vertex_idempotents(A: AlgebraSpec) -> list[int]:
    """The basis elements e_i (i >= 1) with e_i^2 = e_i that are mutually
    orthogonal, chosen greedily in basis order.  With their complement
    f = 1 - sum e_i they span the S of the relative complex."""
    one, products = A.field.one(), A.structure.get
    chosen: list[int] = []
    for i in range(1, A.dim):
        if products((i, i)) == {i: one} and not any(
                products((i, j)) or products((j, i)) for j in chosen):
            chosen.append(i)
    return chosen


class Letters:
    """The basis of A that chain words are spelled in, adapted to the
    vertex idempotents of S (see the module docstring).

    Letter v < `vertices` is the vertex idempotent e_v; each other letter
    spans a piece of a Peirce component e_a A e_b (`source` a, `target` b).
    `products` holds the structure constants in letters, {(i, j): {k: c}};
    `inner` the same with the S components (k < `vertices`) dropped, the
    products of the inner faces.  `successors[v]` lists the non-S letters
    of source v in order, `closing[v][w]` those of source v and target w,
    and `vertex_words[i]` is the one-letter word of the vertex idempotent
    where letter i starts.  `_peirce` builds every letter set: with S = k
    its one vertex is the unit, and the letters, `products`, weights and
    parities are the basis of A, its structure table, weights and parities.
    `head_weights` and `tail_weights` are the (least, greatest) weight of a
    letter and of a non-S one (None if ungraded): a word of length n weighs
    from head least + n x tail least to head greatest + n x tail greatest.
    """

    def __init__(self, A: AlgebraSpec, idempotents=()):
        d = A.dim
        self._peirce(A, idempotents)
        V = self.vertices
        self.inner = {ij: kept for ij, prod in self.products.items()
                      if (kept := {k: c for k, c in prod.items() if k >= V})}
        self.successors = [tuple(i for i in range(V, d) if self.source[i] == v)
                           for v in range(V)]
        self.closing = [[tuple(i for i in self.successors[v] if self.target[i] == w)
                         for w in range(V)] for v in range(V)]
        self.vertex_words = tuple((v,) for v in self.source)
        wt = self.weight
        self.head_weights = wt and (min(wt), max(wt))
        self.tail_weights = wt and (min(wt[V:], default=0), max(wt[V:], default=0))

    def _peirce(self, A: AlgebraSpec, idempotents):
        """Letters e_a x e_b for x in basis order and vertices a, b in turn,
        each kept when independent of those before: the unit (x = 0) gives
        the vertex idempotents first.  They span A, since x is the sum of
        its e_a x e_b, so every product has coordinates in them.

        One `sparse.Echelon` of the kept vectors decides independence, and
        its `reduce` gives the coordinates of the products in letters."""
        F = A.field
        one = F.one()
        echelon = Echelon(F)
        vertices = [{i: one} for i in idempotents]
        vertices.append(reduced_entries({0: 1, **{i: -1 for i in idempotents}}, F))
        vectors, source, target, letter_of = [], [], [], []
        for x in range(A.dim):
            for a, ea in enumerate(vertices):
                left = bilinear(A.structure, ea, {x: one}, F)
                for b, eb in enumerate(vertices):
                    vec = bilinear(A.structure, left, eb, F) if left else {}
                    if vec and echelon.add(vec):
                        vectors.append(vec)
                        source.append(a)
                        target.append(b)
                        letter_of.append(x)
        self.vertices = len(vertices)
        self.source, self.target = tuple(source), tuple(target)
        self.weight = None if A.weight is None else tuple(A.weight[x] for x in letter_of)
        self.parity = None if A.parity is None else tuple(A.parity[x] for x in letter_of)
        self.products = {}
        for i, vi in enumerate(vectors):
            for j, vj in enumerate(vectors):
                if target[i] == source[j]:
                    prod = bilinear(A.structure, vi, vj, F)
                    if prod:
                        coords = echelon.reduce(prod)[1]
                        self.products[(i, j)] = {k: coords[k] for k in sorted(coords)}


def chain_basis(A: AlgebraSpec, n: int, weight: int | None = None,
                parity: int | None = None, letters: Letters | None = None) -> list[tuple]:
    """Ordered basis of the block of length n, total weight `weight` and
    word parity `parity` (None: unfiltered), spelled in `letters` (the
    basis of A when None, the absolute complex A (x) (A/1)^{(x)n}).

    Words are tuples (i0, i1, ..., in): i0 ranges over every letter and the
    tail over non-S letters, each starting where the one before ends, the
    last ending where i0 starts; lexicographic order.  One walk builds the
    block: a prefix with r tail letters still to place is dropped as soon as
    its weight plus r times the least (greatest) non-S weight is above
    (below) `weight`, a bound that holds for weights of any sign (at the
    head, `ChainComplex.weights`).  The walk keeps its own stack, not
    Python's, so a block of any length is walked.
    """
    if weight is not None and A.weight is None:
        raise AlgebraError("weight filter requested on an ungraded algebra")
    if parity is not None and not A.is_super:
        if parity:
            return []  # every word is even
        parity = None
    L = letters if letters is not None else Letters(A)
    d = A.dim
    wt = L.weight if weight is not None else (0,) * d
    par = L.parity if parity is not None else (0,) * d
    lo, hi = L.tail_weights if weight is not None else (0, 0)
    successors, closing, target = L.successors, L.closing, L.target
    out: list[tuple] = []
    for i0 in range(d):
        close = L.source[i0]  # where the last letter must end
        if not n:
            if (target[i0] == close and (weight is None or wt[i0] == weight)
                    and (parity is None or par[i0] % 2 == parity)):
                out.append((i0,))
            continue
        # a frame: the letters still to try after the prefix, the prefix's
        # weight and parity sums, and the tail letters left after the next one
        prefix, stack = [], [(iter((i0,)), 0, 0, n)]
        while stack:
            letters_left, wsum, psum, r = stack[-1]
            for i in letters_left:
                w = wsum + wt[i]
                if weight is not None and not w + r * lo <= weight <= w + r * hi:
                    continue
                p = psum + par[i]
                if r > 1:  # descend: resume this frame once i's is done
                    prefix.append(i)
                    stack.append((iter(successors[target[i]]), w, p, r - 1))
                    break
                for j in closing[target[i]][close]:
                    if ((weight is None or w + wt[j] == weight)
                            and (parity is None or (p + par[j]) % 2 == parity)):
                        out.append((*prefix, i, j))
            else:
                stack.pop()
                del prefix[-1:]  # the first frame, i0's, has no letter to drop
    return out


def absolute_block_size(A: AlgebraSpec, n: int, parity: int) -> int:
    """len(chain_basis(A, n, None, parity)), counted without a walk.

    The head runs over the d basis elements and each tail letter over the
    d - 1 non-unit ones, o of them odd (the unit is even): d (d - 1)^n words,
    and (d - 2o)(d - 1 - 2o)^n more even than odd ones."""
    d, odd = A.dim, sum(x % 2 for x in A.parity or ())
    total = d * (d - 1) ** n
    surplus = (d - 2 * odd) * (d - 1 - 2 * odd) ** n
    return (total - surplus) // 2 if parity else (total + surplus) // 2


class ChainComplex:
    """Reduced Hochschild chain data for one algebra, and the one place
    where chain words are enumerated, numbered and assembled into matrices.

    The complex is the absolute one, or with `relative` the one relative to
    the vertex idempotents of A (`vertex_idempotents`), on which `hh` and
    every cyclic command run; `chern`, `ppower` and the p = 2 lift test
    build the absolute one.  Its words are spelled in `letters`.  A block
    is keyed by (length n, weight, word parity), None meaning unfiltered;
    the boundary and B keep weight and word parity.  A length-n block of a
    weight outside `weights(n)` is empty: `hh_ranks` and the folded cyclic
    complex compute only at weights inside it.  Bases, word indexes and
    boundary ranks are memoized per block, so each boundary block is
    eliminated once; matrices (`matrix`) are built on demand and not kept.
    """

    def __init__(self, A: AlgebraSpec, relative: bool = False):
        self.A = A
        self.letters = Letters(A, vertex_idempotents(A) if relative else ())
        self._bases: dict = {}
        self._indexes: dict = {}
        self._ranks: dict = {}

    def _key(self, n: int, weight: int | None, parity: int | None) -> tuple:
        # without odd basis elements every word is even: parity 0 is no
        # filter, and parity 1 an empty block that `basis` does not walk
        if parity == 0 and not self.A.is_super:
            parity = None
        return n, weight, parity

    def weights(self, n: int) -> range:
        """The weights a word of length n can carry (graded A; see `Letters`)."""
        (head_lo, head_hi), (lo, hi) = self.letters.head_weights, self.letters.tail_weights
        return range(head_lo + n * lo, head_hi + n * hi + 1)

    def basis(self, n: int, weight: int | None = None, parity: int | None = None) -> list:
        key = self._key(n, weight, parity)
        if key not in self._bases:
            empty = key[2] == 1 and not self.A.is_super
            self._bases[key] = [] if empty else chain_basis(self.A, *key, self.letters)
        return self._bases[key]

    def index(self, n: int, weight: int | None = None, parity: int | None = None) -> dict:
        """Position of each word of the block in `basis`."""
        key = self._key(n, weight, parity)
        if key not in self._indexes:
            self._indexes[key] = {w: i for i, w in enumerate(self.basis(*key))}
        return self._indexes[key]

    def layout(self, blocks) -> tuple:
        """({n: (offset, weight, parity)}, dim) of blocks (n, weight, parity)
        laid side by side in turn; their lengths n are distinct."""
        out, dim = {}, 0
        for n, weight, parity in blocks:
            out[n] = (dim, weight, parity)
            dim += len(self.basis(n, weight, parity))
        return out, dim

    def matrix(self, src: tuple, dst: tuple, images) -> SparseMatrix:
        """The map from layout `src` to layout `dst` that sends each block's
        words to their `images`: "boundary" into the block of length n - 1
        and "connes" into the block of length n + 1, wherever `dst` holds
        that length; both keep a block's weight and word parity."""
        (src, cols), (dst, rows) = src, dst
        word_images = {"boundary": (-1, self.boundary_word), "connes": (1, self.connes_word)}
        entries: dict = {}
        for n, (col0, weight, parity) in src.items():
            for image in images:
                step, word_image = word_images[image]
                if n + step not in dst:
                    continue
                row0 = dst[n + step][0]
                index = self.index(n + step, weight, parity)
                if row0:
                    # shifted once per block, so that the entries of a row share one int
                    index = {w: i + row0 for w, i in index.items()}
                for c, word in enumerate(self.basis(n, weight, parity), col0):
                    for t, v in word_image(word).items():
                        entries[(index[t], c)] = v
        return SparseMatrix(rows, cols, entries)

    # -- boundary -----------------------------------------------------------

    def boundary_word(self, word: tuple) -> dict:
        """Image of a basis word under the boundary, as {word: coefficient}."""
        L = self.letters
        n = len(word) - 1
        if n == 0:
            return {}
        acc: dict = {}
        get = acc.get
        products = L.products.get  # (i, j) -> {k: c}
        # face 0: a_0 a_1 lands in the head slot, S components and all
        tail = word[2:]
        for k, v in products(word[:2], {}).items():
            target = (k,) + tail
            acc[target] = get(target, 0) + v
        # inner faces: a tail product's S components die in A/S
        inner = L.inner.get
        for i in range(1, n):
            prod = inner(word[i:i + 2])
            if not prod:
                continue
            head, tail = word[:i], word[i + 2:]
            for k, v in prod.items():
                target = head + (k,) + tail
                acc[target] = get(target, 0) + (-v if i % 2 else v)
        # wrap face: a_n a_0 (x) a_1 ... a_{n-1}
        negate = n % 2
        if L.parity is not None and L.parity[word[n]] % 2:
            if sum(L.parity[j] for j in word[:n]) % 2:
                negate = 1 - negate
        tail = word[1:n]
        for k, v in products((word[n], word[0]), {}).items():
            target = (k,) + tail
            acc[target] = get(target, 0) + (-v if negate else v)
        return reduced_entries(acc, self.A.field)

    def boundary(self, n: int, weight: int | None = None,
                 parity: int | None = None) -> SparseMatrix:
        """Matrix of the boundary block(n) -> block(n-1)."""
        return self.matrix(self.layout([(n, weight, parity)]),
                           self.layout([(n - 1, weight, parity)] if n else []), ("boundary",))

    # -- Connes' B ----------------------------------------------------------

    def connes_word(self, word: tuple) -> dict:
        """Image of a basis word under B, as {word: coefficient}."""
        L = self.letters
        if word[0] < L.vertices:
            return {}  # S head: every rotation puts it in a tail slot
        acc: dict = {}
        get = acc.get
        n = len(word) - 1
        parity, vertex_words = L.parity, L.vertex_words
        total = 0 if parity is None else sum(parity[i] for i in word) % 2
        front = 0  # parity of a_0 .. a_{i-1}
        for i in range(n + 1):
            # rotation: (a_i, ..., a_n, a_0, ..., a_{i-1}) prefixed by the
            # vertex idempotent where a_i starts
            negate = (n * i + front * (total ^ front)) % 2
            target = vertex_words[word[i]] + word[i:] + word[:i]
            acc[target] = get(target, 0) + (-1 if negate else 1)
            if parity is not None:
                front ^= parity[word[i]] % 2
        return reduced_entries(acc, self.A.field)

    def connes(self, n: int, weight: int | None = None,
               parity: int | None = None) -> SparseMatrix:
        """Matrix of B: block(n) -> block(n+1)."""
        return self.matrix(self.layout([(n, weight, parity)]),
                           self.layout([(n + 1, weight, parity)]), ("connes",))

    # -- images of blocks, in word codes ------------------------------------

    def decode(self, code: int, length: int) -> tuple:
        """The word of `length` letters whose code is `code`."""
        R = self.A.dim
        word = [0] * length
        for j in range(length - 1, -1, -1):
            code, word[j] = divmod(code, R)
        return tuple(word)

    def boundary_blocks(self, supports: tuple, nums: list) -> list:
        """The boundary of a block as a list of blocks (see the module
        docstring): faces 0 .. n-1 contract slots i and i + 1, and the wrap
        face moves a_n in front of a_0 with one transpose, then contracts as
        face 0 does.  Faces and signs are those of `boundary_word`."""
        n = len(supports) - 1
        if n <= 0:
            return []
        L = self.letters
        after = [1] * (n + 1)  # after[i]: words of slots i + 1 .. n
        for i in range(n - 1, -1, -1):
            after[i] = after[i + 1] * len(supports[i + 1])
        out = [_contract(supports, nums, i, after[i + 1], L.inner if i else L.products,
                         -1 if i % 2 else 1) for i in range(n)]
        C = len(supports[n])
        wrapped, moved = _rotate(supports, nums, n, C, L.parity)
        out.append(_contract(wrapped, moved, 0, after[0] // C, L.products, -1 if n % 2 else 1))
        return [block for block in out if block]

    def connes_blocks(self, supports: tuple, nums: list) -> list:
        """B of a block of the absolute complex as a list of blocks: rotation
        i moves slots 0 .. i-1 behind slot n with one transpose, under the
        unit as the new head.  Words with the unit at the head give nothing,
        as in `connes_word`, whose rotations and signs these are.  A complex
        relative to more than one vertex puts each rotation under the vertex
        where its first letter starts, which this form does not do, so it
        raises ValueError there."""
        L = self.letters
        if L.vertices > 1:
            raise ValueError("connes_blocks applies B on the absolute complex only")
        head = supports[0]
        if head[0] == 0:  # the unit leads the sorted slot
            if len(head) == 1:
                return []
            nums = nums[len(nums) // len(head):]
            supports = (head[1:],) + supports[1:]
        n = len(supports) - 1
        out = []
        front = 1  # words of slots 0 .. i-1
        for i, first in enumerate(supports):
            slots, rotated = _rotate(supports, nums, i, len(nums) // front, L.parity)
            if n * i % 2:
                rotated = [-x for x in rotated]
            out.append((((0,),) + slots, rotated))
            front *= len(first)
        return out

    def add_blocks(self, blocks: list, acc: dict):
        """Add blocks of one word length into acc, {code: coefficient}, with
        plain + and *.

        Blocks with equal supports outside the head slot are summed first,
        row by row under their head letters; only the nonzero rows of those
        sums reach acc, each image word held as its code, the number whose
        digits in radix `A.dim` are its letters, most significant first
        (`decode` inverts it).  Codes of one length sort as their words do.
        The sums in acc are left raw: entries may be zero and, over F_p,
        unreduced ints; `fields.reduced_entries` drops the zeros and reduces
        once, when the caller has added every image."""
        if len({len(supports) for supports, _ in blocks}) > 1:
            raise ValueError("the blocks differ in word length")
        sums: dict = {}
        for supports, nums in blocks:
            rows = sums.setdefault(supports[1:], {})
            W = len(nums) // len(supports[0])
            for j, x in enumerate(supports[0]):
                row = nums[j * W:(j + 1) * W]
                old = rows.get(x)
                rows[x] = row if old is None else [a + b for a, b in zip(old, row)]
        R, p = self.A.dim, self.A.field.p
        get = acc.get
        for tail, rows in sums.items():
            codes = None
            lead = R ** len(tail)
            for x, row in rows.items():
                if p is not None:
                    row = [v % p for v in row]
                if not any(row):
                    continue
                if codes is None:
                    codes = _codes(tail, R)
                base = x * lead
                for code, v in zip(codes, row):
                    if v:
                        code += base
                        acc[code] = get(code, 0) + v

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


def _contract(supports: tuple, nums: list, i: int, Q: int, table: dict, sign: int):
    """Face i of a block: slots i and i + 1 multiplied through `table`, {(a,
    b): {k: c}}, each product's coefficient times `sign`; the block of the
    images, or None when no pair of the two slots multiplies.

    The block is read as [P][X][Q], X the pairs (a, b) of the two slots and
    P, Q the words before and after them (Q is given, the product of the
    sizes of slots i + 2 ..), and each image letter k gathers
    the pairs whose product holds it.  Its values move as list slices: one
    contiguous run of Q per prefix when Q >= P, else one strided run of P
    per suffix position."""
    left, right = supports[i], supports[i + 1]
    pairs: dict = {}  # k -> [(pair position, coefficient)]
    for x, ab in enumerate(product(left, right)):
        for k, c in table.get(ab, {}).items():
            pairs.setdefault(k, []).append((x, c * sign))
    if not pairs:
        return None
    letters = sorted(pairs)
    X, Y = len(left) * len(right), len(letters)
    P = len(nums) // (X * Q)
    if Q >= P:
        runs, run, jump_in, jump_out, step_in, step_out = P, Q, X * Q, Y * Q, 1, 1
    else:
        runs, run, jump_in, jump_out, step_in, step_out = Q, P, 1, 1, X * Q, Y * Q
    out = [0] * (P * Y * Q)
    for y, k in enumerate(letters):
        (x0, c0), *more = pairs[k]
        for j in range(runs):
            at = j * jump_in + x0 * Q
            vals = nums[at:at + run * step_in:step_in]
            if c0 != 1:
                vals = [c0 * v for v in vals]
            for x, c in more:
                at = j * jump_in + x * Q
                vals = [u + c * v for u, v in zip(vals, nums[at:at + run * step_in:step_in])]
            at = j * jump_out + y * Q
            out[at:at + run * step_out:step_out] = vals
    return supports[:i] + (tuple(letters),) + supports[i + 2:], out


def _parities(parity: tuple, slots) -> list:
    """The Koszul parity of every word of the slots, in row-major order."""
    out = [0]
    for slot in slots:
        bits = [parity[x] % 2 for x in slot]
        out = [a ^ b for a in out for b in bits]
    return out


def _rotate(supports: tuple, nums: list, i: int, C: int, parity) -> tuple:
    """The block with slots i .. n moved in front of slots 0 .. i-1: nums
    read as [front][C], C the words of slots i .. n, and transposed with
    one strided slice per column (i = 0 moves nothing), then, where
    `parity` gives the letters' parities, negated by the Koszul sign of
    moving a_i .. a_n past a_0 .. a_{i-1}."""
    moved = [x for c in range(C) for x in nums[c::C]] if i else nums
    if parity is not None:
        moved = _koszul(moved, _parities(parity, supports[i:]), _parities(parity, supports[:i]))
    return supports[i:] + supports[:i], moved


def _koszul(nums: list, first: list, rest: list) -> list:
    """nums read as [first][rest], negated where both parities are odd."""
    if not any(first) or not any(rest):
        return nums
    mask = [a & b for a in first for b in rest]
    return [-v if m else v for v, m in zip(nums, mask)]


def _codes(slots, R: int) -> list:
    """The code of every word of the slots, in row-major order."""
    out = [0]
    for slot in slots:
        out = [c * R + x for c in out for x in slot]
    return out


def guard_safe_weights(A: AlgebraSpec, weights) -> dict:
    """Split weights into guard-safe and flagged for truncated algebras: the
    top two weights of a weight-truncated algebra feel the truncation."""
    return {w: A.max_weight is None or w <= A.max_weight - 2 for w in weights}


def hh_ranks(A: AlgebraSpec, window: DegreeWindow) -> dict:
    """Hochschild homology ranks per n (and per weight for graded algebras).

    Returns {"per_n": {n: rank}} for ungraded algebras and
    {"per_n_weight": {(n, w): rank}, "per_n": {n: total}} for graded ones,
    plus guard-band flags for weight-truncated algebras.  Computing degree n
    needs the block at n+1, so ranks are reported for n <= n_max - 1.  A
    graded degree n is computed at the weights `cx.weights(n)`, where alone
    its block holds words, within w_min..w_max (by default up to the
    max_weight of a truncated algebra; a w_min above that default top
    raises SizeError); per_n_weight lists them by weight.
    The ranks are those of the complex relative to the vertex idempotents,
    which equal the absolute ones.
    """
    cx = ChainComplex(A, relative=True)
    n_top = window.n_max - 1
    if n_top < 0:
        raise SizeError("window too small: n_max must be >= 1")
    if A.weight is None:
        window.refuse_weight_bounds(f"{A.name} has no weights")
        return {"per_n": {n: cx.hh_rank(n) for n in range(n_top + 1)}}
    w_lo, w_hi = window.w_min, window.w_max if window.w_max is not None else A.max_weight
    if w_lo is not None and w_hi is not None and w_lo > w_hi:
        # only the default top, max_weight, can lie below w_min; the weights
        # above it are not computed, so zeros there are no result
        raise SizeError(f"weight bound w_min={w_lo} is above the top weight {w_hi} "
                        f"that hh computes without w_max (max_weight of {A.name})")
    per_nw, per_n = {}, {}
    for n in range(n_top + 1):
        ranks = [((n, w), cx.hh_rank(n, w)) for w in cx.weights(n)
                 if (w_lo is None or w_lo <= w) and (w_hi is None or w <= w_hi)]
        per_n[n] = sum(r for _, r in ranks)
        per_nw.update((nw, r) for nw, r in ranks if r)
    per_nw = dict(sorted(per_nw.items(), key=lambda item: item[0][::-1]))  # by weight
    return {"per_n_weight": per_nw, "per_n": per_n,
            "guard_safe": guard_safe_weights(A, sorted({w for (_, w) in per_nw}))}


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


def commutator_classes(A: AlgebraSpec, columns: list) -> Echelon:
    """An `Echelon` of the commutator columns of A (`commutator_columns`):
    its rows span [A, A], and the remainder of its `reduce` is a vector's
    class in A/[A,A]."""
    echelon = Echelon(A.field)
    for c in columns:
        echelon.add(c)
    return echelon


def hh0_direct(A: AlgebraSpec) -> int:
    """The rank of A/[A,A], computed without chain machinery."""
    return A.dim - len(commutator_classes(A, commutator_columns(A)).rows)


def hkr_reference(v: int, i: int, w: int) -> int:
    """Number of monomial i-forms f dx_{j1} ^ ... ^ dx_{ji} of total weight w
    in v variables, each dx counting with weight 1 (char 0 only)."""
    if i > v or i < 0 or w < i:
        return 0
    return comb(v, i) * comb(w - i + v - 1, v - 1)
