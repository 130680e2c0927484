"""Chern characters of idempotents as explicit negative-cyclic cycles, and
the characteristic-p power operation on HH_0 with its u-lift at p = 2.

A negative-cyclic chain mod u^N (`UChain`) is a list of per-u-power
components, component t being a combination of reduced chain words of
tensor length 2t, held as dense blocks of int numerators over one
chain-wide denominator (over F_p, residues over 1): a sorted letter support
per slot and the row-major numerators over the words of their product.
The builders expand their tensor products in ints (`_tensor_words`), one
block per component with no word built at all; the report reads the words
off each block in sorted order and formats each distinct numerator once.
The cycle condition (d + uB) ch = 0 mod u^N amounts to d(c_t) + B(c_{t-1})
= 0 for every t < N, and is checked on emission: the certificate is the
sole arbiter of the coefficient conventions.  It applies d and B block by
block, with list slices and transposes (`ChainComplex.boundary_blocks` and
`connes_blocks`), sums the image blocks (`add_blocks`), and turns back into
words and field elements only what does not cancel.

Classes in HH_0 = A/[A,A] come from `hochschild.commutator_classes`, the
`sparse.Echelon` of the commutators whose rows `hh0_direct` counts: the
remainder of its `reduce` names a vector's class.  The power operation
keeps a second `Echelon` of those classes, whose `add` picks
representatives greedily in basis order and whose `reduce` gives a class's
coordinates on them, so no elimination runs per element.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, lcm

from .algebra import AlgebraSpec
from .fields import Field, SizeError, UnsupportedError, linear_combination, reduced_entries
from .hochschild import ChainComplex, commutator_classes, commutator_columns
from .sparse import Echelon, rank_of_columns


class ContractError(ValueError):
    pass


class Idempotent:
    def __init__(self, algebra: AlgebraSpec, vector: dict):
        if algebra.mul_vec(vector, vector) != reduced_entries(vector, algebra.field):
            raise ContractError("element is not idempotent")
        self.algebra = algebra
        self.vector = vector  # basis index -> field element


class UChain:
    """Chain over k[u]/u^N: component t, for t < N, is a combination of
    words of 2t + 1 letters, i.e. of tensor length 2t.

    The chain is held as integer numerators over one denominator, in
    blocks: `blocks[t]` lists component t as (supports, numerators) pairs,
    supports a tuple of one sorted, nonempty letter tuple per slot and
    numerators the row-major list of ints over the words of their product
    (`itertools.product` order), each the word's coefficient times
    `denominator`.  The blocks of a component hold distinct words, in
    sorted order; over F_p the denominator is 1 and the numerators are the
    coefficients themselves.  `UChain(A, N, parts)` takes one (blocks, den)
    pair per component, blocks of int numerators over the positive int den,
    as the builders below make them (one block per component), and puts
    every component over the lcm of the dens.  `terms(t)`, `component(t)`
    and `components` read the chain back word by word, built anew on each
    read: a changed chain is a new `UChain`.
    """

    def __init__(self, algebra: AlgebraSpec, N: int, parts: list):
        den = lcm(*(d for _, d in parts))
        self.algebra = algebra
        self.N = N
        self.denominator = den
        self.blocks = [blocks if d == den else
                       [(supports, [c * (den // d) for c in nums]) for supports, nums in blocks]
                       for blocks, d in parts]

    def terms(self, t: int) -> tuple:
        """(words, numerators) of component t, two lists in sorted word
        order."""
        words, nums = [], []
        for supports, cs in self.blocks[t]:
            words += product(*supports)
            nums += cs
        return words, nums

    def values(self, t: int) -> dict:
        """{numerator: field element} for each distinct numerator of
        component t."""
        den, from_fraction = self.denominator, self.algebra.field.from_fraction
        return {c: from_fraction(Fraction(c, den))
                for c in {c for _, nums in self.blocks[t] for c in nums}}

    def component(self, t: int) -> dict:
        """Component t as {word: field element}."""
        values = self.values(t)
        words, nums = self.terms(t)
        return {w: values[c] for w, c in zip(words, nums)}

    @property
    def components(self) -> list:
        """Every component as {word: field element}, one dict per u-power."""
        return [self.component(t) for t in range(len(self.blocks))]


def _reduce_tail(F: Field, vec: dict) -> dict:
    """Class of an algebra element in A/k.1: drop the unit coordinate."""
    return {k: v for k, v in vec.items() if k != 0 and not F.is_zero(v)}


def _numerators(vec: dict) -> tuple:
    """(numerators, den) of a vector of field elements: den is the lcm of
    the coefficients' denominators, numerators[k] = vec[k] * den an int.
    Over F_p every coefficient is an int, so den is 1 and the numerators
    are the coefficients."""
    den = lcm(*(v.denominator for v in vec.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in vec.items()}, den


def _tensor_words(F: Field, factors: list, scale: int = 1) -> tuple:
    """(blocks, den) of scale * (x)_i factors[i], a tensor product of
    coefficient vectors, as a chain component: one block, or none when the
    product vanishes, whose numerators over den are the product's
    coefficients.

    The factors' zero coefficients are dropped and their indices, in
    increasing order, are the block's slots; each factor's denominators are
    cleared by their lcm (`_numerators`), den is the product of those lcms,
    and the numerators, grown factor by factor, are the products of ints in
    row-major order, with no field element per word; over F_p den is 1 and
    the numerators are reduced mod p once, at the end.
    """
    if F.is_zero(F.from_int(scale)):
        return [], 1
    supports, numerators, den = [], [scale], 1
    cleared: dict = {}  # a factor given more than once is cleared once
    for vec in factors:
        if id(vec) not in cleared:
            cleared[id(vec)] = _numerators({i: v for i, v in sorted(vec.items())
                                            if not F.is_zero(v)})
        nums, d = cleared[id(vec)]
        den *= d
        supports.append(tuple(nums))
        values = list(nums.values())
        numerators = [c * n for c in numerators for n in values]
    if not numerators:
        return [], 1
    if F.p is not None:
        numerators = [c % F.p for c in numerators]
    return [(tuple(supports), numerators)], den


def cycle_certificate(chain: UChain) -> dict:
    """Apply (d + uB) mod u^N to the chain; empty components mean a cycle.

    The images are taken of the chain's integer numerators, so they
    accumulate in ints; (d + uB) is linear and the denominator D is
    nonzero, so the numerators form a cycle exactly when the chain does,
    and only the nonzero residue is divided by D on the way out.
    Component t of the image, words of 2t letters, gathers d of component t
    and B of component t - 1 block by block (`ChainComplex.boundary_blocks`
    and `connes_blocks`, list slices and transposes); `add_blocks` sums the
    image blocks and scatters what does not cancel into one accumulator
    keyed by word codes, which drops its zeros (over F_p, after reducing
    mod p) once, when it is complete; only that nonzero residue is decoded
    back into words.
    """
    A = chain.algebra
    F = A.field
    cx = ChainComplex(A)
    comps = chain.blocks
    for t, blocks in enumerate(comps):
        if any(len(supports) != 2 * t + 1 for supports, _ in blocks):
            raise ContractError(f"component {t} of a chain holds a word that does not "
                                f"have {2 * t + 1} letters")
    den = chain.denominator
    out = []
    for t in range(chain.N):
        images = [image for block in comps[t] for image in cx.boundary_blocks(*block)]
        if t >= 1:
            images += [image for block in comps[t - 1] for image in cx.connes_blocks(*block)]
        acc: dict = {}
        cx.add_blocks(images, acc)
        out.append({cx.decode(code, 2 * t): v if den == 1 else F.from_fraction(Fraction(v, den))
                    for code, v in reduced_entries(acc, F).items()})
    return {"is_cycle": all(not a for a in out), "residue": out}


# The largest Chern chain `chern_idempotent` builds, in certificate terms
# (`_check_chain_terms`).  In fresh processes on a 2-CPU host, a chain near
# it takes about a second.
MAX_CHAIN_TERMS = 3_000_000


def _check_chain_terms(N: int, first: int, shifted: int, tail: int):
    """Refuse a Chern chain of more than MAX_CHAIN_TERMS certificate terms,
    counted from the sizes of the factor supports before anything is built.

    Component t >= 1 holds shifted * tail^(2t) words of 2t + 1 letters, and
    component 0 the first ones of one letter.  The certificate applies the
    2t + 1 faces (and as many rotations) of component t to each of its Pi_t
    words, and each face and rotation also walks the 2t + 1 slots, so the
    count is sum_{t<N} (2t + 1)(Pi_t + 2t + 1): it bounds the report's
    letters and the certificate's work alike, also for chains of a few long
    words.  The slot part, N(2N - 1)(2N + 1)/3, is counted first, so N is
    small when the words are counted, and the count stops once it is over
    the bound, with no large power formed."""
    terms = N * (2 * N - 1) * (2 * N + 1) // 3 + first
    size = shifted
    for t in range(1, N):
        if terms > MAX_CHAIN_TERMS:
            break
        size *= tail * tail
        terms += (2 * t + 1) * size
    if terms > MAX_CHAIN_TERMS:
        raise SizeError(f"the Chern chain to u^{N} needs more than "
                        f"MAX_CHAIN_TERMS = {MAX_CHAIN_TERMS} certificate terms")


def chern_idempotent(pi: Idempotent, N: int) -> UChain:
    """The Chern character chain
    ch(pi) = pi + sum_{1<=k<N} (-1)^k (2k)!/k! (pi - 1/2) (x) pi^{(x)2k} u^k,
    reduced into the chain basis; the (d + uB)-cycle certificate is checked
    and a failure raises rather than renormalizing."""
    if N < 1:
        raise SizeError(f"chern_idempotent needs u-truncation N >= 1, got {N}")
    A = pi.algebra
    F = A.field
    p = F.characteristic
    if p != 0 and p <= 2 * N:
        raise UnsupportedError(
            f"chern_idempotent needs char 0 or p > 2N (p={p}, N={N})")
    half = F.from_fraction(Fraction(1, 2))
    shifted = linear_combination(((1, pi.vector), (-half, {0: 1})), F)
    tail = _reduce_tail(F, pi.vector)
    first = sum(not F.is_zero(v) for v in pi.vector.values())
    _check_chain_terms(N, first, len(shifted), len(tail))
    parts = [_tensor_words(F, [pi.vector])]
    for k in range(1, N):
        coeff = (-1) ** k * factorial(2 * k) // factorial(k)
        parts.append(_tensor_words(F, [shifted] + [tail] * (2 * k), coeff))
    chain = UChain(A, N, parts)
    cert = cycle_certificate(chain)
    if not cert["is_cycle"]:
        raise ContractError("chern_idempotent: cycle certificate failed; "
                            "refusing to renormalize")
    return chain


def u0_class_nonzero(chain: UChain) -> bool:
    """Whether the u^0 component represents a nonzero class in HH_0."""
    A = chain.algebra
    rest, _ = commutator_classes(A, commutator_columns(A)).reduce(
        {w[0]: c for w, c in chain.component(0).items()})
    return bool(rest)


# ---------------------------------------------------------------------------
# characteristic-p power operation
# ---------------------------------------------------------------------------


def ppower_on_hh0(A: AlgebraSpec) -> dict:
    """The p-semilinear map a -> a^p on A/[A,A] in characteristic p, with
    well-definedness and additivity certificates."""
    F = A.field
    p = F.characteristic
    if p == 0:
        raise UnsupportedError("ppower_on_hh0 requires a prime field")
    comm = commutator_columns(A)
    commutators = commutator_classes(A, comm)

    def reduce(v: dict) -> dict:
        """The class of v in A/[A,A]: empty exactly when v lies in [A,A]."""
        return commutators.reduce(v)[0]

    # representative basis of A/[A,A]: greedy over basis vectors
    reps, classes = [], Echelon(F)
    for i in range(A.dim):
        if classes.add(reduce({i: F.one()})):
            reps.append(i)

    def project(v: dict):
        """Coordinates of the class of v on the representative basis."""
        rest, coords = classes.reduce(reduce(v))
        if rest:
            raise ContractError("projection to A/[A,A] failed")
        return {t: coords.get(t, F.zero()) for t in range(len(reps))}

    powers = [A.power({i: F.one()}, p) for i in range(A.dim)]  # e_i^p
    matrix = {t: project(powers[i]) for t, i in enumerate(reps)}

    # certificate (i): independence of the choice of lift — perturbing any
    # representative by any spanning commutator does not change the class
    well_defined = True
    for i in reps:
        for c in comm:
            perturbed = linear_combination(((1, c), (1, {i: 1})), F)
            diff = linear_combination(((1, A.power(perturbed, p)), (-1, powers[i])), F)
            if reduce(diff):
                well_defined = False
    # certificate (ii): additivity on all basis pairs
    additive = True
    for i in range(A.dim):
        for j in range(A.dim):
            ab = linear_combination(((1, {i: 1}), (1, {j: 1})), F)
            diff = linear_combination(((1, A.power(ab, p)), (-1, powers[i]), (-1, powers[j])),
                                      F)
            if reduce(diff):
                additive = False
    return {
        "p": p,
        "hh0_rank": len(reps),
        "representatives": reps,
        "matrix": matrix,
        "well_defined": well_defined,
        "additive": additive,
        "hh0_rank_direct": A.dim - len(commutators.rows),
    }


def ppower_lift_p2(A: AlgebraSpec, a: dict) -> UChain:
    """The p = 2 lift a -> a^2 + 1 (x) a (x) a . u to negative cyclic
    homology mod u^2, with the cycle certificate checked on emission.

    Only p = 2 is implemented.  For p >= 3 the lift has the shape
    a^p + sum_{n even, 2 <= n <= p-3, sum i_t = p} c_{i_0..i_n}
    a^{i_0} (x) ... (x) a^{i_n} u^{n/2} + ((p-1)/2)! a^{(x)p} u^{(p-1)/2}
    with the top coefficient nonzero, but the intermediate coefficients are
    not determined here.  A word a^{i_0} (x) ... (x) a^{i_n} has tensor
    length n and sits in the component of u^{n/2}; the top word a^{(x)p}
    has length p - 1.
    """
    F = A.field
    if F.characteristic != 2:
        raise UnsupportedError("ppower_lift_p2 requires characteristic 2")
    abar = _reduce_tail(F, a)
    chain = UChain(A, 2, [_tensor_words(F, [A.mul_vec(a, a)]),
                          _tensor_words(F, [{0: F.one()}, abar, abar])])
    cert = cycle_certificate(chain)
    if not cert["is_cycle"]:
        raise ContractError("ppower_lift_p2: cycle certificate failed")
    return chain


def lift_difference_is_boundary(A: AlgebraSpec, a: dict, b: dict) -> bool:
    """Whether lift(a+b) - lift(a) - lift(b) is a (d + uB)-boundary mod u^2.

    The difference lives in T^0 = C_0 (+) C_2 u of the N = 2 staircase; a
    preimage is sought in T^{-1} = C_1 (+) C_3 u under its D = d + uB, both
    laid out by `ChainComplex.layout` over their lengths, with no parity
    filter.
    """
    F = A.field
    la, lb = ppower_lift_p2(A, a), ppower_lift_p2(A, b)
    lab = ppower_lift_p2(A, linear_combination(((1, a), (1, b)), F))
    diff = linear_combination([(1, c) for c in lab.components]
                              + [(-1, c) for c in la.components + lb.components], F)
    if not diff:
        return True
    cx = ChainComplex(A)
    src, dst = (cx.layout((n, None, None) for n in lengths) for lengths in ((1, 3), (0, 2)))
    columns = cx.matrix(src, dst, ("boundary", "connes")).columns()
    rows, _ = dst
    rhs = {rows[len(w) - 1][0] + cx.index(len(w) - 1)[w]: v for w, v in diff.items()}
    # membership in one large fixed batch of columns (about 4600 on Mat_3):
    # two batch ranks beat growing an Echelon through them
    return rank_of_columns(columns + [rhs], F) == rank_of_columns(columns, F)
