"""Chern characters of idempotents as explicit negative-cyclic cycles, and
the characteristic-p power operation on HH_0 with its u-lift at p = 2.

A negative-cyclic chain mod u^N is stored as a list of per-u-power
components, component t being a {word: coefficient} combination of reduced
chain words of tensor length 2t.  The cycle condition (d + uB) ch = 0
mod u^N amounts to d(c_t) + B(c_{t-1}) = 0 for every t < N, and is checked
on emission: the certificate is the sole arbiter of the coefficient
conventions.  It applies d and B to each component as a whole, with image
words held as int codes (`ChainComplex.add_boundaries` and `add_connes`),
and turns back into words only what does not cancel.

Classes in HH_0 = A/[A,A] come from `hochschild.commutator_classes`, the
`sparse.Echelon` of the commutators whose rows `hh0_direct` counts: the
remainder of its `reduce` names a vector's class.  The power operation
keeps a second `Echelon` of those classes, whose `add` picks
representatives greedily in basis order and whose `reduce` gives a class's
coordinates on them, so no elimination runs per element.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .algebra import AlgebraSpec
from .cyclic import UnsupportedError, _staircase_layout
from .fields import Field, SizeError, linear_combination, reduced_entries
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
    """Chain over k[u]/u^N: components[t], for t < N, is a {word:
    coefficient} combination of words of 2t + 1 letters, i.e. of tensor
    length 2t."""

    def __init__(self, algebra: AlgebraSpec, N: int, components: list):
        self.algebra = algebra
        self.N = N
        self.components = components


def _reduce_tail(F: Field, vec: dict) -> dict:
    """Class of an algebra element in A/k.1: drop the unit coordinate."""
    return {k: v for k, v in vec.items() if k != 0 and not F.is_zero(v)}


def _tensor_words(F: Field, factors: list, scale: int = 1) -> dict:
    """Expand scale * (x)_i factors[i], a tensor product of coefficient
    vectors, into chain words.

    Each factor's denominators are cleared by their lcm, so the products
    are int products (over F_p every denominator is 1).  Each distinct int
    product c becomes a field element once, as c / D with D the product of
    those lcms, and words with the same c share it; integral values over Q
    come out as ints.
    """
    if F.is_zero(F.from_int(scale)):
        return {}
    words = {(): scale}
    den = 1
    for vec in factors:
        d = lcm(*(v.denominator for v in vec.values()))
        nums = [(i, v.numerator * (d // v.denominator))
                for i, v in vec.items() if not F.is_zero(v)]
        den *= d
        words = {word + (i,): c * n for word, c in words.items() for i, n in nums}
    values = {c: F.from_int(c) if den == 1 else F.from_fraction(Fraction(c, den))
              for c in set(words.values())}
    return {word: values[c] for word, c in words.items()}


def cycle_certificate(chain: UChain) -> dict:
    """Apply (d + uB) mod u^N to the chain; empty components mean a cycle.

    Over Q every coefficient is scaled by L, the lcm of the chain's
    coefficient denominators, so the images accumulate in ints; (d + uB) is
    linear and L is nonzero, so the scaled chain is a cycle exactly when the
    chain is, and the residue is divided by L on the way out.  Component t
    of the image, words of 2t letters, gathers d of component t and B of
    component t - 1 in one accumulator keyed by word codes
    (`ChainComplex.add_boundaries` and `add_connes`, plain + and *),
    which drops its zeros (over F_p, after reducing mod p) once, when it is
    complete; only the nonzero residue is decoded back into words.
    """
    A = chain.algebra
    F = A.field
    cx = ChainComplex(A)
    for t, comp in enumerate(chain.components):
        if set(map(len, comp)) - {2 * t + 1}:
            raise ContractError(f"component {t} of a chain holds a word that does not "
                                f"have {2 * t + 1} letters")
    comps, scale = chain.components, 1  # F_p scalars are ints, so L = 1 there
    if F.p is None:
        ratios = [[c.as_integer_ratio() for c in comp.values()] for comp in comps]
        scale = lcm(*{den for pairs in ratios for _, den in pairs})
        if scale != 1:
            comps = [dict(zip(comp, [num * (scale // den) for num, den in pairs]))
                     for comp, pairs in zip(comps, ratios)]
    out = []
    for t in range(chain.N):
        acc: dict = {}
        cx.add_boundaries(comps[t], acc)
        if t >= 1:
            cx.add_connes(comps[t - 1], acc)
        out.append({cx.decode(code, 2 * t): v for code, v in reduced_entries(acc, F).items()})
    if scale != 1:
        unscale = F.inv(scale)
        out = [{w: F.mul(v, unscale) for w, v in acc.items()} for acc in out]
    return {"is_cycle": all(not a for a in out), "residue": out}


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
    components = [{(k,): v for k, v in pi.vector.items() if not F.is_zero(v)}]
    for k in range(1, N):
        coeff = (-1) ** k * factorial(2 * k) // factorial(k)
        components.append(_tensor_words(F, [shifted] + [tail] * (2 * k), coeff))
    chain = UChain(A, N, components)
    cert = cycle_certificate(chain)
    if not cert["is_cycle"]:
        raise ContractError("chern_idempotent: cycle certificate failed; "
                            "refusing to renormalize")
    return chain


def u0_class_nonzero(chain: UChain) -> bool:
    """Whether the u^0 component represents a nonzero class in HH_0."""
    A = chain.algebra
    rest, _ = commutator_classes(A, commutator_columns(A)).reduce(
        {w[0]: c for w, c in chain.components[0].items()})
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
    c0 = {(k,): v for k, v in A.mul_vec(a, a).items()}
    abar = _reduce_tail(F, a)
    c1 = _tensor_words(F, [{0: F.one()}, abar, abar])
    chain = UChain(A, 2, [c0, c1])
    cert = cycle_certificate(chain)
    if not cert["is_cycle"]:
        raise ContractError("ppower_lift_p2: cycle certificate failed")
    return chain


def lift_difference_is_boundary(A: AlgebraSpec, a: dict, b: dict) -> bool:
    """Whether lift(a+b) - lift(a) - lift(b) is a (d + uB)-boundary mod u^2.

    The difference lives in T^0 = C_0 (+) C_2 u of the N = 2 staircase; a
    preimage is sought in T^{-1} = C_1 (+) C_3 u under its D = d + uB, both
    laid out by `cyclic._staircase_layout` (n_max = 3, no parity filter).
    """
    F = A.field
    la, lb = ppower_lift_p2(A, a), ppower_lift_p2(A, b)
    lab = ppower_lift_p2(A, linear_combination(((1, a), (1, b)), F))
    diff = linear_combination([(1, c) for c in lab.components]
                              + [(-1, c) for c in la.components + lb.components], F)
    if not diff:
        return True
    cx = ChainComplex(A)
    src, dst = (_staircase_layout(cx, m, None, 3, 2) for m in (-1, 0))
    columns = cx.matrix(src, dst, ("boundary", "connes")).columns()
    rows, _ = dst
    rhs = {rows[len(w) - 1][0] + cx.index(len(w) - 1)[w]: v for w, v in diff.items()}
    # membership in one large fixed batch of columns (about 4600 on Mat_3):
    # two batch ranks beat growing an Echelon through them
    return rank_of_columns(columns + [rhs], F) == rank_of_columns(columns, F)
