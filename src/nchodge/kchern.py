"""Chern characters of idempotents as explicit negative-cyclic cycles, and
the characteristic-p power operation on HH_0 with its u-lift at p = 2.

A negative-cyclic chain mod u^N is stored as a list of per-u-power
components, component t being a {word: coefficient} combination of reduced
chain words of tensor length 2t.  The cycle condition (d + uB) ch = 0
mod u^N amounts to d(c_t) + B(c_{t-1}) = 0 for every t < N, and is checked
on emission: the certificate is the sole arbiter of the coefficient
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .algebra import AlgebraSpec
from .cyclic import UnsupportedError
from .fields import Field
from .hochschild import ChainComplex, commutator_columns, hh0_direct
from .sparse import rank_of_columns, solve_in_span


class ContractError(ValueError):
    pass


@dataclass
class Idempotent:
    algebra: AlgebraSpec
    vector: dict  # basis index -> field element

    def __post_init__(self):
        sq = self.algebra.mul_vec(self.vector, self.vector)
        if sq != {k: v for k, v in self.vector.items()
                  if not self.algebra.field.is_zero(v)}:
            raise ContractError("element is not idempotent")


@dataclass
class UChain:
    """Chain over k[u]/u^N: components[t] lives in tensor length degree[t]."""

    algebra: AlgebraSpec
    N: int
    components: list  # t -> {word: coefficient}, word of length degree 2t + 1

    def is_zero(self) -> bool:
        return all(not c for c in self.components)


def _reduce_tail(F: Field, vec: dict) -> dict:
    """Class of an algebra element in A/k.1: drop the unit coordinate."""
    return {k: v for k, v in vec.items() if k != 0 and not F.is_zero(v)}


def _tensor_words(F: Field, factors: list) -> dict:
    """Expand a tensor product of coefficient vectors into chain words."""
    words = {(): F.one()}
    for vec in factors:
        nxt = {}
        for word, c in words.items():
            for i, v in vec.items():
                cv = F.mul(c, v)
                if not F.is_zero(cv):
                    nxt[word + (i,)] = cv
        words = nxt
    return words


def _add_into(F: Field, acc: dict, inc: dict, scale=None):
    for k, v in inc.items():
        if scale is not None:
            v = F.mul(scale, v)
        s = F.add(acc.get(k, F.zero()), v)
        if F.is_zero(s):
            acc.pop(k, None)
        else:
            acc[k] = s


def cycle_certificate(chain: UChain) -> dict:
    """Apply (d + uB) mod u^N to the chain; empty components mean a cycle."""
    A = chain.algebra
    F = A.field
    cx = ChainComplex(A)
    out = []
    for t in range(chain.N):
        acc: dict = {}
        for word, c in chain.components[t].items():
            if len(word) >= 2:
                _add_into(F, acc, cx.boundary_word(word), c)
        if t >= 1:
            for word, c in chain.components[t - 1].items():
                _add_into(F, acc, cx.connes_word(word), c)
        out.append(acc)
    return {"is_cycle": all(not a for a in out), "residue": out}


def chern_idempotent(pi: Idempotent, N: int) -> UChain:
    """The Chern character chain
    ch(pi) = pi + sum_{1<=k<N} (-1)^k (2k)!/k! (pi - 1/2) (x) pi^{(x)2k} u^k,
    reduced into the chain basis; the (d + uB)-cycle certificate is checked
    and a failure raises rather than renormalizing."""
    A = pi.algebra
    F = A.field
    p = F.characteristic
    if p != 0 and p <= 2 * N:
        raise UnsupportedError(
            f"chern_idempotent needs char 0 or p > 2N (p={p}, N={N})")
    half = F.from_fraction(__import__("fractions").Fraction(1, 2))
    shifted = dict(pi.vector)
    _add_into(F, shifted, {0: F.neg(half)})
    tail = _reduce_tail(F, pi.vector)
    components = [{(k,): v for k, v in pi.vector.items() if not F.is_zero(v)}]
    for k in range(1, N):
        coeff = F.from_int((-1) ** k * factorial(2 * k) // factorial(k))
        words = _tensor_words(F, [shifted] + [tail] * (2 * k))
        comp: dict = {}
        _add_into(F, comp, words, coeff)
        components.append(comp)
    chain = UChain(A, N, components)
    cert = cycle_certificate(chain)
    if not cert["is_cycle"]:
        raise ContractError("chern_idempotent: cycle certificate failed; "
                            "refusing to renormalize")
    return chain


def u0_class_nonzero(chain: UChain) -> bool:
    """Whether the u^0 component represents a nonzero class in HH_0."""
    A = chain.algebra
    F = A.field
    comp = chain.components[0]
    v = {w[0]: c for w, c in comp.items()} if comp and isinstance(
        next(iter(comp)), tuple) else dict(comp)
    if not v:
        return False
    cols = commutator_columns(A)
    base = rank_of_columns(cols, F)
    return rank_of_columns(cols + [v], F) > base


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
    comm_rank = rank_of_columns(comm, F)

    def in_commutators(v: dict) -> bool:
        v = {k: c for k, c in v.items() if not F.is_zero(c)}
        if not v:
            return True
        return rank_of_columns(comm + [v], F) == comm_rank

    # representative basis of A/[A,A]: greedy over basis vectors
    reps = []
    current = list(comm)
    current_rank = comm_rank
    for i in range(A.dim):
        cand = current + [{i: F.one()}]
        r = rank_of_columns(cand, F)
        if r > current_rank:
            reps.append(i)
            current = cand
            current_rank = r

    def project(v: dict):
        """Coordinates of the class of v on the representative basis."""
        sol = solve_in_span(comm + [{i: F.one()} for i in reps], v, F)
        if sol is None:
            raise ContractError("projection to A/[A,A] failed")
        return {t: sol.get(len(comm) + t, F.zero()) for t in range(len(reps))}

    matrix = {}
    for t, i in enumerate(reps):
        img = A.power({i: F.one()}, p)
        matrix[t] = project(img)

    # certificate (i): independence of the choice of lift — perturbing any
    # representative by any spanning commutator does not change the class
    well_defined = True
    witnesses = []
    for i in reps:
        base = A.power({i: F.one()}, p)
        for c in comm:
            perturbed = dict(c)
            _add_into(F, perturbed, {i: F.one()})
            diff = A.power(perturbed, p)
            _add_into(F, diff, base, F.neg(F.one()))
            if not in_commutators(diff):
                well_defined = False
                witnesses.append(("lift", i))
    # certificate (ii): additivity on all basis pairs
    additive = True
    for i in range(A.dim):
        for j in range(A.dim):
            ab = {i: F.one()}
            _add_into(F, ab, {j: F.one()})
            diff = A.power(ab, p)
            _add_into(F, diff, A.power({i: F.one()}, p), F.neg(F.one()))
            _add_into(F, diff, A.power({j: F.one()}, p), F.neg(F.one()))
            if not in_commutators(diff):
                additive = False
                witnesses.append(("additivity", i, j))
    return {
        "p": p,
        "hh0_rank": len(reps),
        "representatives": reps,
        "matrix": matrix,
        "well_defined": well_defined,
        "additive": additive,
        "witnesses": witnesses,
        "hh0_rank_direct": hh0_direct(A)["rank"],
    }


def ppower_lift_p2(A: AlgebraSpec, a: dict) -> UChain:
    """The p = 2 lift a -> a^2 + 1 (x) a (x) a . u to negative cyclic
    homology mod u^2, with the cycle certificate checked on emission."""
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

    The difference lives in C_0 (+) C_2 u; a preimage is sought in
    C_1 (+) C_3 u under the block map [[d, 0], [B, d]].
    """
    F = A.field
    ab = dict(a)
    _add_into(F, ab, b)
    la, lb, lab = ppower_lift_p2(A, a), ppower_lift_p2(A, b), ppower_lift_p2(A, ab)
    diff0: dict = {}
    diff1: dict = {}
    _add_into(F, diff0, lab.components[0])
    _add_into(F, diff0, la.components[0], F.neg(F.one()))
    _add_into(F, diff0, lb.components[0], F.neg(F.one()))
    _add_into(F, diff1, lab.components[1])
    _add_into(F, diff1, la.components[1], F.neg(F.one()))
    _add_into(F, diff1, lb.components[1], F.neg(F.one()))
    cx = ChainComplex(A)
    b0 = cx.basis(0)
    b2 = cx.basis(2)
    idx0 = {w: i for i, w in enumerate(b0)}
    idx2 = {w: len(b0) + i for i, w in enumerate(b2)}
    cols = []
    for word in cx.basis(1):
        col = {}
        for tgt, v in cx.boundary_word(word).items():
            col[idx0[tgt]] = v
        for tgt, v in cx.connes_word(word).items():
            key = idx2[tgt]
            s = F.add(col.get(key, F.zero()), v)
            if F.is_zero(s):
                col.pop(key, None)
            else:
                col[key] = s
        if col:
            cols.append(col)
    for word in cx.basis(3):
        col = {idx2[tgt]: v for tgt, v in cx.boundary_word(word).items()}
        if col:
            cols.append(col)
    target = {}
    for w, v in diff0.items():
        target[idx0[w]] = v
    for w, v in diff1.items():
        target[idx2[w]] = v
    target = {k: v for k, v in target.items() if not F.is_zero(v)}
    if not target:
        return True
    base = rank_of_columns(cols, F)
    return rank_of_columns(cols + [target], F) == base


def ppower_lift(A: AlgebraSpec, a: dict, p: int):
    """General u-lift of the p-power operation.

    Only p = 2 is implemented.  For p >= 3 the lift has the shape
    a^p + sum_{n even, 2 <= n <= p-3, sum i_t = p} c_{i_0..i_n}
    a^{i_0} (x) ... (x) a^{i_n} u^{(n-1)/2} + ((p-1)/2)! a^{(x)p} u^{(p-1)/2}
    with the top coefficient nonzero, but the intermediate coefficients are
    not determined here.
    """
    if p == 2:
        return ppower_lift_p2(A, a)
    raise NotImplementedError(
        "the p >= 3 lift is not implemented: its terms are "
        "a^{i_0} (x) ... (x) a^{i_n} u^{(n-1)/2} over even n <= p-3 with "
        "sum i_t = p, plus ((p-1)/2)! a^{(x)p} u^{(p-1)/2}; the intermediate "
        "coefficients are undetermined in this engine")
