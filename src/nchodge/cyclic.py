"""Negative/periodic cyclic homology at finite u-truncation, the Hodge
filtration, degeneration checks, the char-p comparison, and the graded-piece
(1-sigma, norm) analysis.

Two realizations of the truncated negative cyclic complex
(C^red[u]/u^N, d + uB), deg(u) = +2:

* connected-graded algebras (every non-unit basis weight >= 1): the
  weight-w subcomplex only involves tensor lengths n <= w, so the honest
  Z/2-folded complex is a finite complex of free k[u]-modules, with
  (d + uB)^2 = 0 over k[u], and is decomposed directly (`umodule`).  Its
  profile modulo u^N then fixes the one modulo u^M for every M < N
  (`UModuleReport.truncated`): `hp_ranks` derives its N - 1 profile
  instead of computing it;

* ungraded algebras: folding a length-truncated window breaks
  (d + uB)^2 = 0 at the edge, so we use the total-degree realization
  T^m = sum_{j<N} u^j C_{2j-m}, on which D = d + uB raises m by one and
  squares to zero exactly; homology per degree plus the ranks of the
  u-shift maps give the k[u]/u^N-module filtration dims, from which block
  sizes are recovered by second differences.  Above the floor these are
  the dims of a k[u]-module, so a negative second difference is a fault
  of the computation and raises, as (d + uB)^2 != 0 does on the folded
  path: neither realization has a second outcome.  Everything degree m reads
  (D_m, D_{m-1}, the cycles of T^{m-2t}) is made at degree m or below, so
  one ascending pass over m computes it.  The window's lowest degree
  m_floor = 2(N - 1) - n_max receives no D from inside the window: its
  homology is a window-edge artefact, reported as `unstable_floor_dims`
  and kept out of the profile.

Both realizations run on the Hochschild complex relative to the vertex
idempotents (see the `hochschild` docstring).  The projection from the
absolute normalized mixed complex onto the relative one commutes with b and
B and is a quasi-isomorphism for b; the u-filtration of (C[u]/u^N, b + uB)
is finite, so the projection is an isomorphism on the homology of every
staircase degree m_floor < m <= m_hi, as k[u]/u^N-modules, and the profile
is the absolute one.  The floor is not: there the window cuts the complex
off, and its homology depends on the complex.  `unstable_floor_dims`
reports the absolute complex's, exactly: the truncated staircase
T^{m_floor} -> ... -> T^{m_hi} -> 0 is a finite complex, so per word parity
its Euler characteristic gives

  h^{m_floor} = sum_m (-1)^{m - m_floor} dim T^m - sum_{m > m_floor} (-1)^{m - m_floor} h^m

with dim T^m the absolute block sizes (`hochschild.absolute_block_size`,
counted, not enumerated) and h^m (m > m_floor) the relative homology.
With S = k the two complexes are one and this is the floor homology itself.

Homology class parity is (tensor length + internal word parity) mod 2, so
super algebras contribute odd classes from even chain degrees and vice
versa.

Neither realization enumerates chain words or assembles a matrix: each
names the `ChainComplex` blocks (length, weight, word parity) that a map
runs between (`ChainComplex.layout`), and `ChainComplex.matrix` writes
their d and B images.  Position q of the folded complex holds the weight-w
blocks of word parity (q - n) mod 2 and of the lengths n with w in
`ChainComplex.weights(n)`; T^m of the staircase, those of lengths 2j - m,
j < N.  Both lay their blocks out by ascending length.

The graded pieces need no chain complex of an algebra and no elimination:
the homology of (1 - sigma, norm) on V^{(x)n} is a count of the rotation
orbits of the words, by Shapiro's lemma (`graded_piece_analysis`), so
this module forms no matrix of its own.
"""

from __future__ import annotations

from .algebra import AlgebraSpec
from .fields import Field, SizeError, UnsupportedError
from .hochschild import ChainComplex, DegreeWindow, absolute_block_size, guard_safe_weights
from .sparse import homology_from_ranks, kernel_basis, rank, rank_of_columns
from .umodule import (UTruncation, UComplex, UModuleReport,
                      blocks_from_filtration_dims, u_module_decompose)


class CyclicReport:
    """u-module profile of the truncated negative cyclic complex.

    even/odd are UModuleReports for the two total parities; per_weight
    holds the weight-resolved profiles for graded algebras; flags carries
    guard-band and window diagnostics.
    """

    def __init__(self, even: UModuleReport, odd: UModuleReport, N: int, n_max: int,
                 per_weight: dict | None, flags: dict):
        self.even = even
        self.odd = odd
        self.N = N
        self.n_max = n_max
        self.per_weight = per_weight
        self.flags = flags

    def torsion_inventory(self) -> list:
        """[parity, block size] of every torsion block, as the report lists it."""
        return [[par, a] for par, rep in (("even", self.even), ("odd", self.odd))
                for a in rep.torsion_list]

    def to_dict(self) -> dict:
        d = {
            "even": self.even.to_dict(),
            "odd": self.odd.to_dict(),
            "truncation": self.N,
            "n_max": self.n_max,
            "flags": dict(self.flags),
        }
        if self.per_weight is not None:
            d["per_weight"] = {str(w): {"even": e.to_dict(), "odd": o.to_dict()}
                               for w, (e, o) in self.per_weight.items()}
        return d


def _profile(cx: ChainComplex, window: DegreeWindow, N: int) -> CyclicReport:
    """The setup of every cyclic command: check the window once, then run
    the realization that fits the algebra."""
    if N < 1:
        raise SizeError(f"truncation N={N} must be >= 1")
    if window.n_max < 2 * N:
        raise SizeError(
            f"window n_max={window.n_max} too small for truncation N={N}: "
            f"need n_max >= 2N")
    if cx.A.connected_graded:
        return _graded_negative_cyclic(cx, window, N)
    window.refuse_weight_bounds(
        f"{cx.A.name} is not connected-graded, so its cyclic complex is not split by weight")
    return _staircase_negative_cyclic(cx, window, N)


# ---------------------------------------------------------------------------
# connected-graded path: honest folded complex per weight
# ---------------------------------------------------------------------------


def _folded_weight_complex(cx: ChainComplex, w: int, N: int, n_max: int):
    """Z/2-folded (d + uB)-complex of the weight-w subchains as a UComplex.

    Positions 0/1 carry the even/odd total parity, and diffs[q] maps q to
    1 - q.  Each differential is [d, B], its coefficients of u^0 and u^1,
    and [d] alone with N = 1.  It holds the lengths n whose `cx.weights(n)`
    holds w: on a connected-graded algebra n <= w, so the complex fits in
    the window (n <= n_max) when w <= n_max.
    """
    lengths = [n for n in range(min(w, n_max) + 1) if w in cx.weights(n)]
    layouts = [cx.layout((n, w, (q - n) % 2) for n in lengths) for q in (0, 1)]
    diffs = {}
    for q in (0, 1):
        src, dst = layouts[q], layouts[1 - q]
        diffs[q] = [cx.matrix(src, dst, ("boundary",))]
        if N > 1:
            diffs[q].append(cx.matrix(src, dst, ("connes",)))
    return UComplex(UTruncation(N), {0: layouts[0][1], 1: layouts[1][1]}, diffs)


def _graded_negative_cyclic(cx: ChainComplex, window: DegreeWindow, N: int) -> CyclicReport:
    A = cx.A
    w_hi = window.w_max
    if w_hi is None:
        w_hi = A.max_weight if A.max_weight is not None else window.n_max
    w_hi = min(w_hi, window.n_max)
    w_lo = window.w_min if window.w_min is not None else 0
    if w_lo > w_hi:
        if window.w_min is None:  # only a w_max below 0 empties the range then
            raise SizeError(f"weight bound w_max={window.w_max} is below 0, the lowest "
                            f"weight of a connected-graded algebra")
        # the weights above w_hi are not computed, so zeros there are no result
        raise SizeError(f"weight bound w_min={w_lo} is above the top weight {w_hi} "
                        f"that this window reaches (weights 0..{w_hi})")
    per_weight = {}
    flags: dict = {"weights_covered": [w_lo, w_hi]}
    for w in range(w_lo, w_hi + 1):
        uc = _folded_weight_complex(cx, w, N, window.n_max)
        if not (uc.ranks[0] or uc.ranks[1]):
            continue  # no word of weight w
        reports = u_module_decompose(uc, A.field)
        per_weight[w] = (reports[0], reports[1])
    unsafe = [w for w, safe in guard_safe_weights(A, per_weight).items() if not safe]
    if unsafe:
        flags["guard_unsafe_weights"] = unsafe
    return _graded_report(per_weight, N, window.n_max, flags)


def _graded_report(per_weight: dict, N: int, n_max: int, flags: dict) -> CyclicReport:
    """The CyclicReport of per-weight (even, odd) profiles, summed in weight
    order."""
    even = odd = UModuleReport(0, {}, N)
    for e, o in per_weight.values():
        even, odd = even.merge(e), odd.merge(o)
    return CyclicReport(even, odd, N, n_max, per_weight, flags)


# ---------------------------------------------------------------------------
# ungraded path: total-degree staircase realization
# ---------------------------------------------------------------------------


def _staircase_layout(cx: ChainComplex, m: int, p: int, n_max: int, N: int) -> tuple:
    """`ChainComplex.layout` of T^m_p: the blocks of word parity p and
    lengths 2j - m, j < N, that lie in the window."""
    return cx.layout((n, None, p) for n in range(-m, 2 * N - m, 2) if 0 <= n <= n_max)


def _staircase_shift(vectors: list, src: tuple, dst: tuple) -> list:
    """u^t on vectors of T^m_p, landing in T^{m+2t}_p (layouts `src` and
    `dst`): the length-n block moves to the length-n block of T^{m+2t},
    and is dropped where that would reach u^N.

    The shared lengths are the shortest of `src` and the longest of `dst`,
    so its first `size` indices move by one offset to the last of `dst`."""
    (blocks, _), (dst_blocks, dst_dim) = src, dst
    first = next(iter(blocks))
    offset = dst_blocks[first][0] if first in dst_blocks else dst_dim
    size = dst_dim - offset
    return [{i + offset: c for i, c in v.items() if i < size} for v in vectors]


def _staircase_negative_cyclic(cx: ChainComplex, window: DegreeWindow, N: int) -> CyclicReport:
    """k[u]/u^N profile from the staircase T^m, m_floor <= m <= m_hi =
    2(N - 1), in one ascending pass over m per word parity p.

    H^m needs D_m and D_{m-1}; the image of u^t . H^{m-2t} in H^m needs
    the cycles of T^{m-2t} and D_{m-1}.  So the pass holds only D_{m-1},
    its rank, and the cycles of the degrees m - 2t (0 < t < N) that have
    homology, and builds and eliminates each D_m once: as a kernel where
    its cycles may be shifted later (N > 1 and m_floor < m <= m_hi - 2),
    else as a rank.  The floor degree m_floor is the one exception: no D
    into it is built, and its homology goes to `unstable_floor_dims`
    instead of the profile, unshifted: that of the absolute complex, from
    the alternating sum of the block sizes and the stable homology (see
    the module docstring).

    Every length 2j - m of a degree m > m_floor is below n_max, so T^m and
    the D into it are those of C[u]/u^N itself, and H^m is its homology in
    total degree m.  u raises m by 2 and H^m = 0 above m_hi, so the stable
    degrees of one total parity span a k[u]-submodule M of that homology,
    killed by u^N: a sum of blocks k[u]/u^a, a <= N.  The pass counts
    dims[t] = dim u^t M, whose second differences are the block counts and
    never negative; `blocks_from_filtration_dims` raises on a negative one,
    which only a wrong elimination can give, and the command exits 1.
    """
    F = cx.A.field
    n_max = window.n_max
    m_hi = 2 * (N - 1)
    m_floor = m_hi - n_max
    flags: dict = {"degree_range": [m_floor, m_hi]}
    # dims[par][t] accumulates dim u^t . H over stable degrees of total parity par
    dims = {0: [0] * N, 1: [0] * N}
    floor_dims = [0, 0]
    for p in ((0, 1) if cx.A.is_super else (0,)):
        layout = _staircase_layout(cx, m_floor, p, n_max, N)
        d_in, rank_in = None, 0  # D_{m-1}; no map into the floor
        cycles: dict = {}  # degree -> (layout, cycles)
        floor = 0  # the alternating sum that leaves the absolute floor homology
        for m in range(m_floor, m_hi + 1):
            par = (m + p) % 2
            sources = [t for t in range(1, N) if m - 2 * t in cycles]
            if sources:
                # the rank of the boundary columns is the rank of the map they span
                bd = [col for col in d_in.columns() if col]
                for t in sources:
                    src, z = cycles[m - 2 * t]
                    shifted = [v for v in _staircase_shift(z, src, layout) if v]
                    dims[par][t] += rank_of_columns(shifted + bd, F) - rank_in
            cycles.pop(m - 2 * (N - 1), None)
            nxt = _staircase_layout(cx, m + 1, p, n_max, N)
            D = cx.matrix(layout, nxt, ("boundary", "connes"))  # d + uB
            z = None
            if N > 1 and m_floor < m <= m_hi - 2:
                z = kernel_basis(D, F)
                rank_out = D.cols - len(z)
            else:
                rank_out = rank(D, F)
            h = homology_from_ranks(layout[1], rank_out, rank_in) if m > m_floor else 0
            # dim T^m_p of the absolute complex, over the lengths of this layout
            absolute = sum(absolute_block_size(cx.A, n, p) for n in layout[0])
            floor += absolute - h if (m - m_floor) % 2 == 0 else h - absolute
            if h:
                dims[par][0] += h
                if z is not None:
                    cycles[m] = (layout, z)
            layout, d_in, rank_in = nxt, D, rank_out
        floor_dims[(m_floor + p) % 2] += floor
    if floor_dims[0] or floor_dims[1]:
        flags["unstable_floor_dims"] = floor_dims
    even, odd = (blocks_from_filtration_dims(dims[par], N) for par in (0, 1))
    return CyclicReport(even, odd, N, window.n_max, None, flags)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def negative_cyclic(A: AlgebraSpec, window: DegreeWindow, N: int) -> CyclicReport:
    """u-module decomposition of H(C^red[u]/u^N, d + uB), folded to Z/2."""
    return _profile(ChainComplex(A, relative=True), window, N)


def hp_ranks(A: AlgebraSpec, window: DegreeWindow, N: int) -> dict:
    """Periodic cyclic rank estimate: stabilized free ranks of the truncated
    negative cyclic homology.

    Conclusive only when the free ranks agree at truncations N and N-1 and
    the torsion profile is saturated (all block sizes <= N-2).  Inconclusive
    is a result, not an error: its verdict is `inconclusive` and its
    filtration all zero.  The result holds the ranks (`hp_even`, `hp_odd`),
    `conclusive`, the `verdict`, the `filtration` (index as a string,
    half-integers for the odd part -> rank) and both profiles.

    On a connected-graded algebra the N - 1 profile (`profile_previous`) is
    derived from the N one, weight by weight: blocks of size N - 1 become
    free (see the module docstring).  So there stable follows from
    saturated.  The staircase of an ungraded algebra is computed again at
    N - 1, as its window floor moves with N.
    """
    if N < 2:
        raise SizeError("hp_ranks needs N >= 2 for the stabilization check")
    # both truncations read the same bases and word indexes
    cx = ChainComplex(A, relative=True)
    rep = _profile(cx, window, N)
    if rep.per_weight is None:
        prev = _profile(cx, window, N - 1)
    else:
        prev = _graded_report({w: (e.truncated(N - 1), o.truncated(N - 1))
                               for w, (e, o) in rep.per_weight.items()},
                              N - 1, rep.n_max, dict(rep.flags))
    stable = (rep.even.free_rank == prev.even.free_rank
              and rep.odd.free_rank == prev.odd.free_rank)
    saturated = rep.even.saturated_at_N and rep.odd.saturated_at_N
    conclusive = stable and saturated
    filtration = {}
    for i in range(N + 1):  # F^N and F^{N+1/2} are 0
        filtration[str(i)] = rep.even.free_rank if conclusive and i < N else 0
        filtration[f"{2 * i + 1}/2"] = rep.odd.free_rank if conclusive and i < N else 0
    verdict = ("inconclusive" if not conclusive else
               "finite-torsion-found" if rep.torsion_inventory() else "collapses-in-window")
    return {"hp_even": rep.even.free_rank, "hp_odd": rep.odd.free_rank,
            "conclusive": conclusive, "verdict": verdict, "filtration": filtration,
            "truncation": N, "n_max": rep.n_max,
            "profile": rep.to_dict(), "profile_previous": prev.to_dict()}


def hodge_filtration(A: AlgebraSpec, window: DegreeWindow, N: int) -> dict:
    """Filtration ranks F^i (integer indices: even part; half-integers: odd).

    Desk-scale realization: F^i is the rank of the image of u^i on the free
    part of the truncated negative cyclic homology, which stays the full
    free rank for i < N and drops to zero at the truncation bound.
    Refuses on inconclusive HP.
    """
    rep = hp_ranks(A, window, N)
    if not rep["conclusive"]:
        raise UnsupportedError("hodge_filtration: HP estimate is inconclusive "
                               "at this window/truncation")
    return rep["filtration"]


def degeneration_check(A: AlgebraSpec, window: DegreeWindow, N: int) -> dict:
    """Hodge-to-de-Rham degeneration verdict in the window.

    collapses-in-window iff the truncated homology is u-free (no finite
    Jordan blocks) in every computed slot, else finite-torsion-found; the
    torsion inventory is returned with it.
    """
    rep = _profile(ChainComplex(A, relative=True), window, N)
    inventory = rep.torsion_inventory()
    return {
        "verdict": "finite-torsion-found" if inventory else "collapses-in-window",
        "torsion_inventory": inventory,
        "profile": rep.to_dict(),
    }


def char_p_compare(A: AlgebraSpec, window: DegreeWindow, N: int) -> dict:
    """Free-rank comparison of the (d + uB)- and d-only complexes over
    F_p[u]/u^N, per weight slot for graded algebras.

    The conjectured comparison is p-semilinear (Cartier-style): it pairs
    the weight-w slot of the d-only complex with the weight-pw slot of the
    (d + uB) complex, and forces the free rank of the latter to vanish on
    weights not divisible by p.  (The literal same-weight comparison
    provably fails already for F_p[x]/x^2 at odd weights.)  Desk-scale
    evidence only; char-0 input is unsupported (over Q the localized
    complex is expected to be acyclic and the comparison is vacuous).
    """
    if A.field.characteristic == 0:
        raise UnsupportedError("char_p_compare requires a prime field")
    p = A.field.characteristic
    cx = ChainComplex(A, relative=True)
    with_b = _profile(cx, window, N)
    if A.connected_graded:
        w_hi = max(with_b.per_weight, default=0)
        safe = guard_safe_weights(A, range(w_hi + 1))

        def free_pair(w):
            return [r.free_rank for r in with_b.per_weight.get(w, ())] or [0, 0]

        slots = []
        for w in sorted(with_b.per_weight):
            if p * w > w_hi:
                continue  # partner slot outside the computed window
            # the d-only complex is the folded one modulo u
            lhs = [r.truncated(1).free_rank for r in with_b.per_weight[w]]
            rhs = free_pair(p * w)
            agree = lhs == rhs
            guard = safe[w] and safe[p * w]
            slots.append({"weight": w, "partner_weight": p * w,
                          "without_b": lhs, "with_b": rhs,
                          "agree": agree, "guard_safe": guard})
        off_frobenius = []
        for s in sorted(with_b.per_weight):
            if s % p == 0:
                continue
            pair = free_pair(s)
            ok = pair == [0, 0]
            off_frobenius.append({"weight": s, "with_b": pair, "vanishes": ok,
                                  "guard_safe": safe[s]})
        # only the slots and weights the guard band leaves intact are judged
        agree_all = (all(s["agree"] for s in slots if s["guard_safe"])
                     and all(o["vanishes"] for o in off_frobenius if o["guard_safe"]))
        return {"per_slot": slots, "off_frobenius": off_frobenius,
                "agree": agree_all, "truncation": N, "n_max": window.n_max}
    # The d-only complex C (x) k[u]/u^N is u-free of rank dim H(C, d), counted
    # in the lengths n <= n_max - 2N + 1, whose u^{N-1} multiple stays inside
    # the window: the staircase at N = 1 on a window one longer, whose floor
    # length it leaves out.
    d_only = _staircase_negative_cyclic(cx, DegreeWindow(window.n_max - 2 * N + 2), 1)
    without_b = [d_only.even.free_rank, d_only.odd.free_rank]
    agree = [with_b.even.free_rank, with_b.odd.free_rank] == without_b
    return {"per_slot": [{"weight": None,
                          "with_b": [with_b.even.free_rank, with_b.odd.free_rank],
                          "without_b": without_b,
                          "agree": agree, "guard_safe": True}],
            "agree": agree, "truncation": N, "n_max": window.n_max}


# ---------------------------------------------------------------------------
# graded pieces of the length filtration: the (1 - sigma, norm) complex
# ---------------------------------------------------------------------------


# The complex holds n * dimV^n rotation terms, dimV^n words of n rotations
# each.  The orbit count forms none of them, but the bound stays: n * dimV^n
# is still the size of the complex the command reports on, so every input
# it took is still taken and every other refused, and it bounds the exact
# integers dimV^d (d | n) that the count forms.
MAX_ROTATION_TERMS = 100_000


def graded_piece_analysis(dimV: int, n: int, F: Field) -> dict:
    """Homology ranks of the 2-periodic complex (1 - sigma, norm) on V^{(x)n},
    the norm being sum_{k<n} sigma^k.

    sigma is the cyclic rotation with the shifted-sign rule: it moves the
    last letter of a word to the front with the sign (-1)^{n-1}, so sigma^n
    = 1 and the complex is the Tate complex of Z/n acting on V^{(x)n}.  It
    splits over the rotation orbits of the words.  The words of least
    period s (s | n) number prim(s) = dimV^s - sum prim(d) over the
    divisors d < s of s, and form prim(s)/s orbits.  Such an orbit spans
    the module induced from its stabilizer, the order-n/s subgroup of
    sigma^s, which multiplies the orbit's first word by eps = (-1)^{s(n-1)}.
    By Shapiro's lemma its Tate cohomology is that of Z/(n/s) on the line
    k with eps: there 1 - sigma^s is 1 - eps and the norm sum_j eps^j, so
    both homologies are k exactly when the characteristic p divides n/s
    and eps = 1 (or p = 2, where eps = 1), and 0 otherwise, so always 0
    over Q.  Both ranks are the number h of such orbits; they vanish when
    gcd(n, p) = 1.

    Returns the ranks of ker(1-sigma)/im(norm) and ker(norm)/im(1-sigma).
    More than MAX_ROTATION_TERMS rotation terms n * dimV^n are refused
    before anything is formed.
    """
    if dimV < 1 or n < 1:
        raise SizeError("need dimV >= 1 and n >= 1")
    # exact while n is at most the bound's bit length or dimV = 1, and
    # above the bound otherwise: no large power is taken
    if n * dimV ** min(n, MAX_ROTATION_TERMS.bit_length()) > MAX_ROTATION_TERMS:
        raise SizeError(f"graded pieces of dimV = {dimV}, n = {n} need more than "
                        f"MAX_ROTATION_TERMS = {MAX_ROTATION_TERMS} rotation terms")
    p = F.characteristic
    prim: dict = {}  # least period s -> number of words
    h = 0
    for s in (s for s in range(1, n + 1) if n % s == 0):
        prim[s] = dimV ** s - sum(c for d, c in prim.items() if s % d == 0)
        if p and (n // s) % p == 0 and (p == 2 or s * (n - 1) % 2 == 0):
            h += prim[s] // s
    return {
        "dimV": dimV, "n": n, "field": str(F),
        "ker_one_minus_sigma_mod_norm": h,
        "ker_norm_mod_one_minus_sigma": h,
        "acyclic": h == 0,
    }
