"""Negative/periodic cyclic homology at finite u-truncation, the Hodge
filtration, degeneration checks, the char-p comparison, and the graded-piece
(1-sigma, norm) analysis.

Two realizations of the truncated negative cyclic complex
(C^red[u]/u^N, d + uB), deg(u) = +2:

* connected-graded algebras (every non-unit basis weight >= 1): the
  weight-w subcomplex only involves tensor lengths n <= w, so the honest
  Z/2-folded complex over k[u]/u^N is finite and is decomposed directly;

* ungraded algebras: folding a length-truncated window breaks
  (d + uB)^2 = 0 at the edge, so we use the total-degree realization
  T^m = sum_{j<N} u^j C_{2j-m}, on which D = d + uB raises m by one and
  squares to zero exactly; homology per degree plus the ranks of the
  u-shift maps give the k[u]/u^N-module filtration dims, from which block
  sizes are recovered by second differences.  Everything degree m reads
  (D_m, D_{m-1}, the cycles of T^{m-2t}) is made at degree m or below, so
  one ascending pass over m computes it.  The window's lowest degree
  m_floor = 2(N - 1) - n_max receives no D from inside the window: its
  homology is a window-edge artefact, reported as `unstable_floor_dims`
  and kept out of the profile.

Homology class parity is (tensor length + internal word parity) mod 2, so
super algebras contribute odd classes from even chain degrees and vice
versa.

Neither realization numbers chain words: each lays `ChainComplex` blocks
(length, weight, word parity) side by side and places their d and B images
by offset.  Position q of the folded complex holds the weight-w blocks of
lengths n = 0, 1, ... and word parity (q - n) mod 2; T^m of the staircase
holds the blocks of lengths 2j - m, j < N.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dc_field

from .algebra import AlgebraSpec
from .fields import Field, SizeError, reduced_entries
from .hochschild import ChainComplex, DegreeWindow, guard_safe_weights
from .sparse import (SparseMatrix, homology_from_ranks, homology_rank, kernel_basis, rank,
                     rank_of_columns)
from .umodule import (UTruncation, UComplex, UModuleReport,
                      blocks_from_filtration_dims, u_module_decompose)


class UnsupportedError(ValueError):
    """Operation not available for the given field or parameters."""


class WindowError(SizeError):
    """Window too small for the requested truncation."""


@dataclass
class CyclicReport:
    """u-module profile of the truncated negative cyclic complex.

    even/odd are UModuleReports for the two total parities; per_weight
    holds the weight-resolved profiles for graded algebras; flags carries
    guard-band and consistency diagnostics.
    """

    even: UModuleReport
    odd: UModuleReport
    N: int
    n_max: int
    per_weight: dict | None = None
    flags: dict = dc_field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.flags.get("profile_inconsistent", False)

    def torsion_inventory(self) -> list:
        out = []
        for par, rep in (("even", self.even), ("odd", self.odd)):
            for a in rep.torsion_list:
                out.append((par, a))
        return out

    def to_dict(self) -> dict:
        d = {
            "even": self.even.to_dict(),
            "odd": self.odd.to_dict(),
            "truncation": self.N,
            "n_max": self.n_max,
            "flags": dict(sorted(self.flags.items())),
        }
        if self.per_weight is not None:
            d["per_weight"] = {str(w): {"even": e.to_dict(), "odd": o.to_dict()}
                               for w, (e, o) in sorted(self.per_weight.items())}
        return d


def _require_window(A: AlgebraSpec, window: DegreeWindow, N: int):
    if N < 1:
        raise SizeError(f"truncation N={N} must be >= 1")
    if window.n_max < 2 * N:
        raise WindowError(
            f"window n_max={window.n_max} too small for truncation N={N}: "
            f"need n_max >= 2N")
    if not A.connected_graded:
        window.refuse_weight_bounds(
            f"{A.name} is not connected-graded, so its cyclic complex is not split by weight")


# ---------------------------------------------------------------------------
# connected-graded path: honest folded complex per weight
# ---------------------------------------------------------------------------


def _folded_weight_complex(cx: ChainComplex, w: int, N: int, n_max: int):
    """Z/2-folded (d + uB)-complex of the weight-w subchains as a UComplex.

    Positions 0/1 carry the even/odd total parity; positions -1 and 2
    only give them an in-map and an out-map, and need no decomposition of
    their own.  With N = 1 the complex is (C, d) alone.  Requires the
    weight-w subcomplex to fit in the window (n <= n_max), which holds for
    connected-graded algebras when w <= n_max.
    """
    lengths = range(min(w, n_max) + 1)
    layouts = [cx.layout((n, w, (q - n) % 2) for n in lengths) for q in (0, 1)]
    diffs = {}
    for q in (0, 1):
        (src, cols), (dst, rows) = layouts[q], layouts[1 - q]
        d_entries: dict = {}
        b_entries: dict = {}
        for n, col0 in src.items():
            p = (q - n) % 2
            if n - 1 in dst:
                cx.place("boundary", n, n - 1, w, p, d_entries, dst[n - 1], col0)
            if N > 1 and n + 1 in dst:
                cx.place("connes", n, n + 1, w, p, b_entries, dst[n + 1], col0)
        diffs[q] = [SparseMatrix(rows, cols, d_entries)]
        if N > 1:
            diffs[q].append(SparseMatrix(rows, cols, b_entries))
            diffs[q].extend(SparseMatrix.zero(rows, cols) for _ in range(N - 2))
    diffs[2] = diffs[0]
    dims = [layouts[0][1], layouts[1][1]]
    return UComplex(UTruncation(N), {-1: dims[1], 0: dims[0], 1: dims[1], 2: dims[0]}, diffs)


def _graded_negative_cyclic(cx: ChainComplex, window: DegreeWindow, N: int) -> CyclicReport:
    A = cx.A
    w_hi = window.w_max
    if w_hi is None:
        w_hi = A.max_weight if A.max_weight is not None else window.n_max
    w_hi = min(w_hi, window.n_max)
    w_lo = window.w_min if window.w_min is not None else 0
    even = UModuleReport(0, {}, N)
    odd = UModuleReport(0, {}, N)
    per_weight = {}
    flags: dict = {"weights_covered": [w_lo, w_hi]}
    for w in range(w_lo, w_hi + 1):
        if not any(cx.basis(n, w) for n in range(0, min(w, window.n_max) + 1)):
            continue
        uc = _folded_weight_complex(cx, w, N, window.n_max)
        reports = u_module_decompose(uc, A.field, positions=(0, 1))
        e, o = reports[0], reports[1]
        per_weight[w] = (e, o)
        even = even.merge(e)
        odd = odd.merge(o)
    unsafe = [w for w, safe in guard_safe_weights(A, per_weight).items() if not safe]
    if unsafe:
        flags["guard_unsafe_weights"] = unsafe
    return CyclicReport(even, odd, N, window.n_max, per_weight, flags)


# ---------------------------------------------------------------------------
# ungraded path: total-degree staircase realization
# ---------------------------------------------------------------------------


def _staircase_layout(cx: ChainComplex, m: int, p: int, n_max: int, N: int) -> tuple:
    """({n: offset}, dim) of T^m_p: the blocks of word parity p and lengths
    2j - m, j < N, that lie in the window."""
    return cx.layout((n, None, p) for n in range(-m, 2 * N - m, 2) if 0 <= n <= n_max)


def _staircase_diff(cx: ChainComplex, src: tuple, dst: tuple, p: int) -> SparseMatrix:
    """D = d + uB from T^m_p to T^{m+1}_p, laid out as `src` and `dst`: d and
    B send the length-n block to the blocks of length n - 1 and n + 1."""
    (src, cols), (dst, rows) = src, dst
    entries: dict = {}
    for n, col0 in src.items():
        for image, target in (("boundary", n - 1), ("connes", n + 1)):
            if target in dst:
                cx.place(image, n, target, None, p, entries, dst[target], col0)
    return SparseMatrix(rows, cols, entries)


def _staircase_shift(vectors: list, src: dict, dst: dict) -> list:
    """u^t on vectors of T^m_p, landing in T^{m+2t}_p (block offsets `src`
    and `dst`): the length-n block moves to the length-n block of T^{m+2t},
    and is dropped where that would reach u^N."""
    lengths, starts = list(src), list(src.values())
    out = []
    for v in vectors:
        sh = {}
        for i, c in v.items():
            n = lengths[bisect_right(starts, i) - 1]
            if n in dst:
                sh[i - src[n] + dst[n]] = c
        out.append(sh)
    return out


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
    instead of the profile, unshifted.
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
        cycles: dict = {}  # degree -> (block offsets, cycles)
        for m in range(m_floor, m_hi + 1):
            par = (m + p) % 2
            sources = [t for t in range(1, N) if m - 2 * t in cycles]
            if sources:
                # the rank of the boundary columns is the rank of the map they span
                bd = [col for col in d_in.columns() if col]
                for t in sources:
                    offsets, z = cycles[m - 2 * t]
                    shifted = [v for v in _staircase_shift(z, offsets, layout[0]) if v]
                    dims[par][t] += rank_of_columns(shifted + bd, F) - rank_in
            cycles.pop(m - 2 * (N - 1), None)
            nxt = _staircase_layout(cx, m + 1, p, n_max, N)
            D = _staircase_diff(cx, layout, nxt, p)
            z = None
            if N > 1 and m_floor < m <= m_hi - 2:
                z = kernel_basis(D, F)
                rank_out = D.cols - len(z)
            else:
                rank_out = rank(D, F)
            h = homology_from_ranks(layout[1], rank_out, rank_in)
            if m == m_floor:
                floor_dims[par] += h
            elif h:
                dims[par][0] += h
                if z is not None:
                    cycles[m] = (layout[0], z)
            layout, d_in, rank_in = nxt, D, rank_out
    if floor_dims[0] or floor_dims[1]:
        flags["unstable_floor_dims"] = floor_dims
    reports = {}
    for par in (0, 1):
        try:
            reports[par] = blocks_from_filtration_dims(dims[par], N)
        except ValueError:
            flags["profile_inconsistent"] = True
            reports[par] = UModuleReport(dims[par][N - 1], {}, N)
    return CyclicReport(reports[0], reports[1], N, window.n_max, None, flags)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def negative_cyclic(A: AlgebraSpec, window: DegreeWindow, N: int) -> CyclicReport:
    """u-module decomposition of H(C^red[u]/u^N, d + uB), folded to Z/2."""
    _require_window(A, window, N)
    if A.connected_graded:
        return _graded_negative_cyclic(ChainComplex(A), window, N)
    return _staircase_negative_cyclic(ChainComplex(A), window, N)


@dataclass
class HodgeReport:
    """HP rank estimate with stabilization diagnostics and the filtration."""

    hp_even: int
    hp_odd: int
    conclusive: bool
    verdict: str          # collapses-in-window | finite-torsion-found | inconclusive
    filtration: dict      # index (as string, half-integers allowed) -> rank
    report_N: CyclicReport
    report_Nm1: CyclicReport | None
    window_n_max: int
    N: int

    def to_dict(self) -> dict:
        return {
            "hp_even": self.hp_even,
            "hp_odd": self.hp_odd,
            "conclusive": self.conclusive,
            "verdict": self.verdict,
            "filtration": dict(self.filtration),
            "truncation": self.N,
            "n_max": self.window_n_max,
            "profile": self.report_N.to_dict(),
            "profile_previous": self.report_Nm1.to_dict() if self.report_Nm1 else None,
        }


def hp_ranks(A: AlgebraSpec, window: DegreeWindow, N: int) -> HodgeReport:
    """Periodic cyclic rank estimate: stabilized free ranks of the truncated
    negative cyclic homology.

    Conclusive only when the free ranks agree at truncations N and N-1 and
    the torsion profile is saturated (all block sizes <= N-2).  Inconclusive
    is a result, not an error.
    """
    if N < 2:
        raise SizeError("hp_ranks needs N >= 2 for the stabilization check")
    _require_window(A, window, N)
    rep = negative_cyclic(A, window, N)
    prev = negative_cyclic(A, window, N - 1)
    stable = (rep.even.free_rank == prev.even.free_rank
              and rep.odd.free_rank == prev.odd.free_rank)
    saturated = rep.even.saturated_at_N and rep.odd.saturated_at_N
    conclusive = stable and saturated and rep.consistent and prev.consistent
    if not conclusive:
        verdict = "inconclusive"
    elif rep.torsion_inventory():
        verdict = "finite-torsion-found"
    else:
        verdict = "collapses-in-window"
    filtration = {}
    for i in range(N):
        filtration[str(i)] = rep.even.free_rank if conclusive else 0
        filtration[f"{2 * i + 1}/2"] = rep.odd.free_rank if conclusive else 0
    filtration[str(N)] = 0
    filtration[f"{2 * N + 1}/2"] = 0
    return HodgeReport(rep.even.free_rank, rep.odd.free_rank, conclusive,
                       verdict, filtration, rep, prev, window.n_max, N)


def hodge_filtration(A: AlgebraSpec, window: DegreeWindow, N: int) -> dict:
    """Filtration ranks F^i (integer indices: even part; half-integers: odd).

    Desk-scale realization: F^i is the rank of the image of u^i on the free
    part of the truncated negative cyclic homology, which stays the full
    free rank for i < N and drops to zero at the truncation bound.
    Refuses on inconclusive HP.
    """
    rep = hp_ranks(A, window, N)
    if not rep.conclusive:
        raise UnsupportedError("hodge_filtration: HP estimate is inconclusive "
                               "at this window/truncation")
    return rep.filtration


def degeneration_check(A: AlgebraSpec, window: DegreeWindow, N: int) -> dict:
    """Hodge-to-de-Rham degeneration verdict in the window.

    collapses-in-window iff the truncated homology is u-free (no finite
    Jordan blocks) in every computed slot; otherwise the torsion inventory
    is returned.
    """
    _require_window(A, window, N)
    rep = negative_cyclic(A, window, N)
    inventory = rep.torsion_inventory()
    if not rep.consistent:
        verdict = "inconclusive"
    elif inventory:
        verdict = "finite-torsion-found"
    else:
        verdict = "collapses-in-window"
    return {
        "verdict": verdict,
        "torsion_inventory": [[par, a] for par, a in inventory],
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
    _require_window(A, window, N)
    p = A.field.characteristic
    cx = ChainComplex(A)
    if A.connected_graded:
        with_b = _graded_negative_cyclic(cx, window, N)
        w_hi = max(with_b.per_weight, default=0)
        safe = guard_safe_weights(A, range(w_hi + 1))

        def free_pair(w):
            return [r.free_rank for r in with_b.per_weight.get(w, ())] or [0, 0]

        slots = []
        agree_all = True
        for w in sorted(with_b.per_weight):
            if p * w > w_hi:
                continue  # partner slot outside the computed window
            # weight-w chains have length n <= w, and w <= n_max here
            lhs = _d_only_free_ranks(cx, w, w)
            rhs = free_pair(p * w)
            agree = lhs == rhs
            guard = safe[w] and safe[p * w]
            slots.append({"weight": w, "partner_weight": p * w,
                          "without_b": lhs, "with_b": rhs,
                          "agree": agree, "guard_safe": guard})
            if guard and not agree:
                agree_all = False
        off_frobenius = []
        for s in sorted(with_b.per_weight):
            if s % p == 0:
                continue
            pair = free_pair(s)
            ok = pair == [0, 0]
            off_frobenius.append({"weight": s, "with_b": pair, "vanishes": ok,
                                  "guard_safe": safe[s]})
            if safe[s] and not ok:
                agree_all = False
        return {"per_slot": slots, "off_frobenius": off_frobenius,
                "agree": agree_all, "truncation": N, "n_max": window.n_max}
    with_b = _staircase_negative_cyclic(cx, window, N)
    # Counted in the lengths whose u^{N-1} multiple stays inside the window.
    without_b = _d_only_free_ranks(cx, window.n_max - 2 * N + 1, None)
    agree = [with_b.even.free_rank, with_b.odd.free_rank] == without_b
    return {"per_slot": [{"weight": None,
                          "with_b": [with_b.even.free_rank, with_b.odd.free_rank],
                          "without_b": without_b,
                          "agree": agree, "guard_safe": True}],
            "agree": agree, "truncation": N, "n_max": window.n_max}


def _d_only_free_ranks(cx: ChainComplex, n_top: int, weight: int | None) -> list:
    """(even, odd) free ranks of the d-only complex C (x) k[u]/u^N in lengths
    n <= n_top.  It is u-free of rank dim H(C, d), so they are the Hochschild
    ranks, a class of length n and word parity p having total parity n + p."""
    out = [0, 0]
    for p in ((0, 1) if cx.A.is_super else (0,)):
        for n in range(n_top + 1):
            out[(n + p) % 2] += cx.hh_rank(n, weight, p)
    return out


# ---------------------------------------------------------------------------
# graded pieces of the length filtration: the (1 - sigma, norm) complex
# ---------------------------------------------------------------------------


def _rotation_matrices(dimV: int, n: int, F: Field) -> tuple:
    """(1 - sigma, norm) on V^{(x)n}, the norm being sum_{k<n} sigma^k.

    sigma is the cyclic rotation with the shifted-sign rule: rotating a word
    of length n carries the sign (-1)^{n-1}.  A word (v_1..v_n) is its
    base-dimV index; sigma moves the last letter to the front, so sigma^k
    sends a word to its k-th rotation with the sign (-1)^{k(n-1)}.  Entries
    are summed raw (a word fixed by sigma gets both terms of 1 - sigma) and
    reduced once.
    """
    dim = dimV ** n
    sign = 1 if (n - 1) % 2 == 0 else -1
    top = dimV ** (n - 1)

    def rotate(i: int) -> int:
        return i // dimV + (i % dimV) * top

    one_minus: dict = {}
    norm: dict = {}
    for i in range(dim):
        one_minus[(i, i)] = 1
        one_minus[(rotate(i), i)] = one_minus.get((rotate(i), i), 0) - sign
        j, s = i, 1
        for _ in range(n):
            norm[(j, i)] = norm.get((j, i), 0) + s
            j, s = rotate(j), s * sign
    return (SparseMatrix(dim, dim, reduced_entries(one_minus, F)),
            SparseMatrix(dim, dim, reduced_entries(norm, F)))


def graded_piece_analysis(dimV: int, n: int, F: Field) -> dict:
    """Homology ranks of the 2-periodic complex (1 - sigma, norm) on V^{(x)n}
    (see `_rotation_matrices`).

    Returns the ranks of ker(1-sigma)/im(norm) and ker(norm)/im(1-sigma);
    both vanish exactly when gcd(n, char) = 1.
    """
    if dimV < 1 or n < 1:
        raise SizeError("need dimV >= 1 and n >= 1")
    one_minus, norm = _rotation_matrices(dimV, n, F)
    # Both homologies are dim - rank(1 - sigma) - rank(norm).
    h = homology_rank(one_minus, norm, F)
    return {
        "dimV": dimV, "n": n, "field": str(F),
        "ker_one_minus_sigma_mod_norm": h,
        "ker_norm_mod_one_minus_sigma": h,
        "acyclic": h == 0,
    }
