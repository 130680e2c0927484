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
  sizes are recovered by second differences.

Homology class parity is (tensor length + internal word parity) mod 2, so
super algebras contribute odd classes from even chain degrees and vice
versa.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import AlgebraSpec
from .fields import Field
from .hochschild import ChainComplex, DegreeWindow, word_parity
from .sparse import SparseMatrix, homology_rank, kernel_basis, rank_of_columns
from .umodule import (UTruncation, UComplex, UModuleReport,
                      blocks_from_filtration_dims, u_module_decompose)


class UnsupportedError(ValueError):
    """Operation not available for the given field or parameters."""


class WindowError(ValueError):
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


def _require_window(window: DegreeWindow, N: int):
    if window.n_max < 2 * N:
        raise WindowError(
            f"window n_max={window.n_max} too small for truncation N={N}: "
            f"need n_max >= 2N")


# ---------------------------------------------------------------------------
# connected-graded path: honest folded complex per weight
# ---------------------------------------------------------------------------


def _folded_weight_complex(cx: ChainComplex, w: int, N: int, n_max: int):
    """Z/2-folded (d + uB)-complex of the weight-w subchains as a UComplex.

    Returns (ucomplex, None); positions 0/1 carry the even/odd total
    parity.  Requires the weight-w subcomplex to fit in the window
    (n <= n_max), which holds for connected-graded algebras when w <= n_max.
    """
    A = cx.A
    F = A.field
    bases = {}   # parity -> list of (n, word)
    index = {}   # parity -> {(n, word): i}
    for q in (0, 1):
        bases[q] = []
        index[q] = {}
    for n in range(0, min(w, n_max) + 1):
        for word in cx.basis(n, w):
            q = (n + word_parity(A, word)) % 2
            index[q][(n, word)] = len(bases[q])
            bases[q].append((n, word))
    diffs_by_parity = {}
    for q in (0, 1):
        dst = index[1 - q]
        d_entries: dict = {}
        b_entries: dict = {}
        for c, (n, word) in enumerate(bases[q]):
            if n >= 1:
                for target, v in cx.boundary_word(word).items():
                    d_entries[(dst[(n - 1, target)], c)] = v
            for target, v in cx.connes_word(word).items():
                key = (n + 1, target)
                if key in dst:
                    b_entries[(dst[key], c)] = v
        rows = len(bases[1 - q])
        cols = len(bases[q])
        coeffs = [SparseMatrix(rows, cols, d_entries)]
        if N > 1:
            coeffs.append(SparseMatrix(rows, cols, b_entries))
            coeffs.extend(SparseMatrix.zero(rows, cols) for _ in range(N - 2))
        diffs_by_parity[q] = coeffs
    ranks = {-1: len(bases[1]), 0: len(bases[0]), 1: len(bases[1]), 2: len(bases[0])}
    diffs = {0: diffs_by_parity[0], 1: diffs_by_parity[1], 2: diffs_by_parity[0]}
    return UComplex(UTruncation(N), ranks, diffs)


def _graded_negative_cyclic(A: AlgebraSpec, window: DegreeWindow, N: int) -> CyclicReport:
    cx = ChainComplex(A)
    F = A.field
    w_hi = window.w_max
    if w_hi is None:
        w_hi = A.max_weight if A.max_weight is not None else window.n_max
    w_hi = min(w_hi, window.n_max)
    w_lo = window.w_min if window.w_min is not None else 0
    even = UModuleReport(0, {}, N)
    odd = UModuleReport(0, {}, N)
    per_weight = {}
    flags: dict = {"weights_covered": [w_lo, w_hi]}
    guard_unsafe = []
    for w in range(w_lo, w_hi + 1):
        if not any(cx.basis(n, w) for n in range(0, min(w, window.n_max) + 1)):
            continue
        uc = _folded_weight_complex(cx, w, N, window.n_max)
        reports = u_module_decompose(uc, F)
        e, o = reports[0], reports[1]
        per_weight[w] = (e, o)
        even = even.merge(e)
        odd = odd.merge(o)
        if A.max_weight is not None and w > A.max_weight - 2:
            guard_unsafe.append(w)
    if guard_unsafe:
        flags["guard_unsafe_weights"] = guard_unsafe
    return CyclicReport(even, odd, N, window.n_max, per_weight, flags)


# ---------------------------------------------------------------------------
# ungraded path: total-degree staircase realization
# ---------------------------------------------------------------------------


class _Staircase:
    """The total-degree complex T^m = sum_{j<N} u^j C_{2j-m} for one parity
    class, with D = d + uB of degree +1 and the u-shift maps."""

    def __init__(self, A: AlgebraSpec, n_max: int, N: int, zero_b: bool = False):
        self.A = A
        self.F = A.field
        self.N = N
        self.n_max = n_max
        self.zero_b = zero_b
        self.cx = ChainComplex(A)
        self.m_hi = 2 * (N - 1)
        self.m_floor = 2 * (N - 1) - n_max
        self._bases: dict = {}
        self._index: dict = {}
        self._diff: dict = {}
        self._cycles: dict = {}
        self._bdry: dict = {}

    def basis(self, m: int, p: int) -> list:
        key = (m, p)
        if key not in self._bases:
            out = []
            for j in range(self.N):
                n = 2 * j - m
                if 0 <= n <= self.n_max:
                    for word in self.cx.basis(n):
                        if word_parity(self.A, word) == p:
                            out.append((j, word))
            self._bases[key] = out
            self._index[key] = {elt: i for i, elt in enumerate(out)}
        return self._bases[key]

    def diff(self, m: int, p: int) -> SparseMatrix:
        """D: T^m_p -> T^{m+1}_p."""
        key = (m, p)
        if key in self._diff:
            return self._diff[key]
        src = self.basis(m, p)
        self.basis(m + 1, p)
        dst = self._index[(m + 1, p)]
        entries = {}
        for c, (j, word) in enumerate(src):
            n = len(word) - 1
            if n >= 1:
                for target, v in self.cx.boundary_word(word).items():
                    entries[(dst[(j, target)], c)] = v
            if not self.zero_b and j + 1 < self.N:
                for target, v in self.cx.connes_word(word).items():
                    entries[(dst[(j + 1, target)], c)] = v
        mat = SparseMatrix(len(self._index[(m + 1, p)]), len(src), entries)
        self._diff[key] = mat
        return mat

    def cycles(self, m: int, p: int) -> list:
        key = (m, p)
        if key not in self._cycles:
            self._cycles[key] = kernel_basis(self.diff(m, p), self.F)
        return self._cycles[key]

    def boundaries(self, m: int, p: int) -> list:
        """Nonzero image columns of D: T^{m-1}_p -> T^m_p."""
        key = (m, p)
        if key not in self._bdry:
            if m - 1 < self.m_floor:
                self._bdry[key] = None  # incomplete below the window floor
            else:
                self._bdry[key] = [col for col in self.diff(m - 1, p).columns() if col]
        return self._bdry[key]

    def homology_dim(self, m: int, p: int) -> int:
        d_in = self.diff(m - 1, p) if m - 1 >= self.m_floor else None
        return homology_rank(self.diff(m, p), d_in, self.F)

    def shift(self, vectors: list, m: int, p: int, t: int) -> list:
        """Apply u^t to vectors on T^m_p, landing in T^{m+2t}_p."""
        if t == 0:
            return [dict(v) for v in vectors]
        src = self.basis(m, p)
        self.basis(m + 2 * t, p)
        dst = self._index[(m + 2 * t, p)]
        out = []
        for v in vectors:
            sh = {}
            for i, c in v.items():
                j, word = src[i]
                if j + t < self.N:
                    sh[dst[(j + t, word)]] = c
            out.append(sh)
        return out

    def u_image_rank(self, m: int, p: int, t: int) -> int:
        """dim of u^t . H^m_p inside H^{m+2t}_p."""
        target = m + 2 * t
        if target > self.m_hi:
            return 0
        shifted = [v for v in self.shift(self.cycles(m, p), m, p, t) if v]
        bd = self.boundaries(target, p)
        if bd is None:
            bd = []
        b_rank = rank_of_columns(bd, self.F)
        return rank_of_columns(shifted + bd, self.F) - b_rank


def _staircase_negative_cyclic(A: AlgebraSpec, window: DegreeWindow, N: int,
                               zero_b: bool = False) -> CyclicReport:
    F = A.field
    st = _Staircase(A, window.n_max, N, zero_b=zero_b)
    parities = (0, 1) if A.is_super else (0,)
    flags: dict = {"degree_range": [st.m_floor, st.m_hi]}
    # dims[par][t] accumulates dim u^t . H over stable degrees of total parity par
    dims = {0: [0] * N, 1: [0] * N}
    floor_dims = {0: 0, 1: 0}
    for p in parities:
        for m in range(st.m_floor, st.m_hi + 1):
            par = (m + p) % 2
            if m == st.m_floor:
                floor_dims[par] += st.homology_dim(m, p)
                continue
            h = st.homology_dim(m, p)
            if h == 0:
                continue
            dims[par][0] += h
            for t in range(1, N):
                dims[par][t] += st.u_image_rank(m, p, t)
    if floor_dims[0] or floor_dims[1]:
        flags["unstable_floor_dims"] = [floor_dims[0], floor_dims[1]]
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
    _require_window(window, N)
    if A.connected_graded:
        return _graded_negative_cyclic(A, window, N)
    return _staircase_negative_cyclic(A, window, N)


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
        raise ValueError("hp_ranks needs N >= 2 for the stabilization check")
    _require_window(window, N)
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
    _require_window(window, N)
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
    _require_window(window, N)
    p = A.field.characteristic
    if A.connected_graded:
        with_b = _graded_negative_cyclic(A, window, N)
        cx = ChainComplex(A)
        no_b: dict = {}
        for w in with_b.per_weight:
            uc = _folded_weight_complex(cx, w, N, window.n_max)
            for pos in uc.diffs:
                coeffs = uc.diffs[pos]
                uc.diffs[pos] = [coeffs[0]] + [
                    SparseMatrix.zero(coeffs[0].rows, coeffs[0].cols)
                    for _ in range(N - 1)]
            reports = u_module_decompose(uc, A.field)
            no_b[w] = (reports[0], reports[1])
        w_hi = max(with_b.per_weight, default=0)

        def free_pair(table, w):
            if w not in table:
                return [0, 0]
            e, o = table[w]
            return [e.free_rank, o.free_rank]

        def guard_safe_w(w):
            return A.max_weight is None or w <= A.max_weight - 2

        slots = []
        agree_all = True
        for w in sorted(no_b):
            if p * w > w_hi:
                continue  # partner slot outside the computed window
            lhs = free_pair(no_b, w)
            rhs = free_pair(with_b.per_weight, p * w)
            agree = lhs == rhs
            guard_safe = guard_safe_w(w) and guard_safe_w(p * w)
            slots.append({"weight": w, "partner_weight": p * w,
                          "without_b": lhs, "with_b": rhs,
                          "agree": agree, "guard_safe": guard_safe})
            if guard_safe and not agree:
                agree_all = False
        off_frobenius = []
        for s in sorted(with_b.per_weight):
            if s % p == 0:
                continue
            pair = free_pair(with_b.per_weight, s)
            ok = pair == [0, 0]
            off_frobenius.append({"weight": s, "with_b": pair, "vanishes": ok,
                                  "guard_safe": guard_safe_w(s)})
            if guard_safe_w(s) and not ok:
                agree_all = False
        return {"per_slot": slots, "off_frobenius": off_frobenius,
                "agree": agree_all, "truncation": N, "n_max": window.n_max}
    with_b = _staircase_negative_cyclic(A, window, N)
    no_b_rep = _staircase_negative_cyclic(A, window, N, zero_b=True)
    agree = ((with_b.even.free_rank, with_b.odd.free_rank)
             == (no_b_rep.even.free_rank, no_b_rep.odd.free_rank))
    return {"per_slot": [{"weight": None,
                          "with_b": [with_b.even.free_rank, with_b.odd.free_rank],
                          "without_b": [no_b_rep.even.free_rank, no_b_rep.odd.free_rank],
                          "agree": agree, "guard_safe": True}],
            "agree": agree, "truncation": N, "n_max": window.n_max}


# ---------------------------------------------------------------------------
# graded pieces of the length filtration: the (1 - sigma, norm) complex
# ---------------------------------------------------------------------------


def graded_piece_analysis(dimV: int, n: int, F: Field) -> dict:
    """Homology ranks of the 2-periodic complex (1 - sigma, norm) on V^{(x)n}.

    sigma is the cyclic rotation with the shifted-sign rule: rotating a word
    of length n carries the sign (-1)^{n-1}.  Returns the ranks of
    ker(1-sigma)/im(norm) and ker(norm)/im(1-sigma); both vanish exactly
    when gcd(n, char) = 1.
    """
    if dimV < 1 or n < 1:
        raise ValueError("need dimV >= 1 and n >= 1")
    dim = dimV ** n
    one = F.one()
    sign = one if (n - 1) % 2 == 0 else F.neg(one)

    def rotate_index(i: int) -> int:
        # word (v_1..v_n) base-dimV, last letter to the front
        last = i % dimV
        return (i // dimV) + last * dimV ** (n - 1)

    sigma = SparseMatrix(dim, dim, {(rotate_index(i), i): sign for i in range(dim)})
    ident = SparseMatrix.identity(dim, F)
    one_minus = ident.add(sigma.scale(F.neg(one), F), F)
    norm = SparseMatrix.zero(dim, dim)
    power = ident
    for _ in range(n):
        norm = norm.add(power, F)
        power = sigma.mul(power, F)
    # Both homologies are dim - rank(1 - sigma) - rank(norm).
    h = homology_rank(one_minus, norm, F)
    return {
        "dimV": dimV, "n": n, "field": str(F),
        "ker_one_minus_sigma_mod_norm": h,
        "ker_norm_mod_one_minus_sigma": h,
        "acyclic": h == 0,
    }
