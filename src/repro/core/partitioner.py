"""1-D partitioning algorithms of §4.3 and Appendix A.

All partitioners operate on the *optimisation sample*: an array ``a`` of
aggregate values already sorted by the predicate column. They return
``cuts`` — a list of k+1 item indices ``0 = c_0 < c_1 < … < c_k = m`` —
where partition j holds sample items ``[c_j, c_{j+1})``. The caller maps
cut indices to predicate-value boundaries (:func:`cuts_to_boundaries`)
and applies them to the full dataset.

Implemented algorithms, matching the paper's complexity table:

* :func:`equal_depth_cuts` — the EQ baseline (equal-frequency strata),
  also the provably optimal partitioning for COUNT queries (Lemma A.1).
* :func:`dp_exact` — the naive O(k·N⁴) DP with exhaustive query
  enumeration; used only in tests as the gold partitioning.
* :class:`ADP` — the ``**`` *sampling + discretisation* algorithm:
  O(k·m·log m) DP using monotonicity binary search (Appendix A.5) and the
  constant-size discretised query sets (Appendix A.3/A.4): median-split
  for SUM/COUNT, length-δm sliding-window maxima for AVG.
"""
from __future__ import annotations

import numpy as np

from .variance import PrefixStats, cal_v, max_var_query_avg_exact, max_var_query_sum, max_var_query_sum_exact


def equal_depth_cuts(m: int, k: int) -> list[int]:
    """k equal-frequency partitions over m items (EQ baseline)."""
    k = min(k, m) or 1
    return [round(j * m / k) for j in range(k + 1)]


def cuts_to_boundaries(c_sorted: np.ndarray, cuts: list[int]) -> np.ndarray:
    """Map sample cut indices to predicate-value boundaries.

    Returns the k−1 *interior* boundary values b_1 < … < b_{k−1}; a full
    dataset tuple with predicate value v goes to partition
    ``searchsorted(boundaries, v, side='right')``. Boundary j is the
    midpoint between the last item of partition j−1 and the first item of
    partition j so that the sampled items land on the intended sides.
    """
    c = np.asarray(c_sorted, dtype=np.float64)
    bounds = []
    for cut in cuts[1:-1]:
        left, right = c[cut - 1], c[cut]
        bounds.append((left + right) / 2.0)
    return np.asarray(bounds, dtype=np.float64)


def assign_partitions(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Partition id of each value for interior ``boundaries`` (see above)."""
    return np.searchsorted(boundaries, values, side="right")


# ---------------------------------------------------------------------------
# Exact DP (tests / gold reference)
# ---------------------------------------------------------------------------


def dp_exact(a: np.ndarray, k: int, agg: str = "sum", min_len: int = 1) -> tuple[list[int], float]:
    """The naive dynamic program with exhaustive query enumeration.

    O(k·m⁴) — only usable for tiny m; serves as the gold standard the
    approximate algorithms are tested against.
    """
    m = int(len(a))
    k = min(k, m)
    ps = PrefixStats(a)

    def mvar(lo: int, hi: int) -> float:
        if agg in ("sum", "count"):
            return max_var_query_sum_exact(ps, lo, hi)
        return max_var_query_avg_exact(ps, lo, hi, min_len=min_len)

    INF = float("inf")
    A = [[INF] * (k + 1) for _ in range(m + 1)]
    B = [[0] * (k + 1) for _ in range(m + 1)]
    A[0][0] = 0.0
    for j in range(1, k + 1):
        A[0][j] = 0.0
    for i in range(1, m + 1):
        A[i][1] = mvar(0, i - 1)
        for j in range(2, k + 1):
            best, arg = INF, j - 1
            for h in range(j - 1, i):
                v = max(A[h][j - 1], mvar(h, i - 1))
                if v < best:
                    best, arg = v, h
            A[i][j] = best
            B[i][j] = arg
    cuts = [m]
    i, j = m, k
    while j > 1:
        h = B[i][j]
        cuts.append(h)
        i, j = h, j - 1
    cuts.append(0)
    cuts = sorted(set(cuts))
    return cuts, A[m][k]


# ---------------------------------------------------------------------------
# ADP: sampling + discretisation (the ** algorithm)
# ---------------------------------------------------------------------------


class _SparseArgmax:
    """O(1) range-argmax over a static array (standard log-table)."""

    def __init__(self, arr: np.ndarray) -> None:
        a = np.asarray(arr, dtype=np.float64)
        n = a.size
        self.n = n
        if n == 0:
            self.idx = []
            return
        levels = max(1, int(np.floor(np.log2(n))) + 1)
        idx = [np.arange(n)]
        cur = np.arange(n)
        self.a = a
        for j in range(1, levels):
            span = 1 << j
            if span > n:
                break
            left = cur[: n - span + 1]
            right = cur[span // 2 : n - span // 2 + 1][: n - span + 1]
            take_right = a[right] > a[left]
            cur = np.where(take_right, right, left)
            idx.append(cur)
        self.idx = idx

    def argmax(self, lo: int, hi: int) -> int:
        """argmax of arr over the inclusive range [lo, hi]."""
        span = hi - lo + 1
        j = span.bit_length() - 1
        l = self.idx[j][lo]
        r = self.idx[j][hi - (1 << j) + 1]
        return int(r if self.a[r] > self.a[l] else l)


class ADP:
    """Approximate DP partitioner (sampling + discretisation, §4.3.1).

    Builds the full DP table ``A[i][j]`` for j up to ``k_max`` once, so a
    k-sweep (Table 3) backtracks boundaries for every k ≤ k_max from one
    optimisation — this mirrors the paper's discretisation-cache remark in
    §5.4.2.

    Args:
        a:      aggregate values of the m optimisation samples, sorted by
                the predicate column.
        k_max:  largest partition count to optimise for.
        agg:    'sum' | 'count' | 'avg' — which query type's worst-case
                variance to minimise.
        delta:  minimum meaningful overlap as a fraction of m (AVG only);
                the discretised AVG query length is max(2, δ·m).
    """

    def __init__(self, a: np.ndarray, k_max: int, agg: str = "sum", delta: float = 0.01) -> None:
        a = np.asarray(a, dtype=np.float64)
        self.m = m = int(a.size)
        self.k_max = k_max = max(1, min(k_max, m))
        self.agg = agg
        self.ps = PrefixStats(a)
        if agg == "avg":
            self.L = L = max(2, int(round(delta * m)))
            if m >= L:
                csq = np.concatenate([[0.0], np.cumsum(a * a)])
                cs = np.concatenate([[0.0], np.cumsum(a)])
                # win[g] = Σ t² over [g−L+1, g], defined for g ∈ [L−1, m−1].
                self.win_ssq = csq[L:] - csq[:-L]
                self.win_sum = cs[L:] - cs[:-L]
                self.sparse = _SparseArgmax(self.win_ssq)
            else:
                self.sparse = None
        self._solve()

    # -- discretised maximum-variance query inside candidate [lo, hi] ------

    def mvar(self, lo: int, hi: int) -> float:
        """Approximate max query variance inside sample-index range
        [lo, hi] (inclusive) using the O(1)/O(log m) discretised sets."""
        if hi < lo:
            return 0.0
        if self.agg in ("sum", "count"):
            return max_var_query_sum(self.ps, lo, hi)
        # AVG: best length-L window fully inside [lo, hi].
        L = self.L
        n = hi - lo + 1
        if n < L or self.sparse is None:
            return 0.0
        g_lo, g_hi = lo + L - 1, hi  # window right endpoints, in win[] coords
        g = self.sparse.argmax(g_lo - (L - 1), g_hi - (L - 1)) + (L - 1)
        v = cal_v(n, self.win_ssq[g - (L - 1)], self.win_sum[g - (L - 1)])
        return v / (L * L)

    # -- DP with monotonicity binary search (Appendix A.5) ------------------

    def _solve(self) -> None:
        m, k_max = self.m, self.k_max
        mvar = self.mvar
        A = [[0.0] * (k_max + 1) for _ in range(m + 1)]
        B = [[0] * (k_max + 1) for _ in range(m + 1)]
        for i in range(1, m + 1):
            A[i][1] = mvar(0, i - 1)
        for j in range(2, k_max + 1):
            col_prev = j - 1
            for i in range(1, m + 1):
                if i <= j:
                    # One item (or fewer) per partition — zero-variance cuts.
                    A[i][j] = 0.0
                    B[i][j] = i - 1
                    continue
                # A[h][j−1] is non-decreasing in h, mvar(h, i−1) is
                # non-increasing: binary-search the crossing.
                lo, hi = j - 1, i - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if A[mid][col_prev] >= mvar(mid, i - 1):
                        hi = mid
                    else:
                        lo = mid + 1
                best, arg = float("inf"), lo
                for h in (lo - 1, lo, lo + 1):
                    if j - 1 <= h <= i - 1:
                        v = max(A[h][col_prev], mvar(h, i - 1))
                        if v < best:
                            best, arg = v, h
                A[i][j] = best
                B[i][j] = arg
        self.A, self.B = A, B

    def cuts(self, k: int) -> tuple[list[int], float]:
        """Backtrack the cut indices for any k ≤ k_max."""
        k = max(1, min(k, self.k_max, self.m))
        cuts = [self.m]
        i, j = self.m, k
        while j > 1 and i > 0:
            h = self.B[i][j]
            cuts.append(h)
            i, j = h, j - 1
        cuts.append(0)
        cuts = sorted(set(cuts))
        return cuts, self.A[self.m][k]

