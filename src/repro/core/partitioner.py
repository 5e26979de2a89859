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
        self.a = a
        # tab[j, p] = argmax of a over [p, p + 2^j − 1]; the tail of each
        # row past n − 2^j is padding no query reads.
        self.tab = np.zeros((n.bit_length(), n), dtype=np.int64)
        cur = np.arange(n)
        if n:
            self.tab[0] = cur
        for j in range(1, n.bit_length()):
            span = 1 << j
            left = cur[: n - span + 1]
            right = cur[span // 2 : n - span // 2 + 1][: n - span + 1]
            cur = np.where(a[right] > a[left], right, left)
            self.tab[j, : cur.size] = cur

    def argmax(self, lo, hi):
        """argmax of arr over the inclusive range [lo, hi]; ``lo`` and
        ``hi`` may be ints or equal-shape integer arrays (elementwise)."""
        j = np.frexp(np.asarray(hi) - lo + 1)[1] - 1  # floor(log2(span))
        l = self.tab[j, lo]
        r = self.tab[j, hi - (1 << j) + 1]
        return np.where(self.a[r] > self.a[l], r, l)


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
        self.ps = ps = PrefixStats(a)
        if agg == "avg":
            self.L = L = max(2, int(round(delta * m)))
            if m >= L:
                # win[g] = Σ t² over [g−L+1, g], defined for g ∈ [L−1, m−1].
                self.win_ssq = ps.q[L:] - ps.q[:-L]
                self.win_sum = ps.s[L:] - ps.s[:-L]
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
        g = int(self.sparse.argmax(g_lo - (L - 1), g_hi - (L - 1))) + (L - 1)
        v = cal_v(n, self.win_ssq[g - (L - 1)], self.win_sum[g - (L - 1)])
        return v / (L * L)

    def _mvar_many(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """:meth:`mvar` over equal-shape index arrays with ``lo ≤ hi``.

        Performs the same floating-point operations in the same order
        (``where(b > a, b, a)`` is Python's ``max(a, b)``), so every
        element equals the scalar result bit for bit.
        """
        n = hi - lo + 1
        if self.agg in ("sum", "count"):
            s, q = self.ps.s, self.ps.q
            mid = lo + n // 2  # q1 = [lo, mid-1], q2 = [mid, hi]
            v1 = cal_v(n, q[mid] - q[lo], s[mid] - s[lo])
            v2 = cal_v(n, q[hi + 1] - q[mid], s[hi + 1] - s[mid])
            return np.where(n < 2, 0.0, np.where(v2 > v1, v2, v1))
        L = self.L
        if self.sparse is None:
            return np.zeros(n.shape)
        ok = n >= L
        w = self.sparse.argmax(np.where(ok, lo, 0), np.where(ok, hi - (L - 1), 0))
        return np.where(ok, cal_v(n, self.win_ssq[w], self.win_sum[w]) / (L * L), 0.0)

    # -- DP with monotonicity binary search (Appendix A.5) ------------------

    def _solve(self) -> None:
        """Fill ``A[i][j]`` (best max-variance of i items in j partitions)
        and ``B[i][j]`` (its last cut), one column j at a time, running
        the binary search for every i at once."""
        m, k_max = self.m, self.k_max
        A = np.zeros((m + 1, k_max + 1))
        B = np.zeros((m + 1, k_max + 1), dtype=np.int64)
        A[1:, 1] = self._mvar_many(np.zeros(m, dtype=np.int64), np.arange(m))
        for j in range(2, k_max + 1):
            prev = A[:, j - 1]
            # i ≤ j: one item (or fewer) per partition — zero-variance cuts.
            B[1 : j + 1, j] = np.arange(j)
            end = np.arange(j, m)  # i − 1 for every i > j
            # A[h][j−1] is non-decreasing in h, mvar(h, i−1) is
            # non-increasing: binary-search the crossing.
            lo = np.full(end.size, j - 1)
            hi = end.copy()
            act = np.flatnonzero(lo < hi)
            while act.size:
                mid = (lo[act] + hi[act]) // 2
                ge = prev[mid] >= self._mvar_many(mid, end[act])
                hi[act] = np.where(ge, mid, hi[act])
                lo[act] = np.where(ge, lo[act], mid + 1)
                act = act[lo[act] < hi[act]]
            # The crossing's neighbours, first strict minimum wins.
            best = np.full(end.size, np.inf)
            arg = lo.copy()
            for h in (lo - 1, lo, lo + 1):
                ok = (h >= j - 1) & (h <= end)
                h = np.where(ok, h, lo)
                mv = self._mvar_many(h, end)
                v = np.where(mv > prev[h], mv, prev[h])
                take = ok & (v < best)
                best = np.where(take, v, best)
                arg = np.where(take, h, arg)
            A[j + 1 :, j] = best
            B[j + 1 :, j] = arg
        self.A, self.B = A, B

    def cuts(self, k: int) -> tuple[list[int], float]:
        """Backtrack the cut indices for any k ≤ k_max."""
        k = max(1, min(k, self.k_max, self.m))
        cuts = [self.m]
        i, j = self.m, k
        while j > 1 and i > 0:
            h = int(self.B[i][j])
            cuts.append(h)
            i, j = h, j - 1
        cuts.append(0)
        cuts = sorted(set(cuts))
        return cuts, float(self.A[self.m][k])
