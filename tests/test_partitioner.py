"""Partitioning algorithms: EQ, exact DP, ADP, boundary mapping."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioner import (
    ADP,
    assign_partitions,
    cuts_to_boundaries,
    dp_exact,
    equal_depth_cuts,
    _SparseArgmax,
)
from repro.core.variance import PrefixStats, max_var_query_sum_exact

rng = np.random.default_rng(7)


# -- equal depth ---------------------------------------------------------


@pytest.mark.parametrize("m,k", [(100, 4), (100, 7), (10, 10), (5, 8), (1, 3)])
def test_equal_depth_cuts_cover_and_balance(m, k):
    cuts = equal_depth_cuts(m, k)
    assert cuts[0] == 0 and cuts[-1] == m
    assert all(b > a for a, b in zip(cuts, cuts[1:]))
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]
    assert max(sizes) - min(sizes) <= 1


# -- sparse argmax -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 100])
def test_sparse_argmax_matches_numpy(n):
    a = np.random.default_rng(n).random(n)
    sp = _SparseArgmax(a)
    for _ in range(50):
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n))
        got = sp.argmax(lo, hi)
        assert a[got] == pytest.approx(a[lo : hi + 1].max())


@pytest.mark.parametrize("n", [1, 2, 5, 33, 128])
def test_sparse_argmax_first_maximum_on_ties(n):
    """Ties resolve to the leftmost maximum, for scalar and array ranges."""
    g = np.random.default_rng(n)
    a = g.integers(0, 3, n).astype(np.float64)
    sp = _SparseArgmax(a)
    lo = g.integers(0, n, 200)
    hi = np.array([g.integers(l, n) for l in lo])
    want = [l + int(np.argmax(a[l : h + 1])) for l, h in zip(lo, hi)]
    assert sp.argmax(lo, hi).tolist() == want
    assert [int(sp.argmax(int(l), int(h))) for l, h in zip(lo, hi)] == want


# -- exact DP ------------------------------------------------------------


def test_dp_exact_partitions_valid():
    a = rng.lognormal(0, 1, 30)
    cuts, v = dp_exact(a, 4, "sum")
    assert cuts[0] == 0 and cuts[-1] == 30
    assert v >= 0


def test_dp_exact_beats_equal_depth_on_adversarial():
    """On the adversarial layout (zeros then big values) the optimum DP
    must be at least as good as equal-depth."""
    a = np.concatenate([np.zeros(24), rng.normal(100, 10, 8)])
    ps = PrefixStats(a)
    cuts_dp, _ = dp_exact(a, 4, "sum")
    cuts_eq = equal_depth_cuts(32, 4)

    def true_obj(cuts):
        return max(
            max_var_query_sum_exact(ps, lo, hi - 1) for lo, hi in zip(cuts, cuts[1:])
        )

    assert true_obj(cuts_dp) <= true_obj(cuts_eq) + 1e-9


def test_dp_exact_k_equals_m_zero_variance():
    a = rng.random(6)
    cuts, v = dp_exact(a, 6, "sum")
    assert v == pytest.approx(0.0)
    assert cuts == list(range(7))


# -- ADP -----------------------------------------------------------------


@pytest.mark.parametrize("agg", ["sum", "avg", "count"])
@pytest.mark.parametrize("m,k", [(64, 4), (200, 8), (200, 1)])
def test_adp_cuts_are_valid_partitioning(agg, m, k):
    a = rng.lognormal(0, 1, m)
    cuts, v = ADP(a, k, agg=agg, delta=0.05).cuts(k)
    assert cuts[0] == 0 and cuts[-1] == m
    assert all(b > a_ for a_, b in zip(cuts, cuts[1:]))
    assert len(cuts) <= k + 1
    assert v >= 0


def test_adp_within_constant_of_exact_dp():
    """§4.3.1: the discretised DP is a constant-factor approximation of the
    exact optimum, measured with the true max-variance objective."""
    for s in range(10):
        g = np.random.default_rng(s)
        a = g.lognormal(0, 1, 36)
        ps = PrefixStats(a)

        def true_obj(cuts):
            return max(
                max_var_query_sum_exact(ps, lo, hi - 1) for lo, hi in zip(cuts, cuts[1:])
            )

        cuts_opt, _ = dp_exact(a, 4, "sum")
        cuts_apx, _ = ADP(a, 4, agg="sum").cuts(4)
        # Paper bound: error ratio 2√2 → variance ratio (2√2)² = 8.
        assert true_obj(cuts_apx) <= 8 * true_obj(cuts_opt) + 1e-9


def test_adp_adversarial_isolates_tail():
    """The paper's §5.3 story: ADP must place ~all cuts in the high-variance
    tail, with one cut landing at the zero/normal boundary."""
    a = np.concatenate([np.zeros(875), np.random.default_rng(0).normal(100, 10, 125)])
    cuts, _ = ADP(a, 8, agg="sum").cuts(8)
    assert 875 in cuts
    assert sum(c >= 875 for c in cuts) >= 7


def test_adp_k_sweep_shares_table():
    a = rng.lognormal(0, 1, 300)
    opt = ADP(a, 16, agg="sum")
    prev = None
    for k in (2, 4, 8, 16):
        cuts, v = opt.cuts(k)
        assert cuts[0] == 0 and cuts[-1] == 300
        if prev is not None:
            assert v <= prev + 1e-9  # more partitions never hurt
        prev = v


def test_adp_avg_requires_window():
    a = rng.random(100)
    opt = ADP(a, 4, agg="avg", delta=0.1)
    assert opt.L == 10
    cuts, v = opt.cuts(4)
    assert len(cuts) == 5


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=8, max_size=60), st.integers(2, 6))
def test_adp_always_valid(vals, k):
    a = np.asarray(vals)
    cuts, v = ADP(a, k, agg="sum").cuts(k)
    assert cuts[0] == 0 and cuts[-1] == len(a)
    assert v >= -1e-9


# -- ADP vs the scalar DP loop --------------------------------------------


def reference_tables(opt: ADP) -> tuple[list[list[float]], list[list[int]]]:
    """The DP of Appendix A.5 as a scalar loop, one ``opt.mvar`` call per
    probe: the reference the vectorised ``ADP._solve`` must equal."""
    m, k_max = opt.m, opt.k_max
    mvar = opt.mvar
    A = [[0.0] * (k_max + 1) for _ in range(m + 1)]
    B = [[0] * (k_max + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        A[i][1] = mvar(0, i - 1)
    for j in range(2, k_max + 1):
        col_prev = j - 1
        for i in range(1, m + 1):
            if i <= j:
                A[i][j] = 0.0
                B[i][j] = i - 1
                continue
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
    return A, B


def reference_cuts(A, B, m: int, k: int) -> tuple[list[int], float]:
    cuts = [m]
    i, j = m, k
    while j > 1 and i > 0:
        h = B[i][j]
        cuts.append(h)
        i, j = h, j - 1
    cuts.append(0)
    return sorted(set(cuts)), A[m][k]


def assert_adp_matches_reference(a: np.ndarray, k: int, agg: str, delta: float = 0.01) -> None:
    opt = ADP(a, k, agg=agg, delta=delta)
    A, B = reference_tables(opt)
    assert opt.A.tolist() == A
    assert opt.B.tolist() == B
    for kk in range(1, opt.k_max + 1):
        cuts, v = opt.cuts(kk)
        assert (cuts, v) == reference_cuts(A, B, opt.m, kk)
        assert all(type(c) is int for c in cuts) and type(v) is float


@st.composite
def adp_inputs(draw):
    """Value layouts that stress ties and flat regions in the DP."""
    m = draw(st.integers(0, 60))
    layout = draw(st.sampled_from(["random", "zeros", "equal", "duplicates", "zeros_then_tail"]))
    if layout == "random":
        a = draw(st.lists(st.floats(-100, 100), min_size=m, max_size=m))
    elif layout == "zeros":
        a = [0.0] * m
    elif layout == "equal":
        a = [draw(st.floats(-50, 50))] * m
    elif layout == "duplicates":
        a = draw(st.lists(st.sampled_from([0.0, 1.0, 7.5]), min_size=m, max_size=m))
    else:
        n_tail = draw(st.integers(0, m))
        a = [0.0] * (m - n_tail) + draw(
            st.lists(st.floats(50, 150), min_size=n_tail, max_size=n_tail)
        )
    agg = draw(st.sampled_from(["sum", "count", "avg"]))
    k = draw(st.integers(1, m + 3))
    delta = draw(st.sampled_from([0.01, 0.05, 0.2]))
    return np.asarray(a, dtype=np.float64), k, agg, delta


@settings(max_examples=200, deadline=None)
@given(adp_inputs())
def test_adp_tables_equal_scalar_reference(case):
    assert_adp_matches_reference(*case)


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
@pytest.mark.parametrize(
    "layout",
    ["lognormal", "zeros", "equal", "duplicates", "zeros_then_tail"],
)
def test_adp_tables_equal_scalar_reference_fixed(agg, layout):
    """Fixed inputs at the build's k = 64, including the §5.3 layout:
    zeros, then a normal tail on the last eighth."""
    g = np.random.default_rng(3)
    a = {
        "lognormal": g.lognormal(0, 1, 256),
        "zeros": np.zeros(256),
        "equal": np.full(256, 2.5),
        "duplicates": g.integers(0, 3, 256).astype(np.float64),
        "zeros_then_tail": np.concatenate([np.zeros(224), g.normal(100, 10, 32)]),
    }[layout]
    assert_adp_matches_reference(a, 64, agg)


@pytest.mark.parametrize("m,k", [(0, 1), (0, 5), (1, 1), (1, 4), (2, 2), (2, 7), (3, 9)])
@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_adp_tiny_inputs_match_reference(m, k, agg):
    assert_adp_matches_reference(np.arange(m, dtype=np.float64) * 3.0, k, agg)


# -- boundary mapping ----------------------------------------------------


def test_cuts_to_boundaries_and_assignment_roundtrip():
    c = np.sort(rng.random(200) * 1000)
    cuts = equal_depth_cuts(200, 5)
    b = cuts_to_boundaries(c, cuts)
    ids = assign_partitions(c, b)
    # Every sample item must land in the partition its cut index implies.
    for j in range(5):
        assert np.all(ids[cuts[j] : cuts[j + 1]] == j)


def test_assignment_outside_range():
    b = np.array([10.0, 20.0])
    assert assign_partitions(np.array([-5.0]), b)[0] == 0
    assert assign_partitions(np.array([25.0]), b)[0] == 2


def test_boundaries_count():
    c = np.sort(rng.random(50))
    cuts = equal_depth_cuts(50, 4)
    assert len(cuts_to_boundaries(c, cuts)) == 3
