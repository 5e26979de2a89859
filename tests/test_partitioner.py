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
