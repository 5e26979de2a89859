"""PASS synopsis: exactness on aligned queries, estimator quality, hard
bounds, CIs, skip accounting, budget allocation, KD build (§3)."""
import numpy as np
import pytest

from repro.core.query import Query
from repro.core.synopsis import PassSynopsis, allocate_budget
from repro.core.tree import Node
from repro.oracle import assert_equivalent
from repro.synth_data import NYC_PREDICATES
from repro.workload import random_queries


# -- budget allocation ---------------------------------------------------


def test_allocate_equal():
    out = allocate_budget([100, 100, 0, 100], 30, "equal")
    assert out == [10, 10, 0, 10]


def test_allocate_equal_caps():
    out = allocate_budget([5, 100], 40, "equal")
    assert out == [5, 20]


def test_allocate_proportional():
    out = allocate_budget([100, 300], 40, "proportional")
    assert out == [10, 30]


def test_allocate_zero_budget():
    assert allocate_budget([10, 10], 0, "equal") == [0, 0]


def test_allocate_unknown_mode():
    with pytest.raises(ValueError):
        allocate_budget([10], 5, "weird")


# -- 1-D synopsis basics -------------------------------------------------


def test_build_1d_shapes(intel_synopsis):
    syn = intel_synopsis
    assert len(syn.leaves) <= 16
    assert syn.n_total == 6000
    assert syn.n_samples > 0
    assert syn.storage_bytes > 0
    assert syn.build_seconds > 0


def _count_nodes(node: Node) -> int:
    return 1 + sum(_count_nodes(c) for c in node.children)


def test_storage_bytes_exact(intel_synopsis, nyc_kd_synopsis):
    """Storage = nodes × (4 + 2d) × 8 + samples × (sample columns + 1) × 8:
    the value Table 2's Storage column reads."""
    syn = intel_synopsis
    n_samples = sum(
        allocate_budget([l.stats.count for l in syn.leaves], 600, "equal")
    )
    assert syn.n_samples == n_samples
    assert syn.storage_bytes == _count_nodes(syn.root) * (4 + 2) * 8 + n_samples * 2 * 8
    # 3 indexed columns; the samples also carry dropoff_time.
    kd = nyc_kd_synopsis
    n_samples = sum(len(v) for _, v in kd.samples.values())
    assert n_samples > 0
    assert kd.storage_bytes == _count_nodes(kd.root) * (4 + 6) * 8 + n_samples * 5 * 8


def test_leaf_counts_sum_to_n(intel_synopsis):
    assert sum(l.stats.count for l in intel_synopsis.leaves) == 6000


def test_root_aggregates_match_dataset(intel_synopsis, intel_pdf):
    r = intel_synopsis.root.stats
    assert r.count == len(intel_pdf)
    assert r.sum == pytest.approx(intel_pdf["light"].sum(), rel=1e-9)
    assert r.min == pytest.approx(intel_pdf["light"].min())
    assert r.max == pytest.approx(intel_pdf["light"].max())


@pytest.mark.parametrize("agg", ["sum", "count", "avg", "min", "max"])
def test_full_range_query_exact(intel_synopsis, intel_pdf, agg):
    """A query covering the whole domain is answered exactly from the root
    (0 sampling error, 0-width CI for sum/count/avg)."""
    q = Query(agg, ("time",), (-1e18,), (1e18,))
    res = intel_synopsis.answer(q)
    assert res.est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)
    if agg in ("sum", "count", "avg"):
        assert res.ci_half == pytest.approx(0.0, abs=1e-9)
    assert res.skipped_frac == pytest.approx(1.0)
    assert res.processed == 0


def test_aligned_query_exact_and_oracle_checked(intel_synopsis, intel_df, intel_pdf):
    """A query aligned with leaf extents is exact; its answer equals
    DuckDB's over the same predicate."""
    leaf = intel_synopsis.leaves[3]
    lo, hi = float(leaf.pred_min[0]), float(leaf.pred_max[0])
    q = Query("sum", ("time",), (lo,), (hi,))
    res = intel_synopsis.answer(q)
    assert res.est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)
    assert res.ci_half == 0.0
    spark = intel_df.sparkSession
    got = spark.createDataFrame([(float(res.est),)], ["result"])
    assert_equivalent(got, q.sql("t", "light"), t=intel_pdf)


def test_union_of_leaves_exact(intel_synopsis, intel_pdf):
    l3, l4 = intel_synopsis.leaves[3], intel_synopsis.leaves[4]
    q = Query("sum", ("time",), (float(l3.pred_min[0]),), (float(l4.pred_max[0]),))
    res = intel_synopsis.answer(q)
    assert res.est == pytest.approx(q.truth(intel_pdf, "light"), rel=1e-9)


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_random_queries_reasonable_error(intel_synopsis, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 40, seed=11, min_count=60)
    errs = []
    for q in qs:
        t = q.truth(intel_pdf, "light")
        if not np.isfinite(t) or t == 0:
            continue
        errs.append(abs(intel_synopsis.answer(q).est - t) / abs(t))
    assert np.median(errs) < 0.10


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_hard_bounds_contain_truth(intel_synopsis, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 40, seed=13, min_count=30)
    for q in qs:
        t = q.truth(intel_pdf, "light")
        res = intel_synopsis.answer(q)
        if np.isfinite(t) and np.isfinite(res.lb):
            assert res.lb - 1e-6 <= t <= res.ub + 1e-6


@pytest.mark.parametrize("agg", ["min", "max"])
def test_minmax_bounds_and_estimates(intel_synopsis, intel_pdf, agg):
    qs = random_queries(intel_pdf, ["time"], agg, 25, seed=17, min_count=30)
    for q in qs:
        t = q.truth(intel_pdf, "light")
        res = intel_synopsis.answer(q)
        assert res.lb - 1e-6 <= t <= res.ub + 1e-6
        assert res.lb - 1e-6 <= res.est <= res.ub + 1e-6
        if agg == "min":
            assert res.est >= t - 1e-9  # sample min can only overshoot
        else:
            assert res.est <= t + 1e-9


def test_ci_covers_truth_usually(nyc_1d_synopsis, nyc_pdf):
    """CI coverage on a smooth aggregate (NYC trip distance). The Intel
    stand-in's rare heavy-tailed spikes make small-sample CIs unreliable —
    exactly the §2.1.1 pathology — so coverage is asserted here instead."""
    qs = random_queries(nyc_pdf, ["pickup_time"], "sum", 60, seed=19, min_count=80)
    hits = total = 0
    for q in qs:
        t = q.truth(nyc_pdf, "trip_distance")
        if not np.isfinite(t) or t == 0:
            continue
        res = nyc_1d_synopsis.answer(q)
        total += 1
        hits += res.est - res.ci_half <= t <= res.est + res.ci_half
    # λ=2.576 is a 99% CI; allow generous slack for 60 draws.
    assert hits / total > 0.85


def test_skip_rate_and_processed(intel_synopsis, intel_pdf):
    qs = random_queries(intel_pdf, ["time"], "sum", 20, seed=23, min_count=60)
    for q in qs:
        res = intel_synopsis.answer(q)
        assert 0.0 <= res.skipped_frac <= 1.0
        assert res.processed <= intel_synopsis.n_samples


def test_empty_region_query(intel_synopsis):
    q = Query("sum", ("time",), (1e17,), (1e18,))
    res = intel_synopsis.answer(q)
    assert res.est == 0.0 and res.ci_half == 0.0
    q = Query("avg", ("time",), (1e17,), (1e18,))
    assert np.isnan(intel_synopsis.answer(q).est)


def test_eq_partitioner_build(intel_df, intel_pdf):
    syn = PassSynopsis.build_1d(
        intel_df, "time", "light", k_partitions=8, sample_total=200,
        partitioner="eq", m_opt=400, seed=5,
    )
    assert len(syn.leaves) == 8
    sizes = [l.stats.count for l in syn.leaves]
    assert max(sizes) < 2 * min(s for s in sizes if s > 0) + 400


def test_unknown_partitioner(intel_df):
    with pytest.raises(ValueError):
        PassSynopsis.build_1d(
            intel_df, "time", "light", k_partitions=4, sample_total=50, partitioner="xxx"
        )


# -- workload shift (§5.4.1) --------------------------------------------


def test_external_column_demotes_coverage(nyc_kd_synopsis, nyc_pdf):
    """Constraining a column the synopsis does not index must still give a
    sane (sample-based) answer with no hard bounds."""
    q = Query(
        "sum",
        ("pickup_time", "dropoff_time"),
        (20000.0, 10000.0),
        (70000.0, 80000.0),
    )
    res = nyc_kd_synopsis.answer(q)
    t = q.truth(nyc_pdf, "trip_distance")
    assert np.isnan(res.lb)
    assert np.isfinite(res.est)
    assert abs(res.est - t) / t < 0.5


def test_external_column_missing_from_samples_raises(intel_synopsis, us_small, aqppp):
    """PASS, US and AQP++ reject a column their samples lack with the same
    KeyError, naming the columns they store."""
    q = Query("sum", ("nonexistent",), (0.0,), (1.0,))
    for approach in (intel_synopsis, us_small, aqppp):
        with pytest.raises(KeyError, match=r"'nonexistent' not in synopsis sample columns \['time'\]"):
            approach.answer(q)


# -- KD synopsis ---------------------------------------------------------


def test_kd_root_matches_dataset(nyc_kd_synopsis, nyc_pdf):
    r = nyc_kd_synopsis.root.stats
    assert r.count == len(nyc_pdf)
    assert r.sum == pytest.approx(nyc_pdf["trip_distance"].sum(), rel=1e-9)


def test_kd_leaf_counts_sum(nyc_kd_synopsis, nyc_pdf):
    assert sum(l.stats.count for l in nyc_kd_synopsis.leaves) == len(nyc_pdf)


@pytest.mark.parametrize("agg", ["sum", "count", "avg"])
def test_kd_random_queries(nyc_kd_synopsis, nyc_pdf, agg):
    cols = NYC_PREDICATES[:3]
    qs = random_queries(nyc_pdf, cols, agg, 30, seed=31, min_count=80)
    errs, viol = [], 0
    for q in qs:
        t = q.truth(nyc_pdf, "trip_distance")
        if not np.isfinite(t) or t == 0:
            continue
        res = nyc_kd_synopsis.answer(q)
        errs.append(abs(res.est - t) / abs(t))
        if np.isfinite(res.lb) and not (res.lb - 1e-6 <= t <= res.ub + 1e-6):
            viol += 1
    assert viol == 0
    assert np.median(errs) < 0.25


def test_kd_full_range_exact(nyc_kd_synopsis, nyc_pdf):
    cols = NYC_PREDICATES[:3]
    q = Query("sum", tuple(cols), (-1e18,) * 3, (1e18,) * 3)
    res = nyc_kd_synopsis.answer(q)
    assert res.est == pytest.approx(nyc_pdf["trip_distance"].sum(), rel=1e-9)


def test_mean_partial_fraction(intel_synopsis, intel_pdf):
    qs = random_queries(intel_pdf, ["time"], "sum", 20, seed=37, min_count=60)
    f = intel_synopsis.mean_partial_fraction(qs)
    assert 0.0 <= f <= 1.0
