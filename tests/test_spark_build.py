"""Spark build path: leaf bucketing (Catalyst 1-D, UDF k-d), groupBy
aggregates (oracle-checked), bottom-K sampling against the window and
global-sort samplers it replaced, and the build's materialisations."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import spark_build
from repro.core.partitioner import assign_partitions
from repro.core.query import Query
from repro.core.synopsis import PassSynopsis
from repro.core.spark_build import LEAF_COL
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def intel_leaf_df(intel_df):
    b = np.array([30000.0, 60000.0, 120000.0])
    return spark_build.with_leaf_1d(intel_df, "time", b).cache(), b


def test_with_leaf_1d_matches_searchsorted(intel_leaf_df, intel_pdf):
    df, b = intel_leaf_df
    got = df.select("time", LEAF_COL).toPandas().sort_values("time")
    exp = np.searchsorted(b, got["time"].to_numpy(), side="right")
    assert np.array_equal(got[LEAF_COL].to_numpy(), exp)


EDGE_VALUES = [
    None, float("nan"), float("-inf"), float("inf"), -0.0, 0.0,
    -1.0, 0.5, 2.5, 3.0, 9.999, 10.0, 1e300, -1e300,
]


@pytest.mark.parametrize(
    "boundaries",
    [
        [],  # k = 1
        [0.0],
        [-0.0],
        [-1.0, 0.0, 0.0, 2.5, 2.5, 2.5, 10.0],  # on-boundary values, duplicates
        [float("-inf"), 1.0, float("inf")],
        [-5.0, -1.0, 0.25, 0.5, 0.75, 2.5, 3.0, 4.0, 10.0, 11.0, 12.0],
    ],
)
def test_with_leaf_1d_edge_values_match_assign_partitions(spark, boundaries):
    """The Catalyst bucketing equals the driver-side ``assign_partitions``
    used by ``insert()``: NULL and NaN go to the last leaf, ±inf to the
    ends, -0.0 equals 0.0, a value on a boundary goes right."""
    schema = T.StructType(
        [T.StructField("i", T.LongType()), T.StructField("v", T.DoubleType(), True)]
    )
    df = spark.createDataFrame(list(enumerate(EDGE_VALUES)), schema)
    b = np.asarray(boundaries, dtype=np.float64)
    got = spark_build.with_leaf_1d(df, "v", b).orderBy("i").select(LEAF_COL).toPandas()
    v = np.array([np.nan if x is None else x for x in EDGE_VALUES])
    assert got[LEAF_COL].tolist() == assign_partitions(v, b).tolist()


def test_with_leaf_1d_integer_column(spark):
    """An integer column compares as double; a name that needs quoting
    (space, backtick) still resolves."""
    col = "id `n` 2"
    pdf = pd.DataFrame({col: np.arange(-3, 14, dtype=np.int64)})
    b = np.array([-1.0, 2.0, 2.0, 4.5, 10.0])
    got = spark_build.with_leaf_1d(spark.createDataFrame(pdf), col, b).toPandas()
    assert got[LEAF_COL].tolist() == assign_partitions(got[col].to_numpy(float), b).tolist()


@pytest.mark.parametrize("table", ["intel", "insta"])
def test_build_1d_leaves_match_driver_assign(request, table):
    """The Spark-side leaf ids agree with the synopsis's driver-side
    ``assign`` (the routing ``insert()`` uses): every sampled row maps to
    its own leaf, and leaf counts equal a bincount over all rows. Insta's
    discrete ``product_id`` gives repeated boundaries (empty leaves)."""
    df = request.getfixturevalue(f"{table}_df")
    pdf = request.getfixturevalue(f"{table}_pdf")
    pred, value = {"intel": ("time", "light"), "insta": ("product_id", "reordered")}[table]
    syn = PassSynopsis.build_1d(
        df, pred, value, k_partitions=64, sample_total=800, m_opt=512, seed=5
    )
    for lid, (x, _) in syn.samples.items():
        assert np.all(syn.assign(x) == lid)
    ids = syn.assign(pdf[[pred]].to_numpy(np.float64))
    counts = np.bincount(ids, minlength=len(syn.leaves))
    assert counts.tolist() == [l.stats.count for l in syn.leaves]
    if table == "insta":
        assert 0 in counts


def test_leaf_aggregates_against_duckdb_oracle(intel_leaf_df, intel_pdf):
    """The one groupBy of the build path must agree with DuckDB."""
    df, b = intel_leaf_df
    agg = spark_build.leaf_aggregates(df, "light", ["time"])
    spark_res = df.sparkSession.createDataFrame(
        agg.rename(columns={LEAF_COL: "leaf"})[
            ["leaf", "agg_sum", "agg_count", "agg_min", "agg_max"]
        ]
    )
    pdf = intel_pdf.copy()
    pdf["leaf"] = np.searchsorted(b, pdf["time"].to_numpy(), side="right")
    assert_equivalent(
        spark_res,
        """
        SELECT leaf,
               SUM(light) AS agg_sum,
               COUNT(*) AS agg_count,
               MIN(light) AS agg_min,
               MAX(light) AS agg_max
        FROM t GROUP BY leaf
        """,
        t=pdf,
    )


def test_leaf_aggregates_pred_extents(intel_leaf_df, intel_pdf):
    df, b = intel_leaf_df
    agg = spark_build.leaf_aggregates(df, "light", ["time"]).set_index(LEAF_COL)
    pdf = intel_pdf.copy()
    pdf["leaf"] = np.searchsorted(b, pdf["time"].to_numpy(), side="right")
    for leaf, grp in pdf.groupby("leaf"):
        assert agg.loc[leaf, "pmin_time"] == grp["time"].min()
        assert agg.loc[leaf, "pmax_time"] == grp["time"].max()


def test_leaves_from_aggregates_orders_and_fills(intel_leaf_df):
    df, b = intel_leaf_df
    agg = spark_build.leaf_aggregates(df, "light", ["time"])
    leaves = spark_build.leaves_from_aggregates(agg, ["time"], 6)
    assert len(leaves) == 6
    assert [l.leaf_id for l in leaves] == list(range(6))
    # Leaves 4 and 5 don't exist in the data — empty nodes.
    assert leaves[5].stats.count == 0


def reference_stratified_sample(df_leaf, value_col, cols, k_per_leaf, seed=0):
    """The window sampler the bottom-K sampler replaced: rank every row of
    a leaf by ``rand(seed)`` in a window and keep ranks ≤ K_i."""
    spark = df_leaf.sparkSession
    kmap = spark.createDataFrame(
        pd.DataFrame({LEAF_COL: list(k_per_leaf), "__k": [int(v) for v in k_per_leaf.values()]})
    )
    w = Window.partitionBy(LEAF_COL).orderBy("__r")
    out = (
        df_leaf.withColumn("__r", F.rand(seed))
        .withColumn("__rn", F.row_number().over(w))
        .join(F.broadcast(kmap), on=LEAF_COL, how="inner")
        .where(F.col("__rn") <= F.col("__k"))
        .select(LEAF_COL, *cols, value_col)
    )
    # Leaves come back in shuffle order; rows within a leaf in key order.
    return out.toPandas().sort_values(LEAF_COL, kind="stable").reset_index(drop=True)


def reference_uniform_sample(df, value_col, pred_cols, k, seed=0):
    """The global sort the one-stratum bottom-K sampler replaced."""
    return (
        df.withColumn("__r", F.rand(seed))
        .orderBy("__r")
        .limit(int(k))
        .select(*pred_cols, value_col)
        .toPandas()
    )


def leaf_counts(df_leaf, n_leaves):
    counts = df_leaf.groupBy(LEAF_COL).count().toPandas()
    n = np.zeros(n_leaves, dtype=np.int64)
    n[counts[LEAF_COL].to_numpy()] = counts["count"].to_numpy()
    return n


def test_stratified_sample_sizes_exact(intel_leaf_df):
    df, b = intel_leaf_df
    k = [17, 5, 31, 8]
    s = spark_build.stratified_sample(df, "light", ["time"], k, leaf_counts(df, 4), seed=3)
    got = s.groupby(LEAF_COL).size().to_dict()
    assert got == dict(enumerate(k))


def test_stratified_sample_rows_belong_to_stratum(intel_leaf_df):
    df, b = intel_leaf_df
    s = spark_build.stratified_sample(
        df, "light", ["time"], [20, 0, 0, 20], leaf_counts(df, 4), seed=1
    )
    ids = np.searchsorted(b, s["time"].to_numpy(), side="right")
    assert np.array_equal(ids, s[LEAF_COL].to_numpy())
    assert set(ids) == {0, 3}


def test_stratified_sample_caps_at_stratum_size(spark):
    pdf = pd.DataFrame({"c": np.arange(20.0), "v": np.arange(20.0)})
    df = spark.createDataFrame(pdf)
    dfl = spark_build.with_leaf_1d(df, "c", np.array([10.0]))
    s = spark_build.stratified_sample(dfl, "v", ["c"], [100, 3], [10, 10], seed=0)
    sizes = s.groupby(LEAF_COL).size()
    assert sizes[0] == 10 and sizes[1] == 3


def _leaf_frame(request, table, kind):
    """A cached leaf-tagged frame over a session table: 1-D boundaries
    with duplicates (empty leaves) or a 32-leaf k-d tree."""
    df = request.getfixturevalue(f"{table}_df")
    pdf = request.getfixturevalue(f"{table}_pdf")
    value, cols = {
        "intel": ("light", ["time"]),
        "nyc": ("trip_distance", ["pickup_time", "pickup_date", "pu_location_id"]),
    }[table]
    if kind == "1d":
        c = np.sort(pdf[cols[0]].to_numpy(np.float64))
        b = np.quantile(c, np.linspace(0, 1, 17)[1:-1])
        b = np.concatenate([b[:5], b[4:5], b[4:5], b[5:]])  # two empty leaves
        return spark_build.with_leaf_1d(df, cols[0], b).cache(), len(b) + 1, value, cols[:1]
    from repro.core.kdtree import KDTree

    x = pdf[cols].to_numpy(np.float64)[::7]
    kd = KDTree(x, pdf[value].to_numpy(np.float64)[::7], 32, seed=1)
    return spark_build.with_leaf_fn(df, cols, kd.assign).cache(), kd.n_leaves, value, cols


@pytest.mark.parametrize("table,kind", [("intel", "1d"), ("nyc", "1d"), ("nyc", "kd")])
@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_stratified_sample_equals_window_reference(request, table, kind, seed):
    """The bottom-K sampler returns exactly the window sampler's rows, in
    the same order, including leaves capped at K_i = N_i (t_i = 1), leaves
    asked for more rows than they have, and empty leaves."""
    dfl, n_leaves, value, cols = _leaf_frame(request, table, kind)
    try:
        n = leaf_counts(dfl, n_leaves)
        assert (n == 0).any() or kind == "kd"
        rng = np.random.default_rng(seed)
        k = rng.integers(0, 60, size=n_leaves)
        k[:3] = n[:3]  # K_i = N_i
        k[3] = n[3] + 5  # K_i > N_i
        got = spark_build.stratified_sample(dfl, value, cols, k, n, seed=seed)
        ref = reference_stratified_sample(
            dfl, value, cols, {i: int(v) for i, v in enumerate(k) if v > 0}, seed=seed
        )
        pd.testing.assert_frame_equal(got, ref, check_exact=True)
    finally:
        dfl.unpersist()


@pytest.mark.parametrize("table,kind", [("intel", "1d"), ("nyc", "kd")])
def test_stratified_sample_fallback_equals_window_reference(request, table, kind):
    """With N_i inflated a thousandfold the threshold undershoots, so the
    leaf goes through the window fallback; inflating every other leaf
    mixes fallback and threshold leaves. The rows are unchanged."""
    dfl, n_leaves, value, cols = _leaf_frame(request, table, kind)
    try:
        n = leaf_counts(dfl, n_leaves)
        k = np.minimum(n, 40)
        inflated = np.where(np.arange(n_leaves) % 2 == 0, n * 1000, n)
        got = spark_build.stratified_sample(dfl, value, cols, k, inflated, seed=5)
        ref = reference_stratified_sample(
            dfl, value, cols, {i: int(v) for i, v in enumerate(k) if v > 0}, seed=5
        )
        pd.testing.assert_frame_equal(got, ref, check_exact=True)
    finally:
        dfl.unpersist()


def test_uniform_sample_exact_k(intel_df, intel_pdf):
    s = spark_build.uniform_sample(intel_df, "light", ["time"], 123, len(intel_pdf), seed=5)
    assert len(s) == 123
    assert set(s.columns) == {"time", "light"}


def test_uniform_sample_is_random(intel_df, intel_pdf):
    s1 = spark_build.uniform_sample(intel_df, "light", ["time"], 50, len(intel_pdf), seed=1)
    s2 = spark_build.uniform_sample(intel_df, "light", ["time"], 50, len(intel_pdf), seed=2)
    assert set(s1["time"]) != set(s2["time"])


@pytest.mark.parametrize("k", [0, 1, 300, 6000, 7000])
@pytest.mark.parametrize("seed", [1, 99])
def test_uniform_sample_equals_sort_reference(intel_df, intel_pdf, k, seed):
    """Rows and their order equal ``orderBy(rand(seed)).limit(k)``, also
    for k = n and k > n; an understated n_total (threshold 1) still gives
    the exact bottom k."""
    ref = reference_uniform_sample(intel_df, "light", ["time"], k, seed=seed)
    for n in (len(intel_pdf), 10):
        got = spark_build.uniform_sample(intel_df, "light", ["time"], k, n, seed=seed)
        pd.testing.assert_frame_equal(got, ref, check_exact=True, check_dtype=k > 0)


def test_optimization_sample_sorted_and_sized(intel_df, intel_pdf):
    s = spark_build.optimization_sample(intel_df, "light", ["time"], 300, len(intel_pdf), seed=0)
    assert len(s) <= 300
    assert len(s) > 200  # headroom factor should land close to m
    assert s["time"].is_monotonic_increasing


def test_optimization_sample_full_when_m_exceeds_n(intel_df, intel_pdf):
    s = spark_build.optimization_sample(
        intel_df, "light", ["time"], 10**9, len(intel_pdf), seed=0
    )
    assert len(s) == len(intel_pdf)


def test_with_leaf_fn_multidim(nyc_df, nyc_pdf):
    from repro.core.kdtree import KDTree

    cols = ["pickup_time", "pickup_date"]
    x = nyc_pdf[cols].to_numpy(float)
    a = nyc_pdf["trip_distance"].to_numpy(float)
    kd = KDTree(x, a, 16, policy="us")
    dfl = spark_build.with_leaf_fn(nyc_df, cols, kd.assign)
    got = dfl.select(*cols, LEAF_COL).toPandas()
    exp = kd.assign(got[cols].to_numpy(float))
    assert np.array_equal(got[LEAF_COL].to_numpy(), exp)


def test_nyc_groupby_oracle(nyc_df, nyc_pdf):
    """A groupBy over the shuffle path agrees with DuckDB: per-location
    trip count and total distance on the NYC stand-in (265 groups)."""
    res = nyc_df.groupBy("pu_location_id").agg(
        F.sum("trip_distance").alias("sum_dist"),
        F.count(F.lit(1)).alias("cnt"),
    )
    assert res.count() == nyc_pdf["pu_location_id"].nunique()
    assert_equivalent(
        res,
        "SELECT pu_location_id, SUM(trip_distance) AS sum_dist, COUNT(*) AS cnt "
        "FROM nyc GROUP BY pu_location_id",
        nyc=nyc_pdf,
    )


def _build(kind, df, **kw):
    if kind == "1d":
        return PassSynopsis.build_1d(
            df, "pickup_time", "trip_distance", k_partitions=16, m_opt=256, **kw
        )
    return PassSynopsis.build_kd(
        df, ["pickup_time", "pickup_date", "pu_location_id"], "trip_distance",
        k_leaves=16, m_opt=512, **kw
    )


@pytest.mark.parametrize("kind", ["1d", "kd"])
@pytest.mark.parametrize("rows", ["all", "none"])
def test_build_without_samples(nyc_df, nyc_pdf, kind, rows):
    """An aggregates-only build (sample_total=0) and a build over an empty
    input both succeed with no samples; a query covering everything is
    answered exactly from the aggregates."""
    pdf = nyc_pdf if rows == "all" else nyc_pdf.iloc[:0]
    df = nyc_df if rows == "all" else nyc_df.where(F.lit(False))
    syn = _build(kind, df, sample_total=0 if rows == "all" else 200)
    assert syn.n_samples == 0
    assert syn.n_total == len(pdf)
    inf = float("inf")
    d = len(syn.pred_cols)
    q = Query("sum", tuple(syn.pred_cols), (-inf,) * d, (inf,) * d)
    truth = pdf["trip_distance"].sum()
    assert syn.answer(q).est == pytest.approx(truth, rel=1e-12, abs=0.0)


def test_builds_leave_nothing_persisted(spark, nyc_df):
    """Every build frees its checkpoint and its persisted leaf frame, also
    when it raises after the input was materialised."""
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    _build("1d", nyc_df, sample_total=300)
    assert jsc.getPersistentRDDs().size() == before
    _build("kd", nyc_df, sample_total=300)
    assert jsc.getPersistentRDDs().size() == before
    with pytest.raises(ValueError, match="bogus"):
        _build("1d", nyc_df, sample_total=300, alloc="bogus")
    assert jsc.getPersistentRDDs().size() == before
