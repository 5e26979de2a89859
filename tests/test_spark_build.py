"""Spark build path: bucketing UDFs, groupBy aggregates (oracle-checked),
stratified window sampling."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import spark_build
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


def test_stratified_sample_sizes_exact(intel_leaf_df):
    df, b = intel_leaf_df
    want = {0: 17, 1: 5, 2: 31, 3: 8}
    s = spark_build.stratified_sample(df, "light", ["time"], want, seed=3)
    got = s.groupby(LEAF_COL).size().to_dict()
    assert got == want


def test_stratified_sample_rows_belong_to_stratum(intel_leaf_df):
    df, b = intel_leaf_df
    s = spark_build.stratified_sample(df, "light", ["time"], {0: 20, 3: 20}, seed=1)
    ids = np.searchsorted(b, s["time"].to_numpy(), side="right")
    assert np.array_equal(ids, s[LEAF_COL].to_numpy())


def test_stratified_sample_caps_at_stratum_size(spark):
    pdf = pd.DataFrame({"c": np.arange(20.0), "v": np.arange(20.0)})
    df = spark.createDataFrame(pdf)
    dfl = spark_build.with_leaf_1d(df, "c", np.array([10.0]))
    s = spark_build.stratified_sample(dfl, "v", ["c"], {0: 100, 1: 3}, seed=0)
    sizes = s.groupby(LEAF_COL).size()
    assert sizes[0] == 10 and sizes[1] == 3


def test_uniform_sample_exact_k(intel_df):
    s = spark_build.uniform_sample(intel_df, "light", ["time"], 123, seed=5)
    assert len(s) == 123
    assert set(s.columns) == {"time", "light"}


def test_uniform_sample_is_random(intel_df):
    s1 = spark_build.uniform_sample(intel_df, "light", ["time"], 50, seed=1)
    s2 = spark_build.uniform_sample(intel_df, "light", ["time"], 50, seed=2)
    assert set(s1["time"]) != set(s2["time"])


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
