"""Spark-side build path for PASS and the sampling baselines.

Everything that touches the full dataset happens here, through the
DataFrame/Catalyst API. A PASS build reads its input once:

* materialisation — the builder projects the input to the columns the
  synopsis needs and keeps it as a local ``checkpoint``, filled by the
  job that counts its rows. The optimisation sample and the leaf
  assignment read the checkpoint, not the input's lineage;
* leaf assignment — for 1-D, a Catalyst expression: a balanced binary
  tree of ``CASE WHEN col < b`` comparisons over the boundaries, equal to
  ``np.searchsorted(side='right')``, so no Python worker sees the rows;
  for multi-dimensional partitionings, an Arrow-vectorised pandas UDF
  running an arbitrary vectorised assigner (the k-d tree descent). The
  builder checkpoints the result too, so the assigner runs once per row
  and the aggregates and the sample read the same stored rows;
* per-leaf aggregates — one ``groupBy("leaf_id").agg(...)`` computing
  SUM/COUNT/MIN/MAX of the aggregation column plus the per-dimension
  min/max of every predicate column (the data extents the MCF classifier
  uses);
* stratified sampling — bottom-K by key threshold: each leaf keeps its K_i
  rows with the smallest ``rand(seed)`` keys. A Catalyst filter against a
  per-leaf threshold drops all but a few more than K_i rows per leaf, so
  no row is shuffled and the driver ranks only the survivors; a leaf
  that comes up short is ranked exactly by a window over that leaf alone.
  Uniform sampling is the one-stratum case.

The collected outputs are tiny (k rows of aggregates, K sampled rows);
query answering then runs driver-side over the synopsis, which is the
point of a synopsis structure.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from numpy.typing import ArrayLike
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .tree import Node
from .variance import PartStats

LEAF_COL = "__leaf_id"
KEY_COL = "__key"
#: Headroom of the sampling threshold t_i = (K_i + SLACK·√K_i + SLACK)/N_i.
#: A leaf's expected survivor count then exceeds K_i by SLACK·(√K_i + 1),
#: close to SLACK standard deviations (at most √K_i + SLACK/2) once K_i is
#: large, so a leaf rarely comes up short; a short leaf costs one window pass.
SLACK = 4.0


def checkpoint(df: DataFrame) -> DataFrame:
    """``df`` as a lazy local checkpoint. The first action over it stores
    the rows and truncates the lineage, so later passes read stored rows
    instead of re-running ``df``'s plan (an input's Arrow batches, a
    pandas UDF). Rows keep their partitions and order, so ``rand(seed)``
    and ``sample(seed=…)`` draw the same values as over ``df``. Free it
    with ``release``."""
    return df.localCheckpoint(eager=False)


def release(*frames: DataFrame | None) -> None:
    """Free ``checkpoint`` frames; ``None`` is skipped.
    ``DataFrame.unpersist`` does not free a local checkpoint: its blocks
    belong to the RDD under the checkpoint's ``LogicalRDD`` plan."""
    for f in frames:
        if f is not None:
            f._jdf.queryExecution().logical().rdd().unpersist(False)


def with_leaf_1d(df: DataFrame, pred_col: str, boundaries: np.ndarray) -> DataFrame:
    """Attach the 1-D partition id ``searchsorted(boundaries, v,
    side='right')`` (the number of boundaries ≤ v) as a Catalyst
    expression: a balanced ``CASE WHEN v < b[mid] THEN left ELSE right``
    tree of depth ⌈log2 k⌉ over the k−1 sorted interior boundaries.
    Duplicate boundaries yield empty leaves; NaN and NULL fail every
    ``<`` and land in the last leaf, as ``searchsorted`` puts NaN.

    The tree is handed to Spark as one SQL string: composing it from
    ``F.when``/``F.lit`` costs a few JVM round trips per node, ~0.2 s for
    k = 64 on a 4-vCPU host against ~0.03 s for the string."""
    b = [_sql_double(x) for x in np.asarray(boundaries, dtype=np.float64).tolist()]
    v = "`" + pred_col.replace("`", "``") + "`"

    def bucket(lo: int, hi: int) -> str:  # leaf ids lo..hi, split by b[lo..hi-1]
        if lo == hi:
            return str(lo)
        mid = (lo + hi + 1) // 2
        return f"CASE WHEN {v} < {b[mid - 1]} THEN {bucket(lo, mid - 1)} ELSE {bucket(mid, hi)} END"

    return df.withColumn(LEAF_COL, F.expr(bucket(0, len(b))).cast("long"))


def with_leaf_fn(
    df: DataFrame, pred_cols: list[str], assign: Callable[[np.ndarray], np.ndarray]
) -> DataFrame:
    """Attach a partition id computed by an arbitrary vectorised assigner
    (rows × d → leaf ids); used for the k-d tree partitionings."""

    @F.pandas_udf("long")
    def bucket(*cols: pd.Series) -> pd.Series:
        x = np.column_stack([c.to_numpy(dtype=np.float64) for c in cols])
        return pd.Series(assign(x))

    return df.withColumn(LEAF_COL, bucket(*[F.col(c) for c in pred_cols]))


def leaf_aggregates(df_leaf: DataFrame, value_col: str, pred_cols: list[str]) -> pd.DataFrame:
    """Exact per-leaf aggregates: the single groupBy of the build path."""
    aggs = [
        F.sum(value_col).alias("agg_sum"),
        F.count(F.lit(1)).alias("agg_count"),
        F.min(value_col).alias("agg_min"),
        F.max(value_col).alias("agg_max"),
    ]
    for c in pred_cols:
        aggs.append(F.min(c).alias(f"pmin_{c}"))
        aggs.append(F.max(c).alias(f"pmax_{c}"))
    return df_leaf.groupBy(LEAF_COL).agg(*aggs).toPandas()


def leaves_from_aggregates(
    agg_pdf: pd.DataFrame, pred_cols: list[str], n_leaves: int
) -> list[Node]:
    """Materialise ordered leaf Nodes (empty leaves become count-0 nodes)."""
    ids = agg_pdf[LEAF_COL].to_numpy(dtype=np.int64)

    def column(name: str, empty: float) -> np.ndarray:
        out = np.full(n_leaves, empty)
        out[ids] = agg_pdf[name].to_numpy(dtype=np.float64)
        return out

    sums, counts = column("agg_sum", 0.0).tolist(), column("agg_count", 0.0).tolist()
    mins, maxs = column("agg_min", np.inf).tolist(), column("agg_max", -np.inf).tolist()
    pmin = np.column_stack([column(f"pmin_{c}", np.inf) for c in pred_cols])
    pmax = np.column_stack([column(f"pmax_{c}", -np.inf) for c in pred_cols])
    return [
        Node(PartStats(sums[i], counts[i], mins[i], maxs[i]), pmin[i], pmax[i], leaf_id=i)
        for i in range(n_leaves)
    ]


def stratified_sample(
    df_leaf: DataFrame,
    value_col: str,
    sample_cols: list[str],
    k_per_leaf: ArrayLike,
    n_per_leaf: ArrayLike,
    seed: int = 0,
) -> pd.DataFrame:
    """Exact per-stratum uniform samples, without a shuffle.

    ``k_per_leaf[i]`` is leaf i's sample size K_i and ``n_per_leaf[i]``
    its row count N_i. Each leaf keeps its min(K_i, N_i) rows with the
    smallest ``rand(seed)`` keys. Returns leaf_id + sample columns + value
    column, sorted by leaf and, within a leaf, by key.
    """
    return _bottom_k(df_leaf, [*sample_cols, value_col], k_per_leaf, n_per_leaf, seed)


def uniform_sample(
    df: DataFrame, value_col: str, pred_cols: list[str], k: int, n_total: int, seed: int = 0
) -> pd.DataFrame:
    """Exactly-min(k, n) uniform row sample: the k smallest ``rand(seed)``
    keys in key order, i.e. the one-stratum case of ``stratified_sample``."""
    one = df.withColumn(LEAF_COL, F.lit(0))
    return _bottom_k(one, [*pred_cols, value_col], [k], [n_total], seed).drop(columns=LEAF_COL)


def _bottom_k(
    df: DataFrame, cols: list[str], k: ArrayLike, n: ArrayLike, seed: int
) -> pd.DataFrame:
    """The k[i] rows with the smallest ``rand(seed)`` keys of each stratum
    i (the ``LEAF_COL`` value) of ``df``.

    A row of stratum i survives a Catalyst filter when its key is below
    t_i = min(1, (K_i + SLACK·√K_i + SLACK) / N_i). The survivors are
    collected and the driver keeps each stratum's K_i smallest keys. The
    K_i smallest keys of a stratum all lie below t_i whenever at least K_i
    keys do, so the result is exactly the bottom K_i; a stratum with
    fewer survivors is ranked again by a window over that stratum alone.
    """
    k = np.asarray(k, dtype=np.int64)
    n = np.asarray(n, dtype=np.float64)
    cols = list(dict.fromkeys(cols))
    if not (k > 0).any():
        return pd.DataFrame(columns=[LEAF_COL, *cols])
    t = np.minimum(1.0, (k + SLACK * np.sqrt(k) + SLACK) / np.maximum(n, 1.0))
    t[k <= 0] = 0.0
    keyed = df.withColumn(KEY_COL, F.rand(seed))
    pdf = (
        keyed.where(F.expr(f"{KEY_COL} < {_array(t)}[{LEAF_COL}]"))
        .select(LEAF_COL, KEY_COL, *cols)
        .toPandas()
    )
    leaf = pdf[LEAF_COL].to_numpy(dtype=np.int64)
    short = np.flatnonzero((np.bincount(leaf, minlength=len(k)) < k) & (t < 1.0))
    if short.size:
        rank = F.row_number().over(Window.partitionBy(LEAF_COL).orderBy(KEY_COL))
        exact = (
            keyed.where(F.col(LEAF_COL).isin(short.tolist()))
            .withColumn("__rank", rank)
            .where(F.expr(f"__rank <= {_array(k)}[{LEAF_COL}]"))
            .select(LEAF_COL, KEY_COL, *cols)
            .toPandas()
        )
        pdf = pd.concat([pdf[~np.isin(leaf, short)], exact], ignore_index=True)
        leaf = pdf[LEAF_COL].to_numpy(dtype=np.int64)
    order = np.lexsort((pdf[KEY_COL].to_numpy(dtype=np.float64), leaf))
    by_leaf = leaf[order]
    rank0 = np.arange(order.size) - np.searchsorted(by_leaf, by_leaf, side="left")
    keep = order[rank0 < k[by_leaf]]
    return pdf.iloc[keep][[LEAF_COL, *cols]].reset_index(drop=True)


def optimization_sample(
    df: DataFrame, value_col: str, pred_cols: list[str], m: int, n_total: int, seed: int = 0
) -> pd.DataFrame:
    """The m-row sample the partitioning DP runs on (§4.3.1), sorted by the
    first predicate column. Bernoulli sample with headroom, trimmed to m."""
    if m >= n_total:
        pdf = df.select(*pred_cols, value_col).toPandas()
    else:
        frac = min(1.0, 1.3 * m / n_total + 10.0 / n_total)
        pdf = df.select(*pred_cols, value_col).sample(fraction=frac, seed=seed).toPandas()
        if len(pdf) > m:
            pdf = pdf.sample(n=m, random_state=seed)
    return pdf.sort_values(pred_cols[0]).reset_index(drop=True)


def _sql_double(x: float) -> str:
    """An exact Spark SQL double literal (``repr`` round-trips)."""
    return f"{x!r}D" if np.isfinite(x) else f"CAST('{x}' AS DOUBLE)"


def _array(x: np.ndarray) -> str:
    """A numpy vector as a Spark SQL array literal."""
    fmt = _sql_double if x.dtype.kind == "f" else str
    return "array(" + ", ".join(fmt(v) for v in x.tolist()) + ")"
