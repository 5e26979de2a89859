"""ST baseline: equal-depth stratified sampling (§2.2).

Implemented as a :class:`~repro.core.synopsis.PassSynopsis` built with
``use_aggregates=False``: identical strata, identical per-stratum samples
and §2.2 combination formulas, but every intersecting stratum is answered
from its sample — no exact partial aggregation and no hard bounds.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..core.synopsis import PassSynopsis


def build_stratified(
    df: DataFrame,
    pred_col: str,
    value_col: str,
    *,
    n_strata: int,
    sample_total: int,
    m_opt: int = 1024,
    seed: int = 0,
) -> PassSynopsis:
    """Equal-depth strata over ``pred_col`` with K/B samples each."""
    return PassSynopsis.build_1d(
        df,
        pred_col,
        value_col,
        k_partitions=n_strata,
        sample_total=sample_total,
        partitioner="eq",
        m_opt=m_opt,
        use_aggregates=False,
        seed=seed,
    )
