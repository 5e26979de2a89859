"""VerdictDB [34] stand-in: scramble-style sampling (see DESIGN.md §3.5).

VerdictDB builds a *scramble* — a shuffled, block-sampled copy of the
table — and answers queries from the scramble alone with CLT error
bounds. The closed-source planner is out of reach, so this simulates the
same storage/accuracy trade-off with a uniform row-level scramble at
ratio r: r=1.0 stores (a permutation of) the full table and is exact up
to the finite-population correction; r=0.1 stores 10% and behaves like
plain uniform sampling at a 10% rate. Storage is accounted at full row
width, matching the paper's observation that VerdictDB-100% costs about
the size of the original dataset.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame

from .uniform import UniformSampling


def build_verdictdb(
    df: DataFrame,
    pred_cols: list[str],
    value_col: str,
    *,
    ratio: float,
    seed: int = 0,
) -> UniformSampling:
    """Scramble at sampling ``ratio`` ∈ (0, 1]."""
    t0 = time.perf_counter()
    n_total = df.count()
    k = max(1, int(round(ratio * n_total)))
    syn = UniformSampling.build(df, pred_cols, value_col, k=k, seed=seed)
    syn.build_seconds = time.perf_counter() - t0
    return syn
