"""US baseline: uniform sampling with the §2.1 φ-transform estimators."""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import DataFrame

from ..core import spark_build
from ..core.query import AqpResult, Query
from ..core.tree import synopsis_bytes
from ..core.variance import LAMBDA_99, stratum_estimate


class UniformSampling:
    """A K-row uniform sample of the dataset; answers every query from it."""

    def __init__(
        self,
        x: np.ndarray,
        v: np.ndarray,
        pred_cols: list[str],
        value_col: str,
        n_total: float,
        *,
        build_seconds: float = 0.0,
    ) -> None:
        self.x = x
        self.v = v
        self.pred_cols = list(pred_cols)
        self.value_col = value_col
        self.n_total = float(n_total)
        self.build_seconds = build_seconds

    @classmethod
    def build(
        cls,
        df: DataFrame,
        pred_cols: list[str],
        value_col: str,
        *,
        k: int,
        seed: int = 0,
    ) -> "UniformSampling":
        t0 = time.perf_counter()
        n_total = df.count()
        pdf = spark_build.uniform_sample(df, value_col, pred_cols, k, seed=seed)
        return cls(
            pdf[pred_cols].to_numpy(dtype=np.float64),
            pdf[value_col].to_numpy(dtype=np.float64),
            pred_cols,
            value_col,
            n_total,
            build_seconds=time.perf_counter() - t0,
        )

    def answer(self, q: Query) -> AqpResult:
        m = q.sample_mask(self.x, self.pred_cols)
        k = len(self.v)
        if q.agg in ("sum", "count", "avg"):
            est, var, _ = stratum_estimate(q.agg, self.v, m, self.n_total)
            return AqpResult(est, LAMBDA_99 * float(np.sqrt(var)), processed=k)
        if not m.any():
            return AqpResult(float("nan"), float("nan"), processed=k)
        est = float(self.v[m].min() if q.agg == "min" else self.v[m].max())
        return AqpResult(est, float("nan"), processed=k)

    @property
    def n_samples(self) -> int:
        return len(self.v)

    @property
    def storage_bytes(self) -> int:
        d = len(self.pred_cols)
        return synopsis_bytes(0, d, len(self.v), d)
