"""Rectangular subpopulation-aggregate queries (§3.1) and their answers.

A query is ``AGG(A) WHERE x_i <= C_i <= y_i for 1 <= i <= d`` over the
predicate columns ``cols``; both endpoints are inclusive, matching the
paper's rectangular partitioning conditions.

Every sampling approach (PASS, ST, US, AQP++/KD-US) evaluates a query
through the same two helpers: :meth:`Query.box` gives the query rectangle
over the columns a synopsis partitions on, :meth:`Query.sample_mask` the
predicate matches among its sampled rows. All of them answer with an
:class:`AqpResult`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

AGGS = ("sum", "count", "avg", "min", "max")


@dataclass
class AqpResult:
    """One approximate answer: estimate, λ·σ half-width CI, deterministic
    hard bounds (when available), and cost accounting."""

    est: float
    ci_half: float
    lb: float = float("nan")
    ub: float = float("nan")
    processed: int = 0
    skipped_frac: float = 0.0


@dataclass(frozen=True)
class Query:
    """One rectangular aggregate query.

    Attributes:
        agg:  one of :data:`AGGS`.
        cols: predicate column names (length d).
        lo:   lower bounds, inclusive, aligned with ``cols``.
        hi:   upper bounds, inclusive, aligned with ``cols``.
    """

    agg: str
    cols: tuple[str, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.agg not in AGGS:
            raise ValueError(f"unsupported aggregate {self.agg!r}")
        if not (len(self.cols) == len(self.lo) == len(self.hi)):
            raise ValueError("cols/lo/hi length mismatch")

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        """Boolean match vector of this query's predicate over ``pdf``."""
        m = np.ones(len(pdf), dtype=bool)
        for c, lo, hi in zip(self.cols, self.lo, self.hi):
            v = pdf[c].to_numpy()
            m &= (v >= lo) & (v <= hi)
        return m

    def box(self, cols: list[str]) -> tuple[np.ndarray, np.ndarray, bool]:
        """Query rectangle over ``cols`` (±inf for unconstrained columns)
        and whether the query constrains a column outside ``cols`` (a
        workload shift, §5.4.1)."""
        lo = np.full(len(cols), -np.inf)
        hi = np.full(len(cols), np.inf)
        external = False
        for c, l, h in zip(self.cols, self.lo, self.hi):
            if c in cols:
                j = cols.index(c)
                lo[j], hi[j] = l, h
            else:
                external = True
        return lo, hi, external

    def sample_mask(self, x: np.ndarray, cols: list[str]) -> np.ndarray:
        """Boolean match vector over sampled rows ``x`` (n, len(cols)) whose
        columns are ``cols``; a query column the rows lack is a KeyError."""
        m = np.ones(len(x), dtype=bool)
        for c, l, h in zip(self.cols, self.lo, self.hi):
            if c not in cols:
                raise KeyError(f"query column {c!r} not in synopsis sample columns {cols}")
            j = cols.index(c)
            m &= (x[:, j] >= l) & (x[:, j] <= h)
        return m

    def truth(self, pdf: pd.DataFrame, value_col: str) -> float:
        """Exact answer over the full data (ground truth for the harness)."""
        v = pdf[value_col].to_numpy()[self.mask(pdf)]
        if self.agg == "count":
            return float(v.size)
        if v.size == 0:
            return float("nan")
        if self.agg == "sum":
            return float(v.sum())
        if self.agg == "avg":
            return float(v.mean())
        if self.agg == "min":
            return float(v.min())
        return float(v.max())

    def sql(self, table: str, value_col: str) -> str:
        """The equivalent SQL text (used with the DuckDB oracle)."""
        pred = " AND ".join(
            f"({c} >= {lo!r} AND {c} <= {hi!r})"
            for c, lo, hi in zip(self.cols, self.lo, self.hi)
        )
        fn = {"sum": "SUM", "count": "COUNT", "avg": "AVG", "min": "MIN", "max": "MAX"}[self.agg]
        arg = "*" if self.agg == "count" else value_col
        return f"SELECT {fn}({arg}) AS result FROM {table} WHERE {pred}"
