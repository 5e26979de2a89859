"""Benchmark inputs: tables, query workloads and exact ground truth.

Everything here is derived from the workload seed, so the same seed gives
the same rows, held-out insert batch, queries and truths. Ground truth is
computed once per query set with numpy (sorted prefix sums in 1-D, a
sorted slice plus masks in k-d) and cross-checked against DuckDB on a
seeded subset of the queries.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

from repro import synth_data
from repro.core.query import Query

#: Queries per query set that are re-run in DuckDB (one SQL statement each).
ORACLE_QUERIES = 64
#: Every generated query matches at least this many rows of the table.
MIN_COUNT = 20


def subseed(seed: int, *keys) -> int:
    """A 31-bit seed derived from the workload seed and any labels."""
    entropy = [int(seed)] + [zlib.crc32(str(k).encode()) for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0] & 0x7FFFFFFF)


@dataclass
class Table:
    """One dataset: the rows the synopsis is built on, plus a held-out
    batch of rows that is inserted after the build."""

    name: str
    rows: pd.DataFrame
    inserts: pd.DataFrame
    pred_cols: list[str]
    value_col: str


def make_table(name, generator, n, n_insert, pred_cols, value_col, data_seed, holdout_seed) -> Table:
    """Generate n + n_insert rows with ``repro.synth_data.<generator>`` and
    hold out a random n_insert of them."""
    full = getattr(synth_data, generator)(n=n + n_insert, seed=data_seed)
    rng = np.random.default_rng(holdout_seed)
    held = np.zeros(len(full), dtype=bool)
    held[rng.choice(len(full), n_insert, replace=False)] = True
    return Table(
        name,
        full[~held].reset_index(drop=True),
        full[held].reset_index(drop=True),
        list(pred_cols),
        value_col,
    )


@dataclass
class QuerySet:
    """Queries over one table with their exact answers."""

    queries: list[Query]
    truth: np.ndarray


class Truth:
    """Exact answers of rectangular queries over a fixed set of rows.

    Rows are sorted by the first predicate column; a query's rows are the
    slice between two ``searchsorted`` positions, filtered by the other
    predicate columns. In 1-D, COUNT/SUM/AVG come from prefix sums.
    """

    def __init__(self, rows: pd.DataFrame, pred_cols: list[str], value_col: str) -> None:
        order = np.argsort(rows[pred_cols[0]].to_numpy(), kind="stable")
        self.x = [rows[c].to_numpy(dtype=np.float64)[order] for c in pred_cols]
        self.v = rows[value_col].to_numpy(dtype=np.float64)[order]
        self.prefix = np.concatenate([[0.0], np.cumsum(self.v)])

    def span(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slice [i0, i1) of the sorted rows with lo <= first column <= hi."""
        return (
            np.searchsorted(self.x[0], lo, side="left"),
            np.searchsorted(self.x[0], hi, side="right"),
        )

    def rows_of(self, q: Query) -> np.ndarray:
        """Values of the rows matching ``q``."""
        i0, i1 = self.span(q.lo[0], q.hi[0])
        m = np.ones(i1 - i0, dtype=bool)
        for x, lo, hi in zip(self.x[1:], q.lo[1:], q.hi[1:]):
            xs = x[i0:i1]
            m &= (xs >= lo) & (xs <= hi)
        return self.v[i0:i1][m]

    def answers(self, queries: list[Query]) -> np.ndarray:
        out = np.empty(len(queries))
        if len(self.x) == 1:
            lo = np.array([q.lo[0] for q in queries])
            hi = np.array([q.hi[0] for q in queries])
            i0, i1 = self.span(lo, hi)
            cnt = (i1 - i0).astype(np.float64)
            tot = self.prefix[i1] - self.prefix[i0]
            for k, q in enumerate(queries):
                if q.agg == "count":
                    out[k] = cnt[k]
                elif cnt[k] == 0:
                    out[k] = np.nan
                elif q.agg == "sum":
                    out[k] = tot[k]
                elif q.agg == "avg":
                    out[k] = tot[k] / cnt[k]
                else:
                    seg = self.v[i0[k] : i1[k]]
                    out[k] = seg.min() if q.agg == "min" else seg.max()
            return out
        for k, q in enumerate(queries):
            v = self.rows_of(q)
            if q.agg == "count":
                out[k] = v.size
            elif v.size == 0:
                out[k] = np.nan
            else:
                out[k] = {"sum": v.sum, "avg": v.mean, "min": v.min, "max": v.max}[q.agg]()
        return out

    def count(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Matching row counts for boxes given as (n_queries, d) arrays."""
        i0, i1 = self.span(lo[:, 0], hi[:, 0])
        if len(self.x) == 1:
            return i1 - i0
        out = np.empty(len(lo), dtype=np.int64)
        for k in range(len(lo)):
            m = np.ones(i1[k] - i0[k], dtype=bool)
            for j, x in enumerate(self.x[1:], start=1):
                xs = x[i0[k] : i1[k]]
                m &= (xs >= lo[k, j]) & (xs <= hi[k, j])
            out[k] = m.sum()
        return out


def random_boxes(
    rows: pd.DataFrame, pred_cols: list[str], truth: Truth, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n random query rectangles whose endpoints are data values (the
    paper's "meaningful query" assumption), each matching at least
    MIN_COUNT rows; under-filled draws are re-drawn."""
    cols = [rows[c].to_numpy(dtype=np.float64) for c in pred_cols]
    los, his = [], []
    have = 0
    while have < n:
        batch = 2 * (n - have) + 16
        a = np.column_stack([c[rng.integers(0, len(c), batch)] for c in cols])
        b = np.column_stack([c[rng.integers(0, len(c), batch)] for c in cols])
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ok = truth.count(lo, hi) >= MIN_COUNT
        los.append(lo[ok])
        his.append(hi[ok])
        have += int(ok.sum())
    return np.concatenate(los)[:n], np.concatenate(his)[:n]


def challenging_region(truth: Truth, delta: float = 0.01, widen: float = 4.0) -> tuple[float, float]:
    """The §5.3 challenging region: the predicate range of the largest
    Σt² window of δ·n consecutive rows, widened ``widen`` times."""
    x, v = truth.x[0], truth.v
    w = max(2, int(round(delta * v.size)))
    csq = np.concatenate([[0.0], np.cumsum(v * v)])
    g = int(np.argmax(csq[w:] - csq[:-w])) + w - 1
    lo, hi = x[g - w + 1], x[g]
    mid, half = (lo + hi) / 2, widen * max(hi - lo, 1e-9) / 2
    return mid - half, mid + half


def make_queries(
    table: Table, mix: list[tuple[str, int, bool]], rng: np.random.Generator
) -> list[Query]:
    """Queries over the table's rows for a mix of (agg, how many, challenging?).

    Challenging queries (1-D only) are random queries over the rows inside
    the challenging region.
    """
    cols, rows = table.pred_cols, table.rows
    truth = Truth(rows, cols, table.value_col)
    out: list[Query] = []
    for agg, n, challenging in mix:
        src, src_truth = rows, truth
        if challenging:
            lo, hi = challenging_region(truth)
            inside = rows[(rows[cols[0]] >= lo) & (rows[cols[0]] <= hi)]
            if len(inside) >= 2 * MIN_COUNT:
                src, src_truth = inside, Truth(inside, cols, table.value_col)
        lo, hi = random_boxes(src, cols, src_truth, n, rng)
        out.extend(
            Query(agg, tuple(cols), tuple(map(float, l)), tuple(map(float, h)))
            for l, h in zip(lo, hi)
        )
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def oracle_check(
    rows: pd.DataFrame, value_col: str, qs: QuerySet, rng: np.random.Generator
) -> int:
    """Re-run a seeded subset of ``qs`` in DuckDB and return how many of
    those answers differ from ``qs.truth``."""
    pick = rng.choice(len(qs.queries), min(ORACLE_QUERIES, len(qs.queries)), replace=False)
    con = duckdb.connect()
    try:
        con.execute("SET threads = 1")
        con.register("t", rows)
        bad = 0
        for i in pick:
            q = qs.queries[i]
            (got,) = con.execute(q.sql("t", value_col)).fetchone()
            got = np.nan if got is None else float(got)
            want = qs.truth[i]
            if not (np.isnan(got) and np.isnan(want)) and not np.isclose(
                got, want, rtol=1e-9, atol=1e-9
            ):
                bad += 1
        return bad
    finally:
        con.close()
