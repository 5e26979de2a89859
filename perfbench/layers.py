"""Per-layer metrics from one traced round.

Build-phase times and counts are means per build; query-path times and
counts are per query (``_p50`` names are medians over calls). Synopsis
structure counts are summed over the round's builds, and leaf size and
sample size quantiles are pooled over their leaves.
"""
from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

from tracing import SPARK_COUNTERS, SPARK_PHASES, SparkPhases, Tracer, instrument
from workloads import Score, run_round

#: Spans whose mean time per build is reported as ``<name>.s``.
BUILD_SPANS = (
    "spark_build.optimization_sample",
    "partitioner.ADP",
    "kdtree.KDTree",
    "spark_build.leaf_aggregates",
    "spark_build.stratified_sample",
    "tree.build_tree",
)


def traced_round(spark, spec, jobs, seed: int, score: Score, base, by_table=None):
    """Run round 0 again under tracing; return its log, the per-layer
    metrics and the tracer."""
    tracer = Tracer()
    phases = SparkPhases(spark.sparkContext)
    stats: Counter = Counter()
    per_scan = []
    for job in jobs:
        # Cached-input records read by one full scan of the job's table.
        phases.wrap(job.df.count, "count")()
        per_scan.append(phases.collect(phases.groups[-1:])["count"]["input_records"])
    phases.groups.clear()
    with instrument(tracer, phases, stats):
        log = run_round(spec, jobs, seed, 0, score, phases, by_table)
    metrics = layer_metrics(tracer, stats, phases, log, per_scan, score)
    metrics["trace.overhead"] = ((log.wall_s - base.wall_s) / base.wall_s, "ratio")
    metrics["trace.query_overhead"] = (
        sum(p.seconds for p in log.query_passes) / sum(p.seconds for p in base.query_passes) - 1.0,
        "ratio",
    )
    return log, metrics, tracer


def _p50(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def layer_metrics(tracer: Tracer, stats: Counter, phases: SparkPhases, log, per_scan, score: Score):
    a = tracer.arrays()
    name, dur, self_t = a["name"], a["dur"], a["self"]
    n_builds = max(1, len(log.build_s))
    n_queries = max(1, int((name == "synopsis.answer").sum()))
    out: dict[str, tuple[float, str]] = {}

    def total(span: str, field=dur) -> float:
        return float(field[name == span].sum())

    for span in BUILD_SPANS:
        out[f"{span}.s"] = (total(span) / n_builds, "s")
    for phase in ("optimization_sample", "stratified_sample"):
        out[f"spark_build.{phase}.rows"] = (stats[f"{phase}.rows"] / n_builds, "rows")
    out["partitioner.ADP.mvar_calls"] = (tracer.counts["partitioner.ADP.mvar"] / n_builds, "count")
    out["synopsis.build.self_s"] = (total("synopsis.build", self_t) / n_builds, "s")

    # Spark counters, per build phase; scans = input records / one full scan.
    sums = {p: Counter() for p in SPARK_PHASES}
    scans = 0.0
    for groups, rps in zip(log.build_groups, per_scan):
        counters = phases.collect(groups)
        for p in SPARK_PHASES:
            sums[p].update(counters[p])
        scans += sum(counters[p]["input_records"] for p in SPARK_PHASES) / max(1, rps)
    for p in SPARK_PHASES:
        for c in SPARK_COUNTERS:
            unit = "s" if c.endswith("_s") else "bytes" if c.endswith("_bytes") else "count"
            out[f"spark.{p}.{c}"] = (sums[p][c] / n_builds, unit)
    out["spark.build.scans"] = (scans / n_builds, "count")

    # Synopsis structure, straight after each build.
    rows = np.concatenate(log.leaf_rows) if log.leaf_rows else np.zeros(1)
    samples = np.concatenate(log.leaf_samples) if log.leaf_samples else np.zeros(1)
    out["synopsis.leaves"] = (float(rows.size), "count")
    out["synopsis.empty_leaves"] = (float((rows == 0).sum()), "count")
    out["synopsis.zero_var_leaves"] = (float(sum(log.zero_var_leaves)), "count")
    for label, arr in (("leaf_rows", rows), ("leaf_samples", samples)):
        out[f"synopsis.{label}.min"] = (float(arr.min()), "rows")
        out[f"synopsis.{label}.p50"] = (float(np.median(arr)), "rows")
        out[f"synopsis.{label}.max"] = (float(arr.max()), "rows")

    # Query path.
    us = 1e6
    out["tree.mcf.us_p50"] = (_p50(dur[name == "tree.mcf"]) * us, "us")
    out["tree.classify_calls"] = (tracer.counts["tree.classify"] / n_queries, "count")
    out["tree.mcf.covered"] = (stats["mcf.covered"] / n_queries, "count")
    out["tree.mcf.partial"] = (stats["mcf.partial"] / n_queries, "count")
    out["variance.stratum_estimate.calls"] = (
        float((name == "variance.stratum_estimate").sum()) / n_queries, "count"
    )
    out["variance.stratum_estimate.us"] = (total("variance.stratum_estimate") / n_queries * us, "us")
    out["variance.hard_bounds.us"] = (total("variance.hard_bounds") / n_queries * us, "us")
    out["synopsis.answer.us_p50"] = (_p50(dur[name == "synopsis.answer"]) * us, "us")
    out["synopsis.answer.us_p99"] = (
        float(np.percentile(dur[name == "synopsis.answer"], 99)) * us if n_queries > 1 else 0.0,
        "us",
    )
    out["synopsis.answer.self_us"] = (total("synopsis.answer", self_t) / n_queries * us, "us")
    out["synopsis.samples_scanned"] = (stats["samples.scanned"] / n_queries, "count")
    out["synopsis.sample_match_ratio"] = (
        stats["samples.matched"] / max(1, stats["samples.scanned"]), "ratio"
    )
    skipped = np.concatenate([x.skipped for x in log.answers])
    out["synopsis.skip_rate"] = (float(np.nanmean(skipped)), "ratio")
    out["synopsis.insert.us_p50"] = (_p50(dur[name == "synopsis.insert"]) * us, "us")
    out["synopsis.bound_violations"] = (float(score.bound_violations), "count")
    out["synopsis.nan_answers"] = (float(score.nan_answers), "count")
    out["synopsis.exceptions"] = (float(score.exceptions), "count")
    return out


def setup_metrics(setups, session_s: float, cold_build_s: float):
    """Set-up layers; input set-up times are medians over the repetitions."""

    def med(attr: str) -> float:
        return float(statistics.median(getattr(s, attr) for s in setups))

    return {
        "synth_data.s": (med("synth_data_s"), "s"),
        "query.truth.s": (med("truth_s"), "s"),
        "oracle.check.s": (med("oracle_s"), "s"),
        "spark.session_s": (session_s, "s"),
        "synopsis.cold_build_s": (cold_build_s, "s"),
    }
