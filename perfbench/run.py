"""PASS benchmark: build cost, query and insert latency, and accuracy.

Run from the repository root:

    python3 perfbench/run.py --workload build_1d --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.SPECS``); a round runs each table's part once:

* ``build_1d``  Insta, NYC and the §5.3 adversarial data, one
  PASS-BSS10x build each, 500 random and challenging SUM/AVG queries and
  250 inserts each;
* ``build_kd``  NYC 200K rows, KD-PASS over three columns, 1000 3-D
  queries and 1000 inserts;
* ``serve_1d``  NYC 200K rows, 1-D PASS-BSS10x, 2000 queries of all five
  aggregates, 2000 inserts, the same queries again. Not listed in
  ``BENCHMARK.json``, which gates the first two; it is there to run by
  hand when working on the query path.

The program under test is imported from ``src/`` next to this directory and
runs on a single-process ``local[N]`` Spark session (N = min(4, cores))
with one client thread issuing queries in a closed loop. The seed picks
the held-out insert rows, the queries and the sampler seeds; the data come
from ``repro.synth_data`` with the seeds ``repro.experiments`` uses.

Set-up (Spark start, input generation and caching, ground truth and its
DuckDB check, one warm-up build) is not measured as part of a round. The
input set-up runs ``SETUP_REPS`` times and must give identical inputs;
``setup_s`` counts its median. ``--seconds`` sets how many rounds run
(``Spec.rounds``); the count depends on the arguments alone, so two runs
with the same arguments do and check the same operations. The JVM keeps
speeding up over a process's first few builds and the host's speed
drifts, so ``build_s`` and ``wall_s`` take each step at its fastest over
the rounds (``fastest``).

``--trace 0`` prints the end-to-end metrics; the JSON carries the gated
ones. ``--trace 1`` runs one round untraced and the same round traced,
checks that both give bit-identical answers, and prints the per-layer
metrics (spans around the calls into ``repro.core``, Spark counters per
build phase) and the tracing overhead. Spans and a result record with the
environment go to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEM = "2g"
SETUP_REPS = 2
#: Queries, and inserts, run on the warm-up synopsis during set-up.
WARMUP_CALLS = 300


T_START = time.perf_counter()


def progress(msg: str) -> None:
    """One progress line on standard error."""
    print(f"perfbench [{time.perf_counter() - T_START:7.2f}s] {msg}", file=sys.stderr, flush=True)


def configure_environment() -> None:
    """Keep every file Spark, Python and DuckDB write inside WORK, and put
    ``src`` on the PYTHONPATH of this process and of Spark's Python workers."""
    tmp = os.path.join(WORK, "tmp")
    spark_dir = os.path.join(WORK, "spark")
    for d in (tmp, spark_dir):
        os.makedirs(d, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = spark_dir
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": spark_dir,
        "spark.sql.warehouse.dir": os.path.join(WORK, "warehouse"),
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={tmp}",
        "spark.executorEnv.PYTHONPATH": os.environ["PYTHONPATH"],
    }
    args = ["--master", f"local[{CORES}]", "--driver-memory", DRIVER_MEM]
    for k, v in conf.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(map(shlex.quote, args + ["pyspark-shell"]))


def start_spark():
    """The same session settings as ``jobs/_common.get_spark``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        head = open(os.path.join(git, "HEAD")).read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            return open(path).read().strip()
        for line in open(os.path.join(git, "packed-refs")):
            if line.rstrip().endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """SHA-256 over the program's Python sources, for checkouts without git."""
    import hashlib

    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(base, f)
                h.update(os.path.relpath(p, SRC).encode())
                h.update(open(p, "rb").read())
    return h.hexdigest()


def environment(spark) -> dict:
    import numpy
    import pyspark

    sc = spark.sparkContext
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "master": sc.master,
        "cores": os.cpu_count(),
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": DRIVER_MEM,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def median(xs) -> float:
    return float(statistics.median(xs)) if len(xs) else 0.0


def fastest(logs) -> tuple[float, float]:
    """``build_s`` and ``wall_s`` of the untraced rounds.

    Every round does the same steps: one build per table, then the same
    timed query and insert passes. Each step's time is its fastest over the
    rounds, which on a shared host is the one least slowed by neighbours.
    ``build_s`` is the mean over tables of the fastest build of each
    table; ``wall_s`` is one round made of the fastest of every step.
    """
    builds: dict[str, list[float]] = {}
    for log in logs:
        for table, s in zip(log.tables, log.build_s):
            builds.setdefault(table, []).append(s)
    per_table = [min(v) for v in builds.values()]
    passes = zip(*([p.seconds for p in log.query_passes + log.insert_passes] for log in logs))
    return statistics.mean(per_table), sum(per_table) + sum(min(p) for p in passes)


def end_to_end(setup_s: float, logs, score) -> dict[str, tuple[float, str]]:
    """The gated end-to-end metrics of the untraced rounds."""
    import numpy as np

    storage = [x for log in logs for x in log.storage_bytes]
    build_s, wall_s = fastest(logs)
    return {
        "setup_s": (setup_s, "s"),
        "build_s": (build_s, "s"),
        "wall_s": (wall_s, "s"),
        "median_rel_err": (median(score.rel_errs), "ratio"),
        "ci_coverage": (score.ci_hits / score.ci_total if score.ci_total else 0.0, "ratio"),
        "median_ci_ratio": (median(score.ci_ratios), "ratio"),
        "storage_kb": (float(np.mean(storage)) / 1e3 if storage else 0.0, "KB"),
    }


def latency(logs, score) -> dict[str, tuple[float, str]]:
    """Query and insert latency and throughput, and the failed share.

    Printed on every run but not gated: on a shared host the CPU speed of
    the single client thread drifts by up to 1.8x, in spells that can last
    minutes, so these single-thread timings spread across runs by more than
    any useful bound. Builds use every core and drift less.
    """
    import numpy as np

    q = np.concatenate([p.ms for log in logs for p in log.query_passes])
    i = np.concatenate([p.ms for log in logs for p in log.insert_passes])
    q_s = sum(p.seconds for log in logs for p in log.query_passes)
    return {
        "query_p50_ms": (float(np.percentile(q, 50)), "ms"),
        "query_p99_ms": (float(np.percentile(q, 99)), "ms"),
        "queries_per_s": (len(q) / q_s, "1/s"),
        "insert_p50_ms": (float(np.percentile(i, 50)), "ms"),
        "insert_p99_ms": (float(np.percentile(i, 99)), "ms"),
        "failed_frac": (score.failed / max(1, score.attempted), "ratio"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["serve_1d", "build_1d", "build_kd"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "core", "synopsis.py")):
        print(f"perfbench: the program's sources are missing: {SRC}/repro", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    configure_environment()
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    spark = start_spark()
    session_s = time.perf_counter() - t0
    progress("spark session started")
    try:
        out = run(spark, args, session_s)
    finally:
        stop_spark(spark)
        progress("spark stopped")
    print(json.dumps(out))
    return 0


def run(spark, args, session_s: float) -> dict:
    import numpy as np

    import layers
    from inputs import subseed
    from workloads import SPECS, Score, build, run_round, same_answers, setup_inputs

    spec = SPECS[args.workload]
    setups = []
    for rep in range(SETUP_REPS):
        if setups:
            for job in setups[-1].jobs:
                job.df.unpersist()
        setups.append(setup_inputs(spark, spec, args.seed))
        progress(f"inputs set up ({rep + 1}/{SETUP_REPS})")
    jobs = setups[-1].jobs
    problems = []
    if any(s.fingerprint != setups[0].fingerprint for s in setups):
        problems.append("set-up repetitions produced different inputs")
    mismatches = sum(s.oracle_mismatches for s in setups)
    if mismatches:
        problems.append(f"{mismatches} ground-truth answers differ from DuckDB")

    t0 = time.perf_counter()
    warm = build(spec.build, jobs[0].df, jobs[0].table, subseed(args.seed, "warmup"))
    cold_build_s = time.perf_counter() - t0
    for q in jobs[0].queries.queries[:WARMUP_CALLS]:
        warm.answer(q)
    rng = np.random.default_rng(0)
    for row in jobs[0].insert_rows[:WARMUP_CALLS]:
        warm.insert(row, rng)
    del warm
    warmup_s = time.perf_counter() - t0
    setup_s = session_s + median([s.seconds for s in setups]) + warmup_s
    progress("warm-up build done")

    score = Score()
    by_table: dict[str, Score] = {}
    logs = []
    gc.collect()
    if args.trace:
        base = run_round(spec, jobs, args.seed, 0, Score())
        gc.collect()
        traced, metrics, tracer = layers.traced_round(
            spark, spec, jobs, args.seed, score, base, by_table
        )
        if not same_answers(base, traced):
            problems.append("traced answers differ from untraced answers")
        logs = [traced]
        metrics.update(layers.setup_metrics(setups, session_s, cold_build_s))
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.tsv"))
    else:
        for rnd in range(spec.rounds(args.seconds)):
            logs.append(run_round(spec, jobs, args.seed, rnd, score, by_table=by_table))
            gc.collect()
            progress(f"round {rnd}: builds {' '.join(f'{b:.2f}' for b in logs[-1].build_s)} s, "
                     f"wall {logs[-1].wall_s:.2f} s")
        metrics = end_to_end(setup_s, logs, score)
    progress(f"{len(logs)} measured round(s) done")
    for log in logs:
        problems.extend(log.invariant_errors)

    env = environment(spark)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(logs),
        "builds": sum(len(log.build_s) for log in logs),
        "queries_answered": sum(len(p.ms) for log in logs for p in log.query_passes),
        "inserts": sum(len(p.ms) for log in logs for p in log.insert_passes),
        "exceptions": score.exceptions,
        "nan_answers": score.nan_answers,
        "bound_violations": score.bound_violations,
        "by_table": {
            name: {
                "attempted": t.attempted,
                "failed": t.failed,
                "nan_answers": t.nan_answers,
                "bound_violations": t.bound_violations,
                "median_rel_err": {agg: median(v) for agg, v in t.rel_errs_by_agg.items()},
            }
            for name, t in by_table.items()
        },
        "empty_and_zero_variance_leaves": [
            (name, int((rows == 0).sum()), int(zv))
            for log in logs
            for name, rows, zv in zip(log.tables, log.leaf_rows, log.zero_var_leaves)
        ],
        "problems": problems,
        "environment": env,
    }
    for k, v in summary.items():
        print(f"# {k}: {v}")
    timings = latency(logs, score)
    for name, (value, unit) in {**metrics, **timings}.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": int(score.attempted),
        "failed": int(score.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"summary": summary, "latency": timings, **result}
    record_file = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, record_file), "w") as f:
        json.dump(record, f, indent=1)
    return result


if __name__ == "__main__":
    sys.exit(main())
