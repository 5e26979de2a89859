"""The three benchmark workloads, their set-up and one measured round.

A workload is a list of jobs. A job is one table with its cached Spark
DataFrame, a way to build a synopsis, a query set, a held-out insert batch
and, for ``serve_1d``, the same queries again after the inserts. One round
runs every job once: build, answer every query, insert every held-out
row, re-run the queries if the job has a post-insert set. Each build in a
round gets its own sampler seed derived from the workload seed, the round
and the job.

Answers are scored against the exact truth. A failed operation is an
exception, a non-finite estimate where the truth is finite, or finite hard
bounds that exclude the truth; failures are counted, never skipped.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.synopsis import PassSynopsis

from inputs import QuerySet, Table, Truth, make_queries, make_table, oracle_check, subseed

#: Relative slack when comparing an answer's bounds or CI with the truth;
#: covers float summation order only.
REL_TOL = 1e-9


@dataclass(frozen=True)
class TableSpec:
    """A ``repro.synth_data`` generator run with a fixed data seed (the one
    ``repro.experiments`` uses); the workload seed picks the held-out
    insert rows, the queries and the sampler seeds."""

    name: str
    generator: str
    n: int
    data_seed: int
    n_insert: int
    pred_cols: tuple[str, ...]
    value_col: str


@dataclass(frozen=True)
class Spec:
    """A workload: its tables, how to build on them and which queries run.

    ``mix`` lists (aggregate, number of queries, challenging?) per table.
    ``round_s`` is about the measured seconds of one round on a 4-core
    host; it only converts ``--seconds`` into a number of rounds, so that
    the work a run does, and what it checks, depend on its arguments alone.
    """

    tables: tuple[TableSpec, ...]
    build: str  # "1d" or "kd"
    mix: tuple[tuple[str, int, bool], ...]
    requery_after_insert: bool
    min_rounds: int
    round_s: float

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_s))


NYC = ("nyc_taxi_pdf", 200_000)
KD_COLS = ("pickup_time", "pickup_date", "pu_location_id")

SPECS = {
    # Build once, query many: 2000 queries of every aggregate before and
    # after a held-out batch of inserts. Run by hand; not gated.
    "serve_1d": Spec(
        tables=(TableSpec("nyc", *NYC, 12, 2000, ("pickup_ts",), "trip_distance"),),
        build="1d",
        mix=tuple((agg, 400, False) for agg in ("count", "sum", "avg", "min", "max")),
        requery_after_insert=True,
        min_rounds=2,
        round_s=5.0,
    ),
    # One fresh build per dataset, a few hundred random and §5.3
    # challenging SUM and AVG queries each. Three rounds, so each table's
    # fastest build is taken over two rounds after the JVM has warmed up.
    "build_1d": Spec(
        tables=(
            TableSpec("insta", "instacart_pdf", 120_000, 11, 250, ("product_id",), "reordered"),
            TableSpec("nyc", *NYC, 12, 250, ("pickup_ts",), "trip_distance"),
            TableSpec("adversarial", "adversarial_pdf", 100_000, 13, 250, ("c",), "a"),
        ),
        build="1d",
        mix=(("sum", 150, False), ("avg", 150, False), ("sum", 100, True), ("avg", 100, True)),
        requery_after_insert=False,
        min_rounds=3,
        round_s=10.0,
    ),
    # KD-PASS on three NYC predicate columns with 3-D queries.
    "build_kd": Spec(
        tables=(TableSpec("nyc", *NYC, 12, 1000, KD_COLS, "trip_distance"),),
        build="kd",
        mix=(("count", 333, False), ("sum", 334, False), ("avg", 333, False)),
        requery_after_insert=False,
        min_rounds=2,
        round_s=4.5,
    ),
}

#: PASS-BSS10x: ten times the 0.5% sample rate of Table 1, 64 ADP leaves.
SAMPLE_RATE = 0.05
K_PARTITIONS = 64
M_OPT_1D = 1024
KD_LEAVES = 128
M_OPT_KD = 4096
KD_SAMPLES = 10_000


def build(kind: str, df, table: Table, seed: int) -> PassSynopsis:
    if kind == "1d":
        return PassSynopsis.build_1d(
            df, table.pred_cols[0], table.value_col,
            k_partitions=K_PARTITIONS, sample_total=int(SAMPLE_RATE * len(table.rows)),
            m_opt=M_OPT_1D, seed=seed,
        )
    return PassSynopsis.build_kd(
        df, table.pred_cols, table.value_col,
        k_leaves=KD_LEAVES, sample_total=KD_SAMPLES, m_opt=M_OPT_KD,
        alloc="proportional", seed=seed,
    )


@dataclass
class Job:
    table: Table
    df: object
    queries: QuerySet
    after_insert: QuerySet | None
    insert_rows: list[dict]


@dataclass
class SetupResult:
    jobs: list[Job]
    seconds: float
    synth_data_s: float
    truth_s: float
    oracle_s: float
    oracle_mismatches: int
    fingerprint: tuple


def setup_inputs(spark, spec: Spec, seed: int) -> SetupResult:
    """Generate and cache the tables, queries and exact truths."""
    t_start = time.perf_counter()
    synth = truth_s = oracle_s = 0.0
    mismatches = 0
    jobs = []
    prints = []
    for tspec in spec.tables:
        t0 = time.perf_counter()
        table = make_table(
            tspec.name, tspec.generator, tspec.n, tspec.n_insert, tspec.pred_cols,
            tspec.value_col, tspec.data_seed, subseed(seed, tspec.name, "holdout"),
        )
        synth += time.perf_counter() - t0
        df = spark.createDataFrame(table.rows).cache()
        df.count()
        rng = np.random.default_rng(subseed(seed, tspec.name, "queries"))
        queries = make_queries(table, list(spec.mix), rng)
        t0 = time.perf_counter()
        qs = QuerySet(queries, Truth(table.rows, table.pred_cols, table.value_col).answers(queries))
        after = None
        if spec.requery_after_insert:
            both = pd.concat([table.rows, table.inserts], ignore_index=True)
            after = QuerySet(queries, Truth(both, table.pred_cols, table.value_col).answers(queries))
        truth_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        check_rng = np.random.default_rng(subseed(seed, tspec.name, "oracle"))
        mismatches += oracle_check(table.rows, table.value_col, qs, check_rng)
        if after is not None:
            mismatches += oracle_check(both, table.value_col, after, check_rng)
        oracle_s += time.perf_counter() - t0
        cols = list(dict.fromkeys(table.pred_cols + [table.value_col]))
        rows = [dict(zip(cols, r)) for r in table.inserts[cols].itertuples(index=False)]
        jobs.append(Job(table, df, qs, after, rows))
        prints.append(
            (
                _digest(table.rows.to_numpy()),
                _digest(table.inserts.to_numpy()),
                _digest(np.array([q.lo + q.hi for q in queries])),
                _digest(qs.truth),
            )
        )
    return SetupResult(
        jobs, time.perf_counter() - t_start, synth, truth_s, oracle_s, mismatches, tuple(prints)
    )


def _digest(a: np.ndarray) -> int:
    return hash(np.ascontiguousarray(a, dtype=np.float64).tobytes())


@dataclass
class Answers:
    """Every answer of one query pass, in query order."""

    est: np.ndarray
    ci: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    skipped: np.ndarray
    error: np.ndarray  # True where answer() raised


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    exceptions: int = 0
    nan_answers: int = 0
    bound_violations: int = 0
    rel_errs: list = field(default_factory=list)
    rel_errs_by_agg: dict = field(default_factory=dict)
    ci_ratios: list = field(default_factory=list)
    ci_hits: int = 0
    ci_total: int = 0

    def add(self, qs: QuerySet, a: Answers) -> None:
        truth = qs.truth
        tol = REL_TOL * np.maximum(1.0, np.abs(np.nan_to_num(truth)))
        fin_t = np.isfinite(truth)
        fin_e = np.isfinite(a.est)
        nan_answer = fin_t & ~fin_e & ~a.error
        bounded = fin_t & np.isfinite(a.lb) & np.isfinite(a.ub)
        violated = bounded & ((truth < a.lb - tol) | (truth > a.ub + tol))
        self.attempted += len(truth)
        self.failed += int((a.error | nan_answer | violated).sum())
        self.exceptions += int(a.error.sum())
        self.nan_answers += int(nan_answer.sum())
        self.bound_violations += int(violated.sum())
        est_aggs = np.array([q.agg in ("sum", "count", "avg") for q in qs.queries])
        for i in np.flatnonzero(est_aggs & fin_t):
            t = truth[i]
            err = abs(a.est[i] - t)
            self.ci_total += 1
            if fin_e[i] and np.isfinite(a.ci[i]) and err <= a.ci[i] + tol[i]:
                self.ci_hits += 1
            if t == 0:
                continue
            re = err / abs(t) if fin_e[i] else 1.0
            self.rel_errs.append(re)
            self.rel_errs_by_agg.setdefault(qs.queries[i].agg, []).append(re)
            if fin_e[i] and np.isfinite(a.ci[i]):
                self.ci_ratios.append(a.ci[i] / abs(t))

    def op(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.exceptions += 1


@dataclass
class Pass:
    """Latencies (ms, in call order) and wall time of one timed pass over
    every job's query set or insert batch."""

    ms: np.ndarray
    seconds: float


@dataclass
class RoundLog:
    """Timings and answers of one round."""

    build_s: list = field(default_factory=list)
    query_passes: list = field(default_factory=list)
    insert_passes: list = field(default_factory=list)
    wall_s: float = 0.0  # builds plus timed passes
    storage_bytes: list = field(default_factory=list)
    answers: list = field(default_factory=list)  # per job and query pass
    insert_leaves: list = field(default_factory=list)
    tables: list = field(default_factory=list)  # per build: table name
    leaf_rows: list = field(default_factory=list)  # per build: rows per leaf
    leaf_samples: list = field(default_factory=list)  # per build: samples per leaf
    zero_var_leaves: list = field(default_factory=list)  # per build
    build_groups: list = field(default_factory=list)  # Spark job groups per build
    invariant_errors: list = field(default_factory=list)


def interleave(sizes: list[int]) -> list[tuple[int, int]]:
    """Round-robin (job, item) order, so every stretch of a pass mixes the
    jobs' queries or inserts."""
    order = []
    for i in range(max(sizes, default=0)):
        order.extend((j, i) for j, n in enumerate(sizes) if i < n)
    return order


def answer_pass(syns: list, qsets: list[QuerySet]) -> tuple[list[Answers], Pass]:
    """Answer every query of every job once, interleaved across jobs."""
    sizes = [len(qs.queries) for qs in qsets]
    out = [
        Answers(*(np.full(n, np.nan) for _ in range(5)), np.zeros(n, dtype=bool)) for n in sizes
    ]
    order = interleave(sizes)
    lat = np.empty(len(order))
    clock = time.perf_counter
    t_pass = clock()
    for k, (j, i) in enumerate(order):
        q = qsets[j].queries[i]
        t0 = clock()
        try:
            r = syns[j].answer(q)
        except Exception:  # a failed operation: counted, not fatal
            lat[k] = clock() - t0
            out[j].error[i] = True
            continue
        lat[k] = clock() - t0
        a = out[j]
        a.est[i], a.ci[i], a.lb[i], a.ub[i], a.skipped[i] = (
            r.est, r.ci_half, r.lb, r.ub, r.skipped_frac
        )
    return out, Pass(lat * 1e3, clock() - t_pass)


def insert_pass(syns: list, batches: list[list[dict]], seeds: list[int]) -> tuple[list, Pass]:
    """Insert every job's rows, interleaved across jobs; each job's
    reservoir rng is seeded by its build seed. Returns per-job leaf ids
    (-1 where insert raised) and the pass latencies."""
    rngs = [np.random.default_rng(s) for s in seeds]
    leaves = [np.empty(len(b), dtype=np.int64) for b in batches]
    order = interleave([len(b) for b in batches])
    lat = np.empty(len(order))
    clock = time.perf_counter
    t_pass = clock()
    for k, (j, i) in enumerate(order):
        t0 = clock()
        try:
            leaves[j][i] = syns[j].insert(batches[j][i], rngs[j])
        except Exception:  # a failed operation: counted, not fatal
            leaves[j][i] = -1
        lat[k] = clock() - t0
    return leaves, Pass(lat * 1e3, clock() - t_pass)


def _check_totals(syn, rows_n: int, rows_sum: float, what: str, log: RoundLog) -> None:
    """The root's exact aggregates must equal the table's."""
    s = syn.root.stats
    if s.count != rows_n or not np.isclose(s.sum, rows_sum, rtol=1e-9):
        log.invariant_errors.append(
            f"{what}: root count/sum {s.count}/{s.sum} != table {rows_n}/{rows_sum}"
        )


def _query_pass(built, qsets, log: RoundLog, score: Score, by_table) -> None:
    answers, timed = answer_pass([syn for _, syn, _ in built], qsets)
    log.query_passes.append(timed)
    for (job, _, _), qs, a in zip(built, qsets, answers):
        log.answers.append(a)
        score.add(qs, a)
        if by_table is not None:
            by_table.setdefault(job.table.name, Score()).add(qs, a)


def run_round(
    spec: Spec, jobs: list[Job], seed: int, rnd: int, score: Score, phases=None, by_table=None
) -> RoundLog:
    """One round: build every job's synopsis, then one timed pass over the
    queries, one over the inserts and (``serve_1d``) one over the
    post-insert queries.
    ``by_table`` (name -> Score) also gets each table's query scores, and
    ``phases`` labels the Spark jobs of each build."""
    log = RoundLog()
    clock = time.perf_counter
    built = []
    for j, job in enumerate(jobs):
        table = job.table
        build_seed = subseed(seed, "build", rnd, j)
        g0 = len(phases.groups) if phases is not None else 0
        t0 = clock()
        try:
            syn = build(spec.build, job.df, table, build_seed)
        except Exception as e:  # the job's queries and inserts cannot run
            score.op(False)
            n_ops = len(job.queries.queries) + len(job.insert_rows)
            n_ops += len(job.after_insert.queries) if job.after_insert is not None else 0
            score.attempted += n_ops
            score.failed += n_ops
            log.invariant_errors.append(f"{table.name}: build raised {e!r}")
            continue
        log.build_s.append(clock() - t0)
        score.op(True)
        if phases is not None:
            log.build_groups.append(phases.groups[g0:])
        log.storage_bytes.append(syn.storage_bytes)
        log.tables.append(table.name)
        log.leaf_rows.append(np.array([leaf.stats.count for leaf in syn.leaves]))
        log.leaf_samples.append(
            np.array([len(syn.samples.get(leaf.leaf_id, ((), ()))[1]) for leaf in syn.leaves])
        )
        log.zero_var_leaves.append(sum(leaf.zero_variance for leaf in syn.leaves))
        values = table.rows[table.value_col].to_numpy(dtype=np.float64)
        _check_totals(syn, len(values), values.sum(), f"{table.name} build", log)
        built.append((job, syn, build_seed))

    _query_pass(built, [job.queries for job, _, _ in built], log, score, by_table)
    leaves, timed = insert_pass(
        [syn for _, syn, _ in built], [job.insert_rows for job, _, _ in built],
        [s for _, _, s in built],
    )
    log.insert_passes.append(timed)
    log.insert_leaves.extend(leaves)
    for ids in leaves:
        for ok in ids >= 0:
            score.op(bool(ok))
    if spec.requery_after_insert:
        _query_pass(built, [job.after_insert for job, _, _ in built], log, score, by_table)
    log.wall_s = sum(log.build_s) + sum(p.seconds for p in log.query_passes + log.insert_passes)
    for job, syn, _ in built:
        values = np.concatenate(
            [job.table.rows[job.table.value_col], job.table.inserts[job.table.value_col]]
        ).astype(np.float64)
        _check_totals(syn, len(values), values.sum(), f"{job.table.name} insert", log)
    return log


def same_answers(a: RoundLog, b: RoundLog) -> bool:
    """Bit-identical answers and insert routing (NaN equals NaN)."""
    if len(a.answers) != len(b.answers) or len(a.insert_leaves) != len(b.insert_leaves):
        return False
    for x, y in zip(a.answers, b.answers):
        for f in ("est", "ci", "lb", "ub", "skipped", "error"):
            u, v = getattr(x, f), getattr(y, f)
            if u.tobytes() != v.tobytes():
                return False
    return all(np.array_equal(x, y) for x, y in zip(a.insert_leaves, b.insert_leaves))
