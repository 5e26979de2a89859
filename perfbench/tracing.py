"""Spans around the calls into ``repro.core`` and Spark counters per phase.

Tracing rebinds module and class attributes of the program (for example
``repro.core.synopsis.mcf`` or ``repro.core.spark_build.leaf_aggregates``)
to wrappers that record a span per call, and puts the originals back on
exit. Nothing under ``src/`` is edited. Spans are kept in memory: name,
start, end, parent and the id of the root span (one build, query or
insert) they belong to. A few hot functions get a call counter instead of
a span.

Only code that runs in this process is wrapped. Code that Spark ships to its
Python workers (the bucketing UDFs and ``KDTree.assign``) is left alone,
so tasks never need this package.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: Spark build phases, each labelled with its own job group. ``count`` is
#: everything a build runs outside the three spark_build calls (df.count).
SPARK_PHASES = ("count", "optimization_sample", "leaf_aggregates", "stratified_sample")
SPARK_COUNTERS = (
    "jobs",
    "stages",
    "tasks",
    "tasks_failed",
    "input_records",
    "shuffle_write_bytes",
    "shuffle_read_records",
    "executor_run_s",
)


class Tracer:
    """In-memory span recorder with per-name call counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        p = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parent.append(p)
        self.root.append(self.root[p] if p >= 0 else i)
        self.end.append(np.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn, updated=())
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span table with durations and self times (duration minus the
        time covered by direct children; children never overlap)."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return {
            "name": np.asarray(self.names, dtype=object),
            "parent": parent,
            "root": np.asarray(self.root, dtype=np.int64),
            "start": start,
            "dur": dur,
            "self": dur - child,
        }

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        a = self.arrays()
        t0 = a["start"].min() if len(a["start"]) else 0.0
        with open(path, "w") as f:
            f.write("id\tparent\troot\tname\tstart_s\tdur_s\tself_s\n")
            for i in range(len(a["dur"])):
                f.write(
                    f"{i}\t{a['parent'][i]}\t{a['root'][i]}\t{a['name'][i]}\t"
                    f"{a['start'][i] - t0:.9f}\t{a['dur'][i]:.9f}\t{a['self'][i]:.9f}\n"
                )


class SparkPhases:
    """Labels each Spark build phase with a job group and reads its
    counters back from the status tracker and the status store (which
    work with the UI disabled)."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self._n = 0
        self._stack: list[str] = []
        self.groups: list[tuple[str, str]] = []  # (phase, job group id)

    def _set(self, group: str | None) -> None:
        if group is None:
            self.sc._jsc.clearJobGroup()
        else:
            self.sc.setJobGroup(group, group)

    def wrap(self, fn, phase: str):
        @functools.wraps(fn)
        def labelled(*args, **kwargs):
            self._n += 1
            group = f"perfbench.{phase}.{self._n}"
            self.groups.append((phase, group))
            self._stack.append(group)
            self._set(group)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._set(self._stack[-1] if self._stack else None)

        return labelled

    def collect(self, groups: list[tuple[str, str]]) -> dict[str, Counter]:
        """Counters per phase, summed over ``groups`` (a slice of
        ``self.groups``)."""
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        store = jsc.statusStore()
        tracker = self.sc.statusTracker()
        out = {p: Counter() for p in SPARK_PHASES}
        for phase, group in groups:
            c = out[phase]
            for job in tracker.getJobIdsForGroup(group):
                c["jobs"] += 1
                for stage in tracker.getJobInfo(job).stageIds:
                    sd = store.lastStageAttempt(stage)
                    if sd.status().toString() == "SKIPPED":
                        continue
                    c["stages"] += 1
                    c["tasks"] += sd.numTasks()
                    c["tasks_failed"] += sd.numFailedTasks()
                    c["input_records"] += sd.inputRecords()
                    c["shuffle_write_bytes"] += sd.shuffleWriteBytes()
                    c["shuffle_read_records"] += sd.shuffleReadRecords()
                    c["executor_run_s"] += sd.executorRunTime() / 1e3
        return out


@contextmanager
def patched(targets):
    """Temporarily set ``(owner, attr, value)`` attributes; restore on exit.

    Class attributes are restored from the class ``__dict__`` so that
    classmethods keep their descriptor.
    """
    saved = []
    try:
        for owner, attr, value in targets:
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def instrument(tracer: Tracer, phases: SparkPhases, stats: Counter):
    """Context manager that traces the in-process layers of repro.core.

    ``stats`` receives per-query counts: covered and partial MCF nodes,
    samples scanned and matched.
    """
    from repro.core import partitioner, spark_build, synopsis, tree

    syn_cls = synopsis.PassSynopsis

    def span(owner, attr, name, on_result=None):
        return owner, attr, tracer.wrap(getattr(owner, attr), name, on_result)

    def count(owner, attr, name):
        return owner, attr, tracer.counted(getattr(owner, attr), name)

    def build_span(attr):
        fn = syn_cls.__dict__[attr].__func__
        return syn_cls, attr, classmethod(tracer.wrap(phases.wrap(fn, "count"), "synopsis.build"))

    def spark_phase(phase, on_result=None):
        fn = phases.wrap(getattr(spark_build, phase), phase)
        return spark_build, phase, tracer.wrap(fn, f"spark_build.{phase}", on_result)

    def rows(name):
        def add(pdf):
            stats[name] += len(pdf)

        return add

    def on_mcf(res):
        covered, partial = res
        stats["mcf.covered"] += len(covered)
        stats["mcf.partial"] += len(partial)

    orig_mask = syn_cls._sample_mask

    def sample_mask(self, q, leaf_id):
        v, m = orig_mask(self, q, leaf_id)
        stats["samples.scanned"] += int(v.size)
        stats["samples.matched"] += int(m.sum())
        return v, m

    return patched(
        [
            build_span("build_1d"),
            build_span("build_kd"),
            span(syn_cls, "answer", "synopsis.answer"),
            span(syn_cls, "insert", "synopsis.insert"),
            (syn_cls, "_sample_mask", sample_mask),
            span(synopsis, "ADP", "partitioner.ADP"),
            count(partitioner.ADP, "mvar", "partitioner.ADP.mvar"),
            span(synopsis, "KDTree", "kdtree.KDTree"),
            span(synopsis, "build_tree", "tree.build_tree"),
            span(synopsis, "mcf", "tree.mcf", on_mcf),
            count(tree.Node, "classify", "tree.classify"),
            span(synopsis, "allocate_budget", "synopsis.allocate_budget"),
            span(synopsis, "hard_bounds", "variance.hard_bounds"),
            span(synopsis, "stratum_estimate", "variance.stratum_estimate"),
            spark_phase("optimization_sample", rows("optimization_sample.rows")),
            spark_phase("leaf_aggregates"),
            spark_phase("stratified_sample", rows("stratified_sample.rows")),
            span(spark_build, "with_leaf_1d", "spark_build.with_leaf_1d"),
            span(spark_build, "with_leaf_fn", "spark_build.with_leaf_fn"),
            span(spark_build, "leaves_from_aggregates", "spark_build.leaves_from_aggregates"),
        ]
    )
