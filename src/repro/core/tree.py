"""Partition tree and the Minimal Coverage Frontier algorithm (§3.2).

A :class:`Node` stores exact SUM/COUNT/MIN/MAX of the aggregation column
(:class:`~repro.core.variance.PartStats`) plus the observed per-dimension
min/max of the predicate columns. Covered/partial/none classification
against a query rectangle uses those *data* extents, which makes the MCF
classification exact with respect to the dataset and sidesteps the
half-open float-boundary ambiguity of partitioning conditions.

Internal nodes are built bottom-up from the leaf aggregates (mergeable
summaries) — in the Spark pipeline only the leaves ever touch data.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .variance import PartStats


@dataclass
class Node:
    """One partition-tree node.

    Attributes:
        stats:    exact aggregates of the aggregation column in this
                  partition.
        pred_min: per-predicate-dimension minimum observed value.
        pred_max: per-predicate-dimension maximum observed value.
        children: empty for leaves.
        leaf_id:  stratum id (>= 0) for leaves, -1 for internal nodes.
    """

    stats: PartStats
    pred_min: np.ndarray
    pred_max: np.ndarray
    children: list["Node"] = field(default_factory=list)
    leaf_id: int = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def zero_variance(self) -> bool:
        """§3.4 0-variance rule predicate: every aggregate value equal."""
        return self.stats.count > 0 and self.stats.min == self.stats.max

    def classify(self, lo: np.ndarray, hi: np.ndarray) -> str:
        """'none' | 'covered' | 'partial' against query rectangle [lo, hi]."""
        if self.stats.count == 0:
            return "none"
        if np.any(self.pred_max < lo) or np.any(self.pred_min > hi):
            return "none"
        if np.all(lo <= self.pred_min) and np.all(self.pred_max <= hi):
            return "covered"
        return "partial"

    def iter_nodes(self):
        yield self
        for c in self.children:
            yield from c.iter_nodes()

    def leaves(self) -> list["Node"]:
        return [n for n in self.iter_nodes() if n.is_leaf]

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())


def merge_nodes(children: list[Node]) -> Node:
    """Parent node from a group of siblings (mergeable-summary combine)."""
    stats = children[0].stats
    pmin = children[0].pred_min.copy()
    pmax = children[0].pred_max.copy()
    for c in children[1:]:
        stats = stats.merge(c.stats)
        pmin = np.minimum(pmin, c.pred_min)
        pmax = np.maximum(pmax, c.pred_max)
    return Node(stats, pmin, pmax, children=list(children))


def build_tree(leaves: list[Node], fanout: int = 2) -> Node:
    """Bottom-up balanced tree over ordered leaves with a fixed fanout."""
    if not leaves:
        raise ValueError("cannot build a tree with no leaves")
    level = list(leaves)
    while len(level) > 1:
        level = [merge_nodes(level[i : i + fanout]) for i in range(0, len(level), fanout)]
    return level[0]


def mcf(
    root: Node, lo: np.ndarray, hi: np.ndarray, *, zero_var_as_covered: bool = False
) -> tuple[list[Node], list[Node]]:
    """Minimal Coverage Frontier (Algorithm 1).

    Depth-first search that returns ``(covered, partial)``: nodes fully
    inside the query rectangle (pruned as high in the tree as possible)
    and partially-overlapping *leaf* nodes. With ``zero_var_as_covered``
    (the §3.4 0-variance rule, valid for AVG queries) a partially
    overlapping node whose aggregate values are all equal is returned as
    covered without descending.
    """
    covered: list[Node] = []
    partial: list[Node] = []

    def visit(node: Node) -> None:
        cls = node.classify(lo, hi)
        if cls == "none":
            return
        if cls == "covered":
            covered.append(node)
            return
        if zero_var_as_covered and node.zero_variance:
            covered.append(node)
            return
        if node.is_leaf:
            partial.append(node)
            return
        for c in node.children:
            visit(c)

    visit(root)
    return covered, partial


def synopsis_bytes(n_nodes: int, d: int, n_samples: int, sample_width: int) -> int:
    """Storage accounting shared by every sampling approach: each stored
    partition keeps 4 aggregate stats + 2d predicate extents, each sampled
    row its ``sample_width`` column values + 1 aggregate value (8 bytes
    each)."""
    return n_nodes * (4 + 2 * d) * 8 + n_samples * (sample_width + 1) * 8
