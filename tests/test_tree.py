"""Partition tree invariants and the MCF traversal (§3.2, Algorithm 1)."""
import numpy as np
import pytest

from repro.core.tree import Node, build_tree, mcf, merge_nodes, synopsis_bytes
from repro.core.variance import PartStats


def leaf_from(values, lo, hi):
    v = np.asarray(values, float)
    return Node(
        PartStats(v.sum(), v.size, v.min(), v.max()),
        np.array([float(lo)]),
        np.array([float(hi)]),
    )


@pytest.fixture()
def chain_leaves():
    """8 leaves over [0,10), [10,20), ... with increasing values."""
    return [leaf_from([i * 10 + 1, i * 10 + 2], i * 10, i * 10 + 9) for i in range(8)]


def test_merge_nodes_aggregates(chain_leaves):
    p = merge_nodes(chain_leaves[:2])
    assert p.stats.count == 4
    assert p.stats.sum == pytest.approx(1 + 2 + 11 + 12)
    assert p.pred_min[0] == 0 and p.pred_max[0] == 19


def test_build_tree_structure(chain_leaves):
    root = build_tree(chain_leaves, fanout=2)
    assert root.n_nodes == 15  # 8 + 4 + 2 + 1
    assert len(root.leaves()) == 8
    assert root.stats.count == sum(l.stats.count for l in chain_leaves)


def test_build_tree_fanout4(chain_leaves):
    root = build_tree(chain_leaves, fanout=4)
    assert len(root.children) == 2
    assert all(len(c.children) == 4 for c in root.children)


def test_build_tree_parent_equals_union(chain_leaves):
    root = build_tree(chain_leaves, fanout=2)
    for node in root.iter_nodes():
        if node.children:
            assert node.stats.count == sum(c.stats.count for c in node.children)
            assert node.stats.sum == pytest.approx(sum(c.stats.sum for c in node.children))
            assert node.stats.min == min(c.stats.min for c in node.children)
            assert node.stats.max == max(c.stats.max for c in node.children)


def test_build_tree_empty_raises():
    with pytest.raises(ValueError):
        build_tree([])


def test_classify_three_cases(chain_leaves):
    n = chain_leaves[2]  # data extent [20, 29]
    assert n.classify(np.array([20.0]), np.array([29.0])) == "covered"
    assert n.classify(np.array([0.0]), np.array([100.0])) == "covered"
    assert n.classify(np.array([25.0]), np.array([40.0])) == "partial"
    assert n.classify(np.array([40.0]), np.array([50.0])) == "none"


def test_classify_empty_node_is_none():
    n = Node(PartStats(0, 0, float("inf"), float("-inf")), np.array([np.inf]), np.array([-np.inf]))
    assert n.classify(np.array([-1e18]), np.array([1e18])) == "none"


def test_mcf_aligned_query_fully_covered(chain_leaves):
    root = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(root, np.array([10.0]), np.array([29.0]))
    assert not partial
    assert sum(n.stats.count for n in covered) == 4  # leaves 1 and 2


def test_mcf_root_pruning(chain_leaves):
    """A query covering everything must return the root alone."""
    root = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(root, np.array([-1.0]), np.array([1000.0]))
    assert covered == [root] and not partial


def test_mcf_partial_edges(chain_leaves):
    root = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(root, np.array([5.0]), np.array([35.0]))
    # Leaves 0 and 3 partially overlap; 1, 2 fully covered.
    assert {n.leaf_id for n in partial} == {
        chain_leaves[0].leaf_id,
        chain_leaves[3].leaf_id,
    }
    assert sum(n.stats.count for n in covered) == 4


def test_mcf_disjoint_query(chain_leaves):
    root = build_tree(chain_leaves, fanout=2)
    covered, partial = mcf(root, np.array([200.0]), np.array([300.0]))
    assert not covered and not partial


def test_mcf_matches_bruteforce_random():
    """MCF's covered+partial sets must equal a flat scan's classification
    (with covered subtrees expanded to leaves)."""
    rng = np.random.default_rng(0)
    leaves = []
    edges = np.sort(rng.choice(np.arange(1, 1000), 31, replace=False))
    starts = np.concatenate([[0], edges])
    ends = np.concatenate([edges - 1, [999]])
    for i, (s, e) in enumerate(zip(starts, ends)):
        vals = rng.random(3) * 10
        n = leaf_from(vals, s, e)
        n.leaf_id = i
        leaves.append(n)
    root = build_tree(leaves, fanout=2)
    for _ in range(50):
        lo = float(rng.integers(0, 900))
        hi = float(rng.integers(int(lo), 1000))
        covered, partial = mcf(root, np.array([lo]), np.array([hi]))
        cov_leaf_ids = {l.leaf_id for n in covered for l in n.leaves()}
        par_leaf_ids = {n.leaf_id for n in partial}
        flat_cov = {n.leaf_id for n in leaves if n.classify(np.array([lo]), np.array([hi])) == "covered"}
        flat_par = {n.leaf_id for n in leaves if n.classify(np.array([lo]), np.array([hi])) == "partial"}
        assert cov_leaf_ids == flat_cov
        assert par_leaf_ids == flat_par
        assert not (cov_leaf_ids & par_leaf_ids)


def test_zero_variance_rule():
    """§3.4: a partially-overlapped 0-variance node is returned as covered
    when the rule is enabled."""
    n0 = leaf_from([5.0, 5.0, 5.0], 0, 9)  # constant values
    n1 = leaf_from([1.0, 9.0], 10, 19)
    root = build_tree([n0, n1])
    lo, hi = np.array([3.0]), np.array([15.0])
    covered, partial = mcf(root, lo, hi, zero_var_as_covered=True)
    assert n0 in covered and n1 in partial
    covered, partial = mcf(root, lo, hi, zero_var_as_covered=False)
    assert n0 in partial and n1 in partial


def test_zero_variance_property(chain_leaves):
    assert leaf_from([3, 3, 3], 0, 1).zero_variance
    assert not chain_leaves[0].zero_variance


def test_synopsis_bytes_accounting(chain_leaves):
    root = build_tree(chain_leaves, fanout=2)
    b = synopsis_bytes(root.n_nodes, d=1, n_samples=10, sample_width=1)
    assert b == 15 * 6 * 8 + 10 * 2 * 8
