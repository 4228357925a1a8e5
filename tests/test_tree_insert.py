"""Incremental insertion and leaf splitting."""

from __future__ import annotations

import numpy as np
import pytest

from hamtree import HammingTree, InternalNode, LeafNode, TreeConfig, random_descriptors

from conftest import entries_from_bits, make_entries
from test_tree_build import assert_tree_invariants, walk_leaves


def test_insert_into_empty_tree_makes_single_entry_leaf():
    tree = HammingTree(4, TreeConfig(tau=4, n_max=3))
    (entry,) = entries_from_bits([(1, 0, 1, 0)])
    tree.insert(entry)
    assert isinstance(tree.root, LeafNode)
    assert len(tree.root) == 1
    assert tree.count == 1


def test_overflowing_leaf_splits_into_two_children():
    # A leaf holding three entries receives a fourth; bit 0 has mean exactly
    # 0.5 afterwards, so the leaf becomes a node with children of sizes 2+2.
    rows = [(0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0)]
    tree = HammingTree(4, TreeConfig(tau=4, n_max=3, delta_max=0.1))
    for entry in entries_from_bits(rows):
        tree.insert(entry)
    assert isinstance(tree.root, LeafNode)
    (fourth,) = entries_from_bits([(1, 1, 0, 1)], start_kp=3)
    tree.insert(fourth)
    assert isinstance(tree.root, InternalNode)
    left, right = tree.root.left, tree.root.right
    assert isinstance(left, LeafNode) and isinstance(right, LeafNode)
    assert len(left) + len(right) == 4
    assert len(left) == 2 and len(right) == 2
    assert_tree_invariants(tree)


def test_identical_descriptors_never_split():
    rows = [(1, 0, 1, 0)] * 5
    tree = HammingTree(4, TreeConfig(tau=4, n_max=3, delta_max=0.1))
    for entry in entries_from_bits(rows):
        tree.insert(entry)
    assert isinstance(tree.root, LeafNode)
    assert len(tree.root) == 5


def test_max_depth_blocks_splitting():
    rng = np.random.default_rng(50)
    tree = HammingTree(256, TreeConfig(n_max=2, delta_max=0.5, max_depth=2))
    for entry in make_entries(random_descriptors(64, 256, rng)):
        tree.insert(entry)
    assert tree.depth_stats().max_depth <= 2
    assert_tree_invariants(tree)


def test_leaf_sizes_bounded_unless_unsplittable():
    rng = np.random.default_rng(51)
    config = TreeConfig(n_max=8, delta_max=0.1)
    tree = HammingTree(256, config)
    for entry in make_entries(random_descriptors(2000, 256, rng)):
        tree.insert(entry)
    assert_tree_invariants(tree)
    for leaf, depth, path in walk_leaves(tree):
        if len(leaf) > config.n_max:
            # oversize is only allowed when no split was admissible
            from hamtree import select_split_bit

            forbidden = {bit for bit, _ in path}
            assert (
                select_split_bit(leaf.statistics(), forbidden, config.delta_max)
                is None
                or depth >= 256
            )


def test_insert_never_decreases_leaf_count_and_interleaves_with_build():
    rng = np.random.default_rng(52)
    entries = make_entries(random_descriptors(300, 128, rng))
    tree = HammingTree.build_balanced(entries[:150], TreeConfig(n_max=5), 128)
    leaf_count = tree.depth_stats().leaf_count
    for entry in entries[150:]:
        tree.insert(entry)
        new_count = tree.depth_stats().leaf_count
        assert new_count >= leaf_count
        leaf_count = new_count
    assert_tree_invariants(tree)


def test_mean_depth_non_decreasing_over_incremental_run():
    # Depth statistics of a growing tree: the qualitative shape is a
    # monotonically non-decreasing mean leaf depth as images arrive.
    rng = np.random.default_rng(53)
    tree = HammingTree(256, TreeConfig(n_max=10, delta_max=0.1))
    previous = 0.0
    for image in range(40):
        for entry in make_entries(random_descriptors(50, 256, rng), image_id=image):
            tree.insert(entry)
        mean_depth = tree.depth_stats().mean_depth
        assert mean_depth >= previous - 1e-9
        previous = mean_depth


def test_insert_width_mismatch_raises():
    import pytest

    rng = np.random.default_rng(54)
    tree = HammingTree(256, TreeConfig())
    (entry,) = make_entries(random_descriptors(1, 128, rng))
    with pytest.raises(ValueError):
        tree.insert(entry)


@pytest.mark.parametrize("image_id", [2**70, -(2**63) - 1])
def test_insert_rejects_an_image_id_outside_int64_and_leaves_the_tree_alone(image_id):
    rng = np.random.default_rng(55)
    tree = HammingTree(16, TreeConfig(tau=4, n_max=4))
    tree.add(make_entries(random_descriptors(40, 16, rng)))
    before = tree.leaf_entries()
    # Leaves at every fill level, full ones included (their columns regrow).
    for row in random_descriptors(12, 16, rng):
        (entry,) = make_entries(row[None, :], start_kp=99)
        entry.image_id = image_id
        with pytest.raises(ValueError, match="image_id"):
            tree.insert(entry)
        assert tree.count == 40
        assert [id(e) for e in tree.leaf_entries()] == [id(e) for e in before]
    assert_tree_invariants(tree)
    (ok,) = make_entries(random_descriptors(1, 16, rng), start_kp=40)
    tree.insert(ok)
    assert tree.count == 41


@pytest.mark.parametrize("image_id", [2**70, -(2**63) - 1])
def test_leaf_node_rejects_an_image_id_outside_int64(image_id):
    entries = make_entries(np.zeros((3, 2), dtype=np.uint8))
    entries[1].image_id = image_id
    with pytest.raises(ValueError, match="image_id"):
        LeafNode(16, entries)
