"""Incremental insertion and leaf splitting."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hamtree.tree
from hamtree import (
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    random_descriptors,
    serialize_tree,
)
from hamtree.descriptor import flip_bits

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


# ----------------------------------------------------------------------
# The exact skip against the split that tried every insert
# ----------------------------------------------------------------------

class EveryTrySplitTree(HammingTree):
    """Inserts as before the exact skip: each insert descends with its path
    and offers its leaf a split whenever the leaf is over n_max above the
    depth limit, however often that split was refused."""

    def insert(self, entry):
        path = []
        leaf, _ = self._descend(self._key(entry.descriptor), path)
        leaf.append(entry)
        self.count += 1
        self._maybe_split(leaf, path)
        arena = leaf._slab[0]
        if arena.spare > hamtree.tree._COMPACT_MIN_ROWS and 4 * arena.spare > arena.used:
            self._compact()

    def _maybe_split(self, leaf, path):
        cfg = self.config
        if len(leaf) <= cfg.n_max or len(path) >= cfg.depth_limit(self.dim_bits):
            return
        rows = leaf.packed()
        counts = hamtree.tree._bit_counts(rows, self.dim_bits)
        split = self._split(rows, np.arange(len(rows)), counts, {n.bit_index for n in path})
        if split is None:
            return
        columns = (rows, leaf.image_ids(), np.fromiter(leaf.entries, object, len(rows)))
        bit, halves = split
        node = InternalNode(bit, *(self._new_leaf(columns, h, cfg.n_max + 1) for h in halves))
        if self._routes is not None and not self._routes.split(path, leaf, node):
            self._routes = None
        if not path:
            self._root = node
        elif path[-1].right is leaf:
            path[-1].right = node
        else:
            path[-1].left = node


def counted_inserts(tree, entries):
    """The ``_bit_counts`` calls that inserting ``entries`` into ``tree`` makes."""
    counter = mock.Mock(wraps=hamtree.tree._bit_counts)
    with mock.patch.object(hamtree.tree, "_bit_counts", counter):
        for entry in entries:
            tree.insert(entry)
    return counter.call_count


@st.composite
def skip_corpora(draw):
    """(entries, dim_bits): uniform rows, exact duplicates, or near copies
    (0 to 2 bits off) of a few base rows, at widths as small as 8 bits,
    where a deep enough path forbids every bit."""
    dim_bits = draw(st.sampled_from([8, 12, 64, 256]))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "duplicates", "near"]))
    matrix = random_descriptors(n, dim_bits, rng)
    if kind != "uniform" and n:
        bases = random_descriptors(draw(st.integers(1, 4)), dim_bits, rng)
        matrix = bases[rng.integers(0, len(bases), size=n)]
        if kind == "near":
            matrix = np.array([
                flip_bits(row, rng.choice(dim_bits, size=int(rng.integers(0, 3)), replace=False))
                for row in matrix
            ], dtype=np.uint8).reshape(n, -1)
    return make_entries(matrix), dim_bits


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(skip_corpora(), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 50]),
       st.sampled_from([0.0, 0.1, 0.5]), st.integers(0, 8))
def test_skipped_splits_are_splits_that_refuse(corpus, n_max, delta_max, max_depth):
    entries, dim_bits = corpus
    config = TreeConfig(tau=0, delta_max=delta_max, n_max=n_max,
                        max_depth=min(max_depth, dim_bits) or None)
    tree = HammingTree(dim_bits, config)
    reference = EveryTrySplitTree(dim_bits, config)
    skipping = counted_inserts(tree, entries)
    trying = counted_inserts(reference, entries)
    assert skipping <= trying
    assert tree.count == reference.count
    assert tree.structurally_equal(reference)
    pairs = zip(walk_leaves(tree), walk_leaves(reference))
    assert all(a.entries == b.entries and all(x is y for x, y in zip(a.entries, b.entries))
               for (a, *_), (b, *_) in pairs)
    if dim_bits % 8 == 0:
        assert serialize_tree(tree) == serialize_tree(reference)


def test_a_leaf_of_near_copies_is_not_offered_every_split_it_must_refuse():
    # 2000 near copies of one row at n_max 10: each try over the oversize
    # leaf refuses, and the bound skips all but a few of them.
    rng = np.random.default_rng(56)
    base = random_descriptors(1, 256, rng)[0]
    matrix = np.array([flip_bits(base, rng.choice(256, size=int(rng.integers(0, 3)),
                                                   replace=False)) for _ in range(2000)])
    entries = make_entries(matrix)
    config = TreeConfig(n_max=10, delta_max=0.1)
    tree = HammingTree(256, config)
    reference = EveryTrySplitTree(256, config)
    skipping = counted_inserts(tree, entries)
    trying = counted_inserts(reference, entries)
    assert serialize_tree(tree) == serialize_tree(reference)
    assert trying > 1900 and skipping < trying / 10


def test_a_leaf_at_the_depth_limit_is_descended_for_its_path_once():
    rng = np.random.default_rng(57)
    config = TreeConfig(n_max=2, delta_max=0.5, max_depth=2)
    tree = HammingTree(256, config)
    paths = []
    descend = tree._descend

    def tracked(key, path=None):
        if path is not None:
            paths.append(key)
        return descend(key, path)

    tree._descend = tracked
    tree.add(make_entries(random_descriptors(500, 256, rng)))
    # Three splits fill the two levels; each of the four leaves is then
    # descended for its path once, when first found over n_max.
    assert tree.depth_stats().leaf_count == 4
    assert len(paths) == 3 + 4


def test_a_tree_over_another_trees_nodes_drops_their_refused_split_bounds():
    # Twenty copies of one row refuse every split at delta_max 0 and are not
    # tried again until they are about twice as many; at delta_max 0.5 a
    # constant bit is admissible, so a second tree over the same leaf splits
    # it on its first insert.
    entries = make_entries(np.tile(random_descriptors(1, 256, np.random.default_rng(58)), (21, 1)))
    strict = HammingTree(256, TreeConfig(n_max=4, delta_max=0.0))
    strict.add(entries[:20])
    assert isinstance(strict.root, LeafNode)
    loose = HammingTree(256, TreeConfig(n_max=4, delta_max=0.5), root=strict.root)
    loose.insert(entries[20])
    assert isinstance(loose.root, InternalNode)
