"""Balanced construction and split-bit selection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamtree import (
    BitStatistics,
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    deserialize_tree,
    random_descriptors,
    select_split_bit,
    serialize_tree,
    unpack_bits,
)

from conftest import entries_from_bits, make_entries


def walk_leaves(tree: HammingTree):
    """Yield (leaf, depth, path) with path = [(bit_index, went_right), ...]."""
    stack = [(tree.root, 0, [])]
    while stack:
        node, depth, path = stack.pop()
        if isinstance(node, LeafNode):
            yield node, depth, path
        else:
            stack.append((node.left, depth + 1, path + [(node.bit_index, 0)]))
            stack.append((node.right, depth + 1, path + [(node.bit_index, 1)]))


def assert_tree_invariants(tree: HammingTree):
    """Path consistency, per-path index uniqueness, and the depth bound."""
    total = 0
    for leaf, depth, path in walk_leaves(tree):
        assert depth <= tree.dim_bits
        indices = [bit for bit, _ in path]
        assert len(indices) == len(set(indices)), "bit index repeated on a path"
        bits = unpack_bits(leaf.packed(), tree.dim_bits) if len(leaf) else None
        for bit, side in path:
            if bits is not None:
                assert (bits[:, bit] == side).all(), "entry inconsistent with its path"
        total += len(leaf)
    assert total == tree.count


# ----------------------------------------------------------------------
# select_split_bit
# ----------------------------------------------------------------------

def test_select_split_bit_all_balanced_ties_to_lowest_index():
    stats = BitStatistics(counts=np.array([1, 1, 1, 1]), total=2)
    assert select_split_bit(stats, set(), 0.1) == 0


def test_select_split_bit_refuses_degenerate_identical_descriptors():
    stats = BitStatistics(counts=np.array([0, 0, 0, 0]), total=5)
    assert select_split_bit(stats, set(), 0.1) is None


def test_select_split_bit_skips_forbidden_indices():
    stats = BitStatistics(counts=np.array([2, 3, 0, 4]), total=4)
    assert select_split_bit(stats, {1}, 0.1) == 0


def test_select_split_bit_all_forbidden_returns_none():
    stats = BitStatistics(counts=np.array([1, 1]), total=2)
    assert select_split_bit(stats, {0, 1}, 0.5) is None


def test_select_split_bit_boundary_inclusive():
    # deviation exactly delta_max still splits; just above refuses
    stats = BitStatistics(counts=np.array([3, 0]), total=10)
    assert select_split_bit(stats, set(), 0.2) == 0
    assert select_split_bit(stats, set(), 0.19) is None


# ----------------------------------------------------------------------
# build_balanced
# ----------------------------------------------------------------------

def test_build_structure_on_eight_four_bit_descriptors():
    # Eight 4-bit descriptors that split evenly at each level: at most 5
    # leaves and depth at most 3 under n_max=2.
    rows = [
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
        (1, 1, 1, 1),
    ]
    entries = entries_from_bits(rows)
    tree = HammingTree.build_balanced(entries, TreeConfig(tau=4, n_max=2), dim_bits=4)
    stats = tree.depth_stats()
    assert stats.leaf_count <= 5
    assert stats.max_depth <= 3
    assert tree.count == 8
    assert_tree_invariants(tree)


def test_build_identical_entries_yields_single_leaf():
    rows = [(1, 0, 1, 0)] * 6
    entries = entries_from_bits(rows)
    tree = HammingTree.build_balanced(entries, TreeConfig(tau=4, n_max=1), dim_bits=4)
    assert isinstance(tree.root, LeafNode)
    assert len(tree.root) == 6


def test_build_empty_corpus_yields_empty_leaf():
    tree = HammingTree.build_balanced([], TreeConfig(), dim_bits=256)
    assert isinstance(tree.root, LeafNode)
    assert tree.count == 0


def test_build_random_corpus_invariants_and_reachability():
    rng = np.random.default_rng(21)
    entries = make_entries(random_descriptors(1000, 256, rng))
    tree = HammingTree.build_balanced(
        entries, TreeConfig(n_max=10, delta_max=0.1), 256
    )
    assert_tree_invariants(tree)
    stats = tree.depth_stats()
    assert stats.max_depth <= 256
    # every leaf is reachable: a query matching the path constraints lands
    # exactly in that leaf
    for leaf, depth, path in walk_leaves(tree):
        witness = np.zeros(256, dtype=np.uint8)
        for bit, side in path:
            witness[bit] = side
        probe = np.packbits(witness, bitorder="little")
        node = tree.root
        while isinstance(node, InternalNode):
            node = node.right if witness[node.bit_index] else node.left
        assert node is leaf
        assert probe.shape == (32,)


def test_build_no_split_below_n_max():
    rng = np.random.default_rng(33)
    entries = make_entries(random_descriptors(10, 256, rng))
    tree = HammingTree.build_balanced(entries, TreeConfig(n_max=10), 256)
    assert isinstance(tree.root, LeafNode)


def test_build_respects_max_depth():
    rng = np.random.default_rng(34)
    entries = make_entries(random_descriptors(500, 128, rng))
    tree = HammingTree.build_balanced(
        entries, TreeConfig(n_max=1, delta_max=0.5, max_depth=3), 128
    )
    assert tree.depth_stats().max_depth <= 3
    assert_tree_invariants(tree)


def test_build_mixed_widths_raises():
    rng = np.random.default_rng(35)
    entries = make_entries(random_descriptors(4, 256, rng))
    entries += make_entries(random_descriptors(1, 128, rng), image_id=1)
    with pytest.raises(ValueError):
        HammingTree.build_balanced(entries, TreeConfig(), 256)


@pytest.mark.parametrize("image_id", [2**70, -(2**63) - 1])
def test_build_rejects_an_image_id_outside_int64(image_id):
    rng = np.random.default_rng(36)
    entries = make_entries(random_descriptors(30, 16, rng))
    entries[17].image_id = image_id
    with pytest.raises(ValueError, match="image_id"):
        HammingTree.build_balanced(entries, TreeConfig(tau=4, n_max=4), 16)


def test_config_validation():
    with pytest.raises(ValueError):
        TreeConfig(tau=300).validate(256)
    with pytest.raises(ValueError):
        TreeConfig(n_max=0).validate(256)
    with pytest.raises(ValueError):
        TreeConfig(delta_max=0.7).validate(256)
    with pytest.raises(ValueError):
        TreeConfig(max_depth=300).validate(256)


# ----------------------------------------------------------------------
# build_balanced against the per-leaf reference build
# ----------------------------------------------------------------------

def reference_build_balanced(entries, config, dim_bits):
    """Counts every node's bits from scratch and stacks every leaf from its
    entries, as the balanced build first did."""
    entries = list(entries)
    tree = HammingTree(dim_bits, config)
    if not entries:
        return tree
    bits = unpack_bits(np.stack([e.descriptor for e in entries]), dim_bits)

    def build(subset, depth, forbidden):
        if len(subset) > config.n_max and depth < config.depth_limit(dim_bits):
            counts = bits[subset].sum(axis=0, dtype=np.int64)
            bit = select_split_bit(
                BitStatistics(counts=counts, total=len(subset)), forbidden, config.delta_max
            )
            if bit is not None:
                mask = bits[subset, bit] == 1
                forbidden.add(bit)
                left = build(subset[~mask], depth + 1, forbidden)
                right = build(subset[mask], depth + 1, forbidden)
                forbidden.remove(bit)
                return InternalNode(bit, left, right)
        return LeafNode(dim_bits, [entries[i] for i in subset])

    tree.root = build(np.arange(len(entries)), 0, set())
    tree.count = len(entries)
    return tree


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(8, 512),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5]),
    st.integers(0, 10),
)
def test_build_balanced_matches_reference_build(
    dim_bits, n, seed, duplicates, n_max, delta_max, max_depth
):
    rng = np.random.default_rng(seed)
    matrix = random_descriptors(n, dim_bits, rng)
    if n > 1 and duplicates:
        # Copies of one descriptor, which no split can separate.
        matrix[rng.integers(0, n, size=n // 2)] = matrix[0]
    entries = make_entries(matrix, image_id=seed % 7)
    for i, entry in enumerate(entries):
        entry.image_id += i % 3
    config = TreeConfig(
        tau=0, delta_max=delta_max, n_max=n_max,
        max_depth=min(max_depth, dim_bits) or None,
    )
    tree = HammingTree.build_balanced(entries, config, dim_bits)
    expected = reference_build_balanced(entries, config, dim_bits)
    assert tree.structurally_equal(expected)
    assert tree.count == expected.count == n
    got = list(tree._iter_leaves())
    want = list(expected._iter_leaves())
    assert len(got) == len(want)
    for (leaf, _), (ref_leaf, _) in zip(got, want):
        # The same entry objects in the same order, and columns mirroring them.
        assert all(a is b for a, b in zip(leaf.entries, ref_leaf.entries))
        assert np.array_equal(leaf.packed(), ref_leaf.packed())
        assert leaf.packed().dtype == np.uint8
        assert np.array_equal(leaf.image_ids(), ref_leaf.image_ids())
        assert leaf.image_ids().dtype == np.int64
    assert_tree_invariants(tree)


# ----------------------------------------------------------------------
# A chain as deep as the corpus
# ----------------------------------------------------------------------

# Every bit is admissible at delta_max 0.5, and a leaf holds one row.
CHAIN_CONFIG = TreeConfig(tau=0, n_max=1, delta_max=0.5)


def chain_entries(n: int, dim_bits: int = 2048):
    """The zero row, then one row per set bit 0 to n - 2. Under
    ``CHAIN_CONFIG`` each node splits its lowest set bit off as a one-row
    leaf, so the balanced build is a chain of depth n - 1."""
    rows = np.zeros((n, dim_bits // 8), dtype=np.uint8)
    bits = np.arange(n - 1)
    rows[bits + 1, bits >> 3] = 1 << (bits & 7)
    return make_entries(rows)


def test_build_balanced_builds_a_chain_of_more_than_a_thousand_levels():
    n = 1101
    entries = chain_entries(n)
    tree = HammingTree.build_balanced(entries, CHAIN_CONFIG, 2048)
    assert tree.depth_stats().max_depth == n - 1
    tree.check_invariants()
    # Every row finds itself, and only itself, at distance 0.
    rows = np.stack([e.descriptor for e in entries])
    hits = tree.search_all_batch(rows, 0)
    assert hits.query.tolist() == list(range(n))
    found = tree.hit_references(hits, np.arange(n), rows)
    assert all(ref is entry for ref, entry in zip(found, entries))
    assert deserialize_tree(serialize_tree(tree)).structurally_equal(tree)
