"""Greedy search: containment guarantee, range search, oracle equivalence."""

from __future__ import annotations

import numpy as np

from hamtree import (
    BruteForceMatcher,
    DescriptorEntry,
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    pack_bits,
    random_descriptors,
)
from hamtree.descriptor import flip_bits

from conftest import make_entries


def test_stored_descriptor_is_always_found_at_distance_zero():
    rng = np.random.default_rng(60)
    entries = make_entries(random_descriptors(500, 256, rng))
    tree = HammingTree.build_balanced(entries, TreeConfig(n_max=4), 256)
    for entry in entries:
        result = tree.search_nearest(entry, tau=0)
        assert result.best is not None
        assert result.best.distance == 0
        assert result.best.reference.keypoint_id == entry.keypoint_id


def test_search_empty_tree():
    rng = np.random.default_rng(61)
    tree = HammingTree(256, TreeConfig())
    (query,) = make_entries(random_descriptors(1, 256, rng))
    result = tree.search_nearest(query)
    assert result.best is None
    assert result.leaf_scanned == 0
    assert result.depth_traversed == 0
    assert tree.search_all(query) == []


def test_root_bit_choice_decides_whether_true_neighbor_is_found():
    # Depth-1 trees over the same two references; only the root bit differs.
    # The query's nearest neighbor differs from it at bit 5 only, the other
    # reference at bits 0..3.
    query = DescriptorEntry(pack_bits([0] * 8), 9, 0)
    near = DescriptorEntry(pack_bits([0, 0, 0, 0, 0, 1, 0, 0]), 0, 0)  # distance 1
    far = DescriptorEntry(pack_bits([1, 1, 1, 1, 0, 0, 0, 0]), 0, 1)  # distance 4

    def depth_one_tree(bit: int) -> HammingTree:
        left = LeafNode(8)
        right = LeafNode(8)
        for ref in (near, far):
            side = right if (int(ref.descriptor[0]) >> bit) & 1 else left
            side.append(ref)
        return HammingTree(8, TreeConfig(tau=8), root=InternalNode(bit, left, right))

    found = depth_one_tree(0).search_nearest(query, tau=8)
    assert found.best is not None and found.best.reference.keypoint_id == 0
    assert found.best.distance == 1

    missed = depth_one_tree(5).search_nearest(query, tau=8)
    assert missed.best is not None and missed.best.reference.keypoint_id == 1
    assert missed.best.distance == 4


def test_search_all_threshold_saturation_returns_whole_leaf():
    rng = np.random.default_rng(62)
    entries = make_entries(random_descriptors(100, 128, rng))
    tree = HammingTree.build_balanced(entries, TreeConfig(tau=128, n_max=10), 128)
    (query,) = make_entries(random_descriptors(1, 128, rng), image_id=1)
    result = tree.search_nearest(query, tau=128)
    matches = tree.search_all(query, tau=128)
    assert len(matches) == result.leaf_scanned


def test_search_all_tau_zero_returns_exact_duplicates_only():
    rng = np.random.default_rng(63)
    base = random_descriptors(20, 128, rng)
    entries = make_entries(base)
    duplicate = DescriptorEntry(np.array(base[7]), 0, 99)
    tree = HammingTree.build_balanced(entries + [duplicate], TreeConfig(n_max=5), 128)
    query = DescriptorEntry(np.array(base[7]), 1, 0)
    matches = tree.search_all(query, tau=0)
    assert sorted(m.reference.keypoint_id for m in matches) == [7, 99]
    assert all(m.distance == 0 for m in matches)


def test_search_all_is_subset_of_brute_force():
    rng = np.random.default_rng(64)
    refs = make_entries(random_descriptors(2000, 256, rng))
    tree = HammingTree.build_balanced(refs, TreeConfig(n_max=10), 256)
    matcher = BruteForceMatcher(refs)
    queries = make_entries(random_descriptors(200, 256, rng), image_id=1)
    for tau in (25, 100, 256):
        for query in queries:
            tree_keys = {
                m.reference.keypoint_id for m in tree.search_all(query, tau)
            }
            oracle_keys = {
                m.reference.keypoint_id for m in matcher.all_within(query, tau)
            }
            assert tree_keys <= oracle_keys


def test_single_leaf_tree_equals_brute_force_including_ties():
    # With n_max covering the whole corpus nothing ever splits, so the greedy
    # search degenerates to a brute-force scan and must agree exactly,
    # including first-in tie-breaking on duplicated descriptors.
    rng = np.random.default_rng(65)
    base = random_descriptors(300, 256, rng)
    base[50] = base[10]  # plant duplicates to force distance ties
    base[200] = base[10]
    refs = make_entries(base)
    tree = HammingTree.build_balanced(refs, TreeConfig(n_max=1000), 256)
    assert isinstance(tree.root, LeafNode)
    matcher = BruteForceMatcher(refs)
    queries = make_entries(random_descriptors(100, 256, rng), image_id=1)
    queries.append(DescriptorEntry(np.array(base[10]), 1, 100))
    for tau in (0, 25, 256):
        for query in queries:
            got = tree.search_nearest(query, tau).best
            want = matcher.nearest(query, tau)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got.distance == want.distance
                assert got.reference.keypoint_id == want.reference.keypoint_id


def test_cost_accounting_on_balanced_tree():
    # On a balanced depth-h tree over N uniform descriptors a uniform query
    # scans N / 2**h descriptors on average; allow a factor-2 imbalance.
    rng = np.random.default_rng(66)
    n, h = 4096, 6
    refs = make_entries(random_descriptors(n, 256, rng))
    tree = HammingTree.build_balanced(
        refs, TreeConfig(n_max=1, delta_max=0.5, max_depth=h), 256
    )
    queries = make_entries(random_descriptors(500, 256, rng), image_id=1)
    results = [tree.search_nearest(q, 256) for q in queries]
    assert all(r.depth_traversed == h for r in results)
    mean_scanned = np.mean([r.leaf_scanned for r in results])
    assert mean_scanned <= 2 * n / 2**h


def test_search_and_insert_first_image_sees_empty_tree():
    rng = np.random.default_rng(67)
    tree = HammingTree(256, TreeConfig(n_max=10))
    entries = make_entries(random_descriptors(50, 256, rng))
    results = tree.search_and_insert(entries)
    assert all(r.best is None for r in results)
    assert tree.count == 50


def test_search_and_insert_duplicate_image_matches_everywhere():
    rng = np.random.default_rng(68)
    matrix = random_descriptors(50, 256, rng)
    tree = HammingTree(256, TreeConfig(tau=25, n_max=10))
    tree.search_and_insert(make_entries(matrix, image_id=0))
    results = tree.search_and_insert(make_entries(matrix, image_id=1))
    assert all(r.best is not None and r.best.distance == 0 for r in results)
    # matches reference the first image only: nothing self-matched
    assert all(r.best.reference.image_id == 0 for r in results)


def test_search_and_insert_half_novel_image():
    rng = np.random.default_rng(69)
    first = random_descriptors(40, 256, rng)
    tree = HammingTree(256, TreeConfig(tau=5, n_max=10))
    tree.search_and_insert(make_entries(first, image_id=0))
    second = np.vstack([first[:20], random_descriptors(20, 256, rng)])
    results = tree.search_and_insert(make_entries(second, image_id=1))
    matched = sum(1 for r in results if r.best is not None)
    assert matched == 20


def search_outcome(result):
    """A SearchResult as comparable values, with the matched entry by identity."""
    best = result.best
    match = None if best is None else (id(best.query), id(best.reference), best.distance)
    return match, result.leaf_scanned, result.depth_traversed


def test_search_and_insert_answers_from_the_tree_at_call_entry():
    # Each image holds noisy copies of stored rows and one row twice, so
    # searches hit stored entries, and a search made after the image's own
    # inserts would match the twin at distance 0.
    rng = np.random.default_rng(72)
    config = TreeConfig(tau=6, delta_max=0.5, n_max=4)
    tree, twin = HammingTree(64, config), HammingTree(64, config)
    stored = random_descriptors(1, 64, rng)
    matched = 0
    for image_id in range(15):
        matrix = random_descriptors(8, 64, rng)
        for row in range(4):
            flips = rng.choice(64, size=int(rng.integers(0, 5)), replace=False)
            matrix[row] = flip_bits(stored[rng.integers(0, len(stored))], flips)
        matrix[7] = matrix[6]
        entries = make_entries(matrix, image_id=image_id)
        before = [search_outcome(tree.search_nearest(e)) for e in entries]
        results = tree.search_and_insert(entries)
        assert [search_outcome(r) for r in results] == before
        assert all(r.best is None or r.best.reference.image_id != image_id for r in results)
        matched += sum(r.best is not None for r in results)
        twin.add(entries)
        assert tree.structurally_equal(twin)
        assert tree.count == twin.count
        stored = np.vstack([stored, matrix])
    assert matched > 0
    assert tree.depth_stats().max_depth > 1


def test_search_and_insert_rejects_mixed_images():
    import pytest

    rng = np.random.default_rng(70)
    config = TreeConfig(n_max=4, delta_max=0.5)
    stored = make_entries(random_descriptors(40, 256, rng), image_id=0)
    tree, twin = HammingTree(256, config), HammingTree(256, config)
    tree.add(stored)
    twin.add(stored)
    entries = make_entries(random_descriptors(2, 256, rng), image_id=1)
    entries += make_entries(random_descriptors(2, 256, rng), image_id=2)
    with pytest.raises(ValueError):
        tree.search_and_insert(entries)
    assert tree.count == 40
    assert tree.structurally_equal(twin)


def test_concurrent_readers_see_identical_results():
    # single-writer / multi-reader contract: searches never mutate the tree,
    # so parallel readers agree with a sequential pass
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(71)
    refs = make_entries(random_descriptors(2000, 256, rng))
    tree = HammingTree.build_balanced(refs, TreeConfig(n_max=10), 256)
    queries = make_entries(random_descriptors(400, 256, rng), image_id=1)
    sequential = [
        (r.best.reference.keypoint_id if r.best else None, r.leaf_scanned)
        for r in (tree.search_nearest(q, 50) for q in queries)
    ]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda q: tree.search_nearest(q, 50), queries))
    assert [
        (r.best.reference.keypoint_id if r.best else None, r.leaf_scanned)
        for r in parallel
    ] == sequential


def test_depth_stats_trivial_shapes():
    tree = HammingTree(8, TreeConfig(tau=8))
    stats = tree.depth_stats()
    assert stats.mean_depth == 0.0
    assert stats.stddev_depth == 0.0
    assert stats.leaf_count == 1

    # perfect depth-2 tree
    leaves = [LeafNode(8) for _ in range(4)]
    root = InternalNode(
        0, InternalNode(1, leaves[0], leaves[1]), InternalNode(2, leaves[2], leaves[3])
    )
    stats = HammingTree(8, TreeConfig(tau=8), root=root).depth_stats()
    assert stats.mean_depth == 2.0
    assert stats.stddev_depth == 0.0
    assert stats.leaf_count == 4
