"""The one-query path (``search_nearest``, ``search_all``) and the row-count
reduction, checked against byte-path references.

The references descend bit by bit with ``get_bit`` and count distances with
Python ints, so they share no code with the word scan, the key step or
``np.bitwise_count``. Equal means the same distances, the same entry objects
(the first-inserted wins a tie), the same leaf size and the same depth.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamtree import (
    DescriptorEntry,
    HammingTree,
    InternalNode,
    TreeConfig,
    hamming,
    hamming_distances,
    random_descriptors,
)
from hamtree.descriptor import _row_popcount, flip_bits, get_bit

from test_batched_scan import python_hamming, scalar_search_all
from test_tree_walk import probe_rows, trees

PROPERTY = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def reference_search_nearest(tree, descriptor, tau):
    """(distance or None, entry or None, leaf size, depth) by a bit-by-bit
    descent and Python-int distances; the earliest row wins a tie."""
    node, depth = tree.root, 0
    while isinstance(node, InternalNode):
        node = node.right if get_bit(descriptor, node.bit_index) else node.left
        depth += 1
    best = None
    for entry in node.entries:
        d = python_hamming(entry.descriptor, descriptor)
        if best is None or d < best[0]:
            best = (d, entry)
    if best is None or best[0] > tau:
        best = (None, None)
    return (*best, len(node.entries), depth)


def query_forms(row: np.ndarray, form: str):
    """``row`` as a contiguous uint8 row, a strided uint8 view or int64 values."""
    if form == "strided":
        view = np.repeat(row, 2)[::2]
        assert not view.flags.c_contiguous
        return view
    if form == "int64":
        return row.astype(np.int64)
    return row


def probes(tree, rng):
    """``probe_rows`` and the complement of every stored row, which lies at
    full-width distance from its own row."""
    rows = probe_rows(tree, rng)
    stored = np.array([e.descriptor for e in tree.leaf_entries()], dtype=np.uint8)
    stored = stored.reshape(-1, (tree.dim_bits + 7) // 8)
    complements = np.array(
        [flip_bits(row, range(tree.dim_bits)) for row in stored], dtype=np.uint8
    ).reshape(stored.shape)
    return np.concatenate([rows, complements])


@PROPERTY
@given(trees(widths=(12, 200, 256)), st.integers(0, 2**32 - 1),
       st.sampled_from(["contiguous", "strided", "int64"]))
def test_search_nearest_equals_the_byte_path_reference(case, seed, form):
    _, tree = case
    rng = np.random.default_rng(seed)
    tau = int(rng.choice([0, 3, tree.dim_bits // 4, tree.dim_bits]))
    for row in probes(tree, rng):
        got = tree.search_nearest(DescriptorEntry(query_forms(row, form), 9, 0), tau)
        distance, entry, scanned, depth = reference_search_nearest(tree, row, tau)
        assert (got.leaf_scanned, got.depth_traversed) == (scanned, depth)
        if entry is None:
            assert got.best is None
        else:
            assert got.best.reference is entry
            assert got.best.distance == distance
            assert type(got.best.distance) is int


@PROPERTY
@given(trees(widths=(12, 200, 256)), st.integers(0, 2**32 - 1),
       st.sampled_from(["contiguous", "strided", "int64"]))
def test_search_all_equals_the_byte_path_reference(case, seed, form):
    _, tree = case
    rng = np.random.default_rng(seed)
    tau = int(rng.choice([0, 3, tree.dim_bits // 4, tree.dim_bits]))
    for row in probes(tree, rng):
        query = DescriptorEntry(query_forms(row, form), 9, 0)
        got = tree.search_all(query, tau)
        _, want = scalar_search_all(tree, row, tau)
        assert [(id(m.reference), m.distance) for m in got] == [
            (id(ref), d) for _, ref, d in want
        ]
        assert all(m.query is query for m in got)


def test_a_full_width_distance_does_not_wrap():
    # 256 differing bits: a uint8 sum of the 32 byte counts would read 0.
    row = random_descriptors(1, 256, np.random.default_rng(150))[0]
    far = flip_bits(row, range(256))
    stored = [DescriptorEntry(row, 0, 0), DescriptorEntry(row.copy(), 0, 1)]
    tree = HammingTree(256, TreeConfig(tau=256, n_max=10))
    tree.add(stored)
    best = tree.search_nearest(DescriptorEntry(far, 1, 0), 256).best
    assert best.distance == 256 and best.reference is stored[0]
    assert [m.distance for m in tree.search_all(DescriptorEntry(far, 1, 0), 256)] == [256, 256]
    assert tree.search_all(DescriptorEntry(far, 1, 0), 255) == []


BYTE_COUNTS = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def table_counts(xored: np.ndarray) -> list:
    """Row sums of a byte lookup table, in int64."""
    return BYTE_COUNTS[xored].astype(np.int64).sum(axis=-1).tolist()


@PROPERTY
@given(st.integers(1, 40), st.integers(0, 30), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "ones"]))
def test_row_popcount_equals_the_table_path(width, n, seed, fill):
    rng = np.random.default_rng(seed)
    refs = rng.integers(0, 256, size=(n, width), dtype=np.uint8)
    query = rng.integers(0, 256, size=width, dtype=np.uint8)
    if fill == "ones":
        # Every XOR is all ones: the widest distance a width allows.
        refs = np.bitwise_not(np.broadcast_to(query, (n, width))).copy()
    xored = np.bitwise_xor(refs, query)
    got = _row_popcount(xored)
    assert got.dtype == np.int32 and got.shape == (n,)
    assert got.tolist() == table_counts(xored)
    assert int(_row_popcount(xored[0] if n else query)) == table_counts(
        xored[0] if n else query
    )
    assert hamming_distances(query, refs).tolist() == table_counts(xored)
    assert hamming_distances(query, refs[:0]).tolist() == []
    if n:
        assert hamming(query, refs[0]) == table_counts(xored[0])
    if fill == "ones":
        assert got.tolist() == [8 * width] * n
