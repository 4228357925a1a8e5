"""The leaf arena against the per-leaf columns it replaced.

A tree keeps its leaves' descriptor rows and image ids in one arena, one
slab per leaf. The reference below is the leaf and split that came before:
each leaf owned growing columns of its own, and the batched scan
concatenated the reached leaves' columns. Insert sequences that split, grow
full slabs, release and reuse slabs, compact, and leave oversize leaves must
give the same ``search_all_batch`` hit arrays, the same ``search_nearest``
entries, ``structurally_equal`` trees and the same tree stream, with either
popcount. So must built, loaded and hand-built trees, before and after
inserts and in-place edits.
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hamtree.tree
from hamtree import (
    DescriptorEntry,
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    deserialize_tree,
    random_descriptors,
    serialize_tree,
)
from hamtree.descriptor import (
    _block_rows,
    _row_popcount,
    _stack_checked,
    descriptor_nbytes,
    flip_bits,
)
from hamtree.tree import LeafHits, _Arena, _image_id_column, _slab_size

from conftest import make_entries
from test_tree_walk import corpora, hand_built, nodes, replace

PROPERTY = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# Reference: the per-leaf columns, split and gather the arena replaced
# ----------------------------------------------------------------------

def _grown(column, capacity):
    out = np.empty((capacity,) + column.shape[1:], dtype=column.dtype)
    out[: column.shape[0]] = column
    return out


class ColumnLeaf(LeafNode):
    """A leaf that owns its descriptor and image-id columns; a full column
    grows to twice its rows, and a split copies the rows into exact ones."""

    __slots__ = ("_packed", "_image_ids")

    def __init__(self, dim_bits, entries=()):
        self._entries = list(entries)
        self._records = None
        self._dim_bits = dim_bits
        self._packed = _stack_checked(self._entries, descriptor_nbytes(dim_bits))
        self._image_ids = _image_id_column(self._entries)

    def append(self, entry):
        n = len(self._entries)
        if n == self._packed.shape[0]:
            capacity = max(8, 2 * n)
            self._packed = _grown(self._packed, capacity)
            self._image_ids = _grown(self._image_ids, capacity)
        self._image_ids[n] = entry.image_id
        self._packed[n] = entry.descriptor
        self._entries.append(entry)

    def packed(self):
        return self._packed[: len(self._entries)]

    def image_ids(self):
        return self._image_ids[: len(self._entries)]

    def _subset(self, mask):
        entries = self.entries
        leaf = ColumnLeaf(self._dim_bits)
        leaf._entries = [entries[i] for i in np.flatnonzero(mask).tolist()]
        leaf._packed = self.packed()[mask]
        leaf._image_ids = self.image_ids()[mask]
        return leaf


def column_gather_scan(queries, leaves, sizes, tau):
    """The batched scan over per-leaf columns: each block concatenates the
    reached leaves' rows, then their image ids."""
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cap_rows = _block_rows(queries.shape[1])
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.empty(0, dtype=np.int32))]
    lo = 0
    while lo < len(leaves):
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + cap_rows, "right")))
        chunk = leaves[lo:hi]
        rows = np.concatenate([leaf.packed() for leaf in chunk])
        np.bitwise_xor(rows, np.repeat(queries[lo:hi], sizes[lo:hi], axis=0), out=rows)
        dist = _row_popcount(rows)
        hit = np.flatnonzero(dist <= tau)
        if hit.size:
            row = hit + starts[lo]
            query = np.searchsorted(ends, row, "right")
            image_ids = np.concatenate([leaf.image_ids() for leaf in chunk])
            parts.append((query, row - starts[query], image_ids[hit], dist[hit]))
        lo = hi
    return parts


class ColumnTree(HammingTree):
    """A tree of ``ColumnLeaf`` leaves with the insert, split and batched
    scan that came before the arena."""

    def __init__(self, dim_bits, config, root=None):
        super().__init__(dim_bits, config, root if root is not None else ColumnLeaf(dim_bits))

    def insert(self, entry):
        path = []
        leaf, _ = self._descend(self._key(entry.descriptor), path)
        leaf.append(entry)
        self.count += 1
        self._maybe_split(leaf, path)

    def _maybe_split(self, leaf, path):
        cfg = self.config
        if len(leaf) <= cfg.n_max or len(path) >= cfg.depth_limit(self.dim_bits):
            return
        forbidden = {node.bit_index for node in path}
        bit = hamtree.tree.select_split_bit(leaf.statistics(), forbidden, cfg.delta_max)
        if bit is None:
            return
        right = (leaf.packed()[:, bit >> 3] >> (bit & 7)) & 1 == 1
        node = InternalNode(bit, leaf._subset(~right), leaf._subset(right))
        if self._routes is not None and not self._routes.split(path, leaf, node):
            self._routes = None
        if not path:
            self._root = node
        elif path[-1].right is leaf:
            path[-1].right = node
        else:
            path[-1].left = node

    def search_all_batch(self, queries, tau=None):
        queries = np.ascontiguousarray(queries, dtype=np.uint8)
        if tau is None:
            tau = self.config.tau
        leaf_ids, by_id = self._leaf_ids(queries)
        leaves = [by_id[k] for k in leaf_ids.tolist()]
        sizes = np.array([len(leaf) for leaf in leaves], dtype=np.int64)
        parts = column_gather_scan(queries, leaves, sizes, tau)
        return LeafHits(*(np.concatenate(cols) for cols in zip(*parts)), leaves=leaves)


def column_copy(node, dim_bits):
    """A node-for-node copy of ``node`` with ``ColumnLeaf`` leaves holding
    the same entry objects."""
    if isinstance(node, LeafNode):
        return ColumnLeaf(dim_bits, node.entries)
    return InternalNode(
        node.bit_index, column_copy(node.left, dim_bits), column_copy(node.right, dim_bits)
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def key(entry):
    return entry.image_id, entry.keypoint_id, entry.keypoint_xy, entry.descriptor.tolist()


def same_entry(got, want, by_identity):
    return got is want if by_identity else key(got) == key(want)


def assert_same_answers(tree, reference, queries, tau, by_identity=True):
    """Equal batched hits and hit entries, and equal nearest entries, for
    every row of ``queries``."""
    got = tree.search_all_batch(queries, tau)
    want = reference.search_all_batch(queries, tau)
    for name in ("query", "position", "image_id", "distance"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    which = np.arange(len(got.query))
    for a, b in zip(tree.hit_references(got, which, queries),
                    reference.hit_references(want, which, queries)):
        assert same_entry(a, b, by_identity)
    for row in queries:
        query = DescriptorEntry(row, 0, 0)
        a, b = tree.search_nearest(query, tau), reference.search_nearest(query, tau)
        assert (a.leaf_scanned, a.depth_traversed) == (b.leaf_scanned, b.depth_traversed)
        assert (a.best is None) == (b.best is None)
        if a.best is not None:
            assert a.best.distance == b.best.distance
            assert same_entry(a.best.reference, b.best.reference, by_identity)


def assert_same_trees(tree, reference):
    assert tree.count == reference.count
    assert tree.structurally_equal(reference) and reference.structurally_equal(tree)
    if tree.dim_bits % 8 == 0:
        assert serialize_tree(tree) == serialize_tree(reference)


def arena_state(tree):
    """The slab of every leaf, and every arena those slabs and the tree use
    with its columns, a copy of them, its used rows, released slabs and
    spare rows."""
    slabs = [leaf._slab for leaf, _ in tree._iter_leaves()]
    arenas = dict.fromkeys([tree._arena] + [slab[0] for slab in slabs])
    return slabs, [
        (arena, arena.rows, arena.ids, arena.rows.copy(), arena.ids.copy(), arena.used,
         {size: list(offsets) for size, offsets in arena.free.items()}, arena.spare)
        for arena in arenas
    ]


def assert_no_arena_written(tree, state):
    """Every leaf keeps its slab and every arena is as ``state`` recorded."""
    slabs, arenas = state
    assert [leaf._slab for leaf, _ in tree._iter_leaves()] == slabs
    for arena, rows, ids, row_copy, id_copy, used, free, spare in arenas:
        assert arena.rows is rows and arena.ids is ids
        assert np.array_equal(rows, row_copy) and np.array_equal(ids, id_copy)
        assert (arena.used, arena.free, arena.spare) == (used, free, spare)


def probe(entries, dim_bits, rng):
    """The entries' rows, a one-bit variant of each, and a few random rows."""
    width = descriptor_nbytes(dim_bits)
    rows = np.array([e.descriptor for e in entries], dtype=np.uint8).reshape(-1, width)
    variants = [flip_bits(row, [int(rng.integers(dim_bits))]) for row in rows]
    return np.concatenate([
        rows, np.array(variants, dtype=np.uint8).reshape(-1, width),
        random_descriptors(int(rng.integers(0, 4)), dim_bits, rng),
    ])


@st.composite
def settings_(draw):
    """(config, tau, patch): splits refused by delta_max 0 or taken on
    constant bits at 0.5, depth caps, and compaction from the first released
    slab or at its floor."""
    config = TreeConfig(
        tau=0,
        delta_max=draw(st.sampled_from([0.0, 0.1, 0.5])),
        n_max=draw(st.integers(1, 8)),
        max_depth=draw(st.integers(0, 6)) or None,
    )
    patch = mock.patch.object(hamtree.tree, "_COMPACT_MIN_ROWS",
                              draw(st.sampled_from([0, hamtree.tree._COMPACT_MIN_ROWS])))
    return config, draw(st.sampled_from([0, 2, 40])), patch


def applied(config, dim_bits):
    return TreeConfig(config.tau, config.delta_max, config.n_max,
                      min(config.max_depth, dim_bits) if config.max_depth else None)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@PROPERTY
@given(corpora(max_entries=150), settings_(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_inserts_match_the_per_leaf_columns(corpus, setup, batch, seed):
    entries, dim_bits = corpus
    config, tau, patch = setup
    config = applied(config, dim_bits)
    rng = np.random.default_rng(seed)
    tree = HammingTree(dim_bits, config)
    reference = ColumnTree(dim_bits, config)
    with patch:
        for start in range(0, len(entries), batch):
            chunk = entries[start : start + batch]
            # Searched before the inserts, so splits extend the routing arrays.
            assert_same_answers(tree, reference, probe(chunk, dim_bits, rng), tau)
            for entry in chunk:
                tree.insert(entry)
                reference.insert(entry)
        assert_same_answers(tree, reference, probe(entries, dim_bits, rng), tau)
    assert_same_trees(tree, reference)
    tree.check_invariants()


@PROPERTY
@given(corpora(min_entries=1, max_entries=150, widths=(8, 64, 256)), settings_(),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_built_and_loaded_trees_match_the_per_leaf_columns(corpus, setup, load, seed):
    entries, dim_bits = corpus
    config, tau, patch = setup
    config = applied(config, dim_bits)
    rng = np.random.default_rng(seed)
    split = int(rng.integers(1, len(entries) + 1))
    built = HammingTree.build_balanced(entries[:split], config, dim_bits)
    reference = ColumnTree(dim_bits, config, root=column_copy(built.root, dim_bits))
    tree = deserialize_tree(serialize_tree(built), config) if load else built
    # The built tree's slabs lie in leaf order, one after the other.
    leaves = [leaf for leaf, _ in tree._iter_leaves()]
    offsets = [leaf._slab[1] for leaf in leaves]
    assert offsets == np.cumsum([0] + [len(leaf) for leaf in leaves])[:-1].tolist()
    assert tree._arena.used == len(tree._arena.ids) == split
    with patch:
        assert_same_answers(tree, reference, probe(entries, dim_bits, rng), tau, not load)
        for entry in entries[split:]:
            tree.insert(entry)
            reference.insert(entry)
        assert_same_answers(tree, reference, probe(entries, dim_bits, rng), tau, not load)
    assert_same_trees(tree, reference)


@PROPERTY
@given(corpora(min_entries=1, max_entries=80, widths=(12, 64, 256)),
       st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_hand_built_graphs_edited_in_place_match_the_per_leaf_columns(corpus, seed, tau):
    entries, dim_bits = corpus
    rng = np.random.default_rng(seed)
    tree = hand_built(entries, dim_bits, rng, 0.3)
    reference = ColumnTree(dim_bits, tree.config, root=column_copy(tree.root, dim_bits))
    tau = tau % (dim_bits + 1)
    queries = probe(entries, dim_bits, rng)
    # Every leaf holds an arena of its own; a batched search reads the ones it
    # reaches through a copy and writes no arena.
    state = arena_state(tree)
    assert_same_answers(tree, reference, queries, tau)
    assert_no_arena_written(tree, state)
    # Rows appended in place: copies of a leaf's rows under new keypoint ids.
    pairs = list(zip(tree._iter_leaves(), reference._iter_leaves()))
    for (leaf, _), (ref_leaf, _) in pairs:
        for entry in list(leaf.entries)[: int(rng.integers(0, 12))]:
            copy = DescriptorEntry(entry.descriptor.copy(), entry.image_id, entry.keypoint_id + 1000)
            leaf.append(copy)
            ref_leaf.append(copy)
    tree.count = reference.count = sum(len(leaf) for (leaf, _), _ in pairs)
    assert_same_answers(tree, reference, queries, tau)
    # A second tree over the same graph reads the same slabs; neither tree's
    # searches move a leaf.
    other = HammingTree(dim_bits, tree.config, root=tree.root)
    states = arena_state(tree), arena_state(other)
    assert_same_answers(other, reference, queries, tau)
    assert_same_answers(tree, reference, queries, tau)
    assert_no_arena_written(tree, states[0])
    assert_no_arena_written(other, states[1])
    # A compaction moves every leaf into one new arena of exact slabs.
    tree._compact()
    arena = tree._arena
    leaves = dict.fromkeys(leaf for leaf, _ in tree._iter_leaves())
    assert all(leaf._slab[0] is arena for leaf in leaves)
    assert len(arena.ids) == arena.used == sum(leaf._slab[2] for leaf in leaves)
    assert not arena.free
    assert_rows_partitioned(tree)
    assert_same_answers(tree, reference, queries, tau)
    assert_same_answers(other, reference, queries, tau)
    assert_same_trees(tree, reference)


def concurrent_batched_searches(tree, queries, tau, threads=4):
    """The hits of ``threads`` threads searching ``tree`` at once, switching
    every microsecond."""
    barrier = threading.Barrier(threads)
    got = [None] * threads
    failures = []

    def search(slot):
        try:
            barrier.wait(timeout=30)
            got[slot] = tree.search_all_batch(queries, tau)
        except BaseException as exc:  # reported below, in the test's thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=search, args=(k,)) for k in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not failures
    return got


def test_concurrent_batched_searches_write_no_arena():
    # Threads searching at once, first over hand-built leaves that each hold
    # an arena of their own, then over the same leaves compacted into the
    # tree's arena, all get the reference's hits and leave every arena and
    # slab as it was. The trial runs on five trees.
    rng = np.random.default_rng(192)
    for _ in range(5):
        entries = make_entries(random_descriptors(400, 64, rng))
        tree = hand_built(entries, 64, rng, 0.1)
        reference = ColumnTree(64, tree.config, root=column_copy(tree.root, 64))
        queries = probe(entries, 64, rng)
        want = reference.search_all_batch(queries, 8)
        for compact in (False, True):
            if compact:
                tree._compact()
            state = arena_state(tree)
            got = concurrent_batched_searches(tree, queries, 8)
            for hits in got:
                for name in ("query", "position", "image_id", "distance"):
                    assert getattr(hits, name).tolist() == getattr(want, name).tolist()
            assert_no_arena_written(tree, state)


# ----------------------------------------------------------------------
# Bounded arena
# ----------------------------------------------------------------------

def unused_rows(tree):
    """Growth slack plus the rows of released slabs no leaf has taken again."""
    arena = tree._arena
    return len(arena.ids) - arena.used + arena.spare


def test_released_slabs_are_reused():
    """Unused arena rows stay under a quarter of the stored rows.

    The corpus splits into about 2600 leaves and leaves about 120 oversize
    ones: 10% of its rows are near copies of 200 descriptors, which no split
    separates. Every split releases its leaf's slab and every grown leaf one
    of its old size class. Reused by best fit, they leave under a fifth of
    the stored rows unused at any checkpoint; an arena that never reused one
    left 1.9 times the stored rows unused before it compacted.
    """
    rng = np.random.default_rng(190)
    matrix = random_descriptors(20_000, 256, rng)
    centres = random_descriptors(200, 256, rng)
    for i in np.flatnonzero(rng.random(len(matrix)) < 0.1):
        flipped = rng.choice(256, size=int(rng.integers(0, 3)), replace=False)
        matrix[i] = flip_bits(centres[rng.integers(len(centres))], flipped)
    entries = make_entries(matrix)
    tree = HammingTree(256, TreeConfig(n_max=10, delta_max=0.1))
    for start in range(0, len(entries), 500):
        tree.add(entries[start : start + 500])
        if tree.count >= 2000:
            assert unused_rows(tree) < tree.count / 4
    histogram = tree.depth_stats().leaf_size_histogram
    assert sum(n for size, n in histogram.items() if size > 10) > 50


def test_compaction_drops_the_slabs_a_growing_leaf_outgrew():
    """A leaf that grows to 20,000 rows moves through about 45 size classes,
    and no request of a larger class takes a slab it outgrew. Compaction
    keeps the arena within twice the stored rows, where the per-leaf columns
    held 1.6 times."""
    matrix = random_descriptors(20_000, 256, np.random.default_rng(191))
    tree = HammingTree(256, TreeConfig(n_max=20_000))
    tree.add(make_entries(matrix))
    assert tree.depth_stats().leaf_count == 1
    assert len(tree._arena.ids) <= 2 * tree.count
    assert unused_rows(tree) <= max(tree._arena.used // 4, hamtree.tree._COMPACT_MIN_ROWS)


# ----------------------------------------------------------------------
# Size classes and best fit
# ----------------------------------------------------------------------

def test_slab_sizes_are_four_classes_per_octave():
    sizes = [_slab_size(n) for n in range(1, 5000)] + [_slab_size(2**20 + 1)]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))
    for n, size in zip(range(1, 5000), sizes):
        assert size >= n
        assert n <= 8 or size < 1.25 * n + 1
    assert 2**20 + 1 <= sizes[-1] < 1.25 * (2**20 + 1) + 1
    assert sorted(set(sizes[:40])) == [8, 10, 12, 14, 16, 20, 24, 28, 32, 40]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 300), st.integers(0, 10**6)),
                max_size=60))
def test_alloc_reuses_a_released_slab_under_one_and_a_half_times_the_request(ops):
    arena = _Arena.empty(64)
    live: list[tuple[int, int]] = []
    released: dict[int, int] = {}
    for take, n, pick in ops:
        if take or not live:
            request = _slab_size(n)
            used = arena.used
            offset, capacity = arena.alloc(request)
            if offset in released:
                assert released.pop(offset) == capacity
                assert request <= capacity < 1.5 * request
                # The smallest fitting class: none between was released.
                assert all(not request <= size < capacity for size in released.values())
            else:
                assert (offset, capacity) == (used, request)
            live.append((offset, capacity))
        else:
            offset, capacity = live.pop(pick % len(live))
            arena.release(offset, capacity)
            released[offset] = capacity
    assert arena.spare == sum(released.values())
    free = [(offset, size) for size, offsets in arena.free.items() for offset in offsets]
    assert sorted(free) == sorted(released.items())


def assert_rows_partitioned(tree, held=()):
    """Every row of the tree's arena lies in exactly one of a live leaf's
    slab, a released slab, a slab of ``held`` and the growth tail."""
    arena = tree._arena
    live = [leaf._slab[1:] for leaf, _ in tree._iter_leaves() if leaf._slab[0] is arena]
    live += [slab[1:] for slab in held if slab[0] is arena]
    released = [(offset, size) for size, offsets in arena.free.items() for offset in offsets]
    assert arena.spare == sum(size for _, size in released)
    tail = [(arena.used, len(arena.ids) - arena.used)]
    end = 0
    for start, size in sorted(span for span in live + released + tail if span[1]):
        assert start == end
        end = start + size
    assert end == len(arena.ids)


@PROPERTY
@given(corpora(max_entries=150), settings_(), st.integers(0, 2**32 - 1))
def test_every_arena_row_is_live_released_or_tail(corpus, setup, seed):
    entries, dim_bits = corpus
    config, _, patch = setup
    config = applied(config, dim_bits)
    rng = np.random.default_rng(seed)
    tree = HammingTree(dim_bits, config)
    third = len(entries) // 3
    with patch:
        tree.add(entries[:third])
        assert_rows_partitioned(tree)
        # Leaves rebuilt by hand over the same entries, each in an arena of its
        # own, which a batched search reads through a copy and leaves as it is.
        # The replaced leaves' slabs stay held until a compaction: only the
        # tree's moves and splits release a slab.
        held = []
        for node, parent, side, _ in nodes(tree.root):
            if isinstance(node, LeafNode) and rng.random() < 0.5:
                replace(tree, parent, side, LeafNode(dim_bits, node.entries))
                held.append(node._slab)
        tree.root = tree.root
        tree.search_all_batch(probe(entries[third:], dim_bits, rng))
        assert_rows_partitioned(tree, held)
        tree.add(entries[third:])
        assert_rows_partitioned(tree, held)
    tree.check_invariants()


def test_append_rejects_a_descriptor_of_another_width_and_writes_nothing():
    # The leaf's slab is full, so a written row would first move it.
    entries = make_entries(random_descriptors(3, 64, np.random.default_rng(194)))
    leaf = LeafNode(64, entries)
    slab, rows, ids = leaf._slab, leaf.packed().copy(), leaf.image_ids().copy()
    for width in (1, 9):
        entry = DescriptorEntry(np.full(width, 5, dtype=np.uint8), 0, 1)
        with pytest.raises(ValueError, match=f"entry \\(0, 1\\) has {width} bytes, expected 8"):
            leaf.append(entry)
        assert len(leaf) == 3 and leaf._slab == slab
        assert leaf.packed().tolist() == rows.tolist()
        assert leaf.image_ids().tolist() == ids.tolist()
        assert leaf.entries == entries


def test_a_descriptor_of_another_shape_is_rejected_before_anything_moves():
    # The leaf's slab is full, so an accepted row would first move it.
    entries = make_entries(random_descriptors(8, 64, np.random.default_rng(196)))
    leaf = LeafNode(64, entries)
    tree = HammingTree(64, TreeConfig(n_max=8), root=leaf)
    slab, rows = leaf._slab, leaf.packed().copy()
    two_d = np.zeros((8, 2), dtype=np.uint8)
    for descriptor in (two_d, np.array(5, dtype=np.uint8)):
        entry = DescriptorEntry(descriptor, 0, 9)
        for call in (tree.insert, tree.search_nearest, tree.search_all):
            with pytest.raises(ValueError, match="tree expects 8 bytes"):
                call(entry)
    with pytest.raises(ValueError, match=r"entry \(0, 9\) has shape \(8, 2\), expected 8 bytes"):
        leaf.append(DescriptorEntry(two_d, 0, 9))
    assert tree.count == 8 and len(leaf) == 8 and leaf._slab == slab
    assert leaf.packed().tolist() == rows.tolist() and leaf.entries == entries


def test_only_the_writer_releases_slabs_whatever_a_reader_holds():
    """A reader's ``LeafHits`` keeps the leaves it reached after the writer
    splits them. Their slabs are released at the split, on the writer's
    thread, so ``spare`` reads the same with hits held and without."""
    entries = make_entries(random_descriptors(800, 64, np.random.default_rng(197)))
    queries = np.array([e.descriptor for e in entries[400:]])
    threads = []
    release = _Arena.release

    def spy(arena, offset, capacity):
        threads.append(threading.get_ident())
        release(arena, offset, capacity)

    def spare(hold_hits):
        """``spare`` after the writes, then after the reader let go."""
        tree = HammingTree(64, TreeConfig(n_max=8, delta_max=0.5))
        tree.add(entries[:400])
        searched, written = threading.Event(), threading.Event()

        def read():
            hits = tree.search_all_batch(queries)
            searched.set()
            written.wait()
            del hits  # the last reference to the leaves split since

        reader = threading.Thread(target=read)
        if hold_hits:
            reader.start()
            searched.wait()
        tree.add(entries[400:])
        during = tree._arena.spare
        written.set()
        if hold_hits:
            reader.join()
        return during, tree._arena.spare

    with mock.patch.object(_Arena, "release", spy):
        held = spare(True)
        assert held == spare(False) and held[0] == held[1] > 0
    assert threads and set(threads) == {threading.get_ident()}


def test_a_second_trees_split_releases_nothing_in_the_first_trees_arena():
    # The second tree splits the first tree's root leaf, which the first
    # tree still holds; only the first tree's own split of it releases it.
    entries = make_entries(random_descriptors(60, 64, np.random.default_rng(198)))
    first = HammingTree(64, TreeConfig(tau=0, n_max=40, delta_max=0.5))
    first.add(entries[:30])
    free = {size: list(offsets) for size, offsets in first._arena.free.items()}
    second = HammingTree(64, TreeConfig(tau=0, n_max=4, delta_max=0.5), root=first.root)
    second.insert(entries[30])
    assert isinstance(second.root, InternalNode) and isinstance(first.root, LeafNode)
    assert first._arena.free == free
    first.add(entries[31:])
    assert isinstance(first.root, InternalNode)
    assert_rows_partitioned(first)


def test_split_and_grown_slabs_leave_few_rows_unfilled():
    """Split children and grown leaves take the size class of their rows,
    under a quarter more, so slab rows that no leaf fills stay under 15% of
    the stored rows on a stream-like corpus: half of its rows are near copies
    of 200 descriptors. Children of n_max + 1 rows and doubled full leaves
    left 40% unfilled."""
    rng = np.random.default_rng(193)
    matrix = random_descriptors(20_000, 256, rng)
    centres = random_descriptors(200, 256, rng)
    for i in np.flatnonzero(rng.random(len(matrix)) < 0.5):
        flipped = rng.choice(256, size=int(rng.integers(0, 5)), replace=False)
        matrix[i] = flip_bits(centres[rng.integers(len(centres))], flipped)
    tree = HammingTree(256, TreeConfig(n_max=50, delta_max=0.1))
    tree.add(make_entries(matrix))
    capacity = sum(leaf._slab[2] for leaf, _ in tree._iter_leaves())
    assert capacity - tree.count < 0.15 * tree.count
    assert_rows_partitioned(tree)
