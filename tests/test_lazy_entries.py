"""Trees read back from a stream make entry objects only when a row is read.

A loaded leaf keeps its record rows and makes row i's ``DescriptorEntry``
on its first read, caching it. These tests check that a loaded tree answers
every search as the tree it was saved from, that reading a row twice (from
any thread) gives one object, that the introspection paths make no entry,
and that a loaded tree shares no memory with the buffer it was read from.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamtree import (
    DescriptorEntry,
    HammingTree,
    LeafNode,
    RetrievalConfig,
    TreeConfig,
    deserialize_tree,
    query_image,
    random_descriptors,
    save_tree,
    serialize_tree,
)
from hamtree.cli import main
from hamtree.descriptor import flip_bits

from conftest import make_entries
from test_serialize import assert_loaded_field_types, reference_serialize_tree
from test_tree_walk import corpora, hand_built, reference_structurally_equal

PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture
def made(monkeypatch):
    """A list that grows by one for every ``DescriptorEntry`` constructed."""
    log: list[int] = []
    init = DescriptorEntry.__init__

    def counting_init(self, *args, **kwargs):
        log.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DescriptorEntry, "__init__", counting_init)
    return log


def located(entries):
    """Give entries float32 coordinates, so a loaded copy equals them."""
    for i, entry in enumerate(entries):
        entry.keypoint_xy = (float(np.float32(0.37 * i)), float(i % 7))
        entry.keypoint_id = 3 * i
    return entries


def built_tree(n=2000, dim_bits=256, n_max=20, seed=160):
    entries = located(make_entries(random_descriptors(n, dim_bits, np.random.default_rng(seed))))
    for i, entry in enumerate(entries):
        entry.image_id = i % 13
    return entries, HammingTree.build_balanced(entries, TreeConfig(tau=40, n_max=n_max), dim_bits)


def leaves_of(tree):
    return [leaf for leaf, _ in tree._iter_leaves()]


def made_rows(tree):
    return sum(e is not None for leaf in leaves_of(tree) for e in leaf._entries)


# ----------------------------------------------------------------------
# What makes entries and what does not
# ----------------------------------------------------------------------

def test_loading_and_introspection_make_no_entries(made, tmp_path, capsys):
    entries, tree = built_tree()
    blob = serialize_tree(tree)
    save_tree(tmp_path / "tree.hbt", tree)
    far = DescriptorEntry(flip_bits(entries[0].descriptor, range(256)), 99, 0)
    queries = np.array([e.descriptor for e in entries[:50]])
    image = [DescriptorEntry(q, 99, 0) for q in queries]
    del made[:]
    loaded = deserialize_tree(blob, tree.config)
    assert len(made) == 0
    assert serialize_tree(loaded) == blob
    assert loaded.structurally_equal(tree) and tree.structurally_equal(loaded)
    assert loaded.structurally_equal(deserialize_tree(blob))
    assert loaded.depth_stats() == tree.depth_stats()
    loaded.check_invariants()
    assert main(["tree", "info", "--tree", str(tmp_path / "tree.hbt")]) == 0
    assert "entries: 2000" in capsys.readouterr().out
    # Scans that return no entry make none: a miss, and batched hits.
    assert loaded.search_nearest(far, 0).best is None
    assert loaded.search_all(far, 0) == []
    hits = loaded.search_all_batch(queries, 0)
    assert len(hits.query) >= 50
    query_image(loaded, image, RetrievalConfig(tau=0), collect_matches=False)
    assert len(made) == 0 and made_rows(loaded) == 0
    # A hit makes exactly the entries it returns.
    assert len(loaded.hit_references(hits, np.arange(3), queries)) == 3
    assert len(made) == made_rows(loaded) == 3


def test_a_search_makes_only_the_winning_row(made):
    entries, tree = built_tree()
    loaded = deserialize_tree(serialize_tree(tree), tree.config)
    del made[:]
    for entry in entries[:100]:
        best = loaded.search_nearest(entry, 0).best
        assert best.reference == entry and best.reference is not entry
    assert len(made) == made_rows(loaded) == 100


def test_a_row_read_twice_is_one_object_also_across_entries():
    entries, tree = built_tree()
    loaded = deserialize_tree(serialize_tree(tree), tree.config)
    first = {i: loaded.search_nearest(entries[i], 0).best.reference for i in range(0, 2000, 7)}
    for i, ref in first.items():
        assert loaded.search_nearest(entries[i], 0).best.reference is ref
        assert any(m.reference is ref for m in loaded.search_all(entries[i], 0))
    listed = {id(e) for e in loaded.leaf_entries()}
    assert all(id(ref) in listed for ref in first.values())
    for leaf in leaves_of(loaded):
        assert leaf._records is None
        assert all(leaf.entry(i) is e for i, e in enumerate(leaf.entries))
    assert_loaded_field_types(loaded.leaf_entries(), 32)


def test_an_append_makes_no_entry_and_a_split_keeps_the_made_ones(made):
    entries, tree = built_tree(n=300, n_max=20)
    loaded = deserialize_tree(serialize_tree(tree), TreeConfig(tau=40, n_max=20))
    ref = loaded.search_nearest(entries[5], 0).best.reference
    leaf, _ = loaded._descend(loaded._key(entries[5].descriptor))
    # Copies of one row go to its leaf, until that leaf splits.
    extra = [DescriptorEntry(entries[5].descriptor.copy(), 50, k) for k in range(40)]
    del made[:]
    leaf.append(extra[0])
    assert len(made) == 0 and leaf._records is not None
    assert leaf.entry(len(leaf) - 1) is extra[0]
    for entry in extra[1:]:
        loaded.insert(entry)
    assert loaded.count == 300 + 39  # the leaf's own append does not count
    # The first-inserted copy still wins, though its leaf has split.
    assert loaded.search_nearest(extra[9], 0).best.reference is ref
    assert all(any(m.reference is e for m in loaded.search_all(e, 0)) for e in extra)
    loaded.check_invariants()


def test_a_refused_split_of_a_loaded_leaf_makes_no_entry(made):
    # 200 copies of one row: no bit's mean is near 0.5, so no split is admitted.
    row = random_descriptors(1, 256, np.random.default_rng(162))[0]
    config = TreeConfig(tau=0, n_max=20)
    tree = HammingTree.build_balanced(make_entries(np.tile(row, (200, 1))), config, 256)
    loaded = deserialize_tree(serialize_tree(tree), config)
    extra = DescriptorEntry(row.copy(), 1, 200)
    del made[:]
    loaded.insert(extra)
    (leaf,) = leaves_of(loaded)
    assert len(leaf) == 201 and leaf.entry(200) is extra
    assert len(made) == 0 and made_rows(loaded) == 1


def test_saving_a_loaded_tree_with_some_rows_read_makes_no_entry(made):
    # Encoding each leaf's entries made every row of a leaf with one read.
    entries, tree = built_tree()
    blob = serialize_tree(tree)
    loaded = deserialize_tree(blob, tree.config)
    leaves = [leaf for leaf in leaves_of(loaded) if len(leaf) > 1][:10]
    for leaf in leaves:
        leaf.entry(len(leaf) // 2)
    extra = located(make_entries(random_descriptors(1, 256, np.random.default_rng(163))))[0]
    extra.image_id = 12
    del made[:]
    assert serialize_tree(loaded) == blob
    # A made entry's fields are what is written: an edited read entry and an
    # appended one are encoded over the records.
    leaves[0].entry(len(leaves[0]) // 2).keypoint_id += 1
    leaves[0].append(extra)
    appended = serialize_tree(loaded)
    assert len(made) == 0 and made_rows(loaded) == 11
    assert appended == reference_serialize_tree(loaded)


# ----------------------------------------------------------------------
# Concurrent readers
# ----------------------------------------------------------------------

def test_concurrent_first_reads_of_a_row_get_one_entry(made):
    entries, tree = built_tree(n=3000, n_max=30)
    loaded = deserialize_tree(serialize_tree(tree), tree.config)
    leaves = leaves_of(loaded)
    rows = [(k, i) for k, leaf in enumerate(leaves) for i in range(len(leaf))]
    barrier = threading.Barrier(4)
    got: list[dict] = [{} for _ in range(4)]
    failures: list[BaseException] = []

    def by_row(slot, order):
        barrier.wait()
        for k, i in order:
            got[slot][k, i] = leaves[k].entry(i)

    def by_leaf(slot):
        barrier.wait()
        for k, leaf in enumerate(leaves):
            for i, entry in enumerate(leaf.entries):
                got[slot][k, i] = entry

    def by_search(slot):
        barrier.wait()
        for entry in entries:
            leaf, _ = loaded._descend(loaded._key(entry.descriptor))
            ref = loaded.search_nearest(entry, 0).best.reference
            got[slot][leaves.index(leaf), leaf.entries.index(ref)] = ref

    def guarded(fn, *args):
        try:
            fn(*args)
        except BaseException as exc:  # reported below, in the test's thread
            failures.append(exc)

    del made[:]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=guarded, args=(by_row, 0, rows)),
            threading.Thread(target=guarded, args=(by_row, 1, rows[::-1])),
            threading.Thread(target=guarded, args=(by_leaf, 2)),
            threading.Thread(target=guarded, args=(by_search, 3)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert len(made) == len(rows)
    for slot in range(1, 4):
        assert got[slot].keys() <= got[0].keys()
        assert all(got[slot][key] is got[0][key] for key in got[slot])
    assert all(leaves[k].entry(i) is e for (k, i), e in got[0].items())


# ----------------------------------------------------------------------
# Aliasing
# ----------------------------------------------------------------------

def test_a_tree_loaded_from_a_bytearray_keeps_nothing_of_it():
    entries, tree = built_tree()
    blob = bytearray(serialize_tree(tree))
    saved = bytes(blob)
    loaded = deserialize_tree(blob, tree.config)
    blob[:] = np.random.default_rng(161).integers(0, 256, len(blob), dtype=np.uint8).tobytes()
    assert serialize_tree(loaded) == saved
    for entry in entries[::3]:
        best = loaded.search_nearest(entry, 0).best
        assert best.distance == 0 and best.reference == entry
    blob[:] = bytes(len(blob))
    assert loaded.structurally_equal(tree)
    assert serialize_tree(loaded) == saved
    assert loaded.leaf_entries() == tree.leaf_entries()
    assert serialize_tree(loaded) == saved


def test_a_loaded_entry_owns_a_writable_copy_of_its_row():
    entries, tree = built_tree()
    loaded = deserialize_tree(serialize_tree(tree), tree.config)
    ref = loaded.search_nearest(entries[9], 0).best.reference
    assert_loaded_field_types([ref], 32)
    leaf, _ = loaded._descend(loaded._key(entries[9].descriptor))
    assert not np.shares_memory(ref.descriptor, leaf.packed())
    ref.descriptor[:] = ~ref.descriptor
    best = loaded.search_nearest(entries[9], 0).best
    assert best.reference is ref and best.distance == 0
    assert leaf.packed()[leaf.entries.index(ref)].tolist() == entries[9].descriptor.tolist()
    # The written entry now differs from its saved row, as its entry says.
    assert not loaded.structurally_equal(tree)


# ----------------------------------------------------------------------
# A loaded tree answers as the tree it was saved from
# ----------------------------------------------------------------------

@st.composite
def saved_trees(draw):
    """(entries, tree) built, grown or hand-built at a whole-byte width."""
    entries, dim_bits = draw(corpora(widths=(8, 64, 200, 256)))
    located(entries)
    origin = draw(st.sampled_from(["built", "grown", "hand-built"]))
    config = TreeConfig(
        tau=0,
        delta_max=draw(st.sampled_from([0.0, 0.1, 0.5])),
        n_max=draw(st.integers(1, 8)),
        max_depth=draw(st.integers(0, 8)) or None,
    )
    if origin == "hand-built":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tree = hand_built(entries, dim_bits, rng, draw(st.sampled_from([0.1, 0.3])))
        tree.config = config
    elif origin == "grown":
        tree = HammingTree(dim_bits, config)
        tree.add(entries)
    else:
        tree = HammingTree.build_balanced(entries, config, dim_bits)
    return entries, tree


def nearest(tree, query, tau):
    r = tree.search_nearest(query, tau)
    best = None if r.best is None else (r.best.reference, r.best.distance)
    return best, r.leaf_scanned, r.depth_traversed


def batch(tree, queries, tau):
    hits = tree.search_all_batch(queries, tau)
    return [c.tolist() for c in (hits.query, hits.position, hits.image_id, hits.distance)]


def assert_same_answers(loaded, tree, queries):
    width = tree.dim_bits
    for tau in (0, width // 8, width):
        for row in queries:
            query = DescriptorEntry(row, 999, 0)
            assert nearest(loaded, query, tau) == nearest(tree, query, tau)
            assert loaded.search_all(query, tau) == tree.search_all(query, tau)
        assert batch(loaded, queries, tau) == batch(tree, queries, tau)
        image = [DescriptorEntry(row, 999, k) for k, row in enumerate(queries)]
        config = RetrievalConfig(tau=tau)
        assert query_image(loaded, image, config) == query_image(tree, image, config)


@PROPERTY
@given(saved_trees(), st.integers(0, 2**32 - 1))
def test_a_loaded_tree_answers_as_the_tree_it_was_saved_from(case, seed):
    entries, tree = case
    rng = np.random.default_rng(seed)
    loaded = deserialize_tree(serialize_tree(tree), tree.config)
    width = tree.dim_bits
    stored = np.array([e.descriptor for e in entries], dtype=np.uint8).reshape(-1, width // 8)
    queries = np.concatenate([stored, random_descriptors(5, width, rng)])
    if len(stored):
        queries = np.concatenate([queries, [flip_bits(r, [rng.integers(width)]) for r in stored]])
    assert_same_answers(loaded, tree, queries)
    # Every row read so far reads as the same object again.
    first = [(leaf, i, e) for leaf in leaves_of(loaded)
             for i, e in enumerate(leaf._entries) if e is not None]
    assert all(leaf.entry(i) is e for leaf, i, e in first)
    # Inserts after loading, splits included, keep the two trees alike.
    extra = located(make_entries(random_descriptors(12, width, rng), image_id=7))
    extra += [DescriptorEntry(flip_bits(e.descriptor, [0]), 8, k)
              for k, e in enumerate(entries[:6])]
    for entry in extra:
        tree.insert(entry)
        loaded.insert(entry)
    assert loaded.structurally_equal(tree) and loaded.count == tree.count
    for entry in extra:
        got = loaded.search_nearest(entry, 0).best.reference
        want = tree.search_nearest(entry, 0).best.reference
        assert got == want and (got is want or not any(want is e for e in extra))
    assert_same_answers(loaded, tree, queries)
    assert all(leaf.entries[i] is e for leaf, i, e in first
               if any(leaf is x for x in leaves_of(loaded)))
    assert serialize_tree(loaded) == serialize_tree(tree)


@PROPERTY
@given(saved_trees(), st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "image_id", "keypoint_id", "keypoint_xy", "descriptor"]),
       st.booleans())
def test_structurally_equal_on_loaded_leaves_answers_as_entry_wise_equality(
    case, seed, field, make_some
):
    _, tree = case
    rng = np.random.default_rng(seed)
    loaded = deserialize_tree(serialize_tree(tree), tree.config)
    full = [leaf for leaf in leaves_of(loaded) if len(leaf)]
    if make_some and full:
        for leaf in full[:: 2]:
            leaf.entry(int(rng.integers(len(leaf))))
    if field != "none" and full:
        # Change one field of one row: of a made entry, or of the saved tree's.
        leaf = full[int(rng.integers(len(full)))]
        i = int(rng.integers(len(leaf)))
        target = leaf.entry(i) if rng.random() < 0.5 else None
        if target is None:
            path = [e for e in tree.leaf_entries() if e == leaf.entry(i)]
            target = path[0]
        if field == "keypoint_xy":
            target.keypoint_xy = (0.1, target.keypoint_xy[1])  # not a float32
        elif field == "descriptor":
            target.descriptor = flip_bits(target.descriptor, [0])
        else:
            setattr(target, field, getattr(target, field) + 1)
    answer = loaded.structurally_equal(tree), tree.structurally_equal(loaded)
    blob = serialize_tree(loaded)
    assert answer[0] == answer[1] == reference_structurally_equal(loaded, tree)
    assert loaded.structurally_equal(loaded)
    # A made entry's fields are what is written; the payload is the leaf's row.
    if field != "descriptor":
        assert blob == reference_serialize_tree(loaded)


def test_equal_rows_in_leaves_of_every_kind_compare_equal():
    entries, tree = built_tree(n=40, dim_bits=64, n_max=4)
    loaded = deserialize_tree(serialize_tree(tree), tree.config)
    plain = HammingTree(64, tree.config, root=LeafNode(64, tree.leaf_entries()))
    one_leaf = deserialize_tree(serialize_tree(plain), tree.config)
    assert one_leaf.structurally_equal(plain) and plain.structurally_equal(one_leaf)
    assert not one_leaf.structurally_equal(loaded)
    one_leaf.root.entry(3).keypoint_xy = (1.0, 2.0)
    assert not one_leaf.structurally_equal(plain)
