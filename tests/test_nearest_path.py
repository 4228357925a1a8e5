"""The batched nearest paths of ``match``, checked against independent references.

``match`` answers a tree with ``search_all_batch``, ``retrieval._closest_hits``
keyed by query, then ``hit_references``; that must give what
``search_nearest`` gives for every query. A ``BruteForceMatcher`` finds the
first row at the minimum distance through one reduction, ``_nearest_rows``,
which ``match``'s brute-force side, ``nearest`` and ``hit_references`` all
call; its answer over any column range must be the first argmin of
``distances`` over that range, the one-query scan that shares none of its
code. "The same" means the same distance, the same entry object (the first
row inserted among equal minima), and nothing where the reference finds
nothing within tau.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hamtree.descriptor
from hamtree import (
    BruteForceMatcher,
    HammingTree,
    TreeConfig,
    deserialize_tree,
    random_descriptors,
    serialize_tree,
)
from hamtree.descriptor import _to_words, descriptor_nbytes, flip_bits, stack_descriptors
from hamtree.retrieval import _closest_hits

from conftest import make_entries

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def corpora(draw):
    """Stored image groups in insertion order, query rows and a few taus.

    Rows are few-bit variants of one to three centres, and some rows of the
    first image are stored again, unchanged, in the second and the third
    group; the third group reuses the first image's id, so one image's rows
    run non-contiguously (A, B, A) and equal minima span images and
    segments.
    """
    dim_bits = draw(st.sampled_from([5, 12, 100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = random_descriptors(draw(st.integers(1, 3)), dim_bits, rng)

    def variants(count: int) -> np.ndarray:
        rows = centres[rng.integers(0, len(centres), size=count)]
        for row in rows:
            row[:] = flip_bits(row, rng.choice(dim_bits, size=int(rng.integers(0, 3)),
                                               replace=False))
        return rows

    first = variants(draw(st.integers(1, 20)))
    copies = first[rng.integers(0, len(first), size=draw(st.integers(0, 5)))]
    groups = [
        make_entries(first, image_id=0),
        make_entries(np.concatenate([variants(draw(st.integers(0, 10))), copies]), image_id=1),
        make_entries(np.concatenate([copies, variants(draw(st.integers(0, 10)))]),
                     image_id=0, start_kp=len(first)),
    ]
    queries = np.concatenate([variants(draw(st.integers(1, 12))), first[:2]])
    taus = sorted({0, int(rng.integers(0, dim_bits + 1)), dim_bits})
    return dim_bits, groups, queries, taus


def tree_nearest(tree: HammingTree, queries: np.ndarray, tau: int):
    """``match``'s tree side: per query row with a match, (row, distance, entry)."""
    hits = tree.search_all_batch(queries, tau)
    best = _closest_hits(hits, hits.query)
    references = tree.hit_references(hits, best, queries)
    return list(zip(hits.query[best].tolist(), hits.distance[best].tolist(), references))


def first_argmin(matcher: BruteForceMatcher, query: np.ndarray, lo: int, hi: int):
    """(row, distance) of the first row in ``[lo, hi)`` at the minimum of
    ``matcher.distances(query)``."""
    dists = matcher.distances(query)[lo:hi]
    row = int(np.flatnonzero(dists == dists.min())[0])
    return lo + row, int(dists[row])


@PROPERTY
@given(corpus=corpora(), kind=st.sampled_from(["balanced", "inserted", "loaded"]),
       n_max=st.integers(1, 6))
def test_nearest_path_equals_search_nearest(corpus, kind, n_max):
    dim_bits, groups, queries, taus = corpus
    stored = [entry for group in groups for entry in group]
    config = TreeConfig(tau=0, delta_max=0.5, n_max=n_max)
    if kind == "balanced":
        tree = HammingTree.build_balanced(stored, config, dim_bits)
    else:
        # A stream holds whole bytes; the unused high bits of a toy width
        # are zero, so the widened tree routes on the toy bits only.
        width = 8 * descriptor_nbytes(dim_bits) if kind == "loaded" else dim_bits
        tree = HammingTree(width, config)
        tree.add(stored)
        if kind == "loaded":
            tree = deserialize_tree(serialize_tree(tree))
    query_entries = make_entries(queries, image_id=9)
    for tau in taus:
        got = tree_nearest(tree, queries, tau)
        want = [tree.search_nearest(query, tau).best for query in query_entries]
        assert [q for q, _, _ in got] == [q for q, w in enumerate(want) if w is not None]
        for q, distance, reference in got:
            assert distance == want[q].distance
            assert reference is want[q].reference


@PROPERTY
@given(corpus=corpora(), one_add=st.booleans(), one_row_blocks=st.booleans(), data=st.data())
def test_nearest_path_equals_brute_force_nearest(corpus, one_add, one_row_blocks, data):
    dim_bits, groups, queries, taus = corpus
    stored = [entry for group in groups for entry in group]
    if one_add:
        matcher = BruteForceMatcher(stored)
    else:
        matcher = BruteForceMatcher([])
        for group in groups:
            matcher.add(group)
    assert matcher.refs == stored
    n = len(stored)
    lo = data.draw(st.integers(0, n - 1))
    ranges = [(0, n), (lo, data.draw(st.integers(lo + 1, n)))]
    ranges += list(zip(matcher._starts, matcher._starts[1:] + [n]))
    words = _to_words(queries)
    # One query row per distance block exercises the block offsets.
    block_bytes = 1 if one_row_blocks else hamtree.descriptor._BLOCK_BYTES
    with mock.patch.object(hamtree.descriptor, "_BLOCK_BYTES", block_bytes):
        for lo, hi in ranges:
            rows, distance = matcher._nearest_rows(words, lo, hi)
            want = [first_argmin(matcher, query, lo, hi) for query in queries]
            assert list(zip(rows.tolist(), distance.tolist())) == want

        query_entries = make_entries(queries, image_id=9)
        for tau in taus:
            for entry, query in zip(query_entries, queries):
                row, d = first_argmin(matcher, query, 0, n)
                best = matcher.nearest(entry, tau)
                if d > tau:
                    assert best is None
                else:
                    assert best.distance == d and best.reference is stored[row]

            # The vote's hits, one per query and one per (query, image).
            hits = matcher.search_all_batch(queries, tau)
            for key in (hits.query, hits.query * 2 + hits.image_id):
                which = _closest_hits(hits, key)
                got = matcher.hit_references(hits, which, queries)
                for q, k, reference in zip(hits.query[which], hits.position[which], got):
                    segment = ranges[2 + k]
                    assert reference is stored[first_argmin(matcher, queries[q], *segment)[0]]


def test_nearest_path_on_empty_indexes_and_no_queries():
    rng = np.random.default_rng(141)
    stored = make_entries(random_descriptors(30, 64, rng))
    query_entries = make_entries(random_descriptors(4, 64, rng), image_id=1)
    queries = stack_descriptors(query_entries)
    none = queries[:0]
    assert tree_nearest(HammingTree(64), queries, 64) == []
    empty = BruteForceMatcher([])
    assert empty.nearest(query_entries[0], 64) is None
    hits = empty.search_all_batch(queries, 64)
    assert empty.hit_references(hits, _closest_hits(hits, hits.query), queries) == []

    tree = HammingTree.build_balanced(stored, TreeConfig(n_max=4), 64)
    assert tree_nearest(tree, none, 64) == []
    assert [q for q, _, _ in tree_nearest(tree, queries, 64)] == [0, 1, 2, 3]
    matcher = BruteForceMatcher(stored)
    for rows in matcher._nearest_rows(_to_words(none), 0, 30):
        assert rows.shape == (0,)
    rows, distance = matcher._nearest_rows(_to_words(queries), 0, 30)
    assert rows.shape == distance.shape == (4,)
    assert all(matcher.nearest(query, 64) is not None for query in query_entries)
