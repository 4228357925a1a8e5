"""Batched leaf scan and vectorized vote, checked against scalar references.

The references below are the per-keypoint paths the batched code replaced:
a bit-by-bit descent with the scalar distance kernel per leaf entry, and the
dict-based vote over those records. Equal means the same hits in the same
order, the same votes and ranking, and the same match records down to the
object identity of the stored entry (the earliest-inserted wins a tie).
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hamtree.descriptor
from hamtree import (
    DescriptorEntry,
    HammingTree,
    InternalNode,
    MatchRecord,
    RetrievalConfig,
    TreeConfig,
    query_image,
    random_descriptors,
    unpack_bits,
)
from hamtree.descriptor import descriptor_to_int, flip_bits, get_bit

from conftest import make_entries

PROPERTY = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@dataclass
class Case:
    tree: HammingTree
    queries: list[DescriptorEntry]
    tau: int


@st.composite
def cases(draw) -> Case:
    """A small tree full of near-duplicates (ties, empty leaves) and a query image.

    Descriptors are few-bit variants of a handful of centres, so equal
    distances within one leaf and one image are common. delta_max=0.5 admits
    constant bits, whose splits leave empty leaves behind.
    """
    dim_bits = draw(st.sampled_from([12, 64, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = random_descriptors(draw(st.integers(1, 4)), dim_bits, rng)

    def variants(count: int) -> np.ndarray:
        rows = centres[rng.integers(0, len(centres), size=count)]
        for row in rows:
            row[:] = flip_bits(row, rng.choice(dim_bits, size=int(rng.integers(0, 4)),
                                               replace=False))
        return rows

    n_images = draw(st.integers(0, 5))
    per_image = draw(st.integers(1, 25))
    config = TreeConfig(
        tau=dim_bits // 4,
        delta_max=draw(st.sampled_from([0.1, 0.3, 0.5])),
        n_max=draw(st.integers(1, 6)),
    )
    stored = [make_entries(variants(per_image), image_id=i) for i in range(n_images)]
    if draw(st.booleans()):
        tree = HammingTree(dim_bits, config)
        for entries in stored:
            for entry in entries:
                tree.insert(entry)
    else:
        tree = HammingTree.build_balanced(
            [e for entries in stored for e in entries], config, dim_bits
        )
    queries = make_entries(variants(draw(st.integers(0, 30))), image_id=n_images)
    tau = draw(st.one_of(st.integers(0, 6), st.integers(0, dim_bits)))
    return Case(tree, queries, tau)


def python_hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Distance with Python ints only, independent of either numpy popcount."""
    return bin(descriptor_to_int(a) ^ descriptor_to_int(b)).count("1")


def scalar_search_all(tree: HammingTree, descriptor: np.ndarray, tau: int):
    """Bit-by-bit descent, then a scalar distance to every leaf entry."""
    node = tree.root
    while isinstance(node, InternalNode):
        node = node.right if get_bit(descriptor, node.bit_index) else node.left
    hits = [
        (i, entry, d)
        for i, entry in enumerate(node.entries)
        if (d := python_hamming(entry.descriptor, descriptor)) <= tau
    ]
    return node, hits


def dict_vote_query_image(tree, query_entries, config, collect_matches):
    """The per-keypoint dict vote that ``query_image`` used to run."""
    votes: dict[int, int] = {}
    matches: dict[int, list[MatchRecord]] = {}
    for entry in query_entries:
        _, hits = scalar_search_all(tree, entry.descriptor, config.tau)
        records = [MatchRecord(query=entry, reference=ref, distance=d) for _, ref, d in hits]
        best_per_image: dict[int, MatchRecord] = {}
        for record in records:
            image = record.reference.image_id
            current = best_per_image.get(image)
            if current is None or record.distance < current.distance:
                best_per_image[image] = record
        for image, record in best_per_image.items():
            votes[image] = votes.get(image, 0) + 1
            if collect_matches:
                matches.setdefault(image, []).append(record)
    n_query = len(query_entries)
    scores = [
        (image, count, count / n_query, matches.get(image, []))
        for image, count in votes.items()
    ]
    scores.sort(key=lambda s: (-s[2], s[0]))
    return scores


def as_comparable(scores):
    """Scores as plain tuples; match records by object identity."""
    return [
        (image, votes, score,
         [(id(m.query), id(m.reference), m.distance) for m in found])
        for image, votes, score, found in scores
    ]


def check_query_image(case: Case, collect_matches: bool) -> None:
    config = RetrievalConfig(tau=case.tau)
    got = query_image(case.tree, case.queries, config, collect_matches=collect_matches)
    want = dict_vote_query_image(case.tree, case.queries, config, collect_matches)
    assert as_comparable((s.image_id, s.votes, s.score, s.matches) for s in got) == (
        as_comparable(want)
    )


@PROPERTY
@given(case=cases(), collect_matches=st.booleans())
def test_query_image_equals_dict_vote(case, collect_matches):
    check_query_image(case, collect_matches)


@PROPERTY
@given(case=cases(), cap=st.sampled_from([None, 1, 40, 300]))
def test_search_all_batch_equals_per_query_search_all(case, cap):
    dim_bytes = (case.tree.dim_bits + 7) // 8
    matrix = (np.stack([q.descriptor for q in case.queries]) if case.queries
              else np.empty((0, dim_bytes), dtype=np.uint8))
    cap_bytes = hamtree.descriptor._BLOCK_BYTES if cap is None else cap
    with mock.patch.object(hamtree.descriptor, "_BLOCK_BYTES", cap_bytes):
        hits = case.tree.search_all_batch(matrix, case.tau)
    want = []
    for qi, query in enumerate(case.queries):
        leaf, found = scalar_search_all(case.tree, query.descriptor, case.tau)
        assert hits.leaves[qi] is leaf
        assert [(id(m.reference), m.distance) for m in case.tree.search_all(query, case.tau)] == [
            (id(ref), d) for _, ref, d in found
        ]
        want += [(qi, i, ref.image_id, d) for i, ref, d in found]
    got = list(zip(hits.query.tolist(), hits.position.tolist(),
                   hits.image_id.tolist(), hits.distance.tolist()))
    assert got == want
    assert len(hits.leaves) == len(case.queries)


@PROPERTY
@given(case=cases())
def test_leaf_columns_match_entries(case):
    for leaf, _ in case.tree._iter_leaves():
        stats = leaf.statistics()
        recount = np.zeros(case.tree.dim_bits, dtype=np.int64)
        for entry in leaf.entries:
            recount += unpack_bits(entry.descriptor, case.tree.dim_bits)
        assert stats.total == len(leaf.entries)
        assert stats.counts.tolist() == recount.tolist()
        assert leaf.image_ids().tolist() == [e.image_id for e in leaf.entries]
        assert leaf.packed().tolist() == [e.descriptor.tolist() for e in leaf.entries]


def test_batched_scan_of_an_oversize_leaf_stays_under_the_chunk_cap():
    # One unsplittable 1000-entry leaf reached by 1000 queries: unchunked,
    # the gathered block and the repeated queries would take 64 MB.
    rng = np.random.default_rng(120)
    entries = make_entries(random_descriptors(1000, 256, rng))
    tree = HammingTree.build_balanced(entries, TreeConfig(n_max=1000), 256)
    queries = random_descriptors(1000, 256, rng)
    cap = 1 << 20
    with mock.patch.object(hamtree.descriptor, "_BLOCK_BYTES", cap):
        tracemalloc.start()
        hits = tree.search_all_batch(queries, 100)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert 0 < hits.query.size < 10_000
    # A gathered block and its repeated queries, both under the cap, plus
    # the distances and leaf list.
    assert peak < 4 * cap
