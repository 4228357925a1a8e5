"""The batched nearest path of ``match``, checked against the per-query searches.

``cli._nearest`` runs ``search_all_batch``, ``retrieval._closest_hits`` keyed
by query, then ``hit_references``. On a tree it must give what
``search_nearest`` gives for every query, and on a ``BruteForceMatcher`` what
``nearest`` gives: the same distance, the same entry object (the first row
inserted among equal minima), and nothing where the per-query call finds
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
from hamtree.cli import _nearest
from hamtree.descriptor import descriptor_nbytes, flip_bits, stack_descriptors

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


def assert_rows_equal(got, want) -> None:
    """``got`` from ``_nearest``; ``want`` per query row, (distance, entry) or None."""
    assert [q for q, _, _ in got] == [q for q, w in enumerate(want) if w is not None]
    for q, distance, reference in got:
        assert distance == want[q][0]
        assert reference is want[q][1]


@PROPERTY
@given(corpus=corpora(), kind=st.sampled_from(["balanced", "inserted", "loaded"]),
       n_max=st.integers(1, 6), hardware_popcount=st.booleans())
def test_nearest_path_equals_search_nearest(corpus, kind, n_max, hardware_popcount):
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
    with mock.patch.object(
        hamtree.descriptor, "_HAS_BITWISE_COUNT",
        hamtree.descriptor._HAS_BITWISE_COUNT and hardware_popcount,
    ):
        query_entries = make_entries(queries, image_id=9)
        for tau in taus:
            _, got = _nearest(tree, queries, tau)
            want = []
            for query in query_entries:
                best = tree.search_nearest(query, tau).best
                want.append(None if best is None else (best.distance, best.reference))
            assert_rows_equal(got, want)


@PROPERTY
@given(corpus=corpora(), one_add=st.booleans(), hardware_popcount=st.booleans())
def test_nearest_path_equals_brute_force_nearest(corpus, one_add, hardware_popcount):
    dim_bits, groups, queries, taus = corpus
    stored = [entry for group in groups for entry in group]
    if one_add:
        matcher = BruteForceMatcher(stored)
    else:
        matcher = BruteForceMatcher([])
        for group in groups:
            matcher.add(group)
    assert matcher.refs == stored
    with mock.patch.object(
        hamtree.descriptor, "_HAS_BITWISE_COUNT",
        hamtree.descriptor._HAS_BITWISE_COUNT and hardware_popcount,
    ):
        query_entries = make_entries(queries, image_id=9)
        for tau in taus:
            _, got = _nearest(matcher, queries, tau)
            want = []
            for query in query_entries:
                best = matcher.nearest(query, tau)
                want.append(None if best is None else (best.distance, best.reference))
            assert_rows_equal(got, want)


def test_nearest_path_on_empty_indexes_and_no_queries():
    rng = np.random.default_rng(141)
    stored = make_entries(random_descriptors(30, 64, rng))
    queries = stack_descriptors(make_entries(random_descriptors(4, 64, rng), image_id=1))
    none = queries[:0]
    for index in (HammingTree(64), BruteForceMatcher([])):
        assert _nearest(index, queries, 64)[1] == []
    for index in (HammingTree.build_balanced(stored, TreeConfig(n_max=4), 64),
                  BruteForceMatcher(stored)):
        assert _nearest(index, none, 64)[1] == []
        assert [q for q, _, _ in _nearest(index, queries, 64)[1]] == [0, 1, 2, 3]
