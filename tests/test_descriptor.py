"""Descriptor kernels checked against bit-by-bit reference implementations."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hamtree.descriptor
from hamtree import (
    HammingTree,
    TreeConfig,
    bit_statistics,
    depth_completeness,
    hamming,
    hamming_distances,
    pack_bits,
    pairwise_hamming,
    random_descriptors,
    unpack_bits,
)
from hamtree.descriptor import _bit_counts, flip_bits

from conftest import make_entries


def reference_hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Independent oracle: compare every bit of every byte in a Python loop."""
    count = 0
    for byte_a, byte_b in zip(a, b):
        for k in range(8):
            count += ((int(byte_a) >> k) & 1) != ((int(byte_b) >> k) & 1)
    return count


def reference_bit_counts(rows: list[tuple[int, ...]]) -> list[int]:
    """Independent oracle: hand count of set bits per position."""
    width = len(rows[0])
    return [sum(row[k] for row in rows) for k in range(width)]


# ----------------------------------------------------------------------
# hamming
# ----------------------------------------------------------------------

def test_hamming_identity_is_zero():
    rng = np.random.default_rng(7)
    x = random_descriptors(1, 256, rng)[0]
    assert hamming(x, x) == 0


def test_hamming_complement_toy_width():
    zeros = pack_bits([0, 0, 0, 0])
    ones = pack_bits([1, 1, 1, 1])
    assert hamming(zeros, ones) == 4


def test_hamming_eight_bit_pairs_match_reference():
    # Bit strings read position 0 first. The reference loop is the source of
    # the expected values.
    a = pack_bits([1, 0, 1, 1, 0, 0, 1, 0])
    b = pack_bits([1, 0, 0, 1, 1, 0, 1, 0])
    assert reference_hamming(a, b) == 2
    assert hamming(a, b) == 2
    c = pack_bits([1, 0, 0, 1, 1, 0, 0, 0])
    assert reference_hamming(a, c) == 3
    assert hamming(a, c) == 3


@pytest.mark.parametrize("dim_bits", [8, 128, 256, 512])
def test_hamming_equals_reference_loop_on_random_pairs(dim_bits):
    rng = np.random.default_rng(42)
    pairs = random_descriptors(100, dim_bits, rng)
    for i in range(0, 100, 2):
        a, b = pairs[i], pairs[i + 1]
        expected = reference_hamming(a, b)
        assert hamming(a, b) == expected
        assert hamming(b, a) == expected
        assert expected <= dim_bits


def test_hamming_triangle_inequality():
    rng = np.random.default_rng(3)
    triples = random_descriptors(300, 256, rng)
    for i in range(0, 300, 3):
        a, b, c = triples[i], triples[i + 1], triples[i + 2]
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


def test_hamming_zero_iff_equal():
    rng = np.random.default_rng(11)
    a, b = random_descriptors(2, 128, rng)
    assert (hamming(a, b) == 0) == bool(np.array_equal(a, b))


def test_hamming_width_mismatch_raises():
    rng = np.random.default_rng(0)
    a = random_descriptors(1, 128, rng)[0]
    b = random_descriptors(1, 256, rng)[0]
    with pytest.raises(ValueError):
        hamming(a, b)


def test_hamming_distances_matches_scalar_kernel():
    rng = np.random.default_rng(5)
    refs = random_descriptors(64, 256, rng)
    query = random_descriptors(1, 256, rng)[0]
    batch = hamming_distances(query, refs)
    assert [int(d) for d in batch] == [hamming(query, r) for r in refs]


def test_pairwise_hamming_matches_scalar_kernel():
    rng = np.random.default_rng(6)
    a = random_descriptors(17, 128, rng)
    b = random_descriptors(23, 128, rng)
    with mock.patch.object(hamtree.descriptor, "_BLOCK_BYTES", 1 << 10):
        matrix = pairwise_hamming(a, b)
    for i in range(17):
        for j in range(23):
            assert matrix[i, j] == hamming(a[i], b[j])


@st.composite
def pairwise_cases(draw):
    """Query and reference matrices of 1-64 bytes and a block budget.

    Toy widths keep the unused high bits of the last byte at zero. The
    complement of the first query is planted among the references, so the
    full-width distance occurs. A budget of 1 byte leaves one query per block.
    """
    nbytes = draw(st.integers(1, 64))
    dim_bits = draw(st.integers(8 * nbytes - 7, 8 * nbytes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    queries = random_descriptors(draw(st.integers(0, 6)), dim_bits, rng)
    refs = random_descriptors(draw(st.integers(0, 9)), dim_bits, rng)
    if len(queries) and len(refs):
        complement = queries[0] ^ pack_bits(np.ones(dim_bits, dtype=np.uint8))
        refs[draw(st.integers(0, len(refs) - 1))] = complement
    cap = draw(st.sampled_from([1, 300, 2000, 1 << 26]))
    return queries, refs, cap


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=pairwise_cases())
def test_pairwise_hamming_equals_scalar_hamming(case):
    queries, refs, cap = case
    with mock.patch.object(hamtree.descriptor, "_BLOCK_BYTES", cap):
        matrix = pairwise_hamming(queries, refs)
    assert matrix.dtype == np.int32
    assert matrix.shape == (len(queries), len(refs))
    want = [[reference_hamming(q, r) for r in refs] for q in queries]
    assert matrix.tolist() == want


def test_pairwise_hamming_width_mismatch_raises():
    with pytest.raises(ValueError):
        pairwise_hamming(np.zeros((2, 8), np.uint8), np.zeros((2, 9), np.uint8))


def test_one_byte_block_budget_changes_no_result():
    # The one budget reaches every blocked loop: at 1 byte each block holds
    # one row, and every result must equal the one from the default blocks
    # (the completeness sums to rounding, since blocks regroup them).
    rng = np.random.default_rng(35)
    dim_bits = 100
    refs = random_descriptors(60, dim_bits, rng)
    queries = np.array([flip_bits(r, rng.choice(dim_bits, 6, replace=False)) for r in refs[:25]])
    ref_entries, query_entries = make_entries(refs), make_entries(queries, image_id=1)
    tree = HammingTree.build_balanced(ref_entries, TreeConfig(n_max=6), dim_bits)

    def results():
        hits = tree.search_all_batch(queries, 30)
        exact = (
            _bit_counts(refs, dim_bits).tolist(),
            pairwise_hamming(queries, refs).tolist(),
            [col.tolist() for col in (hits.query, hits.position, hits.image_id, hits.distance)],
            [id(leaf) for leaf in hits.leaves],
        )
        reports = depth_completeness(query_entries, ref_entries, [0, 8, 30], [0, 1, 2], dim_bits)
        return exact, reports

    want, want_reports = results()
    assert want[2][0], "the batched search finds no hit"
    with mock.patch.object(hamtree.descriptor, "_BLOCK_BYTES", 1):
        assert hamtree.descriptor._block_rows(dim_bits) == 1
        got, reports = results()
    assert got == want
    assert [r.tau for r in reports] == [r.tau for r in want_reports]
    for report, expected in zip(reports, want_reports):
        np.testing.assert_allclose(report.per_bit, expected.per_bit, rtol=0, atol=1e-12)
        assert report.per_depth_measured == pytest.approx(expected.per_depth_measured, abs=1e-12)
        assert report.per_depth_predicted == pytest.approx(expected.per_depth_predicted, abs=1e-12)


# ----------------------------------------------------------------------
# bit_statistics
# ----------------------------------------------------------------------

def test_bit_statistics_complement_pair():
    stats = bit_statistics([pack_bits([0, 0, 0, 0]), pack_bits([1, 1, 1, 1])], dim_bits=4)
    assert stats.counts.tolist() == [1, 1, 1, 1]
    assert stats.total == 2


def test_bit_statistics_duplicates():
    stats = bit_statistics([pack_bits([1, 0, 0, 0])] * 2, dim_bits=4)
    assert stats.counts.tolist() == [2, 0, 0, 0]
    assert stats.total == 2


def test_bit_statistics_hand_counted_sets():
    rows = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
    expected = reference_bit_counts(rows)
    assert expected == [1, 2, 2, 1]
    stats = bit_statistics([pack_bits(r) for r in rows], dim_bits=4)
    assert stats.counts.tolist() == expected

    rows = [(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
    expected = reference_bit_counts(rows)
    assert expected == [1, 1, 3, 1]
    stats = bit_statistics([pack_bits(r) for r in rows], dim_bits=4)
    assert stats.counts.tolist() == expected


def test_bit_statistics_matches_reference_on_random_matrix():
    rng = np.random.default_rng(9)
    matrix = random_descriptors(50, 64, rng)
    stats = bit_statistics(matrix)
    bits = unpack_bits(matrix)
    assert stats.counts.tolist() == bits.sum(axis=0).tolist()
    assert stats.total == 50
    assert (stats.counts >= 0).all() and (stats.counts <= stats.total).all()


def test_bit_statistics_permutation_invariant():
    rng = np.random.default_rng(10)
    matrix = random_descriptors(20, 128, rng)
    perm = rng.permutation(20)
    a = bit_statistics(matrix)
    b = bit_statistics(matrix[perm])
    assert a.total == b.total
    assert np.array_equal(a.counts, b.counts)


def test_bit_statistics_empty_raises():
    with pytest.raises(ValueError):
        bit_statistics([])


def test_bit_statistics_mixed_width_raises():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        bit_statistics(
            [random_descriptors(1, 128, rng)[0], random_descriptors(1, 256, rng)[0]]
        )


@pytest.mark.parametrize("dim_bits", [0, 17])
def test_bit_statistics_rejects_a_width_the_rows_do_not_hold(dim_bits):
    with pytest.raises(ValueError, match="dim_bits"):
        bit_statistics(np.zeros((3, 2), dtype=np.uint8), dim_bits)
