"""Brute-force matcher and completeness instrumentation."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hamtree.descriptor
from hamtree import (
    BruteForceMatcher,
    DescriptorEntry,
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    bitwise_completeness,
    brute_force_all,
    brute_force_nearest,
    completeness_single,
    depth_completeness,
    hamming,
    make_noisy_duplicate_corpus,
    random_descriptors,
)
from hamtree.descriptor import (
    _distance_blocks,
    _to_words,
    _word_columns,
    flip_bits,
    stack_descriptors,
    unpack_bits,
)
from hamtree.oracle import write_bitwise_csv, write_depth_csv

from conftest import make_entries


def naive_nearest(query, refs, tau):
    """Independent double-loop reference for the brute-force matcher."""
    best_idx, best_dist = None, None
    for i, ref in enumerate(refs):
        d = 0
        for byte_a, byte_b in zip(query.descriptor, ref.descriptor):
            d += bin(int(byte_a) ^ int(byte_b)).count("1")
        if best_dist is None or d < best_dist:
            best_idx, best_dist = i, d
    if best_dist is None or best_dist > tau:
        return None
    return best_idx, best_dist


# ----------------------------------------------------------------------
# brute force
# ----------------------------------------------------------------------

def test_brute_force_nearest_finds_contained_query():
    rng = np.random.default_rng(90)
    refs = make_entries(random_descriptors(50, 256, rng))
    query = DescriptorEntry(np.array(refs[17].descriptor), 1, 0)
    match = brute_force_nearest(query, refs, tau=0)
    assert match is not None
    assert match.distance == 0
    assert match.reference.keypoint_id == 17


def test_brute_force_nearest_empty_refs():
    rng = np.random.default_rng(91)
    (query,) = make_entries(random_descriptors(1, 256, rng))
    assert brute_force_nearest(query, [], tau=256) is None


def test_brute_force_nearest_matches_naive_double_loop():
    rng = np.random.default_rng(92)
    refs = make_entries(random_descriptors(100, 256, rng))
    queries = make_entries(random_descriptors(30, 256, rng), image_id=1)
    for query in queries:
        for tau in (25, 120, 256):
            want = naive_nearest(query, refs, tau)
            got = brute_force_nearest(query, refs, tau)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.reference.keypoint_id, got.distance) == want


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**32 - 1),
    dim_bits=st.sampled_from([5, 12, 64, 100, 256]),
)
def test_brute_force_matcher_equals_scalar_kernel_with_ties(seed, dim_bits):
    # Few-bit variants of two centres: equal distances and duplicates are
    # common, and the first reference in order must win a tie.
    rng = np.random.default_rng(seed)
    centres = random_descriptors(2, dim_bits, rng)

    def variants(count, image_id):
        rows = centres[rng.integers(0, 2, size=count)]
        for row in rows:
            row[:] = flip_bits(row, rng.choice(dim_bits, size=int(rng.integers(0, 3)),
                                               replace=False))
        return make_entries(rows, image_id=image_id)

    refs = variants(int(rng.integers(1, 20)), 0)
    queries = variants(5, 1)
    matcher = BruteForceMatcher(refs)
    for query in queries:
        want = [hamming(query.descriptor, r.descriptor) for r in refs]
        dists = matcher.distances(query.descriptor)
        assert dists.dtype == np.int32
        assert dists.tolist() == want
        for tau in (0, min(want), dim_bits):
            got = matcher.nearest(query, tau)
            expected = naive_nearest(query, refs, tau)
            if expected is None:
                assert got is None
            else:
                assert got.reference is refs[expected[0]]
                assert got.distance == expected[1]
            assert [(id(m.reference), m.distance) for m in matcher.all_within(query, tau)] == [
                (id(r), d) for r, d in zip(refs, want) if d <= tau
            ]


def test_brute_force_all_saturation_and_zero():
    rng = np.random.default_rng(93)
    base = random_descriptors(30, 128, rng)
    refs = make_entries(base)
    query = DescriptorEntry(np.array(base[4]), 1, 0)
    assert len(brute_force_all(query, refs, tau=128)) == 30
    exact = brute_force_all(query, refs, tau=0)
    assert [m.reference.keypoint_id for m in exact] == [4]


def test_brute_force_all_planted_distances():
    rng = np.random.default_rng(94)
    base = random_descriptors(1, 256, rng)[0]

    def perturbed(flips, kp):
        desc = np.array(base, copy=True)
        for k in range(flips):
            desc[k >> 3] ^= np.uint8(1 << (k & 7))
        return DescriptorEntry(desc, 0, kp)

    refs = [perturbed(3, 0), perturbed(20, 1), perturbed(30, 2)]
    assert [hamming(base, r.descriptor) for r in refs] == [3, 20, 30]
    query = DescriptorEntry(base, 1, 0)
    matches = brute_force_all(query, refs, tau=25)
    assert [m.reference.keypoint_id for m in matches] == [0, 1]
    assert [m.distance for m in matches] == [3, 20]


def test_brute_force_all_monotone_in_tau():
    rng = np.random.default_rng(95)
    refs = make_entries(random_descriptors(200, 256, rng))
    queries = make_entries(random_descriptors(20, 256, rng), image_id=1)
    for query in queries:
        previous: set[int] = set()
        for tau in (100, 110, 120, 130, 256):
            current = {m.reference.keypoint_id for m in brute_force_all(query, refs, tau)}
            assert previous <= current
            previous = current


# ----------------------------------------------------------------------
# completeness
# ----------------------------------------------------------------------

def test_completeness_single_arithmetic_and_vacuous_case():
    rng = np.random.default_rng(96)
    refs = make_entries(random_descriptors(4, 256, rng))
    (query,) = make_entries(random_descriptors(1, 256, rng), image_id=1)
    # all four refs feasible at saturating tau, the tree found two of them
    oracle = brute_force_all(query, refs, tau=256)
    tree_side = oracle[:2]
    assert completeness_single(tree_side, oracle) == 0.5
    assert completeness_single([], []) == 1.0


def test_completeness_single_rejects_non_subset():
    rng = np.random.default_rng(97)
    refs = make_entries(random_descriptors(4, 256, rng))
    (query,) = make_entries(random_descriptors(1, 256, rng), image_id=1)
    oracle = brute_force_all(query, refs, tau=256)
    with pytest.raises(ValueError):
        completeness_single(oracle[:1], oracle[1:])


def test_completeness_single_depth_one_planted_corpus():
    # Two references: the query is 1 bit from one and 4 bits from the other;
    # a root split on the differing bit hides the close one, so completeness
    # at saturating tau is 1/2.
    from hamtree import pack_bits

    near = DescriptorEntry(pack_bits([1, 0, 0, 0, 0, 0, 0, 0]), 0, 0)
    far = DescriptorEntry(pack_bits([0, 0, 0, 0, 1, 1, 1, 1]), 0, 1)
    query = DescriptorEntry(pack_bits([0] * 8), 1, 0)
    left, right = LeafNode(8), LeafNode(8)
    right.append(near)  # bit 0 set
    left.append(far)
    tree = HammingTree(8, TreeConfig(tau=8), root=InternalNode(0, left, right))
    tree_result = tree.search_all(query, tau=8)
    oracle_result = brute_force_all(query, [near, far], tau=8)
    assert completeness_single(tree_result, oracle_result) == 0.5


def test_bitwise_completeness_constant_bit_is_one():
    # A bit that never varies puts every descriptor in one leaf: splitting on
    # it loses nothing at any threshold.
    rng = np.random.default_rng(98)
    matrix = random_descriptors(100, 64, rng)
    matrix[:, 0] &= np.uint8(0xFE)  # clear bit 0 everywhere
    refs = make_entries(matrix)
    queries, _ = make_noisy_duplicate_corpus(1, 50, 64, max_flips=5, seed=5)
    q_matrix = np.stack([q.descriptor for q in queries])
    q_matrix[:, 0] &= np.uint8(0xFE)
    queries = make_entries(q_matrix, image_id=1)
    per_bit = bitwise_completeness(queries, refs, [10, 64])
    assert per_bit[10][0] == 1.0
    assert per_bit[64][0] == 1.0


def test_bitwise_completeness_of_a_bit_every_match_flips_is_zero():
    # n weights of 1/n can sum to a hair over 1 in float64 (n = 29 with
    # OpenBLAS), which must not push the curve below 0.
    query = make_entries(random_descriptors(1, 64, np.random.default_rng(100)), image_id=1)
    for n in range(1, 61):
        refs = make_entries(np.stack([flip_bits(query[0].descriptor, [0])] * n))
        per_bit = bitwise_completeness(query, refs, [1], 64)[1]
        assert 0.0 <= per_bit[0] <= 1e-15
        assert np.all(per_bit[1:] == 1.0)


def test_bitwise_completeness_at_saturating_tau_is_same_side_fraction():
    # At tau = dim_bits every reference is feasible, so per-bit completeness
    # reduces to the mean fraction of references on the query's side of each
    # split. Expected values computed by direct enumeration.
    rng = np.random.default_rng(101)
    dim = 8
    refs = make_entries(random_descriptors(30, dim, rng))
    queries = make_entries(random_descriptors(10, dim, rng), image_id=1)
    per_bit = bitwise_completeness(queries, refs, [dim], dim)[dim]
    for bit in range(dim):
        expected = []
        for query in queries:
            q_side = (int(query.descriptor[0]) >> bit) & 1
            same = sum(
                1 for r in refs if ((int(r.descriptor[0]) >> bit) & 1) == q_side
            )
            expected.append(same / len(refs))
        assert per_bit[bit] == pytest.approx(float(np.mean(expected)))


def test_bitwise_completeness_matches_literal_two_leaf_trees():
    # Independent route: actually build the two-leaf tree for every bit and
    # average completeness_single over the queries.
    rng = np.random.default_rng(99)
    dim = 16
    refs = make_entries(random_descriptors(60, dim, rng))
    queries = make_entries(random_descriptors(40, dim, rng), image_id=1)
    taus = [2, 5, 16]
    fast = bitwise_completeness(queries, refs, taus, dim)
    for bit in range(dim):
        left, right = LeafNode(dim), LeafNode(dim)
        for ref in refs:
            side = right if (int(ref.descriptor[bit >> 3]) >> (bit & 7)) & 1 else left
            side.append(ref)
        tree = HammingTree(dim, TreeConfig(tau=dim), root=InternalNode(bit, left, right))
        for tau in taus:
            values = []
            for query in queries:
                tree_result = tree.search_all(query, tau)
                oracle_result = brute_force_all(query, refs, tau)
                values.append(completeness_single(tree_result, oracle_result))
            assert fast[tau][bit] == pytest.approx(float(np.mean(values)), abs=1e-12)


def test_depth_completeness_report_shape_and_identities():
    queries, refs = make_noisy_duplicate_corpus(2, 200, 128, max_flips=10, seed=7)
    depths = [0, 1, 2, 4]
    reports = depth_completeness(queries, refs, [10, 25], depths, 128)
    assert [r.tau for r in reports] == [10, 25]
    for report in reports:
        assert report.per_depth_measured[0] == 1.0
        assert report.per_depth_predicted[0] == 1.0
        mean_level = float(report.per_bit.mean())
        for h in depths:
            assert report.per_depth_predicted[h] == pytest.approx(mean_level**h)
        # prediction is multiplicative across depths
        assert report.per_depth_predicted[2] == pytest.approx(
            report.per_depth_predicted[1] ** 2
        )
        assert report.per_depth_predicted[4] == pytest.approx(
            report.per_depth_predicted[2] ** 2
        )
        values = [report.per_depth_measured[h] for h in depths]
        assert all(0.0 <= v <= 1.0 for v in values)
        # measured completeness decays with depth (small upward noise allowed)
        for shallow, deep in zip(values, values[1:]):
            assert deep <= shallow + 0.02


def test_depth_completeness_matches_per_query_loop():
    # Independent route: the same balanced trees, searched one query at a
    # time and scored against brute force. Only the summation order differs.
    queries, refs = make_noisy_duplicate_corpus(3, 120, 64, max_flips=12, seed=21)
    taus, depths = [4, 10], [0, 1, 3, 6]
    reports = depth_completeness(queries, refs, taus, depths, 64)
    for h in depths:
        config = (TreeConfig(tau=10, delta_max=0.5, n_max=len(refs)) if h == 0
                  else TreeConfig(tau=10, delta_max=0.5, n_max=1, max_depth=h))
        tree = HammingTree.build_balanced(refs, config, 64)
        for report in reports:
            values = [
                completeness_single(tree.search_all(query, report.tau),
                                    brute_force_all(query, refs, report.tau))
                for query in queries
            ]
            assert report.per_depth_measured[h] == pytest.approx(
                float(np.mean(values)), abs=1e-12
            )


def test_depth_completeness_answers_depth_zero_without_a_tree(monkeypatch):
    queries, refs = make_noisy_duplicate_corpus(2, 60, 64, max_flips=8, seed=23)
    built = []
    real = HammingTree.build_balanced.__func__

    def counting(cls, entries, config=None, dim_bits=None):
        built.append(config.max_depth)
        return real(cls, entries, config, dim_bits)

    monkeypatch.setattr(HammingTree, "build_balanced", classmethod(counting))
    reports = depth_completeness(queries, refs, [0, 4, 64], [0, 2], 64)
    assert built == [2]
    assert all(report.per_depth_measured[0] == 1.0 for report in reports)


def test_depth_completeness_predicted_power_example():
    # predicted completeness at depth 2 for a mean single-level value of 0.9
    assert 0.9**2 == pytest.approx(0.81)


# ----------------------------------------------------------------------
# The completeness pass against the per-query feasible sets it replaced
# ----------------------------------------------------------------------

def reference_feasible_sets(q_matrix, r_matrix, taus):
    """Per-query reference indices within each tau, from one distance pass."""
    tau_max = max(taus)
    sets = []
    for _, dists in _distance_blocks(_to_words(q_matrix), _word_columns(r_matrix)):
        for row in dists:
            idx = np.nonzero(row <= tau_max)[0]
            d = row[idx]
            sets.append({tau: idx[d <= tau] for tau in taus})
    return sets


def reference_bitwise_curves(q_bits, r_bits, sets, taus):
    n_q, dim_bits = q_bits.shape
    out = {}
    for tau in taus:
        acc = np.zeros(dim_bits, dtype=np.float64)
        for qi in range(n_q):
            feasible = sets[qi][tau]
            if feasible.size == 0:
                acc += 1.0
            else:
                same_side = r_bits[feasible] == q_bits[qi]
                acc += same_side.mean(axis=0)
        out[tau] = acc / n_q
    return out


def reference_depth_completeness(queries, refs, taus, depths, dim_bits):
    """(per_bit, measured, predicted) per tau, as the oracle computed them
    from one dict of index arrays per query."""
    q_matrix, r_matrix = stack_descriptors(queries), stack_descriptors(refs)
    sets = reference_feasible_sets(q_matrix, r_matrix, taus)
    per_bit = reference_bitwise_curves(
        unpack_bits(q_matrix, dim_bits), unpack_bits(r_matrix, dim_bits), sets, taus
    )
    n_q = q_matrix.shape[0]
    tau_max = max(taus)
    feasible = {
        tau: np.array([sets[qi][tau].size for qi in range(n_q)], dtype=np.int64)
        for tau in taus
    }
    measured = {tau: {} for tau in taus}
    for h in depths:
        if h == 0:
            for tau in taus:
                measured[tau][0] = 1.0
            continue
        config = TreeConfig(tau=min(tau_max, dim_bits), delta_max=0.5, n_max=1, max_depth=h)
        tree = HammingTree.build_balanced(refs, config, dim_bits)
        hits = tree.search_all_batch(q_matrix, min(tau_max, dim_bits))
        for tau in taus:
            n_found = np.bincount(hits.query[hits.distance <= tau], minlength=n_q)
            ratio = np.ones(n_q)
            np.divide(n_found, feasible[tau], out=ratio, where=feasible[tau] > 0)
            measured[tau][h] = float(ratio.mean())
    predicted = {tau: {h: float(per_bit[tau].mean()) ** h for h in depths} for tau in taus}
    return per_bit, measured, predicted


@st.composite
def completeness_cases(draw):
    """(queries, refs, taus, dim_bits): dense corpora of few-bit variants of
    two centres (duplicate rows included) or sparse uniform ones, whose
    queries at small taus have empty feasible sets."""
    dim_bits = draw(st.integers(8, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_refs, n_queries = draw(st.integers(1, 60)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        centres = random_descriptors(2, dim_bits, rng)

        def rows(count):
            out = centres[rng.integers(0, 2, size=count)]
            for row in out:
                flips = rng.choice(dim_bits, size=int(rng.integers(0, 4)), replace=False)
                row[:] = flip_bits(row, flips)
            return out

        r_matrix, q_matrix = rows(n_refs), rows(n_queries)
    else:
        r_matrix = random_descriptors(n_refs, dim_bits, rng)
        q_matrix = random_descriptors(n_queries, dim_bits, rng)
    tau = st.one_of(st.just(0), st.just(dim_bits), st.integers(0, dim_bits))
    taus = draw(st.lists(tau, min_size=1, max_size=4))
    return make_entries(q_matrix, image_id=1), make_entries(r_matrix), taus, dim_bits


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=completeness_cases(), tiny_blocks=st.booleans())
def test_completeness_equals_the_per_query_feasible_sets(case, tiny_blocks):
    # Tiny blocks put one query in each distance block and one pair in each
    # unpacked chunk, so block and chunk offsets are exercised.
    queries, refs, taus, dim_bits = case
    depths = [0, 1, 3]
    with mock.patch.object(
        hamtree.descriptor, "_BLOCK_BYTES",
        1 if tiny_blocks else hamtree.descriptor._BLOCK_BYTES,
    ):
        per_bit, measured, predicted = reference_depth_completeness(
            queries, refs, taus, depths, dim_bits
        )
        reports = depth_completeness(queries, refs, taus, depths, dim_bits)
        curves = bitwise_completeness(queries, refs, taus, dim_bits)
    assert [r.tau for r in reports] == taus
    assert sorted(curves) == sorted(set(taus))
    for report in reports:
        assert report.per_bit.shape == (dim_bits,)
        np.testing.assert_allclose(report.per_bit, per_bit[report.tau], rtol=0, atol=1e-12)
        np.testing.assert_allclose(curves[report.tau], per_bit[report.tau], rtol=0, atol=1e-12)
        assert np.all((report.per_bit >= 0) & (report.per_bit <= 1))
        assert report.per_depth_measured == pytest.approx(measured[report.tau], abs=1e-12)
        assert report.per_depth_predicted == pytest.approx(predicted[report.tau], abs=1e-12)


def traced_peak(run):
    """``run()``'s result and the peak memory tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_completeness_pass_holds_nothing_the_size_of_the_pairs():
    # At tau = width all 4e6 pairs are feasible. One index array per query
    # and tau peaked at 33.8 MB here, and the depth sweep's tree search hits
    # at 191.2 MiB; the pass keeps only per-block arrays.
    queries, refs = make_noisy_duplicate_corpus(2, 1000, 64, max_flips=8, seed=24)
    curves, peak = traced_peak(lambda: bitwise_completeness(queries, refs, [64], 64))
    assert peak < 16 * 2**20
    _, peak = traced_peak(lambda: depth_completeness(queries, refs, [64], [0, 1, 2, 3], 64))
    assert peak < 16 * 2**20
    # Every reference is feasible, so each curve value is the mean share of
    # the references on the query's side of the split.
    q_bits = unpack_bits(stack_descriptors(queries))
    r_means = unpack_bits(stack_descriptors(refs)).mean(axis=0)
    same_side = np.where(q_bits == 1, r_means, 1 - r_means).mean(axis=0)
    np.testing.assert_allclose(curves[64], same_side, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim_bits", [300, 40, 72])
def test_completeness_rejects_a_width_the_rows_do_not_hold(dim_bits):
    queries, refs = make_noisy_duplicate_corpus(1, 20, 64, max_flips=4, seed=25)
    with pytest.raises(ValueError, match=f"dim_bits {dim_bits}"):
        bitwise_completeness(queries, refs, [8], dim_bits)
    with pytest.raises(ValueError, match=f"dim_bits {dim_bits}"):
        depth_completeness(queries, refs, [8], [0, 1], dim_bits)


def test_completeness_csv_round_trip(tmp_path):
    queries, refs = make_noisy_duplicate_corpus(1, 100, 64, max_flips=5, seed=3)
    taus = [5, 10]
    per_bit = bitwise_completeness(queries, refs, taus, 64)
    bits_path = tmp_path / "bits.csv"
    write_bitwise_csv(bits_path, per_bit)
    lines = bits_path.read_text().strip().splitlines()
    assert lines[0] == "bit,tau,completeness"
    assert len(lines) == 1 + 64 * len(taus)
    assert all(len(line.split(",")) == 3 for line in lines[1:])

    reports = depth_completeness(queries, refs, taus, [0, 1, 2], 64)
    depth_path = tmp_path / "depth.csv"
    write_depth_csv(depth_path, reports)
    lines = depth_path.read_text().strip().splitlines()
    assert lines[0] == "depth,tau,measured,predicted"
    assert len(lines) == 1 + 3 * len(taus)
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[2]) == 1.0 and float(first[3]) == 1.0


def test_noisy_duplicate_corpus_is_seeded_and_planted():
    q1, r1 = make_noisy_duplicate_corpus(2, 50, 128, max_flips=6, seed=11)
    q2, r2 = make_noisy_duplicate_corpus(2, 50, 128, max_flips=6, seed=11)
    assert all(a == b for a, b in zip(q1, q2))
    assert all(a == b for a, b in zip(r1, r2))
    for query, ref in zip(q1, r1):
        assert hamming(query.descriptor, ref.descriptor) <= 6
    assert {q.image_id for q in q1} == {2, 3}
