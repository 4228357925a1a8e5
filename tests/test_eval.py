"""Ground truth, sequential protocol, and precision/recall scoring."""

from __future__ import annotations

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hamtree.descriptor
import hamtree.oracle
from hamtree import (
    FormatError,
    GroundTruth,
    GroundTruthParams,
    ImageScore,
    MatchRecord,
    PoseRecord,
    RetrievalConfig,
    SyntheticSpec,
    TreeConfig,
    build_ground_truth,
    generate_sequence,
    max_f1,
    pairwise_hamming,
    pr_curve,
    random_descriptors,
    run_protocol,
    run_protocol_brute_force,
    unpack_bits,
)
from hamtree.evaluation import (
    PrCurve,
    PrPoint,
    read_ground_truth_csv,
    read_poses,
    write_ground_truth_csv,
    write_pr_csv,
    write_timing_csv,
)
from hamtree.descriptor import flip_bits

from conftest import make_entries


def straight_line_pose(image_id: int, x: float) -> PoseRecord:
    return PoseRecord(
        image_id=image_id,
        position=np.array([x, 0.0, 0.0]),
        optical_axis=np.array([0.0, 0.0, 1.0]),
    )


# ----------------------------------------------------------------------
# ground truth
# ----------------------------------------------------------------------

def test_duplicate_image_pair_is_ground_truth_without_poses():
    rng = np.random.default_rng(120)
    matrix = random_descriptors(50, 256, rng)
    images = [make_entries(matrix, image_id=0), make_entries(matrix, image_id=1)]
    gt = build_ground_truth(images)
    assert gt.pairs == {(1, 0)}


def test_far_apart_cameras_are_excluded_by_pose_gate():
    rng = np.random.default_rng(121)
    matrix = random_descriptors(50, 256, rng)
    images = [make_entries(matrix, image_id=0), make_entries(matrix, image_id=1)]
    poses = [straight_line_pose(0, 0.0), straight_line_pose(1, 15.0)]
    assert build_ground_truth(images, poses).pairs == set()
    poses_close = [straight_line_pose(0, 0.0), straight_line_pose(1, 5.0)]
    assert build_ground_truth(images, poses_close).pairs == {(1, 0)}


def test_angle_gate_excludes_diverging_views():
    rng = np.random.default_rng(122)
    matrix = random_descriptors(50, 256, rng)
    images = [make_entries(matrix, image_id=0), make_entries(matrix, image_id=1)]
    turned = PoseRecord(
        image_id=1,
        position=np.array([1.0, 0.0, 0.0]),
        optical_axis=np.array([math.sin(math.radians(30)), 0.0, math.cos(math.radians(30))]),
    )
    poses = [straight_line_pose(0, 0.0), turned]
    assert build_ground_truth(images, poses).pairs == set()
    slightly = PoseRecord(
        image_id=1,
        position=np.array([1.0, 0.0, 0.0]),
        optical_axis=np.array([math.sin(math.radians(10)), 0.0, math.cos(math.radians(10))]),
    )
    assert build_ground_truth(images, [straight_line_pose(0, 0.0), slightly]).pairs == {
        (1, 0)
    }


def test_match_fraction_gate_is_strict():
    # exactly 10% matching descriptors fails the strictly-greater gate
    rng = np.random.default_rng(123)
    reference = random_descriptors(50, 256, rng)
    query_matrix = np.vstack([reference[:5], random_descriptors(45, 256, rng)])
    images = [make_entries(reference, 0), make_entries(query_matrix, 1)]
    assert build_ground_truth(images).pairs == set()
    query_matrix = np.vstack([reference[:6], random_descriptors(44, 256, rng)])
    images = [make_entries(reference, 0), make_entries(query_matrix, 1)]
    assert build_ground_truth(images).pairs == {(1, 0)}


def test_planted_sequence_ground_truth_equals_planted_pairs():
    spec = SyntheticSpec(
        num_images=12,
        descriptors_per_image=60,
        dim_bits=256,
        loop_pairs=[(8, 1, 0.5), (10, 3, 0.6), (11, 0, 0.4)],
        noise_bits=8,
        seed=42,
    )
    images, truth = generate_sequence(spec)
    gt = build_ground_truth(images)
    assert gt.pairs == truth == {(8, 1), (10, 3), (11, 0)}
    for query_id, reference_id in gt.pairs:
        assert query_id > reference_id


def test_ground_truth_missing_poses_raise():
    rng = np.random.default_rng(124)
    images = [
        make_entries(random_descriptors(5, 256, rng), image_id=0),
        make_entries(random_descriptors(5, 256, rng), image_id=1),
    ]
    with pytest.raises(ValueError):
        build_ground_truth(images, [straight_line_pose(0, 0.0)])


def test_poses_file_round_trip(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text(
        "# image_id tx ty tz qx qy qz qw\n"
        "0 1.0 2.0 3.0 0 0 0 1\n"
        "1 4.0 5.0 6.0 0 0.7071067811865476 0 0.7071067811865476\n"
    )
    poses = read_poses(path)
    assert len(poses) == 2
    assert np.allclose(poses[0].position, [1, 2, 3])
    assert np.allclose(poses[0].optical_axis, [0, 0, 1])
    # 90-degree yaw turns +z into +x
    assert np.allclose(poses[1].optical_axis, [1, 0, 0], atol=1e-9)
    assert abs(np.linalg.norm(poses[1].optical_axis) - 1.0) < 1e-6


@pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
def test_poses_file_axis_ignores_the_quaternion_scale(tmp_path, scale):
    # Squared first, 1e200 overflowed to an infinite norm (axis +z) and
    # 1e-200 underflowed to a zero one.
    path = tmp_path / "poses.txt"
    path.write_text(f"0 0 0 0 {scale!r} 0 0 0\n")
    # A half turn about x turns +z into -z.
    assert read_poses(path)[0].optical_axis.tolist() == [0.0, 0.0, -1.0]


def test_poses_file_with_a_zero_quaternion_names_its_line(tmp_path):
    path = tmp_path / "poses.txt"
    path.write_text("0 0 0 0 0 0 0 1\n1 0 0 0 0 0 0 0\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: zero quaternion$"):
        read_poses(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", range(7))
def test_poses_file_with_a_non_finite_field_names_its_line(tmp_path, field, value):
    # NaN compares False with both gate limits, so a NaN pose would pass
    # the pose gate of build_ground_truth for every pair it is in.
    fields = ["0"] * 6 + ["1"]
    fields[field] = value
    path = tmp_path / "poses.txt"
    path.write_text("0 0 0 0 0 0 0 1\n" f"1 {' '.join(fields)}\n")
    name = ("tx", "ty", "tz", "qx", "qy", "qz", "qw")[field]
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: {name} is not finite"):
        read_poses(path)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

def test_protocol_first_image_has_empty_scores():
    rng = np.random.default_rng(125)
    images = [make_entries(random_descriptors(20, 256, rng), image_id=0)]
    result = run_protocol(images, TreeConfig(n_max=10), RetrievalConfig())
    assert result.scores == [[]]
    assert len(result.seconds) == 1


def test_protocol_identical_images_retrieve_all_predecessors():
    rng = np.random.default_rng(126)
    matrix = random_descriptors(30, 256, rng)
    images = [make_entries(matrix, image_id=i) for i in range(4)]
    result = run_protocol(images, TreeConfig(tau=0, n_max=10), RetrievalConfig(tau=0))
    for t, image_scores in enumerate(result.scores):
        assert {s.image_id for s in image_scores} == set(range(t))
        assert all(s.score == 1.0 for s in image_scores)


def test_brute_force_protocol_agrees_with_bf_voting_semantics():
    spec = SyntheticSpec(
        num_images=8,
        descriptors_per_image=40,
        dim_bits=256,
        loop_pairs=[(5, 0, 0.5), (7, 2, 0.8)],
        noise_bits=5,
        seed=9,
    )
    images, _ = generate_sequence(spec)
    result = run_protocol_brute_force(images, RetrievalConfig(tau=25))
    assert result.scores[0] == []
    by_pair = {
        (q, s.image_id): s.votes
        for q, image_scores in enumerate(result.scores)
        for s in image_scores
    }
    assert by_pair[(5, 0)] == 20
    assert by_pair[(7, 2)] == 32
    # no planted overlap elsewhere: random 256-bit pairs never fall within 25
    assert set(by_pair) == {(5, 0), (7, 2)}


def test_brute_force_protocol_collects_matches_when_asked():
    rng = np.random.default_rng(127)
    matrix = random_descriptors(10, 256, rng)
    images = [make_entries(matrix, image_id=0), make_entries(matrix, image_id=1)]
    result = run_protocol_brute_force(images, RetrievalConfig(tau=0), collect_matches=True)
    (score,) = result.scores[1]
    assert score.votes == 10 == len(score.matches)
    assert all(m.distance == 0 for m in score.matches)
    assert all(m.reference.image_id == 0 for m in score.matches)


def reference_brute_force_protocol(images, tau, collect_matches):
    """The brute-force protocol before the word kernel, as the reference.

    It keeps the whole corpus in one byte matrix grown by ``np.vstack`` and
    encodes (distance, row) into one int64 so a single ``minimum.reduceat``
    gives each stored image's closest row, first row among equals. Distances
    come from unpacked bits, independent of any popcount.
    """
    all_entries = []
    segment_starts = []
    segment_image_ids = []
    stored = None
    scores = []
    for image_id, entries in enumerate(images):
        if stored is None or not entries:
            scores.append([])
        else:
            q_matrix = np.stack([e.descriptor for e in entries])
            dists = unpack_bits(q_matrix[:, None, :] ^ stored[None, :, :]).sum(axis=-1)
            ref_index = np.arange(stored.shape[0], dtype=np.int64)
            encoded = (dists.astype(np.int64) << 32) | ref_index
            per_image = np.minimum.reduceat(encoded, segment_starts, axis=1)
            min_dist = per_image >> 32
            argmin = per_image & 0xFFFFFFFF
            voted = min_dist <= tau
            votes = voted.sum(axis=0)
            image_scores = []
            for segment in np.nonzero(votes)[0]:
                matches = []
                if collect_matches:
                    for qi in np.nonzero(voted[:, segment])[0]:
                        matches.append(
                            MatchRecord(
                                query=entries[qi],
                                reference=all_entries[int(argmin[qi, segment])],
                                distance=int(min_dist[qi, segment]),
                            )
                        )
                image_scores.append(
                    ImageScore(
                        image_id=segment_image_ids[segment],
                        votes=int(votes[segment]),
                        score=int(votes[segment]) / len(entries),
                        matches=matches,
                    )
                )
            image_scores.sort(key=lambda s: (-s.score, s.image_id))
            scores.append(image_scores)
        if entries:
            segment_starts.append(len(all_entries))
            segment_image_ids.append(image_id)
            all_entries.extend(entries)
            block = np.stack([e.descriptor for e in entries])
            stored = block if stored is None else np.vstack([stored, block])
    return scores


def score_records(scores_per_image):
    """Scores with each match as (query object, stored object, distance)."""
    return [
        [
            (s.image_id, s.votes, s.score,
             [(id(m.query), id(m.reference), m.distance) for m in s.matches])
            for s in image_scores
        ]
        for image_scores in scores_per_image
    ]


@st.composite
def brute_force_cases(draw):
    """A short sequence of near-duplicate images, some empty.

    Descriptors are few-bit variants of one to three centres, so equal
    distances within a stored image (ties) and exact duplicates are common.
    """
    dim_bits = draw(st.sampled_from([12, 64, 100, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centres = random_descriptors(draw(st.integers(1, 3)), dim_bits, rng)
    images = []
    for image_id in range(draw(st.integers(1, 7))):
        rows = centres[rng.integers(0, len(centres), size=draw(st.sampled_from([0, 1, 3, 12])))]
        for row in rows:
            flips = rng.choice(dim_bits, size=int(rng.integers(0, 4)), replace=False)
            row[:] = flip_bits(row, flips)
        images.append(make_entries(rows, image_id=image_id))
    tau = draw(st.one_of(st.just(0), st.just(dim_bits), st.integers(0, dim_bits)))
    return images, tau


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=brute_force_cases(),
    collect_matches=st.booleans(),
    cap=st.sampled_from([1, 200, None]),
)
def test_brute_force_protocol_equals_encoded_reduceat_reference(case, collect_matches, cap):
    images, tau = case
    with mock.patch.object(
        hamtree.descriptor, "_BLOCK_BYTES",
        hamtree.descriptor._BLOCK_BYTES if cap is None else cap,
    ):
        result = run_protocol_brute_force(
            images, RetrievalConfig(tau=tau), collect_matches=collect_matches
        )
    want = reference_brute_force_protocol(images, tau, collect_matches)
    assert score_records(result.scores) == score_records(want)
    assert len(result.seconds) == len(images)


SINGLE_LEAF_FIXED_CASE = (
    generate_sequence(SyntheticSpec(
        num_images=6,
        descriptors_per_image=30,
        dim_bits=256,
        loop_pairs=[(4, 1, 0.6)],
        noise_bits=4,
        seed=13,
    ))[0],
    25,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=brute_force_cases(), collect_matches=st.booleans())
@example(case=SINGLE_LEAF_FIXED_CASE, collect_matches=False)
@example(case=SINGLE_LEAF_FIXED_CASE, collect_matches=True)
@example(case=([[], []], 0), collect_matches=True)
def test_tree_and_brute_force_protocols_agree_on_single_leaf_config(case, collect_matches):
    # A tree whose n_max exceeds the corpus never splits, so its one leaf
    # is scanned in full, as the exhaustive index is: both protocols cast
    # the same votes, and collected matches are the same stored objects,
    # the earliest-inserted among equally close ones.
    images, tau = case
    tree_result = run_protocol(
        images, TreeConfig(tau=tau, n_max=10_000), RetrievalConfig(tau=tau),
        collect_matches=collect_matches,
    )
    bf_result = run_protocol_brute_force(
        images, RetrievalConfig(tau=tau), collect_matches=collect_matches
    )
    assert score_records(tree_result.scores) == score_records(bf_result.scores)
    assert len(tree_result.seconds) == len(bf_result.seconds) == len(images)


@st.composite
def vote_subset_cases(draw):
    """A small ``generate_sequence`` corpus with a loop closure, a tau and a
    tree config that splits it. A duplicate-heavy corpus overwrites most
    descriptors with copies of three, which no split can separate."""
    dim_bits = draw(st.sampled_from([8, 64, 256]))
    num_images = draw(st.integers(2, 6))
    query = draw(st.integers(1, num_images - 1))
    images, _ = generate_sequence(SyntheticSpec(
        num_images=num_images,
        descriptors_per_image=draw(st.integers(1, 40)),
        dim_bits=dim_bits,
        loop_pairs=[(query, draw(st.integers(0, query - 1)), draw(st.sampled_from([0.3, 1.0])))],
        noise_bits=draw(st.integers(0, min(dim_bits, 12))),
        seed=draw(st.integers(0, 2**32 - 1)),
    ))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pool = [e.descriptor.copy() for e in images[0][:3]]
        for entry in (e for entries in images for e in entries):
            if rng.random() < 0.7:
                entry.descriptor[:] = pool[rng.integers(len(pool))]
    tau = draw(st.integers(0, dim_bits))
    config = TreeConfig(
        tau=tau,
        delta_max=draw(st.sampled_from([0.0, 0.1, 0.5])),
        n_max=draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 50])),
        max_depth=draw(st.sampled_from([None, 1, 2, 5])),
    )
    return images, config


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=vote_subset_cases())
def test_tree_votes_are_a_subset_of_brute_force_votes(case):
    # A reached leaf holds a subset of the stored rows, so each (query
    # descriptor, stored image) vote the tree casts is one brute force casts:
    # per (query image, stored image) the tree's count is at most brute
    # force's, and the tree votes only for images brute force votes for.
    images, config = case
    tree_result = run_protocol(images, config, RetrievalConfig(tau=config.tau))
    bf_result = run_protocol_brute_force(images, RetrievalConfig(tau=config.tau))
    assert len(tree_result.scores) == len(bf_result.scores) == len(images)
    for tree_scores, bf_scores in zip(tree_result.scores, bf_result.scores):
        bf_votes = {s.image_id: s.votes for s in bf_scores}
        for s in tree_scores:
            assert 0 < s.votes <= bf_votes.get(s.image_id, 0)


def reference_build_ground_truth(images, poses, params):
    """One ``pairwise_hamming`` matrix per image pair that passes the pose
    gate, as the ground truth was built before it took the brute-force
    protocol's votes."""
    pose_by_id = None if poses is None else {p.image_id: p for p in poses}
    cos_limit = math.cos(math.radians(params.max_angle_deg))
    pairs = set()
    for q in range(len(images)):
        for i in range(q):
            if not images[q] or not images[i]:
                continue
            if pose_by_id is not None:
                pq, pi = pose_by_id[q], pose_by_id[i]
                if np.linalg.norm(pq.position - pi.position) >= params.max_distance_m:
                    continue
                cos_angle = float(np.dot(pq.optical_axis, pi.optical_axis))
                if np.clip(cos_angle, -1.0, 1.0) <= cos_limit:
                    continue
            dists = pairwise_hamming(
                np.stack([e.descriptor for e in images[q]]),
                np.stack([e.descriptor for e in images[i]]),
            )
            matched = int((dists.min(axis=1) <= params.tau).sum())
            if matched > params.min_match_fraction * len(images[q]):
                pairs.add((q, i))
    return pairs


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    case=brute_force_cases(),
    fraction=st.sampled_from([0.0, 0.1, 1 / 3, 0.5, 1.0]),
    with_poses=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_ground_truth_equals_the_per_pair_reference(case, fraction, with_poses, seed):
    images, tau = case
    poses = None
    if with_poses:
        # Cameras on a line 0-20 m apart, turned by up to 40 degrees.
        rng = np.random.default_rng(seed)
        poses = [
            PoseRecord(i, np.array([rng.uniform(0, 20), 0.0, 0.0]),
                       np.array([math.sin(a), 0.0, math.cos(a)]))
            for i, a in enumerate(rng.uniform(0, math.radians(40), size=len(images)))
        ]
    params = GroundTruthParams(min_match_fraction=fraction, tau=tau)
    got = build_ground_truth(images, poses, params)
    assert got.pairs == reference_build_ground_truth(images, poses, params)
    assert got.params is params


def test_ground_truth_rejects_a_negative_tau():
    rng = np.random.default_rng(125)
    images = [make_entries(random_descriptors(5, 256, rng), image_id=i) for i in range(2)]
    with pytest.raises(ValueError, match="tau"):
        build_ground_truth(images, params=GroundTruthParams(tau=-1))


def test_brute_force_protocol_memory_stays_under_the_chunk_cap():
    # 500 queries against up to 2500 stored rows: the encoded per-image
    # (n_q x N) int64 matrix would be 10 MB, 40 times the cap.
    rng = np.random.default_rng(131)
    images = [make_entries(random_descriptors(500, 64, rng), image_id=i) for i in range(6)]
    config = RetrievalConfig(tau=20)
    unbounded = run_protocol_brute_force(images, config)
    cap = 1 << 18
    with mock.patch.object(hamtree.descriptor, "_BLOCK_BYTES", cap):
        tracemalloc.start()
        result = run_protocol_brute_force(images, config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert score_records(result.scores) == score_records(unbounded.scores)
    assert any(result.scores)
    # One block's buffers under the cap, plus the stored corpus (8 bytes a
    # row, at most twice over after a doubling), the entry list and scores.
    assert peak < 3 * cap


def test_brute_force_protocol_resolves_rows_only_for_collected_matches():
    rng = np.random.default_rng(132)
    matrix = random_descriptors(20, 64, rng)
    images = [make_entries(matrix, image_id=i) for i in range(4)]
    resolve = mock.Mock(side_effect=AssertionError("rows resolved"))
    with mock.patch.object(hamtree.oracle.BruteForceMatcher, "hit_references", resolve):
        result = run_protocol_brute_force(images, RetrievalConfig(tau=0))
    assert [len(s) for s in result.scores] == [0, 1, 2, 3]
    assert all(s.votes == 20 and not s.matches for scores in result.scores for s in scores)
    resolve.assert_not_called()


def test_protocol_rejects_non_contiguous_image_ids():
    rng = np.random.default_rng(128)
    images = [
        make_entries(random_descriptors(5, 256, rng), image_id=0),
        make_entries(random_descriptors(5, 256, rng), image_id=7),
    ]
    with pytest.raises(ValueError):
        run_protocol(images, TreeConfig(), RetrievalConfig())


# ----------------------------------------------------------------------
# precision / recall / F1
# ----------------------------------------------------------------------

def scores_fixture(observations):
    """Build per-image score lists from (query_id, image_id, score) triples."""
    from hamtree import ImageScore

    n = max(q for q, _, _ in observations) + 1
    out = [[] for _ in range(n)]
    for query_id, image_id, score in observations:
        out[query_id].append(
            ImageScore(image_id=image_id, votes=int(score * 100), score=score)
        )
    return out


def test_perfect_retrieval_scores_one():
    gt = GroundTruth(pairs={(1, 0), (2, 1)})
    scores = scores_fixture([(1, 0, 0.9), (2, 1, 0.8)])
    curve = pr_curve(scores, gt)
    best = max_f1(curve)
    assert best.precision == 1.0
    assert best.recall == 1.0
    assert best.f1 == 1.0


def test_f1_arithmetic_half_half():
    # 2 ground-truth pairs; threshold at 0.5 reports one correct of two
    # reported and one truth pair missed: precision = recall = f1 = 0.5
    gt = GroundTruth(pairs={(1, 0), (3, 2)})
    scores = scores_fixture([(1, 0, 0.9), (2, 0, 0.9)])
    curve = pr_curve(scores, gt)
    point = curve.points[-1]
    assert point.precision == 0.5
    assert point.recall == 0.5
    assert point.f1 == pytest.approx(0.5)


def test_pr_sweep_monotonicity_on_separated_scores():
    # correct pairs all score above the false ones: raising the threshold
    # never hurts precision, lowering it never hurts recall
    gt = GroundTruth(pairs={(1, 0), (2, 0), (3, 1)})
    scores = scores_fixture(
        [(1, 0, 0.9), (2, 0, 0.8), (3, 1, 0.7), (2, 1, 0.2), (3, 0, 0.1)]
    )
    curve = pr_curve(scores, gt)
    thresholds = [p.threshold for p in curve.points]
    assert thresholds == sorted(thresholds, reverse=True)
    for higher, lower in zip(curve.points, curve.points[1:]):
        assert higher.precision >= lower.precision
        assert higher.recall <= lower.recall


def test_max_f1_tie_prefers_higher_precision():
    curve = PrCurve(
        points=[
            PrPoint(threshold=0.9, precision=1.0, recall=0.5, f1=2 / 3),
            PrPoint(threshold=0.5, precision=0.5, recall=1.0, f1=2 / 3),
        ]
    )
    assert max_f1(curve).precision == 1.0


def test_max_f1_invariant_under_monotone_score_transform():
    gt = GroundTruth(pairs={(1, 0), (2, 1), (3, 0)})
    raw = [(1, 0, 0.9), (2, 1, 0.5), (3, 1, 0.3), (3, 0, 0.2), (2, 0, 0.1)]
    base = max_f1(pr_curve(scores_fixture(raw), gt))
    squared = max_f1(
        pr_curve(scores_fixture([(q, i, s * s) for q, i, s in raw]), gt)
    )
    assert squared.precision == base.precision
    assert squared.recall == base.recall
    assert squared.f1 == pytest.approx(base.f1)


def test_empty_ground_truth_flags_curve_and_refuses_max_f1():
    gt = GroundTruth(pairs=set())
    curve = pr_curve(scores_fixture([(1, 0, 0.9)]), gt)
    assert not curve.recall_defined
    assert all(p.recall == 0.0 for p in curve.points)
    with pytest.raises(ValueError):
        max_f1(curve)


def test_csv_surfaces(tmp_path):
    gt_path = tmp_path / "gt.csv"
    write_ground_truth_csv(gt_path, {(3, 1), (2, 0)})
    assert read_ground_truth_csv(gt_path).pairs == {(3, 1), (2, 0)}
    lines = gt_path.read_text().strip().splitlines()
    assert lines[0] == "query_id,reference_id"
    assert len(lines) == 3

    curve = PrCurve(points=[PrPoint(threshold=0.5, precision=1.0, recall=0.5, f1=2 / 3)])
    pr_path = tmp_path / "pr.csv"
    write_pr_csv(pr_path, curve)
    lines = pr_path.read_text().strip().splitlines()
    assert lines[0] == "threshold,precision,recall,f1"
    assert len(lines[1].split(",")) == 4

    timing_path = tmp_path / "timing.csv"
    write_timing_csv(timing_path, [0.25, 0.5])
    lines = timing_path.read_text().strip().splitlines()
    assert lines[0] == "image,seconds"
    assert lines[1].startswith("0,")
