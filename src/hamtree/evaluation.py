"""Sequential retrieval protocol, ground-truth construction, and PR scoring.

The evaluation walks an image sequence in acquisition order: each new image
first queries the database built from its predecessors, then is inserted so
later images can retrieve it. A (query, reference) pair belongs to the ground
truth when the cameras were close with overlapping view directions (when
poses are available) and more than a minimum fraction of the query's
descriptors have a brute-force match in the reference image. Retrieval
quality is summarized by sweeping an acceptance threshold over the observed
scores and reporting precision, recall and F1 at each point.

The protocol is inherently sequential (the database grows); scoring within
one query image may parallelize.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .descriptor import DescriptorEntry
from .io import FormatError
from .oracle import BruteForceMatcher
from .retrieval import ImageScore, RetrievalConfig, query_image
from .tree import HammingTree, TreeConfig

__all__ = [
    "PoseRecord",
    "read_poses",
    "GroundTruthParams",
    "GroundTruth",
    "build_ground_truth",
    "ProtocolResult",
    "run_protocol",
    "run_protocol_brute_force",
    "PrPoint",
    "PrCurve",
    "pr_curve",
    "max_f1",
    "write_ground_truth_csv",
    "read_ground_truth_csv",
    "write_pr_csv",
    "write_timing_csv",
]


# ----------------------------------------------------------------------
# Poses and ground truth
# ----------------------------------------------------------------------

@dataclass(slots=True)
class PoseRecord:
    """Camera position and viewing direction for one image."""

    image_id: int
    position: np.ndarray
    optical_axis: np.ndarray


def _quaternion_rotate_z(qx: float, qy: float, qz: float, qw: float) -> np.ndarray:
    """Unit +z axis rotated by the (normalized) quaternion.

    ``math.hypot`` scales as it sums, so no square of a huge or tiny
    component overflows or underflows the norm.
    """
    norm = math.hypot(qx, qy, qz, qw)
    if norm == 0.0:
        raise ValueError("zero quaternion")
    qx, qy, qz, qw = qx / norm, qy / norm, qz / norm, qw / norm
    axis = np.array(
        [
            2.0 * (qx * qz + qw * qy),
            2.0 * (qy * qz - qw * qx),
            1.0 - 2.0 * (qx * qx + qy * qy),
        ]
    )
    return axis / np.linalg.norm(axis)


_POSE_FIELDS = ("tx", "ty", "tz", "qx", "qy", "qz", "qw")


def read_poses(path) -> list[PoseRecord]:
    """Parse a poses text file: ``image_id tx ty tz qx qy qz qw`` per line.

    The optical axis is the camera's +z direction under the quaternion
    rotation. Blank lines and '#' comments are skipped; FormatError names a
    bad line, a zero quaternion or a non-finite field included, since NaN
    passes no comparison and so would pass both pose gates of
    ``build_ground_truth``.
    """
    poses = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) != 8:
                    raise ValueError(f"expected 8 fields, got {len(parts)}")
                image_id = int(parts[0])
                values = [float(p) for p in parts[1:]]
                for name, value in zip(_POSE_FIELDS, values):
                    if not math.isfinite(value):
                        raise ValueError(f"{name} is not finite: {value}")
                tx, ty, tz, qx, qy, qz, qw = values
                axis = _quaternion_rotate_z(qx, qy, qz, qw)
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: {exc}") from None
            poses.append(PoseRecord(image_id, np.array([tx, ty, tz]), axis))
    return poses


@dataclass(slots=True)
class GroundTruthParams:
    """Acceptance thresholds for a ground-truth image match."""

    max_distance_m: float = 10.0
    max_angle_deg: float = 20.0
    min_match_fraction: float = 0.10
    tau: int = 25


@dataclass(slots=True)
class GroundTruth:
    """Accepted (query_id, reference_id) pairs; query is always the later image."""

    pairs: set[tuple[int, int]]
    params: GroundTruthParams = field(default_factory=GroundTruthParams)


def _validate_images(images: Sequence[Sequence[DescriptorEntry]]) -> None:
    for index, entries in enumerate(images):
        ids = {e.image_id for e in entries}
        if ids and ids != {index}:
            raise ValueError(
                f"images[{index}] contains entries of images {sorted(ids)}; "
                "image ids must be contiguous and match positions"
            )


def build_ground_truth(
    images: Sequence[Sequence[DescriptorEntry]],
    poses: Sequence[PoseRecord] | None = None,
    params: GroundTruthParams | None = None,
) -> GroundTruth:
    """Accept pair (q, i), q > i, when the pose gate and descriptor gate pass.

    Pose gate (only when poses are given): camera positions closer than
    max_distance_m and optical axes within max_angle_deg. Descriptor gate:
    strictly more than min_match_fraction of q's descriptors have a
    brute-force match within tau among image i's descriptors, which is
    image i's vote count from q in the brute-force protocol. Without poses
    (synthetic data) only the descriptor gate applies.
    """
    if params is None:
        params = GroundTruthParams()
    pose_by_id: dict[int, PoseRecord] | None = None
    if poses is not None:
        pose_by_id = {p.image_id: p for p in poses}
        missing = [i for i in range(len(images)) if i not in pose_by_id]
        if missing:
            raise ValueError(f"poses missing for images {missing[:5]}")
    votes = _run(images, BruteForceMatcher([]), RetrievalConfig(tau=params.tau), False).scores
    cos_limit = math.cos(math.radians(params.max_angle_deg))
    pairs: set[tuple[int, int]] = set()
    for q, scores in enumerate(votes):
        for score in scores:
            i = score.image_id
            if pose_by_id is not None:
                pq, pi = pose_by_id[q], pose_by_id[i]
                if np.linalg.norm(pq.position - pi.position) >= params.max_distance_m:
                    continue
                cos_angle = float(np.dot(pq.optical_axis, pi.optical_axis))
                if np.clip(cos_angle, -1.0, 1.0) <= cos_limit:
                    continue
            if score.votes > params.min_match_fraction * len(images[q]):
                pairs.add((q, i))
    return GroundTruth(pairs=pairs, params=params)


# ----------------------------------------------------------------------
# Sequential protocol
# ----------------------------------------------------------------------

@dataclass(slots=True)
class ProtocolResult:
    """Per-image ranked scores plus per-image query+insert wall time."""

    scores: list[list[ImageScore]]
    seconds: list[float]


def run_protocol(
    images: Sequence[Sequence[DescriptorEntry]],
    tree_config: TreeConfig | None = None,
    retrieval_config: RetrievalConfig | None = None,
    dim_bits: int | None = None,
    collect_matches: bool = False,
) -> ProtocolResult:
    """Query-then-insert every image against the incrementally built tree."""
    if dim_bits is None:
        first = next((e for entries in images for e in entries), None)
        if first is None:
            # No descriptor gives a width, and with nothing stored every
            # image scores nothing on any index.
            return _run(images, BruteForceMatcher([]), retrieval_config, collect_matches)
        dim_bits = 8 * int(np.asarray(first.descriptor).shape[0])
    tree = HammingTree(dim_bits, tree_config)
    return _run(images, tree, retrieval_config, collect_matches)


def run_protocol_brute_force(
    images: Sequence[Sequence[DescriptorEntry]],
    retrieval_config: RetrievalConfig | None = None,
    collect_matches: bool = False,
) -> ProtocolResult:
    """The same protocol with exhaustive matching instead of a tree.

    Each query descriptor is compared against every stored descriptor; per
    database image the single closest record (ties to the earliest insertion)
    votes when it is within tau. This is the accuracy ceiling the tree
    approximates, at a per-image cost that grows with the database.
    """
    return _run(images, BruteForceMatcher([]), retrieval_config, collect_matches)


def _run(
    images: Sequence[Sequence[DescriptorEntry]],
    index: HammingTree | BruteForceMatcher,
    retrieval_config: RetrievalConfig | None,
    collect_matches: bool,
) -> ProtocolResult:
    """Per image, ``query_image`` against ``index`` and then ``index.add``;
    each image's seconds cover both."""
    if retrieval_config is None:
        retrieval_config = RetrievalConfig()
    retrieval_config.validate()
    _validate_images(images)
    scores: list[list[ImageScore]] = []
    seconds: list[float] = []
    for entries in images:
        start = time.perf_counter()
        scores.append(
            query_image(index, entries, retrieval_config, collect_matches=collect_matches)
        )
        index.add(entries)
        seconds.append(time.perf_counter() - start)
    return ProtocolResult(scores=scores, seconds=seconds)


# ----------------------------------------------------------------------
# Precision / Recall / F1
# ----------------------------------------------------------------------

@dataclass(slots=True)
class PrPoint:
    """One sweep point: threshold and the resulting precision/recall/F1."""

    threshold: float
    precision: float
    recall: float
    f1: float


@dataclass(slots=True)
class PrCurve:
    """Precision-recall sweep; ``recall_defined`` is False for an empty truth set."""

    points: list[PrPoint]
    recall_defined: bool = True


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def pr_curve(
    scores_per_image: Sequence[Sequence[ImageScore]], gt: GroundTruth
) -> PrCurve:
    """Sweep the score acceptance threshold over all observed scores.

    At threshold t the reported associations are every (query, reference)
    pair whose score is at least t; precision is the correctly reported
    fraction of those, recall the reported fraction of the ground truth.
    With an empty ground truth recall is undefined: the curve is returned
    with recall pinned to 0 and flagged, and max_f1 refuses it.
    """
    observations = []
    for query_id, image_scores in enumerate(scores_per_image):
        for s in image_scores:
            observations.append((s.score, (query_id, s.image_id)))
    if not observations:
        return PrCurve(points=[], recall_defined=bool(gt.pairs))
    observations.sort(key=lambda item: -item[0])
    total_truth = len(gt.pairs)
    points = []
    reported = 0
    correct = 0
    index = 0
    n = len(observations)
    while index < n:
        threshold = observations[index][0]
        while index < n and observations[index][0] == threshold:
            reported += 1
            if observations[index][1] in gt.pairs:
                correct += 1
            index += 1
        precision = correct / reported
        recall = correct / total_truth if total_truth else 0.0
        points.append(
            PrPoint(
                threshold=threshold,
                precision=precision,
                recall=recall,
                f1=_f1(precision, recall),
            )
        )
    return PrCurve(points=points, recall_defined=total_truth > 0)


def max_f1(curve: PrCurve) -> PrPoint:
    """Best F1 point of the sweep; ties prefer higher precision.

    Raises ValueError for an empty curve or one whose recall is undefined.
    """
    if not curve.recall_defined:
        raise ValueError("recall undefined: ground truth is empty")
    if not curve.points:
        raise ValueError("empty curve: no scores were observed")
    return max(curve.points, key=lambda p: (p.f1, p.precision))


# ----------------------------------------------------------------------
# CSV surfaces
# ----------------------------------------------------------------------

def write_ground_truth_csv(path, pairs: Iterable[tuple[int, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query_id,reference_id\n")
        for query_id, reference_id in sorted(pairs):
            fh.write(f"{query_id},{reference_id}\n")


def read_ground_truth_csv(path, params: GroundTruthParams | None = None) -> GroundTruth:
    """The pairs of a ``query_id,reference_id`` CSV; FormatError names a bad line."""
    pairs = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "query_id,reference_id":
            raise FormatError(f"{path}:1: unexpected ground-truth header: {header!r}")
        for line_no, line in enumerate(fh, 2):
            line = line.strip()
            if not line:
                continue
            try:
                query_id, reference_id = (int(token) for token in line.split(","))
            except ValueError:
                raise FormatError(f"{path}:{line_no}: expected two ids, got {line!r}") from None
            pairs.add((query_id, reference_id))
    return GroundTruth(
        pairs=pairs, params=params if params is not None else GroundTruthParams()
    )


def write_pr_csv(path, curve: PrCurve) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,precision,recall,f1\n")
        for p in curve.points:
            fh.write(f"{p.threshold:.6f},{p.precision:.6f},{p.recall:.6f},{p.f1:.6f}\n")


def write_timing_csv(path, seconds: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("image,seconds\n")
        for image, value in enumerate(seconds):
            fh.write(f"{image},{value:.6f}\n")
