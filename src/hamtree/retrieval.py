"""Vote-based image retrieval on top of the descriptor tree.

Every stored descriptor carries the id of the image it came from, so a
multi-image database is just one tree. A query image is matched descriptor
by descriptor; each query keypoint gives at most one vote per database image
(the closest record of that image in the reached leaf), and an image's score
is its vote count normalized by the number of query descriptors. More shared
appearance means more votes, so ranking is by descending score.

Queries are read-only on the tree and safe to run concurrently between
insertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .descriptor import DescriptorEntry, stack_descriptors
from .oracle import BruteForceMatcher
from .tree import HammingTree, LeafHits, MatchRecord

__all__ = ["ImageScore", "RetrievalConfig", "query_image", "retrieve_best", "retrieve_above"]


@dataclass(slots=True)
class ImageScore:
    """Vote tally for one database image against one query image.

    ``score`` is votes divided by the query descriptor count, in [0, 1].
    ``matches`` holds the voting records (one per query keypoint) when the
    caller asked for them; large protocol runs skip collecting matches.
    """

    image_id: int
    votes: int
    score: float
    matches: list[MatchRecord] = field(default_factory=list)


@dataclass(slots=True)
class RetrievalConfig:
    """Descriptor-level match threshold; ``retrieve_above`` takes the
    image-level acceptance score."""

    tau: int = 25

    def validate(self) -> None:
        if self.tau < 0:
            raise ValueError(f"tau must be non-negative, got {self.tau}")


def _closest_hits(hits: LeafHits, key: np.ndarray) -> np.ndarray:
    """Index of each distinct ``key``'s closest hit, in ascending key order;
    among equally close hits the smallest ``position`` (the earliest leaf row
    or matcher segment) wins, so the earliest insertion does."""
    order = np.lexsort((hits.position, hits.distance, key))
    first = np.ones(order.size, dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    return order[first]


def query_image(
    tree: HammingTree | BruteForceMatcher,
    query_entries: Sequence[DescriptorEntry],
    config: RetrievalConfig | None = None,
    collect_matches: bool = True,
) -> list[ImageScore]:
    """Score every database image against one query image's descriptors.

    For each query entry the reached leaf is scanned for all records within
    tau; among records of the same stored image only the closest one becomes
    that image's vote from this keypoint, the earliest-inserted among equally
    close ones. Results are sorted by descending score, ties broken by
    smaller image_id. The query entries must all belong to one image, and the
    tree is expected not to contain that image.

    ``tree`` is a ``HammingTree`` or a ``BruteForceMatcher``, the exhaustive
    index behind ``run_protocol_brute_force``. Either answers all queries in
    one ``search_all_batch`` call; the votes are counted over its hit arrays.
    Only to collect matches, ``_closest_hits`` keyed by (query, image) picks
    each vote's hit and ``hit_references`` looks up its entry.
    """
    if config is None:
        config = RetrievalConfig()
    config.validate()
    query_entries = list(query_entries)
    if not query_entries:
        return []
    if len({e.image_id for e in query_entries}) != 1:
        raise ValueError("query entries span several images")
    queries = stack_descriptors(query_entries)
    hits = tree.search_all_batch(queries, config.tau)
    images, image_code = np.unique(hits.image_id, return_inverse=True)
    # A vote is a distinct (query, image) pair among the hits.
    pair = hits.query * len(images) + image_code
    voted = _closest_hits(hits, pair) if collect_matches else np.unique(pair, return_index=True)[1]
    votes = np.bincount(image_code[voted], minlength=len(images))
    matches: list[list[MatchRecord]] = [[] for _ in range(len(images))]
    if collect_matches:
        # ``voted`` runs in query order, so each image's list does too.
        for q, reference, d, k in zip(
            hits.query[voted].tolist(), tree.hit_references(hits, voted, queries),
            hits.distance[voted].tolist(), image_code[voted].tolist(),
        ):
            matches[k].append(MatchRecord(query=query_entries[q], reference=reference, distance=d))
    n_query = len(query_entries)
    scores = [
        ImageScore(image_id=image, votes=count, score=count / n_query, matches=found)
        for image, count, found in zip(images.tolist(), votes.tolist(), matches)
    ]
    scores.sort(key=lambda s: (-s.score, s.image_id))
    return scores


def retrieve_best(scores: Sequence[ImageScore]) -> ImageScore | None:
    """Highest-scoring image, or None for an empty database / no votes."""
    if not scores:
        return None
    return min(scores, key=lambda s: (-s.score, s.image_id))


def retrieve_above(
    scores: Sequence[ImageScore], tau_image: float
) -> list[ImageScore]:
    """All images whose score reaches the acceptance threshold."""
    kept = [s for s in scores if s.score >= tau_image]
    kept.sort(key=lambda s: (-s.score, s.image_id))
    return kept
