"""Seeded inputs for the benchmark workloads.

Everything here is built from the seed with numpy alone; nothing calls
``hamtree.synthetic`` or ``hamtree.oracle.make_noisy_duplicate_corpus``, so a
change to the library cannot change what the benchmark feeds it. Descriptors
are packed little-endian bit vectors, as in ``hamtree.descriptor``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from hamtree import DescriptorEntry

DIM_BITS = 256
NBYTES = DIM_BITS // 8

# Stream shape: the share of each image's descriptors drawn near a shared
# centre and how many bits they lie from it; the share of a revisited image's
# own descriptors a loop closure reuses and how many bits each is moved.
POOL_SHARE = 0.5
POOL_FLIPS = 4
LOOP_OVERLAP = 0.05
LOOP_FLIPS = 8
# Planted neighbours (lookup hits, completeness queries) lie 0..MAX_FLIPS bits away.
MAX_FLIPS = 15
# Rows per image id in the lookup and completeness corpora.
IMAGE_ROWS = 1000


def uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform random packed descriptors, shape (count, NBYTES)."""
    return rng.integers(0, 256, size=(count, NBYTES), dtype=np.uint8)


def flip_upto(rng: np.random.Generator, rows: np.ndarray, max_flips: int) -> np.ndarray:
    """Copy of ``rows`` with at most ``max_flips`` random bits flipped per row.

    Each row draws a count uniform on [0, max_flips] and that many positions;
    a position drawn twice flips once, so the distance is at most the count.
    """
    n = rows.shape[0]
    out = rows.copy()
    if n == 0 or max_flips == 0:
        return out
    counts = rng.integers(0, max_flips + 1, size=n)
    positions = rng.integers(0, DIM_BITS, size=(n, max_flips))
    mask = np.zeros((n, DIM_BITS), dtype=np.uint8)
    keep = np.arange(max_flips)[None, :] < counts[:, None]
    mask[np.nonzero(keep)[0], positions[keep]] = 1
    return out ^ np.packbits(mask, axis=1, bitorder="little")


def to_entries(matrix: np.ndarray, image_id: int) -> list[DescriptorEntry]:
    """One entry per row, keypoint ids in row order."""
    return [DescriptorEntry(matrix[i].copy(), image_id, i) for i in range(matrix.shape[0])]


@dataclass(frozen=True)
class StreamSpec:
    """Shape of a place-recognition stream with planted loop closures.

    A ``POOL_SHARE`` of each image's descriptors lies within ``POOL_FLIPS``
    bits of one of ``pool_size`` shared centres (repeated texture, which
    votes for unrelated images and piles up in a few leaves). The rest are
    uniform. ``loops`` later images each revisit one earlier image at least
    ``min_gap`` images back by reusing ``LOOP_OVERLAP`` of its uniform
    descriptors, each within ``LOOP_FLIPS`` bits of the original.
    """

    images: int
    per_image: int
    pool_size: int
    loops: int
    min_gap: int


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Independent generator per (seed, input kind)."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


def stream(seed: int, spec: StreamSpec) -> tuple[list[list[DescriptorEntry]], set[tuple[int, int]]]:
    """Per-image entry lists and the planted (query, reference) pairs."""
    rng = rng_for(seed, "stream")
    centres = uniform(rng, spec.pool_size)
    n_pool = int(round(POOL_SHARE * spec.per_image))
    n_shared = int(round(LOOP_OVERLAP * spec.per_image))
    candidates = np.arange(spec.min_gap, spec.images)
    queries = np.sort(rng.choice(candidates, size=spec.loops, replace=False))
    loops = {int(q): int(rng.integers(0, q - spec.min_gap + 1)) for q in queries}
    matrices: list[np.ndarray] = []
    for image in range(spec.images):
        pool_rows = flip_upto(
            rng, centres[rng.integers(0, spec.pool_size, size=n_pool)], POOL_FLIPS
        )
        own = uniform(rng, spec.per_image - n_pool)
        if image in loops:
            ref_own = matrices[loops[image]][n_pool:]
            picked = rng.choice(ref_own.shape[0], size=n_shared, replace=False)
            own[:n_shared] = flip_upto(rng, ref_own[picked], LOOP_FLIPS)
        matrices.append(np.vstack([pool_rows, own]))
    images = [to_entries(m, i) for i, m in enumerate(matrices)]
    return images, set(loops.items())


def as_images(matrix: np.ndarray, first_image: int) -> list[DescriptorEntry]:
    """Entries for the rows of ``matrix``, ``IMAGE_ROWS`` rows per image id."""
    return [
        DescriptorEntry(matrix[i].copy(), first_image + i // IMAGE_ROWS, i % IMAGE_ROWS)
        for i in range(matrix.shape[0])
    ]


def lookup(seed: int, stored: int, queries: int):
    """A static map and its query mix: (map entries, query entries).

    Half the queries copy a random stored descriptor with 0..MAX_FLIPS bits
    flipped; the other half are fresh uniform descriptors, which miss.
    """
    rng = rng_for(seed, "lookup")
    matrix = uniform(rng, stored)
    n_hit = queries // 2
    rows = rng.integers(0, stored, size=n_hit)
    qmat = np.vstack([flip_upto(rng, matrix[rows], MAX_FLIPS), uniform(rng, queries - n_hit)])
    qmat = qmat[rng.permutation(queries)]
    refs = as_images(matrix, 0)
    return refs, as_images(qmat, refs[-1].image_id + 1)


def completeness_corpus(seed: int, refs: int):
    """Uniform references, each with one query at 0..MAX_FLIPS bits away.

    Returns (queries, refs); query i is the planted neighbour of ref i.
    """
    rng = rng_for(seed, "completeness")
    matrix = uniform(rng, refs)
    ref_entries = as_images(matrix, 0)
    return as_images(flip_upto(rng, matrix, MAX_FLIPS), ref_entries[-1].image_id + 1), ref_entries
