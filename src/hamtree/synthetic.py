"""Seeded synthetic descriptor sequences with planted loop closures.

Real place-recognition datasets are thousands of images with pre-extracted
descriptors; at desk scale we substitute a generator that plants known
overlapping image pairs, so a run's ground truth is exact by construction.
Each planted pair (query, reference, overlap) makes the query image reuse
the leading ``overlap * N_d`` descriptors of the reference image, each
perturbed by up to ``noise_bits`` random bit flips; everything else is
uniform random. The same seed always produces byte-identical corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .descriptor import DescriptorEntry, flip_bits, random_descriptors

__all__ = ["SyntheticSpec", "generate_sequence"]


@dataclass(slots=True)
class SyntheticSpec:
    """Parameters of one synthetic sequence."""

    num_images: int
    descriptors_per_image: int = 1000
    dim_bits: int = 256
    loop_pairs: list[tuple[int, int, float]] = field(default_factory=list)
    noise_bits: int = 0
    seed: int = 0

    def validate(self) -> None:
        if self.num_images < 1:
            raise ValueError(f"num_images must be >= 1, got {self.num_images}")
        if self.descriptors_per_image < 1:
            raise ValueError(
                f"descriptors_per_image must be >= 1, got {self.descriptors_per_image}"
            )
        if self.dim_bits < 8:
            raise ValueError(f"dim_bits must be >= 8, got {self.dim_bits}")
        if not 0 <= self.noise_bits <= self.dim_bits:
            raise ValueError(
                f"noise_bits must be in [0, {self.dim_bits}], got {self.noise_bits}"
            )
        seen_queries = set()
        for query, ref, fraction in self.loop_pairs:
            if not 0 <= ref < query < self.num_images:
                raise ValueError(
                    f"loop pair ({query}, {ref}) must satisfy 0 <= ref < query < num_images"
                )
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"overlap fraction must be in [0, 1], got {fraction}")
            if query in seen_queries:
                raise ValueError(f"image {query} appears in more than one loop pair")
            seen_queries.add(query)


def _noisy_copies(
    descriptors: Sequence[np.ndarray], dim_bits: int, max_flips: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """A copy of each descriptor with f in [0, max_flips] distinct bits flipped.

    All flip counts are drawn first, then the positions of each non-zero
    count in order, so one seed always gives the same copies. ValueError
    unless 0 <= max_flips <= dim_bits.
    """
    if not 0 <= max_flips <= dim_bits:
        raise ValueError(f"max_flips must be in [0, {dim_bits}], got {max_flips}")
    flip_counts = rng.integers(0, max_flips + 1, size=len(descriptors))
    return [
        flip_bits(d, rng.choice(dim_bits, size=f, replace=False) if f else ())
        for d, f in zip(descriptors, flip_counts.tolist())
    ]


def generate_sequence(
    spec: SyntheticSpec,
) -> tuple[list[list[DescriptorEntry]], set[tuple[int, int]]]:
    """Generate per-image entry lists plus the planted ground-truth pairs.

    Returns (images, truth) where images[i] holds image i's entries in
    keypoint order and truth contains the planted (query_id, reference_id)
    pairs.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n_d = spec.descriptors_per_image
    loops = {query: (ref, fraction) for query, ref, fraction in spec.loop_pairs}

    matrices: list[np.ndarray] = []
    for image in range(spec.num_images):
        matrix = random_descriptors(n_d, spec.dim_bits, rng)
        if image in loops:
            ref, fraction = loops[image]
            shared = int(round(fraction * n_d))
            if shared:
                matrix[:shared] = matrices[ref][:shared]
                if spec.noise_bits:
                    matrix[:shared] = _noisy_copies(
                        matrix[:shared], spec.dim_bits, spec.noise_bits, rng
                    )
        matrices.append(matrix)

    images = [
        [DescriptorEntry(matrices[image][kp], image, kp) for kp in range(n_d)]
        for image in range(spec.num_images)
    ]
    truth = {(query, ref) for query, ref, fraction in spec.loop_pairs}
    return images, truth
