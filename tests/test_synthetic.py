"""Planted-loop sequence generator."""

from __future__ import annotations

import numpy as np
import pytest

from hamtree import SyntheticSpec, generate_sequence, hamming, random_descriptors
from hamtree.descriptor import flip_bits


def test_full_overlap_no_noise_duplicates_the_reference_image():
    spec = SyntheticSpec(
        num_images=2, descriptors_per_image=25, dim_bits=256,
        loop_pairs=[(1, 0, 1.0)], noise_bits=0, seed=3,
    )
    images, truth = generate_sequence(spec)
    assert truth == {(1, 0)}
    for a, b in zip(images[0], images[1]):
        assert np.array_equal(a.descriptor, b.descriptor)
        assert (a.image_id, b.image_id) == (0, 1)


def test_same_seed_is_deterministic():
    spec = SyntheticSpec(
        num_images=5, descriptors_per_image=20, dim_bits=128,
        loop_pairs=[(4, 2, 0.5)], noise_bits=6, seed=77,
    )
    images_a, truth_a = generate_sequence(spec)
    images_b, truth_b = generate_sequence(spec)
    assert truth_a == truth_b
    for image_a, image_b in zip(images_a, images_b):
        assert image_a == image_b


def test_overlap_block_is_noisy_copy_and_rest_is_fresh():
    spec = SyntheticSpec(
        num_images=3, descriptors_per_image=40, dim_bits=256,
        loop_pairs=[(2, 0, 0.5)], noise_bits=10, seed=5,
    )
    images, _ = generate_sequence(spec)
    shared = 20
    for kp in range(shared):
        d = hamming(images[2][kp].descriptor, images[0][kp].descriptor)
        assert d <= 10
    # the novel half is unrelated: far away in Hamming space
    for kp in range(shared, 40):
        d = hamming(images[2][kp].descriptor, images[0][kp].descriptor)
        assert d > 60


def test_entry_provenance_is_contiguous():
    spec = SyntheticSpec(num_images=3, descriptors_per_image=10, dim_bits=128, seed=1)
    images, truth = generate_sequence(spec)
    assert truth == set()
    for image_id, entries in enumerate(images):
        assert [e.image_id for e in entries] == [image_id] * 10
        assert [e.keypoint_id for e in entries] == list(range(10))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_images=0),
        dict(num_images=2, descriptors_per_image=0),
        dict(num_images=2, noise_bits=-1),
        dict(num_images=2, loop_pairs=[(0, 1, 0.5)]),   # query before reference
        dict(num_images=2, loop_pairs=[(1, 1, 0.5)]),   # self loop
        dict(num_images=2, loop_pairs=[(1, 0, 1.5)]),   # bad fraction
        dict(num_images=3, loop_pairs=[(2, 0, 0.5), (2, 1, 0.5)]),  # duplicate query
    ],
)
def test_invalid_specs_are_rejected(kwargs):
    spec = SyntheticSpec(**{"descriptors_per_image": 5, "dim_bits": 128, **kwargs})
    with pytest.raises(ValueError):
        spec.validate()


def reference_generate_sequence(spec):
    """The descriptor matrices ``generate_sequence`` drew before its noise
    loop was shared with the oracle's noisy queries, kept as the reference."""
    rng = np.random.default_rng(spec.seed)
    n_d = spec.descriptors_per_image
    loops = {query: (ref, fraction) for query, ref, fraction in spec.loop_pairs}
    matrices = []
    for image in range(spec.num_images):
        matrix = random_descriptors(n_d, spec.dim_bits, rng)
        if image in loops:
            ref, fraction = loops[image]
            shared = int(round(fraction * n_d))
            if shared:
                matrix[:shared] = matrices[ref][:shared]
                if spec.noise_bits:
                    flip_counts = rng.integers(0, spec.noise_bits + 1, size=shared)
                    for row in range(shared):
                        f = int(flip_counts[row])
                        if f:
                            positions = rng.choice(spec.dim_bits, size=f, replace=False)
                            matrix[row] = flip_bits(matrix[row], positions)
        matrices.append(matrix)
    return matrices


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("noise_bits", [0, 3, 12])
def test_noisy_copies_equal_the_reference_loop(seed, noise_bits):
    spec = SyntheticSpec(
        num_images=6, descriptors_per_image=40, dim_bits=136,
        loop_pairs=[(2, 0, 0.5), (4, 2, 1.0), (5, 1, 0.01)], noise_bits=noise_bits, seed=seed,
    )
    images, _ = generate_sequence(spec)
    for entries, want in zip(images, reference_generate_sequence(spec), strict=True):
        assert np.array([e.descriptor for e in entries]).tobytes() == want.tobytes()
