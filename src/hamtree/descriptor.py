"""Packed binary descriptors and the bit-level kernels everything else builds on.

A descriptor is a fixed-width bit vector stored as a packed ``np.uint8`` array.
Bit ``k`` lives in byte ``k // 8`` at position ``k % 8``, least-significant bit
first, so ``int.from_bytes(desc.tobytes(), "little") >> k & 1`` reads bit ``k``.
The logical width ``dim_bits`` is a corpus-level constant; the standard widths
are 128, 256 and 512 bits. Narrower toy widths (any ``dim_bits >= 1``) are
accepted in memory for small worked examples, with unused high bits of the
final byte kept at zero; the binary file formats require a multiple of 8.

All distance kernels are numpy-vectorized and count bits with one count,
``np.bitwise_count`` (numpy >= 2.0). Row distances go through
``_row_popcount``, which counts uint64 words wherever it can.

Many-to-many distances (``pairwise_hamming``, the brute-force protocol and
the completeness sweeps' feasible sets) use a word-major kernel. The byte
width is zero-padded to whole uint64 words (padding bits are zero on both
sides, so they never count) and the references are laid out as a
``(words, N)`` matrix, one contiguous row per word. For each word the kernel
XORs a block of queries against that row into a preallocated ``(block, N)``
buffer, popcounts that into a uint8 buffer, and adds it into the int32
distance block. Every blocked loop (this kernel, the per-bit counts, the
completeness sweep, the batched leaf gather) sizes its blocks by one budget,
``_BLOCK_BYTES``, through ``_block_rows``, so no temporary grows with the
number of rows or queries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitStatistics",
    "DescriptorEntry",
    "bit_statistics",
    "descriptor_nbytes",
    "descriptor_to_int",
    "flip_bits",
    "get_bit",
    "hamming",
    "hamming_distances",
    "pack_bits",
    "pairwise_hamming",
    "popcount",
    "random_descriptors",
    "stack_descriptors",
    "unpack_bits",
]

_UINT8 = np.dtype(np.uint8)

# The one block budget (see the module docstring). On a 2-vCPU x86-64
# host, 256-bit descriptors against 2e3 to 1e5 references ran at 5-7 ns per
# pair with 0.5-1 MiB kernel blocks and 11-14 ns with 64 MiB ones, and 1000
# queries gathered one 1000-row leaf in 14 ms at 1 MiB against 21 ms at
# 8 MiB. Freed blocks far larger also raise glibc's mmap threshold, so later
# ones stay in the heap as resident memory.
_BLOCK_BYTES = 1 << 20


def _block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes each that fit one block, at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def descriptor_nbytes(dim_bits: int) -> int:
    """Number of payload bytes for a logical width of ``dim_bits``."""
    if dim_bits < 1:
        raise ValueError(f"dim_bits must be >= 1, got {dim_bits}")
    return (dim_bits + 7) // 8


def pack_bits(bits: Sequence[int] | np.ndarray) -> np.ndarray:
    """Pack a 0/1 sequence (bit 0 first) into a uint8 descriptor."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("bits must be a non-empty 1-d 0/1 sequence")
    return np.packbits(arr, bitorder="little")


def unpack_bits(descriptor: np.ndarray, dim_bits: int | None = None) -> np.ndarray:
    """Unpack a descriptor (or a (N, W) matrix) to 0/1 values, bit 0 first."""
    arr = np.asarray(descriptor, dtype=np.uint8)
    bits = np.unpackbits(arr, axis=-1, bitorder="little")
    if dim_bits is not None:
        bits = bits[..., :dim_bits]
    return bits


def _bit_counts(packed: np.ndarray, dim_bits: int) -> np.ndarray:
    """Per-bit set counts over the rows of a packed (n, W) matrix.

    Rows are unpacked in blocks of ``_block_rows`` rows, so no
    (n, dim_bits) temporary is made. The int32 sums run about twice as fast
    as int64 ones, and a count never exceeds the number of rows.
    """
    counts = np.zeros(dim_bits, dtype=np.int32)
    rows = _block_rows(dim_bits)
    for lo in range(0, packed.shape[0], rows):
        block = unpack_bits(packed[lo : lo + rows], dim_bits)
        counts += block.sum(axis=0, dtype=np.int32)
    return counts


def popcount(arr: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint8 or uint64 array, as uint8."""
    return np.bitwise_count(np.asarray(arr))


@functools.lru_cache(maxsize=None)
def _ones(n: int) -> np.ndarray:
    """A read-only int32 vector of ``n`` ones, the right operand of a row sum."""
    ones = np.ones(n, dtype=np.int32)
    ones.flags.writeable = False
    return ones


def _row_popcount(rows: np.ndarray, query=None) -> np.ndarray:
    """Int32 set-bit count along the last (byte) axis of ``rows ^ query``.

    ``query`` is optional: one row, or rows matching ``rows``. The XOR runs
    on bytes: XORing uint64 views instead was 0.5-1 us slower per call on
    1 to 100 rows, for the two views it takes. A contiguous uint8 result
    whose width is a multiple of 8 bytes is counted as uint64 words, W / 8
    counts per row instead of W; anything else by element, both with the
    one count, ``np.bitwise_count``. The counts are summed by one matmul
    against a ones vector: on a 2-vCPU x86-64 host (numpy 2.4.6, four uint64
    words per row) that took 6.7 us, 145 us and 0.51 ms for 100, 1e4 and
    5e4 rows, against 7.8 us, 282 us and 1.25 ms for ``.sum(axis=-1)``. The result is int32 like the
    ones vector, so a distance never wraps as a uint8 sum would at 256.
    """
    if query is not None:
        rows = np.bitwise_xor(rows, query)
    if rows.shape[-1] & 7 == 0 and rows.dtype is _UINT8 and rows.flags.c_contiguous:
        rows = rows.view(np.uint64)
    counts = np.bitwise_count(rows)
    return counts @ _ones(counts.shape[-1])


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Hamming distance between two packed descriptors of equal width.

    Symmetric, zero iff the descriptors are identical, and bounded by the
    logical bit width. Raises ValueError on a byte-width mismatch.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"descriptor width mismatch: {a.shape} vs {b.shape}")
    return int(_row_popcount(a, b))


def hamming_distances(query: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Distances from one packed descriptor to every row of a (N, W) matrix."""
    query = np.asarray(query, dtype=np.uint8)
    refs = np.asarray(refs, dtype=np.uint8)
    if refs.ndim != 2 or refs.shape[1] != query.shape[0]:
        raise ValueError(
            f"reference matrix shape {refs.shape} incompatible with query width {query.shape}"
        )
    return _row_popcount(refs, query)


def _to_words(matrix: np.ndarray) -> np.ndarray:
    """(N, W) packed bytes as (N, ceil(W / 8)) uint64 words, zero-padded."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    n, w = matrix.shape
    words = -(-w // 8)
    if w == 8 * words and matrix.flags.c_contiguous:
        return matrix.view(np.uint64)
    padded = np.zeros((n, 8 * words), dtype=np.uint8)
    padded[:, :w] = matrix
    return padded.view(np.uint64)


def _word_columns(matrix: np.ndarray) -> np.ndarray:
    """(N, W) packed bytes as the word-major (words, N) uint64 reference layout."""
    return np.ascontiguousarray(_to_words(matrix).T)


def _distance_blocks(query_words: np.ndarray, columns: np.ndarray):
    """Yield ``(start, dist)`` over consecutive blocks of queries.

    ``query_words`` is ``(n_q, words)`` from ``_to_words`` and ``columns`` the
    ``(words, N)`` references from ``_word_columns`` (any view whose rows are
    contiguous). ``dist[i, j]`` is the int32 distance from query
    ``start + i`` to reference ``j``; one buffer is reused, so a block is
    valid only until the next is produced. The buffers stay under the block
    budget, or hold one query row where a row alone is larger.
    """
    n_q, n_words = query_words.shape
    if columns.shape[0] != n_words:
        raise ValueError(f"width mismatch: {n_words} vs {columns.shape[0]} words")
    n_r = columns.shape[1]
    # Per pair, a block holds one XOR word, its count and an int32 distance.
    per_row = max(1, n_r * (8 + 1 + 4))
    rows = max(1, min(n_q, _block_rows(per_row)))
    xor = np.empty((rows, n_r), dtype=np.uint64)
    count = np.empty((rows, n_r), dtype=np.uint8)
    block = np.zeros((rows, n_r), dtype=np.int32)
    for start in range(0, n_q, rows):
        b = min(rows, n_q - start)
        for k in range(n_words):
            np.bitwise_xor(query_words[start : start + b, k, None], columns[k], out=xor[:b])
            np.bitwise_count(xor[:b], out=count[:b])
            if k == 0:
                np.copyto(block[:b], count[:b])
            else:
                np.add(block[:b], count[:b], out=block[:b])
        yield start, block[:b]


def pairwise_hamming(queries: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Full (N_q, N_r) Hamming distance matrix between two packed matrices.

    Computed by the word-major kernel (see the module docstring) in query
    blocks whose temporaries stay under the block budget.
    """
    queries = np.asarray(queries, dtype=np.uint8)
    refs = np.asarray(refs, dtype=np.uint8)
    if queries.shape[1] != refs.shape[1]:
        raise ValueError(f"width mismatch: {queries.shape[1]} vs {refs.shape[1]} bytes")
    out = np.empty((queries.shape[0], refs.shape[0]), dtype=np.int32)
    for start, dist in _distance_blocks(_to_words(queries), _word_columns(refs)):
        out[start : start + dist.shape[0]] = dist
    return out


@dataclass(eq=False, slots=True)
class DescriptorEntry:
    """A descriptor plus its provenance: which image and keypoint produced it.

    ``(image_id, keypoint_id)`` is unique within a corpus; ``keypoint_xy`` may
    be ``(0.0, 0.0)`` for synthetic data.
    """

    descriptor: np.ndarray
    image_id: int
    keypoint_id: int
    keypoint_xy: tuple[float, float] = (0.0, 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DescriptorEntry):
            return NotImplemented
        return (
            self.image_id == other.image_id
            and self.keypoint_id == other.keypoint_id
            and self.keypoint_xy == other.keypoint_xy
            and np.array_equal(self.descriptor, other.descriptor)
        )


def stack_descriptors(entries: Sequence[DescriptorEntry]) -> np.ndarray:
    """Stack the descriptors of a non-empty entry sequence into a (N, W) matrix."""
    if not entries:
        raise ValueError("cannot stack an empty entry sequence")
    # np.array copies equal-shaped rows about 3x faster than np.stack and
    # raises ValueError on ragged ones just the same.
    return np.array([e.descriptor for e in entries]).astype(np.uint8, copy=False)


def _stack_checked(entries: Sequence[DescriptorEntry], nbytes: int) -> np.ndarray:
    """The entries' descriptors as one (len, nbytes) uint8 matrix.

    Raises ValueError naming the first entry of another width or shape.
    """
    if not entries:
        return np.empty((0, nbytes), dtype=np.uint8)
    try:
        matrix = stack_descriptors(entries)
    except ValueError:
        matrix = None
    if matrix is None or matrix.shape[1:] != (nbytes,):
        for e in entries:
            shape = np.shape(e.descriptor)
            if shape != (nbytes,):
                size = f"{shape[0]} bytes" if len(shape) == 1 else f"shape {shape}"
                raise ValueError(
                    f"descriptor of entry ({e.image_id}, {e.keypoint_id}) has "
                    f"{size}, expected {nbytes} bytes"
                )
        raise ValueError(f"descriptors do not stack to an (n, {nbytes}) matrix")
    return matrix


@dataclass(slots=True)
class BitStatistics:
    """Per-bit population counts over a descriptor set.

    ``counts[k]`` is the number of descriptors with bit ``k`` set;
    ``total`` is the number of descriptors summed. ``0 <= counts[k] <= total``.
    """

    counts: np.ndarray
    total: int

    def means(self) -> np.ndarray:
        """Per-bit mean value, in [0, 1]."""
        return self.counts / float(self.total)


def bit_statistics(
    descriptors: Sequence[np.ndarray] | np.ndarray, dim_bits: int | None = None
) -> BitStatistics:
    """Count set bits per position over a descriptor sequence or (N, W) matrix.

    Permutation-invariant in its input. Raises ValueError on an empty input or
    a width mismatch.
    """
    if isinstance(descriptors, np.ndarray) and descriptors.ndim == 2:
        matrix = descriptors.astype(np.uint8, copy=False)
    else:
        seq = list(descriptors)
        if not seq:
            raise ValueError("bit_statistics requires at least one descriptor")
        widths = {np.asarray(d).shape for d in seq}
        if len(widths) != 1:
            raise ValueError(f"mixed descriptor widths: {sorted(widths)}")
        matrix = np.stack(seq).astype(np.uint8, copy=False)
    if matrix.shape[0] == 0:
        raise ValueError("bit_statistics requires at least one descriptor")
    if dim_bits is None:
        dim_bits = 8 * matrix.shape[1]
    if not 1 <= dim_bits <= 8 * matrix.shape[1]:
        raise ValueError(f"dim_bits {dim_bits} does not fit {matrix.shape[1]}-byte descriptors")
    return BitStatistics(counts=_bit_counts(matrix, dim_bits), total=matrix.shape[0])


def random_descriptors(
    count: int, dim_bits: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random packed descriptors, shape (count, nbytes).

    Unused high bits of the final byte (non-multiple-of-8 widths) are zeroed.
    """
    nbytes = descriptor_nbytes(dim_bits)
    matrix = rng.integers(0, 256, size=(count, nbytes), dtype=np.uint8)
    tail = dim_bits % 8
    if tail:
        matrix[:, -1] &= (1 << tail) - 1
    return matrix


def flip_bits(
    descriptor: np.ndarray, positions: Iterable[int]
) -> np.ndarray:
    """Copy of ``descriptor`` with the given bit positions inverted."""
    out = np.array(descriptor, dtype=np.uint8, copy=True)
    for k in positions:
        out[k >> 3] ^= np.uint8(1 << (k & 7))
    return out


def get_bit(descriptor: np.ndarray, k: int) -> int:
    """Value of bit ``k`` of a packed descriptor."""
    return (int(descriptor[k >> 3]) >> (k & 7)) & 1


def descriptor_to_int(descriptor: np.ndarray) -> int:
    """Whole descriptor as a Python int; bit ``k`` of the int is bit ``k``."""
    return int.from_bytes(np.asarray(descriptor, dtype=np.uint8).tobytes(), "little")
