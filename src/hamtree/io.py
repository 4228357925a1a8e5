"""Binary file formats: descriptor corpora and serialized trees.

Both formats are little-endian throughout and identified by a magic prefix.

Descriptor file ("HBSTD001"): header of magic (8 bytes), u32 dim_bits
(multiple of 8), u64 record_count; then record_count records of
{u32 image_id, u32 keypoint_id, f32 x, f32 y, payload of dim_bits/8 bytes}.

Tree stream ("HBT1"): magic (4 bytes), u8 version = 1, u32 dim_bits; then the
node structure in preorder, one tag byte per node (0 = leaf, 1 = internal).
An internal node is followed by its u16 bit index, then its left and right
subtrees; a leaf by a u32 entry count and that many records in the
descriptor-file record layout. Deserializing a serialized tree reproduces it
node for node, including entry order within leaves; a stream whose tree fails
``HammingTree.check_invariants`` (a split bit outside the width or repeated
on a path, or a leaf row that disagrees with its path) is rejected. The
parser checks each node against its path as it reads it, so no second walk
is made.

Both formats share one record codec that converts between a record array and
an entry list column by column, so no per-record Python loop remains. A
loaded tree's leaves make no entries while parsing: each keeps its records'
id and coordinate fields as a small record array beside its descriptor rows
and image-id column, and makes a row's entry the first time it is read.
``serialize_tree`` writes such a leaf, while no entry of it has been made,
from those columns.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from .descriptor import DescriptorEntry, _stack_checked
from .tree import HammingTree, InternalNode, LeafNode, TreeConfig, TreeNode

__all__ = [
    "FormatError",
    "DESCRIPTOR_MAGIC",
    "TREE_MAGIC",
    "write_descriptor_file",
    "read_descriptor_file",
    "serialize_tree",
    "deserialize_tree",
    "save_tree",
    "load_tree",
]

DESCRIPTOR_MAGIC = b"HBSTD001"
TREE_MAGIC = b"HBT1"
TREE_VERSION = 1
_U32_END = 1 << 32

# The tree stream's fixed-size fields, compiled once for the parser.
_TREE_MAGIC = struct.Struct(f"{len(TREE_MAGIC)}s")
_TREE_HEADER = struct.Struct("<BI")
_TAG = struct.Struct("<B")
_BIT_INDEX = struct.Struct("<H")
_LEAF_COUNT = struct.Struct("<I")


class FormatError(ValueError):
    """A byte stream does not conform to its declared format."""


# A record's fields before its payload, which a loaded leaf keeps per row.
_RECORD_HEAD = np.dtype(
    [("image_id", "<u4"), ("keypoint_id", "<u4"), ("x", "<f4"), ("y", "<f4")]
)


def _record_dtype(nbytes: int) -> np.dtype:
    return np.dtype(_RECORD_HEAD.descr + [("payload", "u1", (nbytes,))])


def _check_ids(entry: DescriptorEntry) -> None:
    """Both id fields are stored as u32; anything else is a ValueError."""
    if 0 <= entry.image_id < _U32_END and 0 <= entry.keypoint_id < _U32_END:
        return
    for name in ("image_id", "keypoint_id"):
        value = getattr(entry, name)
        if not 0 <= value < _U32_END:
            raise ValueError(
                f"{name} {value} of entry ({entry.image_id}, {entry.keypoint_id}) "
                f"is outside the u32 range [0, 2**32)"
            )


def _check_file_width(dim_bits: int) -> int:
    if dim_bits < 8 or dim_bits % 8 != 0:
        raise ValueError(
            f"file formats require dim_bits to be a positive multiple of 8, got {dim_bits}"
        )
    return dim_bits // 8


# ----------------------------------------------------------------------
# Record codec, shared by both formats
# ----------------------------------------------------------------------

def _encode_records(entries: Sequence[DescriptorEntry], payload: np.ndarray) -> np.ndarray:
    """The entries as one record array, filled column by column.

    ``payload`` holds the entries' descriptors as (len, nbytes) rows. Ids
    must fit u32 and coordinates float32; otherwise a ValueError names the
    first entry and field that does not.
    """
    n, nbytes = payload.shape
    try:
        image_ids = np.array([e.image_id for e in entries], dtype=np.int64)
        keypoint_ids = np.array([e.keypoint_id for e in entries], dtype=np.int64)
        in_range = n == 0 or (
            min(image_ids.min(), keypoint_ids.min()) >= 0
            and max(image_ids.max(), keypoint_ids.max()) < _U32_END
        )
    except OverflowError:
        in_range = False
    if not in_range:
        for entry in entries:
            _check_ids(entry)
    xy = np.array(
        [[e.keypoint_xy[0] for e in entries], [e.keypoint_xy[1] for e in entries]],
        dtype=np.float64,
    )
    with np.errstate(over="ignore"):
        xy32 = xy.astype(np.float32)
    # A finite coordinate that rounds to an infinite float32 overflows.
    if np.count_nonzero(np.isinf(xy32)) > np.count_nonzero(np.isinf(xy)):
        e = entries[int(np.argmax((np.isinf(xy32) & ~np.isinf(xy)).any(axis=0)))]
        raise ValueError(
            f"keypoint_xy {e.keypoint_xy} of entry ({e.image_id}, {e.keypoint_id}) "
            f"is outside the float32 range"
        )
    records = np.empty(n, dtype=_record_dtype(nbytes))
    records["image_id"] = image_ids
    records["keypoint_id"] = keypoint_ids
    records["x"], records["y"] = xy32
    records["payload"] = payload
    return records


def _decode_records(records: np.ndarray) -> list[DescriptorEntry]:
    """Entries of a record array, in order.

    Ids are Python ints and coordinates Python floats; the descriptors are
    writable rows of one fresh copy of the payload column.
    """
    return list(
        map(
            DescriptorEntry,
            np.array(records["payload"]),
            records["image_id"].tolist(),
            records["keypoint_id"].tolist(),
            zip(records["x"].tolist(), records["y"].tolist()),
        )
    )


# ----------------------------------------------------------------------
# Descriptor files
# ----------------------------------------------------------------------

def write_descriptor_file(
    path, entries: Sequence[DescriptorEntry], dim_bits: int
) -> None:
    """Write a descriptor corpus; entry order is preserved."""
    nbytes = _check_file_width(dim_bits)
    records = _encode_records(entries, _stack_checked(entries, nbytes))
    with open(path, "wb") as fh:
        fh.write(DESCRIPTOR_MAGIC)
        fh.write(struct.pack("<IQ", dim_bits, len(entries)))
        fh.write(records.tobytes())


def read_descriptor_file(path) -> tuple[list[DescriptorEntry], int]:
    """Read a descriptor corpus; returns (entries, dim_bits)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(DESCRIPTOR_MAGIC) + 12:
        raise FormatError(f"{path}: truncated header")
    if data[: len(DESCRIPTOR_MAGIC)] != DESCRIPTOR_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:8]!r}")
    dim_bits, count = struct.unpack_from("<IQ", data, len(DESCRIPTOR_MAGIC))
    if dim_bits < 8 or dim_bits % 8 != 0:
        raise FormatError(f"{path}: invalid dim_bits {dim_bits}")
    dtype = _record_dtype(dim_bits // 8)
    offset = len(DESCRIPTOR_MAGIC) + 12
    expected = offset + count * dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"{path}: {len(data)} bytes, expected {expected} for {count} records"
        )
    records = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return _decode_records(records), int(dim_bits)


# ----------------------------------------------------------------------
# Tree streams
# ----------------------------------------------------------------------

def serialize_tree(tree: HammingTree) -> bytes:
    """Serialize a tree to its preorder byte stream."""
    nbytes = _check_file_width(tree.dim_bits)
    out = bytearray(TREE_MAGIC)
    out += struct.pack("<BI", TREE_VERSION, tree.dim_bits)
    for node, _ in tree._walk():
        if isinstance(node, LeafNode):
            packed = node.packed()
            if packed.shape[1] != nbytes:
                raise ValueError("leaf entry width does not match tree dim_bits")
            out += struct.pack("<BI", 0, len(node))
            if not len(node):
                continue
            head = node._record_rows()
            if head is None:
                out += _encode_records(node.entries, packed).tobytes()
            else:
                rows = np.empty((len(node), _RECORD_HEAD.itemsize + nbytes), dtype=np.uint8)
                rows[:, : _RECORD_HEAD.itemsize] = head.view(np.uint8).reshape(len(node), -1)
                rows[:, _RECORD_HEAD.itemsize :] = packed
                out += rows.tobytes()
        else:
            out += struct.pack("<BH", 1, node.bit_index)
    return bytes(out)


class _Cursor:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def _advance(self, size: int) -> int:
        """Offset of the next ``size`` bytes, which must all be present."""
        start = self.offset
        if start + size > len(self.data):
            raise FormatError("truncated tree stream")
        self.offset = start + size
        return start

    def take(self, field: struct.Struct):
        return field.unpack_from(self.data, self._advance(field.size))

    def take_rows(self, count: int, width: int) -> np.ndarray:
        """The next ``count`` rows of ``width`` bytes, as a (count, width)
        uint8 view of the stream."""
        start = self._advance(count * width)
        return np.frombuffer(self.data, np.uint8, count * width, start).reshape(count, width)


def deserialize_tree(data: bytes, config: TreeConfig | None = None) -> HammingTree:
    """Rebuild a tree from its byte stream.

    The stream holds no matching parameters, so the caller may pass the
    config to continue inserting under; otherwise the default config is
    used, with tau capped at the stream's width.

    A stream that is malformed, or whose tree fails
    ``HammingTree.check_invariants`` and so could not be searched correctly,
    raises FormatError; the parser makes those checks as it reads each node.
    """
    cursor = _Cursor(data)
    (magic,) = cursor.take(_TREE_MAGIC)
    if magic != TREE_MAGIC:
        raise FormatError(f"bad tree magic {magic!r}")
    version, dim_bits = cursor.take(_TREE_HEADER)
    if version != TREE_VERSION:
        raise FormatError(f"unsupported tree version {version}")
    if dim_bits < 8 or dim_bits % 8 != 0:
        raise FormatError(f"invalid dim_bits {dim_bits}")
    head = _RECORD_HEAD.itemsize
    width = head + dim_bits // 8
    # Every empty leaf shares one pair of zero-row columns: an append grows
    # a full column into a new array before it writes, so none is written.
    no_rows = np.empty((0, dim_bits // 8), dtype=np.uint8)
    no_ids = np.empty(0, dtype=np.int64)
    no_rows.flags.writeable = no_ids.flags.writeable = False
    stored = 0
    # The split bits and sides on the path to the node being parsed, and the
    # path position where each bit was last split: the bit is on the current
    # path exactly when the path still holds it there.
    bits: list[int] = []
    sides: list[int] = []
    split_at: dict[int, int] = {}

    def parse_one(depth: int) -> TreeNode:
        nonlocal stored
        (tag,) = cursor.take(_TAG)
        if tag == 1:
            (bit_index,) = cursor.take(_BIT_INDEX)
            if bit_index >= dim_bits:
                raise FormatError(
                    f"bit index {bit_index} out of range for {dim_bits}-bit tree"
                )
            k = split_at.get(bit_index)
            if k is not None and k < depth and bits[k] == bit_index:
                raise FormatError(f"bit index {bit_index} repeats on a root-to-leaf path")
            split_at[bit_index] = depth
            return InternalNode(bit_index, None, None)  # children attached below
        if tag != 0:
            raise FormatError(f"unknown node tag {tag}")
        (count,) = cursor.take(_LEAF_COUNT)
        if count == 0:
            return LeafNode._from_columns(dim_bits, [], no_rows, no_ids)
        rows = cursor.take_rows(count, width)
        # Copies, so the leaf shares no memory with the caller's buffer.
        packed = rows[:, head:].copy()
        if depth:
            on = np.array(bits)
            if not ((packed[:, on >> 3] >> (on & 7)) & 1 == sides).all():
                raise FormatError("a leaf holds a descriptor that does not route to it")
        records = rows[:, :head].copy().view(_RECORD_HEAD).reshape(count)
        stored += count
        return LeafNode._from_columns(
            dim_bits, [None] * count, packed, records["image_id"].astype(np.int64), records
        )

    # The stream is preorder, so each internal node is followed by its left
    # subtree, then its right; a stack of pending (parent, side, depth)
    # slots reproduces that without recursing (a hostile stream can nest
    # deeply).
    root = parse_one(0)
    pending: list[tuple[InternalNode, int, int]] = []
    if isinstance(root, InternalNode):
        pending = [(root, 1, 1), (root, 0, 1)]
    while pending:
        parent, side, depth = pending.pop()
        bits[depth - 1 :] = (parent.bit_index,)
        sides[depth - 1 :] = (side,)
        node = parse_one(depth)
        if side:
            parent.right = node
        else:
            parent.left = node
        if isinstance(node, InternalNode):
            pending.append((node, 1, depth + 1))
            pending.append((node, 0, depth + 1))
    if cursor.offset != len(data):
        raise FormatError(
            f"{len(data) - cursor.offset} trailing bytes after tree stream"
        )
    if config is None:
        config = TreeConfig(tau=min(TreeConfig().tau, dim_bits))
    # The leaf sizes were summed and the routing checked while parsing, so
    # the tree is given its root and count directly, with no second walk.
    tree = HammingTree(dim_bits, config)
    tree.root, tree.count = root, stored
    return tree


def save_tree(path, tree: HammingTree) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_tree(tree))


def load_tree(path, config: TreeConfig | None = None) -> HammingTree:
    with open(path, "rb") as fh:
        return deserialize_tree(fh.read(), config)
