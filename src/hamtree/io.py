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
node for node, including entry order within leaves.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from .descriptor import DescriptorEntry
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


class FormatError(ValueError):
    """A byte stream does not conform to its declared format."""


def _record_dtype(nbytes: int) -> np.dtype:
    return np.dtype(
        [
            ("image_id", "<u4"),
            ("keypoint_id", "<u4"),
            ("x", "<f4"),
            ("y", "<f4"),
            ("payload", "u1", (nbytes,)),
        ]
    )


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
# Descriptor files
# ----------------------------------------------------------------------

def write_descriptor_file(
    path, entries: Sequence[DescriptorEntry], dim_bits: int
) -> None:
    """Write a descriptor corpus; entry order is preserved."""
    nbytes = _check_file_width(dim_bits)
    records = np.empty(len(entries), dtype=_record_dtype(nbytes))
    for i, entry in enumerate(entries):
        desc = np.asarray(entry.descriptor, dtype=np.uint8)
        if desc.shape[0] != nbytes:
            raise ValueError(
                f"entry {i} has a {desc.shape[0] * 8}-bit descriptor, "
                f"file is declared {dim_bits}-bit"
            )
        _check_ids(entry)
        records[i] = (
            entry.image_id,
            entry.keypoint_id,
            entry.keypoint_xy[0],
            entry.keypoint_xy[1],
            desc,
        )
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
    nbytes = dim_bits // 8
    dtype = _record_dtype(nbytes)
    offset = len(DESCRIPTOR_MAGIC) + 12
    expected = offset + count * dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"{path}: {len(data)} bytes, expected {expected} for {count} records"
        )
    records = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    entries = [
        DescriptorEntry(
            descriptor=np.array(rec["payload"], dtype=np.uint8),
            image_id=int(rec["image_id"]),
            keypoint_id=int(rec["keypoint_id"]),
            keypoint_xy=(float(rec["x"]), float(rec["y"])),
        )
        for rec in records
    ]
    return entries, int(dim_bits)


# ----------------------------------------------------------------------
# Tree streams
# ----------------------------------------------------------------------

def serialize_tree(tree: HammingTree) -> bytes:
    """Serialize a tree to its preorder byte stream."""
    nbytes = _check_file_width(tree.dim_bits)
    out = bytearray()
    out += TREE_MAGIC
    out += struct.pack("<BI", TREE_VERSION, tree.dim_bits)
    stack: list[TreeNode] = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            out.append(0)
            out += struct.pack("<I", len(node))
            for entry in node.entries:
                desc = np.asarray(entry.descriptor, dtype=np.uint8)
                if desc.shape[0] != nbytes:
                    raise ValueError("leaf entry width does not match tree dim_bits")
                _check_ids(entry)
                out += struct.pack(
                    "<IIff",
                    entry.image_id,
                    entry.keypoint_id,
                    entry.keypoint_xy[0],
                    entry.keypoint_xy[1],
                )
                out += desc.tobytes()
        else:
            out.append(1)
            out += struct.pack("<H", node.bit_index)
            stack.append(node.right)
            stack.append(node.left)
    return bytes(out)


class _Cursor:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.offset + size > len(self.data):
            raise FormatError("truncated tree stream")
        values = struct.unpack_from(fmt, self.data, self.offset)
        self.offset += size
        return values

    def take_bytes(self, size: int) -> bytes:
        if self.offset + size > len(self.data):
            raise FormatError("truncated tree stream")
        chunk = self.data[self.offset : self.offset + size]
        self.offset += size
        return chunk


def deserialize_tree(data: bytes, config: TreeConfig | None = None) -> HammingTree:
    """Rebuild a tree from its byte stream.

    The stream holds no matching parameters, so the caller may pass the
    config to continue inserting under; the default config is used otherwise.
    """
    cursor = _Cursor(data)
    magic = cursor.take_bytes(len(TREE_MAGIC))
    if magic != TREE_MAGIC:
        raise FormatError(f"bad tree magic {magic!r}")
    version, dim_bits = cursor.take("<BI")
    if version != TREE_VERSION:
        raise FormatError(f"unsupported tree version {version}")
    if dim_bits < 8 or dim_bits % 8 != 0:
        raise FormatError(f"invalid dim_bits {dim_bits}")
    nbytes = dim_bits // 8

    def parse_one() -> TreeNode:
        (tag,) = cursor.take("<B")
        if tag == 1:
            (bit_index,) = cursor.take("<H")
            if bit_index >= dim_bits:
                raise FormatError(
                    f"bit index {bit_index} out of range for {dim_bits}-bit tree"
                )
            return InternalNode(bit_index, None, None)  # children attached below
        if tag != 0:
            raise FormatError(f"unknown node tag {tag}")
        (count,) = cursor.take("<I")
        entries = []
        for _ in range(count):
            image_id, keypoint_id, x, y = cursor.take("<IIff")
            payload = cursor.take_bytes(nbytes)
            entries.append(
                DescriptorEntry(
                    descriptor=np.frombuffer(payload, dtype=np.uint8).copy(),
                    image_id=image_id,
                    keypoint_id=keypoint_id,
                    keypoint_xy=(x, y),
                )
            )
        return LeafNode(dim_bits, entries)

    # The stream is preorder, so each internal node is followed by its left
    # subtree, then its right; a pending-slot stack reproduces that without
    # recursing (paths can be up to dim_bits long).
    root = parse_one()
    pending: list[tuple[InternalNode, bool]] = []
    if isinstance(root, InternalNode):
        pending = [(root, True), (root, False)]
    while pending:
        parent, is_right = pending.pop()
        node = parse_one()
        if is_right:
            parent.right = node
        else:
            parent.left = node
        if isinstance(node, InternalNode):
            pending.append((node, True))
            pending.append((node, False))
    if cursor.offset != len(data):
        raise FormatError(
            f"{len(data) - cursor.offset} trailing bytes after tree stream"
        )
    return HammingTree(dim_bits, config, root=root)


def save_tree(path, tree: HammingTree) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_tree(tree))


def load_tree(path, config: TreeConfig | None = None) -> HammingTree:
    with open(path, "rb") as fh:
        return deserialize_tree(fh.read(), config)
