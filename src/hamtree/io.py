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
node for node, including entry order within leaves. The parser hands each node,
as it reads it, to the per-node routing check that
``HammingTree.check_invariants`` runs, so a stream whose tree that check
rejects (a split bit outside the width or repeated on a path, or a leaf row
that disagrees with its path) is rejected with no second walk. The nodes are
made by ``build_balanced``'s builder, ``tree._grow``, which does not recurse.

Both formats split a block of records into its 16-byte heads and its payload
rows, and join the two again, with one function each and no per-record
Python loop. A loaded leaf keeps its heads beside its rows and makes a row's
entry the first time it is read; ``serialize_tree`` writes such a leaf from
the heads it kept while no entry of it has been made.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from .descriptor import DescriptorEntry, _stack_checked
from .tree import (
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    TreeNode,
    _check_node,
    _check_rows,
    _grow,
)

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

# The tree stream's fixed-size fields, compiled once: its header, and per
# node kind the tag with the field that follows it.
_TREE_MAGIC = struct.Struct(f"{len(TREE_MAGIC)}s")
_TREE_HEADER = struct.Struct("<BI")
_INTERNAL = struct.Struct("<BH")
_LEAF = struct.Struct("<BI")
_NODE_HEADERS = {0: _LEAF, 1: _INTERNAL}


class FormatError(ValueError):
    """A byte stream does not conform to its declared format."""


# A record's fields before its payload, which a loaded leaf keeps per row.
_RECORD_HEAD = np.dtype(
    [("image_id", "<u4"), ("keypoint_id", "<u4"), ("x", "<f4"), ("y", "<f4")]
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
# Record codec, shared by both formats
# ----------------------------------------------------------------------

def _split_records(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An (n, 16 + W) uint8 record block as its ``_RECORD_HEAD`` array and
    its (n, W) payload rows, both copies of the block."""
    head = _RECORD_HEAD.itemsize
    return rows[:, :head].copy().view(_RECORD_HEAD).reshape(len(rows)), rows[:, head:].copy()


def _join_records(head: np.ndarray, payload: np.ndarray) -> bytes:
    """The bytes of the (n, 16 + W) record block of a ``_RECORD_HEAD`` array
    and its (n, W) payload rows; ``_split_records`` undoes it."""
    n, nbytes = payload.shape
    size = _RECORD_HEAD.itemsize
    rows = np.empty((n, size + nbytes), dtype=np.uint8)
    rows[:, :size] = head.view(np.uint8).reshape(n, size)
    rows[:, size:] = payload
    return rows.tobytes()


def _encode_head(entries: Sequence[DescriptorEntry]) -> np.ndarray:
    """The entries' ids and coordinates as a ``_RECORD_HEAD`` array, filled
    column by column.

    Ids must fit u32 and coordinates float32; otherwise a ValueError names
    the first entry and field that does not.
    """
    n = len(entries)
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
    head = np.empty(n, dtype=_RECORD_HEAD)
    head["image_id"] = image_ids
    head["keypoint_id"] = keypoint_ids
    head["x"], head["y"] = xy32
    return head


# ----------------------------------------------------------------------
# Descriptor files
# ----------------------------------------------------------------------

def write_descriptor_file(
    path, entries: Sequence[DescriptorEntry], dim_bits: int
) -> None:
    """Write a descriptor corpus; entry order is preserved."""
    payload = _stack_checked(entries, _check_file_width(dim_bits))
    records = _join_records(_encode_head(entries), payload)
    with open(path, "wb") as fh:
        fh.write(DESCRIPTOR_MAGIC)
        fh.write(struct.pack("<IQ", dim_bits, len(entries)))
        fh.write(records)


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
    width = _RECORD_HEAD.itemsize + dim_bits // 8
    offset = len(DESCRIPTOR_MAGIC) + 12
    expected = offset + count * width
    if len(data) != expected:
        raise FormatError(
            f"{path}: {len(data)} bytes, expected {expected} for {count} records"
        )
    head, payload = _split_records(
        np.frombuffer(data, np.uint8, count * width, offset).reshape(count, width)
    )
    # Ids become Python ints and coordinates Python floats; each descriptor is
    # a writable row of the payload copy.
    entries = map(
        DescriptorEntry,
        payload,
        head["image_id"].tolist(),
        head["keypoint_id"].tolist(),
        zip(head["x"].tolist(), head["y"].tolist()),
    )
    return list(entries), int(dim_bits)


# ----------------------------------------------------------------------
# Tree streams
# ----------------------------------------------------------------------

def _leaf_head(leaf: LeafNode) -> np.ndarray:
    """A leaf's ``_RECORD_HEAD`` array, made without making an entry.

    A caller-filled leaf encodes its entries. A loaded leaf starts from the
    record rows it kept and overlays the encoded fields of the entries made
    or appended since, so a leaf with none made writes its records as kept.
    """
    entries, records = leaf._entries, leaf._records
    if records is None:
        return _encode_head(entries)
    made = [i for i, e in enumerate(entries) if e is not None]
    if not made:
        return records
    head = np.empty(len(entries), dtype=_RECORD_HEAD)
    head[: len(records)] = records
    head[made] = _encode_head([entries[i] for i in made])
    return head


def serialize_tree(tree: HammingTree) -> bytes:
    """Serialize a tree to its preorder byte stream."""
    nbytes = _check_file_width(tree.dim_bits)
    out = bytearray(TREE_MAGIC)
    out += _TREE_HEADER.pack(TREE_VERSION, tree.dim_bits)
    for node, _ in tree._walk():
        if isinstance(node, LeafNode):
            packed = node.packed()
            if packed.shape[1] != nbytes:
                raise ValueError("leaf entry width does not match tree dim_bits")
            out += _LEAF.pack(0, len(node))
            if len(node):
                out += _join_records(_leaf_head(node), packed)
        else:
            out += _INTERNAL.pack(1, node.bit_index)
    return bytes(out)


def deserialize_tree(data: bytes, config: TreeConfig | None = None) -> HammingTree:
    """Rebuild a tree from its byte stream.

    The stream holds no matching parameters, so the caller may pass the
    config to continue inserting under; otherwise the default config is
    used, with tau capped at the stream's width.

    A stream that is malformed, or whose tree fails
    ``HammingTree.check_invariants`` and so could not be searched correctly,
    raises FormatError; the parser runs that check's per-node routine on
    each node as it reads it.
    """
    offset = 0

    def take(size: int) -> int:
        """Offset of the next ``size`` bytes, which must all be present."""
        nonlocal offset
        start = offset
        if start + size > len(data):
            raise FormatError("truncated tree stream")
        offset = start + size
        return start

    (magic,) = _TREE_MAGIC.unpack_from(data, take(_TREE_MAGIC.size))
    if magic != TREE_MAGIC:
        raise FormatError(f"bad tree magic {magic!r}")
    version, dim_bits = _TREE_HEADER.unpack_from(data, take(_TREE_HEADER.size))
    if version != TREE_VERSION:
        raise FormatError(f"unsupported tree version {version}")
    if dim_bits < 8 or dim_bits % 8 != 0:
        raise FormatError(f"invalid dim_bits {dim_bits}")
    head_size = _RECORD_HEAD.itemsize
    width = head_size + dim_bits // 8
    if config is None:
        config = TreeConfig(tau=min(TreeConfig().tau, dim_bits))
    # The tree's arena; each leaf takes the next slab of it, sized to its
    # rows, and the record blocks read are split into its columns at the end.
    tree = HammingTree(dim_bits, config)
    arena = tree._arena
    blocks = [np.empty((0, width), dtype=np.uint8)]
    loaded: list[LeafNode] = []
    stored = 0
    # The routing check's map of where each bit was last split.
    split_at: dict[int, int] = {}

    def check(rule, *args) -> None:
        """Run one of ``check_invariants``' rules; its ValueError is a FormatError."""
        try:
            rule(*args)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc

    def parse_one(path: list[tuple[int, int]]) -> TreeNode:
        nonlocal stored
        # The tag byte picks the struct that reads the tag and its field: an
        # internal node's bit index or a leaf's entry count.
        if offset == len(data):
            raise FormatError("truncated tree stream")
        header = _NODE_HEADERS.get(data[offset])
        if header is None:
            raise FormatError(f"unknown node tag {data[offset]}")
        tag, field = header.unpack_from(data, take(header.size))
        if tag == 1:
            node: TreeNode = InternalNode(field, None, None)  # ``_grow`` attaches the children
            check(_check_node, node, path, split_at, dim_bits)
            return node
        block = np.frombuffer(data, np.uint8, field * width, take(field * width))
        block = block.reshape(field, width)
        check(_check_rows, block[:, head_size:], path)
        leaf = LeafNode._in_slab(dim_bits, (arena, stored, field), [None] * field)
        if field:
            blocks.append(block)
            loaded.append(leaf)
            stored += field
        return leaf

    # ``_grow`` builds the preorder without recursing, since a hostile stream
    # can nest deeply.
    root = _grow(parse_one)
    if offset != len(data):
        raise FormatError(f"{len(data) - offset} trailing bytes after tree stream")
    # Copies, so the tree shares no memory with the caller's buffer.
    head, arena.rows = _split_records(np.concatenate(blocks))
    arena.ids = head["image_id"].astype(np.int64)
    arena.used = stored
    for leaf in loaded:
        start = leaf._slab[1]
        leaf._records = head[start : start + len(leaf)]
    # The leaf sizes were summed and the routing checked while parsing, so
    # the tree is given its root and count directly, with no second walk.
    tree.root, tree.count = root, stored
    return tree


def save_tree(path, tree: HammingTree) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_tree(tree))


def load_tree(path, config: TreeConfig | None = None) -> HammingTree:
    with open(path, "rb") as fh:
        return deserialize_tree(fh.read(), config)
