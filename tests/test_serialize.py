"""Round-trip and error behavior of the binary formats."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamtree import (
    DescriptorEntry,
    FormatError,
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    deserialize_tree,
    load_tree,
    random_descriptors,
    read_descriptor_file,
    save_tree,
    serialize_tree,
    write_descriptor_file,
)
from hamtree.descriptor import flip_bits, get_bit

from conftest import make_entries


def test_empty_tree_round_trip():
    tree = HammingTree(256, TreeConfig())
    clone = deserialize_tree(serialize_tree(tree))
    assert tree.structurally_equal(clone)
    assert clone.count == 0


def test_post_split_tree_round_trip():
    rng = np.random.default_rng(80)
    tree = HammingTree(256, TreeConfig(n_max=3))
    for entry in make_entries(random_descriptors(4, 256, rng)):
        tree.insert(entry)
    assert isinstance(tree.root, InternalNode)
    clone = deserialize_tree(serialize_tree(tree))
    assert tree.structurally_equal(clone)


def test_large_tree_round_trip_by_structural_walk():
    rng = np.random.default_rng(81)
    entries = make_entries(random_descriptors(5000, 128, rng))
    for i, entry in enumerate(entries):
        entry.keypoint_xy = (float(i % 640), float(i % 480))
    tree = HammingTree.build_balanced(entries, TreeConfig(n_max=10), 128)
    clone = deserialize_tree(serialize_tree(tree))
    assert tree.structurally_equal(clone)
    assert clone.count == tree.count
    # deserialized tree keeps working
    result = clone.search_nearest(entries[123], 0)
    assert result.best is not None and result.best.distance == 0


def test_tree_file_round_trip(tmp_path):
    rng = np.random.default_rng(82)
    entries = make_entries(random_descriptors(100, 256, rng))
    tree = HammingTree.build_balanced(entries, TreeConfig(n_max=5), 256)
    path = tmp_path / "tree.hbt"
    save_tree(path, tree)
    assert tree.structurally_equal(load_tree(path))


def test_tree_stream_bad_magic():
    with pytest.raises(FormatError):
        deserialize_tree(b"NOPE" + b"\x00" * 32)


def test_tree_stream_bad_version():
    tree = HammingTree(256, TreeConfig())
    blob = bytearray(serialize_tree(tree))
    blob[4] = 9
    with pytest.raises(FormatError):
        deserialize_tree(bytes(blob))


def test_tree_stream_truncation():
    rng = np.random.default_rng(83)
    tree = HammingTree(256, TreeConfig(n_max=3))
    for entry in make_entries(random_descriptors(10, 256, rng)):
        tree.insert(entry)
    blob = serialize_tree(tree)
    for cut in (3, 8, 11, len(blob) // 2, len(blob) - 1):
        with pytest.raises(FormatError):
            deserialize_tree(blob[:cut])


def test_tree_stream_trailing_garbage():
    tree = HammingTree(256, TreeConfig())
    with pytest.raises(FormatError):
        deserialize_tree(serialize_tree(tree) + b"\x00")


def test_serializing_sub_byte_width_is_rejected():
    from hamtree import pack_bits

    tree = HammingTree(4, TreeConfig(tau=4))
    tree.insert(DescriptorEntry(pack_bits([1, 0, 1, 0]), 0, 0))
    with pytest.raises(ValueError):
        serialize_tree(tree)


def test_descriptor_file_round_trip(tmp_path):
    rng = np.random.default_rng(84)
    entries = make_entries(random_descriptors(50, 256, rng))
    for i, entry in enumerate(entries):
        entry.keypoint_xy = (1.5 * i, 2.0 * i)
    path = tmp_path / "corpus.hbd"
    write_descriptor_file(path, entries, 256)
    loaded, dim_bits = read_descriptor_file(path)
    assert dim_bits == 256
    assert loaded == entries


def test_descriptor_file_bad_magic(tmp_path):
    path = tmp_path / "bad.hbd"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_descriptor_file(path)


def test_descriptor_file_truncated_records(tmp_path):
    rng = np.random.default_rng(85)
    entries = make_entries(random_descriptors(5, 256, rng))
    path = tmp_path / "trunc.hbd"
    write_descriptor_file(path, entries, 256)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(FormatError):
        read_descriptor_file(path)


def test_descriptor_file_count_mismatch(tmp_path):
    rng = np.random.default_rng(86)
    entries = make_entries(random_descriptors(5, 256, rng))
    path = tmp_path / "extra.hbd"
    write_descriptor_file(path, entries, 256)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(FormatError):
        read_descriptor_file(path)


@pytest.mark.parametrize("field", ["image_id", "keypoint_id"])
@pytest.mark.parametrize("value", [-1, 2**32, 2**70])
def test_serialize_out_of_range_id_raises_value_error(field, value):
    rng = np.random.default_rng(87)
    tree = HammingTree(256, TreeConfig(n_max=3))
    for entry in make_entries(random_descriptors(6, 256, rng)):
        tree.insert(entry)
    setattr(tree.leaf_entries()[4], field, value)
    with pytest.raises(ValueError, match=field):
        serialize_tree(tree)


@pytest.mark.parametrize("field", ["image_id", "keypoint_id"])
@pytest.mark.parametrize("value", [-1, 2**32, 2**70])
def test_write_descriptor_file_out_of_range_id_raises_value_error(tmp_path, field, value):
    rng = np.random.default_rng(88)
    entries = make_entries(random_descriptors(3, 256, rng))
    setattr(entries[1], field, value)
    with pytest.raises(ValueError, match=field):
        write_descriptor_file(tmp_path / "ids.hbd", entries, 256)


# ----------------------------------------------------------------------
# Columnar record codec against the per-record reference
# ----------------------------------------------------------------------

PROPERTY = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _reference_record_dtype(nbytes):
    return np.dtype(
        [("image_id", "<u4"), ("keypoint_id", "<u4"), ("x", "<f4"), ("y", "<f4"),
         ("payload", "u1", (nbytes,))]
    )


def reference_write_descriptor_file(path, entries, dim_bits):
    """One record at a time, as the formats were first written."""
    nbytes = dim_bits // 8
    records = np.empty(len(entries), dtype=_reference_record_dtype(nbytes))
    for i, entry in enumerate(entries):
        records[i] = (entry.image_id, entry.keypoint_id, entry.keypoint_xy[0],
                      entry.keypoint_xy[1], np.asarray(entry.descriptor, dtype=np.uint8))
    with open(path, "wb") as fh:
        fh.write(b"HBSTD001")
        fh.write(struct.pack("<IQ", dim_bits, len(entries)))
        fh.write(records.tobytes())


def reference_read_descriptor_file(path):
    with open(path, "rb") as fh:
        data = fh.read()
    dim_bits, count = struct.unpack_from("<IQ", data, 8)
    records = np.frombuffer(data, dtype=_reference_record_dtype(dim_bits // 8),
                            count=count, offset=20)
    entries = [
        DescriptorEntry(np.array(rec["payload"], dtype=np.uint8), int(rec["image_id"]),
                        int(rec["keypoint_id"]), (float(rec["x"]), float(rec["y"])))
        for rec in records
    ]
    return entries, int(dim_bits)


def reference_serialize_tree(tree):
    out = bytearray(b"HBT1")
    out += struct.pack("<BI", 1, tree.dim_bits)
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            out.append(0)
            out += struct.pack("<I", len(node))
            for entry in node.entries:
                out += struct.pack("<IIff", entry.image_id, entry.keypoint_id,
                                   entry.keypoint_xy[0], entry.keypoint_xy[1])
                out += np.asarray(entry.descriptor, dtype=np.uint8).tobytes()
        else:
            out.append(1)
            out += struct.pack("<H", node.bit_index)
            stack.append(node.right)
            stack.append(node.left)
    return bytes(out)


def reference_deserialize_tree(data, config=None):
    """Per-entry parse without the routing checks."""
    (dim_bits,) = struct.unpack_from("<I", data, 5)
    nbytes = dim_bits // 8
    offset = 9

    def take(fmt):
        nonlocal offset
        values = struct.unpack_from(fmt, data, offset)
        offset += struct.calcsize(fmt)
        return values

    def parse_one():
        nonlocal offset
        (tag,) = take("<B")
        if tag == 1:
            return InternalNode(take("<H")[0], None, None)
        entries = []
        for _ in range(take("<I")[0]):
            image_id, keypoint_id, x, y = take("<IIff")
            payload = np.frombuffer(data[offset:offset + nbytes], dtype=np.uint8).copy()
            offset += nbytes
            entries.append(DescriptorEntry(payload, image_id, keypoint_id, (x, y)))
        return LeafNode(dim_bits, entries)

    def parse_subtree():
        node = parse_one()
        if isinstance(node, InternalNode):
            node.left = parse_subtree()
            node.right = parse_subtree()
        return node

    return HammingTree(dim_bits, config or TreeConfig(tau=0), root=parse_subtree())


# Coordinates that fit float32: float32 values (infinities too) and doubles
# that round to a finite float32.
_COORDINATES = st.one_of(
    st.floats(width=32, allow_nan=False), st.floats(-3.4e38, 3.4e38)
)


@st.composite
def corpora(draw, max_entries=40, coordinates=_COORDINATES):
    """(entries, dim_bits): random widths 8..512 bits, ids over all of u32,
    float32-range coordinates, and planted duplicate descriptors."""
    nbytes = draw(st.integers(1, 64))
    n = draw(st.integers(0, max_entries))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = random_descriptors(n, 8 * nbytes, rng)
    if n > 1 and draw(st.booleans()):
        matrix[rng.integers(0, n, size=n // 2)] = matrix[0]
    ids = st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)
    image_ids, keypoint_ids = draw(ids), draw(ids)
    xy = draw(st.lists(st.tuples(coordinates, coordinates), min_size=n, max_size=n))
    entries = [
        DescriptorEntry(matrix[i].copy(), image_ids[i], keypoint_ids[i], xy[i])
        for i in range(n)
    ]
    return entries, 8 * nbytes


def assert_loaded_field_types(entries, nbytes):
    for entry in entries:
        assert type(entry.image_id) is int and type(entry.keypoint_id) is int
        assert type(entry.keypoint_xy) is tuple
        assert [type(v) for v in entry.keypoint_xy] == [float, float]
        assert entry.descriptor.dtype == np.uint8
        assert entry.descriptor.shape == (nbytes,)
        assert entry.descriptor.flags.writeable


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@PROPERTY
@given(corpora())
def test_descriptor_file_codec_matches_per_record_reference(codec_dir, corpus):
    entries, dim_bits = corpus
    ours, ref = codec_dir / "ours.hbd", codec_dir / "ref.hbd"
    write_descriptor_file(ours, entries, dim_bits)
    reference_write_descriptor_file(ref, entries, dim_bits)
    assert ours.read_bytes() == ref.read_bytes()
    loaded, loaded_bits = read_descriptor_file(ours)
    expected, _ = reference_read_descriptor_file(ref)
    assert loaded_bits == dim_bits
    assert loaded == expected
    assert_loaded_field_types(loaded, dim_bits // 8)


@PROPERTY
@given(
    # float32 coordinates, so the loaded tree equals the saved one
    corpora(max_entries=60, coordinates=st.floats(width=32, allow_nan=False)),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    st.integers(0, 6),
    st.booleans(),
)
def test_tree_stream_codec_matches_per_record_reference(
    corpus, n_max, delta_max, max_depth, incremental
):
    entries, dim_bits = corpus
    config = TreeConfig(tau=0, delta_max=delta_max, n_max=n_max,
                        max_depth=max_depth or None)
    if incremental:
        tree = HammingTree(dim_bits, config)
        for entry in entries:
            tree.insert(entry)
    else:
        tree = HammingTree.build_balanced(entries, config, dim_bits)
    blob = serialize_tree(tree)
    assert blob == reference_serialize_tree(tree)
    clone = deserialize_tree(blob, config)
    assert clone.structurally_equal(reference_deserialize_tree(blob))
    assert clone.structurally_equal(tree)
    assert clone.count == tree.count
    for leaf, _ in clone._iter_leaves():
        assert_loaded_field_types(leaf.entries, dim_bits // 8)
        if len(leaf):
            assert np.array_equal(leaf.packed(), np.stack([e.descriptor for e in leaf.entries]))
        assert leaf.image_ids().tolist() == [e.image_id for e in leaf.entries]


@pytest.mark.parametrize("xy", [(1e39, 2.0), (2.0, -1e39)])
def test_both_writers_reject_float32_overflow(tmp_path, xy):
    rng = np.random.default_rng(89)
    entries = make_entries(random_descriptors(5, 256, rng))
    entries[3].keypoint_xy = xy
    with pytest.raises(ValueError, match="keypoint_xy"):
        write_descriptor_file(tmp_path / "xy.hbd", entries, 256)
    tree = HammingTree.build_balanced(entries, TreeConfig(n_max=2), 256)
    with pytest.raises(ValueError, match="keypoint_xy"):
        serialize_tree(tree)


def test_float32_rounding_to_finite_is_not_an_overflow(tmp_path):
    entries = make_entries(random_descriptors(2, 64, np.random.default_rng(90)))
    entries[0].keypoint_xy = (3.4028235e38, float("inf"))
    write_descriptor_file(tmp_path / "edge.hbd", entries, 64)
    loaded, _ = read_descriptor_file(tmp_path / "edge.hbd")
    assert loaded[0].keypoint_xy[0] == float(np.float32(3.4028235e38))
    assert loaded[0].keypoint_xy[1] == float("inf")


def test_narrow_stream_loads_with_default_config():
    tree = HammingTree.build_balanced(
        make_entries(random_descriptors(6, 16, np.random.default_rng(91))),
        TreeConfig(tau=4, n_max=2), 16,
    )
    clone = deserialize_tree(serialize_tree(tree))
    assert clone.structurally_equal(tree)
    assert clone.config.tau == 16


# ----------------------------------------------------------------------
# Unroutable tree streams
# ----------------------------------------------------------------------

def _forty_entry_tree():
    rng = np.random.default_rng(92)
    entries = make_entries(random_descriptors(40, 256, rng))
    return entries, HammingTree.build_balanced(entries, TreeConfig(n_max=8), 256)


def test_swapped_root_children_are_rejected():
    entries, tree = _forty_entry_tree()
    root = tree.root
    assert isinstance(root, InternalNode)
    tree.root = InternalNode(root.bit_index, root.right, root.left)
    blob = serialize_tree(tree)
    # Loaded without the check, the tree misses every stored descriptor.
    unchecked = reference_deserialize_tree(blob)
    assert not any(unchecked.search_nearest(e, 0).best for e in entries)
    with pytest.raises(FormatError, match="route"):
        deserialize_tree(blob)


def test_repeated_split_bit_is_rejected():
    empty = lambda: LeafNode(256)  # noqa: E731
    inner = InternalNode(7, empty(), empty())
    tree = HammingTree(256, TreeConfig(), root=InternalNode(7, inner, empty()))
    blob = serialize_tree(tree)
    with pytest.raises(FormatError, match="repeats") as rejected:
        deserialize_tree(blob)
    # The parser's message is the validator's for the same stream, loaded unchecked.
    with pytest.raises(ValueError) as caught:
        reference_deserialize_tree(blob).check_invariants()
    assert str(rejected.value) == str(caught.value)


def test_repeated_bit_on_a_sibling_path_is_allowed():
    tree = HammingTree(256, TreeConfig(), root=InternalNode(
        3, InternalNode(5, LeafNode(256), LeafNode(256)),
        InternalNode(5, LeafNode(256), LeafNode(256)),
    ))
    assert deserialize_tree(serialize_tree(tree)).structurally_equal(tree)


def _chain_tree(descriptor):
    """A full-depth chain of splits on bits 0..255 that routes ``descriptor``
    to the bottom leaf; every other branch ends in an empty leaf."""
    node = LeafNode(256, [DescriptorEntry(descriptor, 0, 0)])
    for bit in reversed(range(256)):
        empty = LeafNode(256)
        node = (InternalNode(bit, empty, node) if get_bit(descriptor, bit)
                else InternalNode(bit, node, empty))
    return HammingTree(256, TreeConfig(), root=node)


def test_full_depth_chain_round_trips_and_is_checked_along_its_whole_path():
    descriptor = random_descriptors(1, 256, np.random.default_rng(96))[0]
    tree = _chain_tree(descriptor)
    clone = deserialize_tree(serialize_tree(tree))
    assert clone.structurally_equal(tree)
    assert clone.search_nearest(DescriptorEntry(descriptor, 1, 0), 0).best is not None
    # The bottom leaf's descriptor now disagrees with the first split only.
    bottom = clone.root
    while isinstance(bottom, InternalNode):
        bottom = bottom.right if get_bit(descriptor, bottom.bit_index) else bottom.left
    bottom.packed()[0] = flip_bits(descriptor, [0])
    with pytest.raises(FormatError, match="route"):
        deserialize_tree(serialize_tree(clone))


def test_appending_to_one_loaded_empty_leaf_leaves_the_others_empty():
    # Loaded empty leaves share their zero-row columns; an append must grow
    # its own leaf's columns and leave the shared ones as they were.
    descriptor = random_descriptors(1, 256, np.random.default_rng(97))[0]
    clone = deserialize_tree(serialize_tree(_chain_tree(descriptor)), TreeConfig(n_max=10))
    assert clone.count == len(clone.leaf_entries()) == 1
    empties = [leaf for leaf, _ in clone._iter_leaves() if len(leaf) == 0]
    assert len(empties) == 256
    # Flipping bit k turns off the path at the split on bit k, into the
    # empty leaf there; two appends into two leaves must not share a row.
    strays = [DescriptorEntry(flip_bits(descriptor, [k]), 2 + k, 0) for k in (0, 1)]
    for stray in strays:
        clone.insert(stray)
    assert clone.count == 3
    filled = [next(leaf for leaf in empties if leaf.entries[:1] == [stray])
              for stray in strays]
    for leaf, stray in zip(filled, strays):
        assert len(leaf) == 1 and leaf.entries[0] is stray
        assert leaf.packed().tolist() == [stray.descriptor.tolist()]
        assert leaf.image_ids().tolist() == [stray.image_id]
        assert clone.search_nearest(stray, 0).best.reference is stray
    for leaf in empties:
        if leaf not in filled:
            assert leaf.entries == []
            assert leaf.packed().shape == (0, 32) and leaf.image_ids().shape == (0,)
    assert deserialize_tree(serialize_tree(clone)).structurally_equal(clone)


# ----------------------------------------------------------------------
# Hostile input: truncation and bit flips in the header and node fields
# ----------------------------------------------------------------------

def _small_tree_blob():
    rng = np.random.default_rng(93)
    entries = make_entries(random_descriptors(12, 64, rng))
    tree = HammingTree.build_balanced(entries, TreeConfig(tau=8, n_max=3), 64)
    assert isinstance(tree.root, InternalNode)
    return serialize_tree(tree)


def _tree_fields(blob):
    """(offset, size) of the magic, version, dim_bits, tag, bit-index and
    count fields of a valid tree stream."""
    fields = [(0, 4), (4, 1), (5, 4)]
    record = 16 + struct.unpack_from("<I", blob, 5)[0] // 8
    offset = 9
    while offset < len(blob):
        fields.append((offset, 1))
        if blob[offset] == 1:
            fields.append((offset + 1, 2))
            offset += 3
        else:
            fields.append((offset + 1, 4))
            offset += 5 + record * struct.unpack_from("<I", blob, offset + 1)[0]
    return fields


def _descriptor_file_blob(tmp_path):
    rng = np.random.default_rng(94)
    path = tmp_path / "small.hbd"
    write_descriptor_file(path, make_entries(random_descriptors(4, 64, rng)), 64)
    return path.read_bytes()


def test_every_truncated_tree_stream_is_a_format_error():
    blob = _small_tree_blob()
    for cut in range(len(blob)):
        with pytest.raises(FormatError):
            deserialize_tree(blob[:cut])


def test_every_truncated_descriptor_file_is_a_format_error(tmp_path):
    blob = _descriptor_file_blob(tmp_path)
    path = tmp_path / "cut.hbd"
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            read_descriptor_file(path)


_ROUTING_MESSAGES = (
    "out of range for", "repeats on a root-to-leaf path", "does not route to it"
)


def _flip(blob, fields, data):
    start, size = data.draw(st.sampled_from(fields))
    bits = data.draw(st.sets(st.integers(0, 8 * size - 1), min_size=1))
    out = bytearray(blob)
    for bit in bits:
        out[start + bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_tree_stream_field_flips_raise_only_format_error(data):
    blob = _small_tree_blob()
    flipped = _flip(blob, _tree_fields(blob), data)
    try:
        loaded = deserialize_tree(flipped)
    except FormatError as exc:
        # The parser and check_invariants are one rule: a routing rejection
        # is the validator's own message for the same tree, loaded unchecked.
        if any(m in str(exc) for m in _ROUTING_MESSAGES):
            try:
                unchecked = reference_deserialize_tree(flipped)
            except (struct.error, ValueError):
                return
            with pytest.raises(ValueError) as caught:
                unchecked.check_invariants()
            assert str(caught.value) == str(exc)
    else:
        loaded.check_invariants()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_descriptor_file_field_flips_raise_only_format_error(codec_dir, data):
    path = codec_dir / "flip.hbd"
    blob = _descriptor_file_blob(codec_dir)
    path.write_bytes(_flip(blob, [(0, 8), (8, 4), (12, 8)], data))
    try:
        read_descriptor_file(path)
    except FormatError:
        pass
