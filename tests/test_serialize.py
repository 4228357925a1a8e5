"""Round-trip and error behavior of the binary formats."""

from __future__ import annotations

import numpy as np
import pytest

from hamtree import (
    DescriptorEntry,
    FormatError,
    HammingTree,
    InternalNode,
    TreeConfig,
    deserialize_tree,
    load_tree,
    random_descriptors,
    read_descriptor_file,
    save_tree,
    serialize_tree,
    write_descriptor_file,
)

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
@pytest.mark.parametrize("value", [-1, 2**32])
def test_serialize_out_of_range_id_raises_value_error(field, value):
    rng = np.random.default_rng(87)
    tree = HammingTree(256, TreeConfig(n_max=3))
    for entry in make_entries(random_descriptors(6, 256, rng)):
        tree.insert(entry)
    setattr(tree.leaf_entries()[4], field, value)
    with pytest.raises(ValueError, match=field):
        serialize_tree(tree)


@pytest.mark.parametrize("field", ["image_id", "keypoint_id"])
@pytest.mark.parametrize("value", [-1, 2**32])
def test_write_descriptor_file_out_of_range_id_raises_value_error(tmp_path, field, value):
    rng = np.random.default_rng(88)
    entries = make_entries(random_descriptors(3, 256, rng))
    setattr(entries[1], field, value)
    with pytest.raises(ValueError, match=field):
        write_descriptor_file(tmp_path / "ids.hbd", entries, 256)
