"""The tree's one preorder walk, its routing validator and its bit counter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hamtree import (
    BitStatistics,
    DescriptorEntry,
    FormatError,
    HammingTree,
    InternalNode,
    LeafNode,
    TreeConfig,
    deserialize_tree,
    random_descriptors,
    select_split_bit,
    serialize_tree,
    unpack_bits,
)
from hamtree import RetrievalConfig, query_image
from hamtree.descriptor import descriptor_to_int, flip_bits, get_bit

from conftest import make_entries

PROPERTY = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# References: the code the walk, the validator and the bit counter replaced
# ----------------------------------------------------------------------

def reference_structurally_equal(a, b):
    """The paired-stack comparison ``structurally_equal`` used before it
    compared the two preorders."""
    if a.dim_bits != b.dim_bits:
        return False
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, LeafNode) != isinstance(y, LeafNode):
            return False
        if isinstance(x, LeafNode):
            if len(x) != len(y) or any(p != q for p, q in zip(x.entries, y.entries)):
                return False
        else:
            if x.bit_index != y.bit_index:
                return False
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
    return True


def kept(leaf, mask, dim_bits):
    """A new leaf of the entries of ``leaf`` where ``mask`` is True, in order."""
    return LeafNode(dim_bits, [e for e, keep in zip(leaf.entries, mask.tolist()) if keep])


class ReferenceSplitTree(HammingTree):
    """Splits as ``insert`` did before the bit counter was shared: it unpacks
    the whole leaf to int64 sums and takes the mask from the unpacked bits."""

    def _maybe_split(self, leaf, path):
        cfg = self.config
        if len(leaf) <= cfg.n_max or len(path) >= cfg.depth_limit(self.dim_bits):
            return
        bits = unpack_bits(leaf.packed(), self.dim_bits)
        stats = BitStatistics(counts=bits.sum(axis=0, dtype=np.int64), total=len(leaf))
        bit = select_split_bit(stats, {node.bit_index for node in path}, cfg.delta_max)
        if bit is None:
            return
        right = bits[:, bit] == 1
        node = InternalNode(
            bit, kept(leaf, ~right, self.dim_bits), kept(leaf, right, self.dim_bits)
        )
        if not path:
            self.root = node
        elif path[-1].right is leaf:
            path[-1].right = node
        else:
            path[-1].left = node


def nodes(root):
    """(node, parent, side, path) for every node under ``root``, in preorder,
    left first; each path is its own list."""
    out = []
    stack = [(root, None, None, [])]
    while stack:
        node, parent, side, path = stack.pop()
        out.append((node, parent, side, path))
        if isinstance(node, InternalNode):
            stack.append((node.right, node, 1, path + [(node.bit_index, 1)]))
            stack.append((node.left, node, 0, path + [(node.bit_index, 0)]))
    return out


def reference_routing_violation(tree):
    """'repeats', 'route' or None, from every node's full path and each
    leaf's rows read bit by bit."""
    for node, _, _, path in nodes(tree.root):
        bits = [bit for bit, _ in path]
        if isinstance(node, InternalNode) and node.bit_index in bits:
            return "repeats"
        if isinstance(node, LeafNode):
            for entry in node.entries:
                if any(get_bit(entry.descriptor, bit) != side for bit, side in path):
                    return "route"
    return None


# ----------------------------------------------------------------------
# Trees of every origin
# ----------------------------------------------------------------------

def hand_built(entries, dim_bits, rng, stop):
    """Random splits on random free bits, each row placed by its bits, with
    ``LeafNode`` and ``InternalNode`` as a caller would build them."""
    matrix = np.array([e.descriptor for e in entries], dtype=np.uint8)
    matrix = matrix.reshape(len(entries), (dim_bits + 7) // 8)

    def build(subset, forbidden):
        free = [b for b in range(dim_bits) if b not in forbidden]
        if not free or len(forbidden) == 6 or rng.random() < stop:
            return LeafNode(dim_bits, [entries[i] for i in subset])
        bit = int(rng.choice(free))
        mask = (matrix[subset, bit >> 3] >> (bit & 7)) & 1 == 1
        forbidden = forbidden | {bit}
        return InternalNode(bit, build(subset[~mask], forbidden), build(subset[mask], forbidden))

    return HammingTree(dim_bits, TreeConfig(tau=0), root=build(np.arange(len(entries)), set()))


@st.composite
def corpora(draw, min_entries=0, max_entries=80, widths=(8, 12, 64, 256)):
    """(entries, dim_bits) with exact and near duplicates in half the cases."""
    dim_bits = draw(st.sampled_from(widths))
    n = draw(st.integers(min_entries, max_entries))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = random_descriptors(n, dim_bits, rng)
    if n > 1 and draw(st.booleans()):
        for i in rng.integers(0, n, size=n // 2):
            matrix[i] = flip_bits(matrix[0], rng.choice(dim_bits, size=int(rng.integers(0, 2))))
    entries = make_entries(matrix)
    for i, entry in enumerate(entries):
        entry.image_id = i % 5
    return entries, dim_bits


@st.composite
def trees(draw, min_entries=0, widths=(8, 12, 64, 256)):
    """(origin, tree): built, grown, hand-built or deserialized."""
    entries, dim_bits = draw(corpora(min_entries=min_entries, widths=widths))
    origin = draw(st.sampled_from(["built", "grown", "hand-built", "deserialized"]))
    config = TreeConfig(
        tau=0,
        delta_max=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5])),
        n_max=draw(st.integers(1, 8)),
        max_depth=draw(st.integers(0, 8)) or None,
    )
    if origin == "hand-built":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return origin, hand_built(entries, dim_bits, rng, draw(st.sampled_from([0.1, 0.3])))
    if origin == "grown":
        tree = HammingTree(dim_bits, config)
        tree.add(entries)
        return origin, tree
    tree = HammingTree.build_balanced(entries, config, dim_bits)
    if origin == "deserialized" and dim_bits % 8 == 0:
        tree = deserialize_tree(serialize_tree(tree), config)
    return origin, tree


def entries_under(node):
    return [e for leaf, *_ in nodes(node) if isinstance(leaf, LeafNode) for e in leaf.entries]


def replace(tree, parent, side, node):
    if parent is None:
        tree.root = node
    elif side:
        parent.right = node
    else:
        parent.left = node


def clone(tree):
    """A node-for-node copy sharing the entry objects."""

    def copy(node):
        if isinstance(node, LeafNode):
            return LeafNode(tree.dim_bits, node.entries)
        return InternalNode(node.bit_index, copy(node.left), copy(node.right))

    return HammingTree(tree.dim_bits, tree.config, root=copy(tree.root))


# ----------------------------------------------------------------------
# The walk and the validator
# ----------------------------------------------------------------------

@PROPERTY
@given(trees())
def test_trees_of_every_origin_pass_check_invariants(case):
    _, tree = case
    tree.check_invariants()
    walked = [(node, list(path)) for node, path in tree._walk()]
    reference = [(node, path) for node, _, _, path in nodes(tree.root)]
    assert [node for node, _ in walked] == [node for node, _ in reference]
    assert [path for _, path in walked] == [path for _, path in reference]
    assert tree.count == sum(len(node) for node, _ in walked if isinstance(node, LeafNode))
    assert [depth for _, depth in tree._iter_leaves()] == [
        len(path) for node, path in reference if isinstance(node, LeafNode)
    ]


@st.composite
def mutated_trees(draw):
    """(mutation, tree) over distinct rows: a valid tree with swapped
    children, a row moved into another leaf, or an ancestor's bit repeated."""
    dim_bits = draw(st.sampled_from([16, 64, 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = random_descriptors(draw(st.integers(3, 40)), dim_bits, rng)
    assume(len(np.unique(matrix, axis=0)) == len(matrix))
    entries = make_entries(matrix)
    if draw(st.booleans()):
        config = TreeConfig(tau=0, delta_max=0.5, n_max=draw(st.integers(1, 2)))
        tree = HammingTree.build_balanced(entries, config, dim_bits)
    else:
        tree = hand_built(entries, dim_bits, rng, 0.1)
    listed = nodes(tree.root)
    internal = [n for n in listed if isinstance(n[0], InternalNode) and entries_under(n[0])]
    leaves = [n for n in listed if isinstance(n[0], LeafNode)]
    mutation = draw(st.sampled_from(["swap", "move", "repeat"]))
    if mutation == "swap":
        assume(internal)
        node = draw(st.sampled_from(internal))[0]
        node.left, node.right = node.right, node.left
    elif mutation == "move":
        full = [n for n in leaves if len(n[0])]
        assume(full and len(leaves) > 1)
        source, parent, side, _ = draw(st.sampled_from(full))
        target = draw(st.sampled_from([n for n in leaves if n[0] is not source]))[0]
        row = draw(st.integers(0, len(source) - 1))
        target.append(source.entries[row])
        keep = np.ones(len(source), dtype=bool)
        keep[row] = False
        replace(tree, parent, side, kept(source, keep, tree.dim_bits))
    else:
        deep = [n for n in listed if isinstance(n[0], InternalNode) and n[3]]
        assume(deep)
        node, _, _, path = draw(st.sampled_from(deep))
        node.bit_index = draw(st.sampled_from([bit for bit, _ in path]))
    return mutation, tree


@PROPERTY
@given(mutated_trees())
def test_mutated_trees_fail_check_invariants_and_deserialize(case):
    mutation, tree = case
    message = "repeats" if mutation == "repeat" else "does not route to it"
    assert reference_routing_violation(tree) == ("repeats" if mutation == "repeat" else "route")
    with pytest.raises(ValueError, match=message):
        tree.check_invariants()
    with pytest.raises(FormatError, match=message):
        deserialize_tree(serialize_tree(tree))


@pytest.mark.parametrize("dim_bits, bit", [(16, 40), (16, 16), (16, -1), (12, 13)])
def test_a_bit_outside_the_width_fails_check_invariants(dim_bits, bit):
    # Numpy would read 40 and 16 past the packed row and wrap -1 to the last
    # byte; bit 13 of a 12-bit tree is a padding bit inside the last byte.
    rng = np.random.default_rng(141)
    rows = make_entries(random_descriptors(6, dim_bits, rng))
    valid = HammingTree(dim_bits, TreeConfig(tau=0),
                        root=InternalNode(0, LeafNode(dim_bits), LeafNode(dim_bits)))
    for entry in rows:
        valid.insert(entry)
    valid.check_invariants()
    root = valid.root
    tree = HammingTree(dim_bits, TreeConfig(tau=0),
                       root=InternalNode(bit, root.left, root.right))
    message = f"bit index {bit} out of range for {dim_bits}-bit tree"
    with pytest.raises(ValueError, match=message):
        tree.check_invariants()
    if dim_bits % 8 == 0 and bit >= 0:
        # The parser checks the range before the tree is built.
        with pytest.raises(FormatError, match=message):
            deserialize_tree(serialize_tree(tree))


def _chain_tree(descriptor, dim_bits):
    """Splits on bits 0..dim_bits-1 that route ``descriptor`` to the bottom
    leaf; every other branch ends in one shared empty leaf."""
    node = LeafNode(dim_bits, [DescriptorEntry(descriptor, 0, 0)])
    empty = LeafNode(dim_bits)
    for bit in reversed(range(dim_bits)):
        node = (InternalNode(bit, empty, node) if get_bit(descriptor, bit)
                else InternalNode(bit, node, empty))
    return HammingTree(dim_bits, TreeConfig(), root=node)


def test_check_invariants_walks_the_widest_chain_a_stream_can_hold():
    # 65,536 nested splits, the most a u16 bit index allows. A per-node
    # ancestor set would make this check quadratic in the depth.
    dim_bits = 1 << 16
    descriptor = random_descriptors(1, dim_bits, np.random.default_rng(140))[0]
    tree = _chain_tree(descriptor, dim_bits)
    tree.check_invariants()
    assert tree.depth_stats().max_depth == dim_bits
    bottom = tree.root
    while isinstance(bottom, InternalNode):
        bottom = bottom.right if get_bit(descriptor, bottom.bit_index) else bottom.left
    bottom.packed()[0] = flip_bits(descriptor, [dim_bits - 1])
    with pytest.raises(ValueError, match="does not route to it"):
        tree.check_invariants()


@pytest.mark.parametrize("dim_bits, bit", [(16, 40), (16, 16), (16, -1), (12, 13)])
def test_a_bit_outside_the_width_fails_batched_search(dim_bits, bit):
    # Without the check the batched search found 2 of the 6 rows for 40 and
    # 16, and raised a bare "negative shift count" for -1.
    rng = np.random.default_rng(141)
    rows = make_entries(random_descriptors(6, dim_bits, rng), image_id=1)
    tree = HammingTree(dim_bits, TreeConfig(tau=0),
                       root=InternalNode(bit, LeafNode(dim_bits), LeafNode(dim_bits)))
    message = f"bit index {bit} out of range for {dim_bits}-bit tree"
    with pytest.raises(ValueError, match=message):
        tree.search_all_batch(np.array([e.descriptor for e in rows]))
    with pytest.raises(ValueError, match=message):
        query_image(tree, make_entries(random_descriptors(3, dim_bits, rng), image_id=2),
                    RetrievalConfig(tau=0))
    with pytest.raises(ValueError, match=message):
        tree.search_all(rows[0])


# ----------------------------------------------------------------------
# The routing arrays against the scalar descent
# ----------------------------------------------------------------------

def probe_rows(tree, rng):
    """Every stored row, a few-bit variant of each, and random rows."""
    width = (tree.dim_bits + 7) // 8
    stored = np.array([e.descriptor for e in tree.leaf_entries()], dtype=np.uint8)
    stored = stored.reshape(-1, width)
    variants = [flip_bits(row, rng.choice(tree.dim_bits, size=2, replace=False))
                for row in stored]
    return np.concatenate([stored, np.array(variants, dtype=np.uint8).reshape(-1, width),
                           random_descriptors(int(rng.integers(0, 20)), tree.dim_bits, rng)])


def assert_batched_descent_is_scalar(tree, queries):
    leaves = tree.search_all_batch(queries, 0).leaves
    assert len(leaves) == len(queries)
    for row, leaf in zip(queries, leaves):
        assert leaf is tree._descend(descriptor_to_int(row))[0]


@PROPERTY
@given(trees(), st.integers(0, 2**32 - 1))
def test_batched_descent_reaches_the_scalar_leaf(case, seed):
    _, tree = case
    rng = np.random.default_rng(seed)
    assert_batched_descent_is_scalar(tree, probe_rows(tree, rng))
    # A new root drops the arrays built for the old one.
    bit = int(rng.integers(0, tree.dim_bits))
    tree.root = InternalNode(bit, tree.root, LeafNode(tree.dim_bits, tree.leaf_entries()[:3]))
    assert_batched_descent_is_scalar(tree, probe_rows(tree, rng))


@PROPERTY
@given(corpora(max_entries=200), st.integers(1, 8), st.sampled_from([0.1, 0.5]),
       st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_splits_extend_the_routing_arrays(corpus, n_max, delta_max, batch, seed):
    entries, dim_bits = corpus
    tree = HammingTree(dim_bits, TreeConfig(tau=0, delta_max=delta_max, n_max=n_max))
    rng = np.random.default_rng(seed)
    assert_batched_descent_is_scalar(tree, probe_rows(tree, rng))
    routes = tree._routes
    for start in range(0, len(entries), batch):
        tree.add(entries[start:start + batch])
        assert_batched_descent_is_scalar(tree, probe_rows(tree, rng))
    # Every split was appended to the arrays the first search built.
    assert tree._routes is routes
    assert routes.size + 1 == len(routes.leaves) == tree.depth_stats().leaf_count


# ----------------------------------------------------------------------
# structurally_equal against the paired-stack reference
# ----------------------------------------------------------------------

@st.composite
def tree_pairs(draw):
    """(change, a, b): b is a copy of a, changed in one way or not at all."""
    _, a = draw(trees(min_entries=2))
    b = clone(a)
    listed = nodes(b.root)
    change = draw(st.sampled_from(["none", "shape", "bit", "order", "entry", "width"]))
    if change == "shape":
        node, parent, side, _ = draw(st.sampled_from(listed))
        if isinstance(node, LeafNode):
            replace(b, parent, side, InternalNode(0, node, LeafNode(b.dim_bits)))
        else:
            replace(b, parent, side, LeafNode(b.dim_bits, entries_under(node)))
    elif change == "bit":
        internal = [n for n in listed if isinstance(n[0], InternalNode)]
        assume(internal)
        node = draw(st.sampled_from(internal))[0]
        node.bit_index = (node.bit_index + draw(st.integers(1, b.dim_bits - 1))) % b.dim_bits
    elif change == "order":
        full = [n for n in listed if isinstance(n[0], LeafNode) and len(n[0]) > 1]
        assume(full)
        leaf, parent, side, _ = draw(st.sampled_from(full))
        replace(b, parent, side, LeafNode(b.dim_bits, leaf.entries[::-1]))
    elif change == "entry":
        full = [n for n in listed if isinstance(n[0], LeafNode) and len(n[0])]
        assume(full)
        leaf, parent, side, _ = draw(st.sampled_from(full))
        entries = list(leaf.entries)
        i = draw(st.integers(0, len(entries) - 1))
        e = entries[i]
        entries[i] = DescriptorEntry(e.descriptor, e.image_id, e.keypoint_id + 1, e.keypoint_xy)
        replace(b, parent, side, LeafNode(b.dim_bits, entries))
    elif change == "width":
        b = HammingTree(b.dim_bits + 8, b.config)
    return change, a, b


@PROPERTY
@given(tree_pairs())
def test_structurally_equal_agrees_with_the_paired_stack_reference(case):
    change, a, b = case
    want = reference_structurally_equal(a, b)
    assert a.structurally_equal(b) == want
    assert b.structurally_equal(a) == want
    # Keypoint ids are distinct, so every change is a real difference.
    assert want == (change == "none")


# ----------------------------------------------------------------------
# Sequential insert against the int64-unpack split
# ----------------------------------------------------------------------

@PROPERTY
@given(
    corpora(max_entries=200),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5]),
    st.integers(0, 10),
)
def test_insert_matches_the_int64_unpack_split(corpus, n_max, delta_max, max_depth):
    entries, dim_bits = corpus
    config = TreeConfig(
        tau=0, delta_max=delta_max, n_max=n_max, max_depth=min(max_depth, dim_bits) or None
    )
    tree = HammingTree(dim_bits, config)
    reference = ReferenceSplitTree(dim_bits, config)
    for entry in entries:
        tree.insert(entry)
        reference.insert(entry)
    assert tree.structurally_equal(reference)
    assert reference_structurally_equal(tree, reference)
    assert tree.count == reference.count == len(entries)
    for (leaf, _), (ref_leaf, _) in zip(tree._iter_leaves(), reference._iter_leaves()):
        assert all(x is y for x, y in zip(leaf.entries, ref_leaf.entries))
        assert np.array_equal(leaf.packed(), ref_leaf.packed())
        assert np.array_equal(leaf.image_ids(), ref_leaf.image_ids())
        if len(leaf):
            assert leaf.statistics().counts.tolist() == (
                unpack_bits(leaf.packed(), dim_bits).sum(axis=0).tolist()
            )
    tree.check_invariants()
