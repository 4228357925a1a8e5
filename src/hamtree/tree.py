"""Bit-index search tree over packed binary descriptors.

Internal nodes test a single descriptor bit (value 0 descends left, 1 right);
leaves hold descriptor sets that are scanned exhaustively. Each bit index
appears at most once on any root-to-leaf path, which bounds the tree depth by
the descriptor width. The tree supports balanced offline construction,
incremental insertion with leaf splitting, and greedy nearest / range search.
Both constructions choose a split with one routine, ``HammingTree._split``,
and ``build_balanced`` and the stream loader make nodes through one builder,
``_grow``, which does not recurse.

Trees are single-writer / multi-reader: any number of concurrent searches may
run against an unchanging tree, while ``insert`` and ``search_and_insert``
require exclusive access. A read writes two things, and never an arena. The
first ``search_all`` or batched descent (``search_all_batch``, or the
completeness sweep's ``_leaf_ids``) builds the tree's routing arrays
(``_Routes``) from the node graph and later ones reuse them; concurrent first
reads build equal arrays, and whichever is stored last is kept. A split keeps
the arrays up to date. Assigning ``root`` drops them, and with them the
split bounds (``HammingTree._retry``), so a caller that edits nodes in place
after a range search or an insert must assign ``root`` again before the next
one. And on a tree read from a stream, the first read of a stored
row makes its entry and caches it on the leaf, under a lock, so concurrent
first reads of one row all return the one cached entry.

A leaf's rows live in a slab of its arena, so ``packed()`` and
``image_ids()`` are views of the arena's columns. Such a view is valid until
the next insert or split: an insert can move a full leaf to a new slab, and a
released slab is handed to another leaf, so an older view may then show
another leaf's rows. Take a copy to keep rows across an insert.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .descriptor import (
    BitStatistics,
    DescriptorEntry,
    descriptor_nbytes,
    descriptor_to_int,
    _UINT8,
    _bit_counts,
    _block_rows,
    _row_popcount,
    _stack_checked,
)

__all__ = [
    "TreeConfig",
    "InternalNode",
    "LeafNode",
    "LeafHits",
    "MatchRecord",
    "SearchResult",
    "DepthStats",
    "select_split_bit",
    "HammingTree",
]

# ``insert`` compacts the arena it wrote to once released slabs hold more
# than a quarter of its used rows and more than this many rows. A leaf that
# grows past every other leaf's capacity, as one of duplicates that no split
# can separate does, leaves slabs behind that no other leaf asks for; a
# compaction copies the stored rows once per such quarter. Below the floor,
# a small tree's first splits would compact a few hundred rows, which saves
# nothing worth the copy.
_COMPACT_MIN_ROWS = 1 << 12

# Held while a loaded leaf makes an entry, so that threads reading one row
# for the first time at once all get the entry that is cached.
_READ_LOCK = threading.Lock()


@dataclass(slots=True)
class TreeConfig:
    """Construction and matching parameters.

    tau: Hamming acceptance threshold for matches (inclusive).
    delta_max: a bit is an admissible split only if its mean over the node's
        descriptors is within delta_max of 0.5.
    n_max: maximum leaf size; a leaf exceeding it is split when possible.
    max_depth: depth bound; None means the descriptor width.
    """

    tau: int = 25
    delta_max: float = 0.1
    n_max: int = 10
    max_depth: int | None = None

    def validate(self, dim_bits: int) -> None:
        if not 0 <= self.tau <= dim_bits:
            raise ValueError(f"tau must be in [0, {dim_bits}], got {self.tau}")
        if not 0.0 <= self.delta_max <= 0.5:
            raise ValueError(f"delta_max must be in [0, 0.5], got {self.delta_max}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.max_depth is not None and not 1 <= self.max_depth <= dim_bits:
            raise ValueError(
                f"max_depth must be in [1, {dim_bits}], got {self.max_depth}"
            )

    def depth_limit(self, dim_bits: int) -> int:
        return dim_bits if self.max_depth is None else self.max_depth


def _slab_size(n: int) -> int:
    """The smallest slab size class that holds ``n`` rows. The classes are
    8 rows and up, four per octave: 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, ...
    so a class is under a quarter larger than the rows it is sized for."""
    step = 1 << max(0, (n - 1).bit_length() - 3)
    return max(8, -(-n // step) * step)


class _Arena:
    """Tree-wide descriptor-row and image-id columns; each leaf holds a slab.

    A slab ``(arena, offset, capacity)`` is rows ``offset:offset + capacity``
    of both columns, and its leaf fills them from the front. Rows from
    ``used`` on are growth slack. ``free`` maps a capacity to the offsets of
    the released slabs of that capacity, which ``alloc`` hands out by best
    fit before it takes new rows, and ``spare`` counts their rows. Growing
    leaves ask for size classes (``_slab_size``); built, loaded and
    compacted leaves get slabs of their exact size. Only the tree's writer
    allocates and releases, never a read, at a leaf's move or split; a leaf
    dropped from the graph by hand keeps its slab until the next compaction.
    """

    __slots__ = ("rows", "ids", "used", "free", "spare")

    def __init__(self, rows: np.ndarray, ids: np.ndarray):
        self.rows = rows
        self.ids = ids
        self.used = len(ids)
        self.free: dict[int, list[int]] = {}
        self.spare = 0

    @classmethod
    def empty(cls, dim_bits: int, rows: int = 0) -> "_Arena":
        """An arena with no slab and columns of ``rows`` rows, all slack."""
        nbytes = descriptor_nbytes(dim_bits)
        arena = cls(np.empty((rows, nbytes), dtype=np.uint8), np.empty(rows, dtype=np.int64))
        arena.used = 0
        return arena

    def alloc(self, capacity: int) -> tuple[int, int]:
        """The (offset, capacity) of a slab of at least ``capacity`` rows:
        the smallest released one among the size classes from ``capacity``
        up to under 1.5 times it, whose whole capacity the caller keeps, else
        new rows at ``used``. Full columns grow by an eighth, so the slack
        stays under an eighth of the rows in use."""
        size = capacity
        while self.free and 2 * size < 3 * capacity:
            released = self.free.get(size)
            if released:
                if len(released) == 1:
                    del self.free[size]
                self.spare -= size
                return released.pop(), size
            size = _slab_size(size + 1)
        start = self.used
        self.used = start + capacity
        if self.used > len(self.ids):
            size = max(self.used, len(self.ids) + len(self.ids) // 8)
            self.rows = _grown(self.rows, size)
            self.ids = _grown(self.ids, size)
        return start, capacity

    def release(self, offset: int, capacity: int) -> None:
        if capacity:
            self.free.setdefault(capacity, []).append(offset)
            self.spare += capacity


class LeafNode:
    """Leaf holding descriptor entries in insertion order.

    The entries' descriptors and image ids are stored as rows of a slab of
    an arena (``_Arena``): a tree's leaves share its arena, so a batched scan
    gathers the rows of many leaves with one index. A leaf built by hand
    starts with an arena of its own, which it keeps until the tree's next
    compaction moves it into the tree's arena. A leaf keeps no writer state:
    its tree releases the slab and keeps its split bound. Per-bit set counts
    are not kept; they are computed from the rows when asked for, which
    happens only when a split is considered.

    A leaf read from a tree stream starts with no entry objects: it keeps
    the stream's record rows (image id, keypoint id, x, y) beside its
    rows, and ``entry(i)`` makes row i's ``DescriptorEntry`` on first use
    and caches it, so one row always yields the same object. ``entries``
    makes every row's. A leaf filled by ``insert`` or ``build_balanced``
    holds the caller's entries as they are.
    """

    # ``_entries[i]`` is row i's entry, or None while it is unmade;
    # ``_records`` holds the record rows until every entry is made;
    # ``_slab`` is the (arena, offset, capacity) of the rows.
    __slots__ = ("_entries", "_records", "_slab", "_dim_bits")

    def __init__(self, dim_bits: int, entries: Sequence[DescriptorEntry] = ()):
        self._entries: list[DescriptorEntry | None] = list(entries)
        self._records: np.ndarray | None = None
        self._dim_bits = dim_bits
        rows = _stack_checked(self._entries, descriptor_nbytes(dim_bits))
        self._slab = (_Arena(rows, _image_id_column(self._entries)), 0, len(rows))

    @classmethod
    def _in_slab(
        cls,
        dim_bits: int,
        slab: tuple[_Arena, int, int],
        entries: list[DescriptorEntry | None],
    ) -> "LeafNode":
        """A leaf over the first ``len(entries)`` rows of ``slab``, taken as
        they are."""
        leaf = cls.__new__(cls)
        leaf._dim_bits = dim_bits
        leaf._entries = entries
        leaf._records = None
        leaf._slab = slab
        return leaf

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[DescriptorEntry]:
        """Every row's entry, in insertion order; unmade ones are made."""
        if self._records is not None:
            with _READ_LOCK:
                entries = self._entries
                for i, e in enumerate(entries):
                    if e is None:
                        entries[i] = self._made(i)
                self._records = None
        return self._entries

    def entry(self, i: int) -> DescriptorEntry:
        """Row ``i``'s entry, made from its record on first read."""
        entry = self._entries[i]
        if entry is None:
            # Only a miss locks, so concurrent first reads of a row agree.
            with _READ_LOCK:
                entry = self._entries[i]
                if entry is None:
                    entry = self._entries[i] = self._made(i)
        return entry

    def _made(self, i: int) -> DescriptorEntry:
        """A new entry for row ``i`` (an index that ``_entries`` accepts)
        from its record and a copy of its row."""
        if i < 0:
            i += len(self._entries)
        image_id, keypoint_id, x, y = self._records.item(i)
        return DescriptorEntry(self.packed()[i].copy(), image_id, keypoint_id, (x, y))

    def _row_fields(self) -> tuple[list[tuple], Sequence[np.ndarray]]:
        """Per row, the (image_id, keypoint_id, keypoint_xy) and descriptor
        that its entry holds, made or not; no entry is made."""
        entries, records = self._entries, self._records
        if records is None:
            return (
                [(e.image_id, e.keypoint_id, e.keypoint_xy) for e in entries],
                [e.descriptor for e in entries],
            )
        keys = [(i, k, (x, y)) for i, k, x, y in records.tolist()]
        rows: Sequence[np.ndarray] = self.packed()
        made = [(i, e) for i, e in enumerate(entries) if e is not None]
        if made:
            rows = list(rows)
            keys += [None] * (len(entries) - len(keys))
            for i, e in made:
                keys[i] = (e.image_id, e.keypoint_id, e.keypoint_xy)
                rows[i] = e.descriptor
        return keys, rows

    def append(self, entry: DescriptorEntry) -> None:
        """Add ``entry`` as the last row; a full slab first moves to one of
        the next size class (``_slab_size``). ValueError, with nothing
        written, for a descriptor of another width; a full slab checks the
        whole shape before it moves."""
        arena, offset, capacity = self._slab
        if len(entry.descriptor) != arena.rows.shape[1]:
            _stack_checked([entry], arena.rows.shape[1])  # raises, naming the entry
        n = len(self._entries)
        if n == capacity:
            if np.ndim(entry.descriptor) != 1:  # of the right length, so 2-D or more
                _stack_checked([entry], arena.rows.shape[1])
            arena, offset, capacity = self._move(arena, _slab_size(capacity + 1))
        # The id goes first: one outside int64 leaves the entries untouched.
        try:
            arena.ids[offset + n] = entry.image_id
        except OverflowError:
            raise _image_id_error(entry.image_id) from None
        arena.rows[offset + n] = entry.descriptor
        self._entries.append(entry)

    def _move(self, arena: _Arena, capacity: int) -> tuple[_Arena, int, int]:
        """Move the rows to a new slab of ``arena`` of at least ``capacity``
        rows, release the old one and return the new."""
        old_arena, offset, old = self._slab
        n = len(self._entries)
        start, capacity = arena.alloc(capacity)
        arena.rows[start : start + n] = old_arena.rows[offset : offset + n]
        arena.ids[start : start + n] = old_arena.ids[offset : offset + n]
        self._slab = slab = (arena, start, capacity)
        old_arena.release(offset, old)
        return slab

    def packed(self) -> np.ndarray:
        """View of the stored descriptors as a (len, W) matrix, valid until
        the next insert (see the module docstring)."""
        arena, offset, _ = self._slab
        return arena.rows[offset : offset + len(self._entries)]

    def image_ids(self) -> np.ndarray:
        """View of the stored entries' image ids, in insertion order, valid
        until the next insert."""
        arena, offset, _ = self._slab
        return arena.ids[offset : offset + len(self._entries)]

    def statistics(self) -> BitStatistics:
        return BitStatistics(counts=_bit_counts(self.packed(), self._dim_bits), total=len(self))


def _same_rows(a: LeafNode, b: LeafNode) -> bool:
    """Whether two leaves of equal length hold equal entries row by row, as
    ``DescriptorEntry.__eq__`` compares them, without making any."""
    keys_a, rows_a = a._row_fields()
    keys_b, rows_b = b._row_fields()
    if keys_a != keys_b:
        return False
    return not keys_a or np.array_equal(np.asarray(rows_a), np.asarray(rows_b))


def _image_id_error(image_id: int) -> ValueError:
    return ValueError(f"image_id {image_id} does not fit the int64 image-id column")


def _image_id_column(entries: Sequence[DescriptorEntry]) -> np.ndarray:
    """The entries' image ids as an int64 column; ValueError for one outside int64."""
    ids = [e.image_id for e in entries]
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        bad = next(i for i in ids if not -(2**63) <= i < 2**63)
        raise _image_id_error(bad) from None


def _grown(column: np.ndarray, capacity: int) -> np.ndarray:
    out = np.empty((capacity,) + column.shape[1:], dtype=column.dtype)
    out[: column.shape[0]] = column
    return out


def _gather_scan(
    queries: np.ndarray, arena: _Arena, offsets: np.ndarray, sizes: np.ndarray, tau: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Hits of query row q against arena rows ``offsets[q]`` to
    ``offsets[q] + sizes[q]`` (its leaf), as (query, position, image id,
    distance) column parts in query order.

    The reached rows of consecutive queries are gathered into one block by
    one index array, XORed with the repeated queries and counted; a block
    stays under the block budget unless one query's leaf alone is larger, so
    an oversize leaf reached by many queries cannot blow up memory.
    """
    # Query q's candidates are places starts[q]:ends[q] of the whole gather;
    # place p of query q is arena row p + shift[q].
    ends = np.cumsum(sizes)
    starts = ends - sizes
    shift = offsets - starts
    cap_rows = _block_rows(queries.shape[1])
    empty = np.empty(0, dtype=np.int64)
    parts = [(empty, empty, empty, np.empty(0, dtype=np.int32))]
    lo = 0
    while lo < len(sizes):
        # The longest run of queries from ``lo`` whose rows fit the cap.
        hi = max(lo + 1, int(np.searchsorted(ends, starts[lo] + cap_rows, "right")))
        index = np.arange(starts[lo], ends[hi - 1])
        index += np.repeat(shift[lo:hi], sizes[lo:hi])
        # ``take`` gathered 40k 32-byte rows in a quarter of the time that
        # fancy indexing took.
        rows = np.take(arena.rows, index, axis=0)
        np.bitwise_xor(rows, np.repeat(queries[lo:hi], sizes[lo:hi], axis=0), out=rows)
        dist = _row_popcount(rows)
        hit = np.flatnonzero(dist <= tau)
        if hit.size:
            place = hit + starts[lo]
            query = np.searchsorted(ends, place, "right")
            parts.append((query, place - starts[query], arena.ids.take(index[hit]), dist[hit]))
        lo = hi
    return parts


class InternalNode:
    """Two-way branch on one descriptor bit: 0 goes left, 1 goes right."""

    __slots__ = ("bit_index", "left", "right")

    def __init__(self, bit_index: int, left: "TreeNode", right: "TreeNode"):
        self.bit_index = bit_index
        self.left = left
        self.right = right


TreeNode = InternalNode | LeafNode

# The (descriptor rows, image ids, entry objects) that ``_new_leaf`` takes rows of.
_Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _grow(make: Callable[[list[tuple[int, int]]], TreeNode]) -> TreeNode:
    """A tree made in ``HammingTree._walk``'s order, preorder and left
    first: ``make`` gets each node's ``(bit_index, side)`` path, as the walk
    yields it, and returns the node, an internal one without children. A
    stack of pending (parent, side, depth) slots attaches them, so a chain as
    deep as the width needs no recursion."""
    path: list[tuple[int, int]] = []
    root = make(path)
    pending = [(root, 1, 1), (root, 0, 1)] if isinstance(root, InternalNode) else []
    while pending:
        parent, side, depth = pending.pop()
        path[depth - 1 :] = ((parent.bit_index, side),)
        node = make(path)
        if side:
            parent.right = node
        else:
            parent.left = node
        if isinstance(node, InternalNode):
            pending += ((node, 1, depth + 1), (node, 0, depth + 1))
    return root


def _check_bit(bit: int, dim_bits: int) -> None:
    if not 0 <= bit < dim_bits:
        raise ValueError(f"bit index {bit} out of range for {dim_bits}-bit tree")


def _check_node(
    node: TreeNode, path: list[tuple[int, int]], split_at: dict[int, int], dim_bits: int
) -> None:
    """``check_invariants``' rule for one node and its ``(bit_index, side)``
    path. Nodes come in preorder, sharing ``split_at``: the path position
    where each bit was last split. The bit is on the current path exactly
    when the path still holds it there; an ancestor set per node would cost
    O(depth) per node instead."""
    if isinstance(node, InternalNode):
        bit = node.bit_index
        _check_bit(bit, dim_bits)
        k = split_at.get(bit)
        if k is not None and k < len(path) and path[k][0] == bit:
            raise ValueError(f"bit index {bit} repeats on a root-to-leaf path")
        split_at[bit] = len(path)
    else:
        _check_rows(node.packed(), path)


def _check_rows(rows: np.ndarray, path: list[tuple[int, int]]) -> None:
    """``_check_node``'s rule for the (n, W) rows of a leaf at ``path``."""
    if len(rows) and path:
        bits, sides = np.array(path).T
        if not ((rows[:, bits >> 3] >> (bits & 7)) & 1 == sides).all():
            raise ValueError("a leaf holds a descriptor that does not route to it")


class _Routes:
    """A tree's routing as flat int32 arrays, for the batched descent.

    Internal node ``i`` splits on ``bit[i]`` and goes to ``child[i, side]``;
    a child, like ``root``, is a node id, or ``~k`` for the leaf
    ``leaves[k]``. A leaf object the graph holds in several places gets one
    id per place. Rows from ``size`` on are spare capacity for splits.
    """

    __slots__ = ("bit", "child", "size", "leaves", "root")

    def __init__(self, tree: "HammingTree"):
        """The arrays of ``tree``'s node graph; ValueError for a split bit
        outside the width."""
        bits: list[int] = []
        children: list[list[int]] = []
        self.leaves: list[LeafNode] = []
        # The id of the node at each depth of the walk's current path.
        ids: list[int] = []
        for node, path in tree._walk():
            if isinstance(node, InternalNode):
                _check_bit(node.bit_index, tree.dim_bits)
                code = len(bits)
                bits.append(node.bit_index)
                children.append([0, 0])
            else:
                code = ~len(self.leaves)
                self.leaves.append(node)
            depth = len(path)
            if depth:
                children[ids[depth - 1]][path[-1][1]] = code
            del ids[depth:]
            ids.append(code)
        self.root = ids[0]
        self.size = len(bits)
        self.bit = np.array(bits, dtype=np.int32)
        self.child = np.array(children, dtype=np.int32).reshape(-1, 2)

    def descend(self, queries: np.ndarray) -> np.ndarray:
        """Leaf id reached by each row of an (n, W) packed query matrix.

        One fancy-index step per level moves every query still at an
        internal node to its child; a query leaves the active set at its leaf.
        """
        n = queries.shape[0]
        if self.root < 0:
            return np.full(n, ~self.root, dtype=np.intp)
        reached = np.empty(n, dtype=np.intp)
        active = np.arange(n)
        node = np.full(n, self.root, dtype=np.int32)
        while active.size:
            bit = self.bit[node]
            side = (queries[active, bit >> 3] >> (bit & 7)) & 1
            node = self.child[node, side]
            done = node < 0
            if done.any():
                reached[active[done]] = ~node[done]
                active, node = active[~done], node[~done]
        return reached

    def split(self, path: list[InternalNode], leaf: LeafNode, node: InternalNode) -> bool:
        """Mirror ``_maybe_split`` putting ``node``, whose children are two new
        leaves, in place of ``leaf`` at the end of ``path``: one node and one
        leaf are appended. False, with nothing changed, when the arrays do
        not hold ``leaf`` there, as after nodes were edited in place."""
        code, slot = self.root, None
        for k, inner in enumerate(path):
            if code < 0:
                return False
            below = path[k + 1] if k + 1 < len(path) else leaf
            slot = (code, 1 if inner.right is below else 0)
            code = int(self.child[slot])
        if code >= 0 or self.leaves[~code] is not leaf:
            return False
        n = self.size
        if n == self.bit.shape[0]:
            self.bit = _grown(self.bit, max(8, 2 * n))
            self.child = _grown(self.child, max(8, 2 * n))
        self.bit[n] = node.bit_index
        self.child[n] = (code, ~len(self.leaves))
        self.leaves[~code] = node.left
        self.leaves.append(node.right)
        if slot is None:
            self.root = n
        else:
            self.child[slot] = n
        self.size = n + 1
        return True


@dataclass(slots=True)
class MatchRecord:
    """One query/reference correspondence with its Hamming distance."""

    query: DescriptorEntry
    reference: DescriptorEntry
    distance: int


@dataclass(slots=True)
class SearchResult:
    """Outcome of one greedy descent plus leaf scan.

    ``best`` is the minimum-distance leaf entry if that distance is within
    tau, else None. ``leaf_scanned`` counts descriptors compared in the
    reached leaf and ``depth_traversed`` the internal nodes passed, so their
    sum is the exact work spent on the query.
    """

    best: MatchRecord | None
    leaf_scanned: int
    depth_traversed: int


@dataclass(slots=True)
class LeafHits:
    """Leaf-scan hits of a query batch, as parallel arrays.

    Hit ``i`` is row ``position[i]`` of ``leaves[query[i]]``, the leaf that
    query row ``query[i]`` reached, at Hamming distance ``distance[i]``;
    ``image_id[i]`` is that entry's image id. Hits are ordered by query, then
    by insertion order within the leaf, as ``search_all`` returns them.
    ``hit_references`` of the index that made the hits gives their entries.
    """

    query: np.ndarray
    position: np.ndarray
    image_id: np.ndarray
    distance: np.ndarray
    leaves: list[LeafNode]


@dataclass(slots=True)
class DepthStats:
    """Leaf-depth statistics, one sample per leaf."""

    mean_depth: float
    stddev_depth: float
    max_depth: int
    leaf_count: int
    leaf_size_histogram: dict[int, int] = field(default_factory=dict)


def _closest_bit(counts: np.ndarray, total: int, forbidden: set[int]) -> tuple[int, float]:
    """The bit, outside ``forbidden``, whose mean over ``total`` rows with
    per-bit set counts ``counts`` lies closest to 0.5, and that distance
    |0.5 - mean|; infinite when every bit is forbidden. Ties break to the
    smallest index."""
    deviation = np.abs(0.5 - counts / float(total))
    if forbidden:
        deviation[[k for k in forbidden if 0 <= k < deviation.shape[0]]] = np.inf
    best = int(np.argmin(deviation))
    return best, float(deviation[best])


def select_split_bit(
    stats: BitStatistics, forbidden: set[int], delta_max: float
) -> int | None:
    """Pick the bit whose mean is closest to 0.5, skipping forbidden indices.

    Returns None when every candidate's |0.5 - mean| exceeds delta_max (the
    split is refused) or when no candidate remains. Ties break to the
    smallest index.
    """
    if stats.total < 1:
        raise ValueError("statistics cover no descriptors")
    bit, distance = _closest_bit(stats.counts, stats.total, forbidden)
    return bit if distance <= delta_max else None


class HammingTree:
    """Search tree over a corpus of uniform-width binary descriptors.

    Parameters
    ----------
    dim_bits:
        Logical descriptor width of the corpus.
    config:
        Matching and splitting parameters (defaults mirror the standard
        256-bit setup: tau=25, delta_max=0.1, n_max=10).
    root:
        Optional pre-built node structure; mainly for deserialization and
        hand-constructed fixtures. A tree over another tree's nodes shares
        their leaves: after a write through one, assign the other's root
        again before reading through it.
    """

    def __init__(
        self,
        dim_bits: int,
        config: TreeConfig | None = None,
        root: TreeNode | None = None,
    ):
        if dim_bits < 1:
            raise ValueError(f"dim_bits must be >= 1, got {dim_bits}")
        self.dim_bits = dim_bits
        self.config = config if config is not None else TreeConfig()
        self.config.validate(dim_bits)
        # The arena of the tree's leaves. A given ``root``'s leaves keep
        # their slabs until a compaction moves them in, and none has a split
        # bound; a batched search reads leaves held elsewhere by a copy.
        self._arena = _Arena.empty(dim_bits)
        if root is None:
            root = LeafNode._in_slab(dim_bits, (self._arena, 0, 0), [])
        self.root = root
        self.count = sum(len(leaf) for leaf, _ in self._iter_leaves())

    @property
    def root(self) -> TreeNode:
        return self._root

    @root.setter
    def root(self, node: TreeNode) -> None:
        self._root = node
        # Both are made for the old graph's paths: the routing arrays, and per
        # leaf the size below which its split must refuse (``_retry_size``).
        self._routes: _Routes | None = None
        self._retry: dict[LeafNode, float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build_balanced(
        cls,
        entries: Sequence[DescriptorEntry],
        config: TreeConfig | None = None,
        dim_bits: int | None = None,
    ) -> "HammingTree":
        """Build a tree by splitting the entry set evenly, node by node.

        At each node the bit with mean closest to 0.5 over the current subset
        (ancestor bits excluded) partitions the subset; a subset is a leaf
        when it is at most n_max entries, at the depth limit, or when no bit
        is admissible under delta_max: ``insert``'s choice, ``_split``, made
        in preorder through ``_grow``. Runs in O(n * depth). Each leaf gets a
        slab of its exact size, not a size class; the slabs fill the arena in
        leaf order with no slack.
        """
        entries = list(entries)
        if dim_bits is None:
            if not entries:
                raise ValueError("dim_bits is required to build an empty tree")
            dim_bits = 8 * int(np.asarray(entries[0].descriptor).shape[0])
        tree = cls(dim_bits, config)
        if not entries:
            return tree
        matrix = _stack_checked(entries, descriptor_nbytes(dim_bits))
        columns = (matrix, _image_id_column(entries), np.fromiter(entries, object, len(entries)))
        # Exact slabs fill columns of the corpus's size, so they never grow.
        tree._arena = _Arena.empty(dim_bits, len(entries))
        n_max, levels = tree.config.n_max, tree.config.depth_limit(dim_bits)
        # The (rows, per-bit set counts) of the nodes still to make, the next
        # on top: ``_grow`` asks for a node's left child before its right.
        todo = [(np.arange(len(entries)), _bit_counts(matrix, dim_bits))]

        def make(path: list[tuple[int, int]]) -> TreeNode:
            subset, counts = todo.pop()
            if len(subset) > n_max and len(path) < levels:
                split = tree._split(matrix, subset, counts, {bit for bit, _ in path})
                if split is not None:
                    bit, (left, right) = split
                    # Count the smaller half only; the other half holds the rest.
                    # Halves at the depth limit are leaves, whose counts go unread.
                    small = right if len(right) < len(left) else left
                    c = _bit_counts(matrix[small], dim_bits) if len(path) + 1 < levels else 0
                    todo.append((right, c if small is right else counts - c))
                    todo.append((left, c if small is left else counts - c))
                    return InternalNode(bit, None, None)
            return tree._new_leaf(columns, subset, 0)

        tree.root = _grow(make)
        tree.count = len(entries)
        return tree

    def _split(
        self, rows: np.ndarray, subset: np.ndarray, counts: np.ndarray, forbidden: set[int]
    ) -> tuple[int, tuple[np.ndarray, np.ndarray]] | None:
        """The split of rows ``subset`` of ``rows``, whose per-bit set counts
        are ``counts``, at a path that holds the bits of ``forbidden``: the
        bit ``select_split_bit`` picks, and the (left, right) parts of
        ``subset``, rows in order. None, with nothing made, when it refuses."""
        stats = BitStatistics(counts, len(subset))
        bit = select_split_bit(stats, forbidden, self.config.delta_max)
        if bit is None:
            return None
        right = (rows[subset, bit >> 3] >> (bit & 7)) & 1 == 1
        return bit, (subset[~right], subset[right])

    def _new_leaf(self, columns: _Columns, subset: np.ndarray, capacity: int) -> LeafNode:
        """A leaf of rows ``subset`` of ``columns``, in order, in a new slab
        of the tree's arena with room for at least ``capacity`` rows."""
        rows, image_ids, entries = columns
        n = len(subset)
        arena = self._arena
        start, capacity = arena.alloc(max(capacity, n))
        # The ``take`` methods gather 100 rows in half the time the function does.
        rows.take(subset, axis=0, out=arena.rows[start : start + n])
        image_ids.take(subset, out=arena.ids[start : start + n])
        slab = (arena, start, capacity)
        return LeafNode._in_slab(self.dim_bits, slab, entries[subset].tolist())

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _descend(
        self, key: int, path: list[InternalNode] | None = None
    ) -> tuple[LeafNode, int]:
        """Greedy traversal of the descriptor ``key`` (from ``_key``).

        Returns the reached leaf and its depth; when ``path`` is given, the
        internal nodes passed are appended to it, root first.
        """
        node = self._root
        if path is None:
            depth = 0
            while isinstance(node, InternalNode):
                node = node.right if (key >> node.bit_index) & 1 else node.left
                depth += 1
            return node, depth
        start = len(path)
        while isinstance(node, InternalNode):
            path.append(node)
            node = node.right if (key >> node.bit_index) & 1 else node.left
        return node, len(path) - start

    def _check_width(self, descriptor: np.ndarray) -> None:
        nbytes = descriptor_nbytes(self.dim_bits)
        shape = np.shape(descriptor)
        if shape != (nbytes,):
            size = f"{shape[0]} bytes" if len(shape) == 1 else f"shape {shape}"
            raise ValueError(f"query has {size}, tree expects {nbytes} bytes")

    def _key(self, descriptor: np.ndarray) -> int:
        """The descriptor as an int (``descriptor_to_int``) for ``_descend``;
        ValueError unless it has the tree's byte width. A uint8 row of that
        width skips the general conversion."""
        if (
            type(descriptor) is np.ndarray
            and descriptor.dtype is _UINT8
            and descriptor.shape == ((self.dim_bits + 7) >> 3,)
        ):
            return int.from_bytes(descriptor.tobytes(), "little")
        self._check_width(descriptor)
        return descriptor_to_int(descriptor)

    def search_nearest(
        self, query: DescriptorEntry, tau: int | None = None
    ) -> SearchResult:
        """Greedy descent then exhaustive scan of the reached leaf.

        A query whose descriptor is stored in the tree is always found at
        distance 0, because it retraces the exact path of its stored copy.
        Among equal minimum distances the first-inserted entry wins, matching
        the brute-force convention. Split bits are not range-checked here:
        on a hand-built tree a bit past the width reads as 0 and a negative
        one raises Python's shift error; ``check_invariants``, ``search_all``
        and ``search_all_batch`` report either as a ValueError.
        """
        key = self._key(query.descriptor)
        if tau is None:
            tau = self.config.tau
        leaf, depth = self._descend(key)
        n = len(leaf)
        if n == 0:
            return SearchResult(best=None, leaf_scanned=0, depth_traversed=depth)
        dists = _row_popcount(leaf.packed(), query.descriptor)
        best_idx = int(dists.argmin())
        best_dist = int(dists[best_idx])
        best = None
        if best_dist <= tau:
            best = MatchRecord(
                query=query, reference=leaf.entry(best_idx), distance=best_dist
            )
        return SearchResult(best=best, leaf_scanned=n, depth_traversed=depth)

    def search_all(
        self, query: DescriptorEntry, tau: int | None = None
    ) -> list[MatchRecord]:
        """All reached-leaf entries within tau, in insertion order.

        The result is by construction a subset of what a full brute-force
        scan at the same tau would return. One greedy descent and one scan
        of the reached leaf, the same as ``search_nearest``'s. Split bits are
        range-checked (ValueError for one outside the width) when the
        routing arrays are built, on the first ``search_all`` or
        ``search_all_batch`` after the root was set.
        """
        key = self._key(query.descriptor)
        if tau is None:
            tau = self.config.tau
        if self._routes is None:
            self._routes = _Routes(self)
        leaf, _ = self._descend(key)
        if not len(leaf):
            return []
        dists = _row_popcount(leaf.packed(), query.descriptor)
        hits = np.flatnonzero(dists <= tau)
        return [
            MatchRecord(query=query, reference=leaf.entry(i), distance=d)
            for i, d in zip(hits.tolist(), dists[hits].tolist())
        ]

    def _leaf_ids(self, queries: np.ndarray) -> tuple[np.ndarray, list[LeafNode]]:
        """Id of the leaf each row of an (n, W) packed uint8 matrix reaches,
        and the leaves by id. All rows descend together over the routing
        arrays, built on the first call; ValueError for a matrix of another
        width or a split bit outside the width."""
        nbytes = descriptor_nbytes(self.dim_bits)
        if queries.ndim != 2 or queries.shape[1] != nbytes:
            raise ValueError(
                f"query matrix has shape {queries.shape}, tree expects (n, {nbytes})"
            )
        routes = self._routes
        if routes is None:
            routes = self._routes = _Routes(self)
        return routes.descend(queries), routes.leaves

    def search_all_batch(self, queries: np.ndarray, tau: int | None = None) -> LeafHits:
        """``search_all`` for every row of an (n, W) packed query matrix.

        The rows descend together (``_leaf_ids``) and are gathered from the
        tree's arena into blocks, each by one index array built from the
        leaves' slab offsets, and compared with one XOR and popcount per
        block. A block takes a run of consecutive queries whose rows stay
        under the block budget; a query whose leaf alone is larger is scanned
        on its own. When a reached leaf's rows lie in another arena (a
        hand-built leaf, or one another tree moved), the rows are gathered
        from a copy of the reached leaves' rows made for this call.
        """
        queries = np.ascontiguousarray(queries, dtype=np.uint8)
        if tau is None:
            tau = self.config.tau
        leaf_ids, by_id = self._leaf_ids(queries)
        leaves = [by_id[k] for k in leaf_ids.tolist()]
        n = len(leaves)
        sizes = np.fromiter((len(leaf._entries) for leaf in leaves), np.int64, n)
        arena = self._arena
        if all(leaf._slab[0] is arena for leaf in leaves):
            offsets = np.fromiter((leaf._slab[1] for leaf in leaves), np.int64, n)
        else:
            reached = dict.fromkeys(leaves)
            arena = _Arena(np.concatenate([leaf.packed() for leaf in reached]),
                           np.concatenate([leaf.image_ids() for leaf in reached]))
            starts = np.cumsum([0] + [len(leaf._entries) for leaf in reached]).tolist()
            offset = dict(zip(reached, starts))
            offsets = np.fromiter((offset[leaf] for leaf in leaves), np.int64, n)
        parts = _gather_scan(queries, arena, offsets, sizes, tau)
        return LeafHits(*(np.concatenate(cols) for cols in zip(*parts)), leaves=leaves)

    def hit_references(
        self, hits: LeafHits, which: np.ndarray, queries: np.ndarray
    ) -> list[DescriptorEntry]:
        """Stored entries of hits ``which`` (indices into the hits of ``queries``)."""
        pairs = zip(hits.query[which].tolist(), hits.position[which].tolist())
        return [hits.leaves[q].entry(i) for q, i in pairs]

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, entry: DescriptorEntry) -> None:
        """Append ``entry`` to its greedy leaf, splitting if it grows too big.

        The leaf is converted to an internal node when its size exceeds n_max,
        an admissible split bit exists among the non-ancestor indices, and the
        depth limit has not been reached; otherwise it simply grows. It is
        ``build_balanced``'s split for one level: each child is a leaf in a
        slab of the size class of its rows (``_slab_size``), even one over
        n_max. No rebalancing.

        The descent keeps no path and counts no depth. Only a leaf that a
        split may change is descended again, for its path: one over n_max and
        at or past the size where a refused split may first succeed. A leaf
        found at the depth limit is never tried again.
        """
        key = self._key(entry.descriptor)
        leaf = self._root
        while isinstance(leaf, InternalNode):
            leaf = leaf.right if (key >> leaf.bit_index) & 1 else leaf.left
        leaf.append(entry)
        self.count += 1
        n = len(leaf._entries)
        if n > self.config.n_max and n >= self._retry.get(leaf, 0):
            path: list[InternalNode] = []
            self._descend(key, path)
            if len(path) < self.config.depth_limit(self.dim_bits):
                self._maybe_split(leaf, path)
            else:
                self._retry[leaf] = float("inf")
        arena = leaf._slab[0]
        if arena.spare > _COMPACT_MIN_ROWS and 4 * arena.spare > arena.used:
            self._compact()

    def _compact(self) -> None:
        """Move every leaf into a new arena, each in a slab of its capacity,
        in leaf order, leaving the released slabs of the old one behind. The
        new columns hold exactly those slabs."""
        leaves = dict.fromkeys(leaf for leaf, _ in self._iter_leaves())
        arena = _Arena.empty(self.dim_bits, sum(leaf._slab[2] for leaf in leaves))
        for leaf in leaves:
            leaf._move(arena, leaf._slab[2])
        self._arena = arena

    def add(self, entries: Sequence[DescriptorEntry]) -> None:
        """Insert ``entries`` one by one, in order."""
        for entry in entries:
            self.insert(entry)

    def _maybe_split(self, leaf: LeafNode, path: list[InternalNode]) -> None:
        """Split ``leaf``, over n_max at ``path`` above the depth limit, if a
        bit is admissible, and release its slab if the tree's arena holds
        it; else keep its bound in ``_retry``."""
        rows = leaf.packed()
        counts, forbidden = _bit_counts(rows, self.dim_bits), {n.bit_index for n in path}
        split = self._split(rows, np.arange(len(rows)), counts, forbidden)
        if split is None:
            self._retry[leaf] = self._retry_size(counts, len(rows), forbidden)
            return
        # Only a split makes the entries; each child gets the size class of its rows.
        columns = (rows, leaf.image_ids(), np.fromiter(leaf.entries, object, len(rows)))
        bit, halves = split
        node = InternalNode(bit, *(self._new_leaf(columns, h, _slab_size(len(h))) for h in halves))
        if self._routes is not None and not self._routes.split(path, leaf, node):
            self._routes = None
        if not path:
            self._root = node
        elif path[-1].right is leaf:
            path[-1].right = node
        else:
            path[-1].left = node
        # The children copied the rows. A slab of another tree's arena is left
        # to that tree, which may still hold the leaf as its root.
        self._retry.pop(leaf, None)
        arena, offset, capacity = leaf._slab
        if arena is self._arena:
            arena.release(offset, capacity)

    def _retry_size(self, counts: np.ndarray, n: int, forbidden: set[int]) -> float:
        """The leaf size below which a split refused over ``n`` rows with
        per-bit set counts ``counts`` must refuse again.

        A leaf's path, and with it ``forbidden``, changes only by its split
        or a new root, and both drop the bound. After j more rows, bit k's count lies in [c_k, c_k + j]
        over n + j rows, so a bit whose mean lies d_k > delta from 0.5 can
        reach the admissible band [0.5 - delta, 0.5 + delta] only once j >=
        n (d_k - delta) / (0.5 + delta). The size is n plus that j for the
        closest allowed bit, rounded down and less one against float
        rounding; infinite when every bit is forbidden.
        """
        _, d = _closest_bit(counts, n, forbidden)
        delta = self.config.delta_max
        return d if d == float("inf") else n + int(n * (d - delta) / (0.5 + delta)) - 1

    def search_and_insert(
        self, entries: Sequence[DescriptorEntry], tau: int | None = None
    ) -> list[SearchResult]:
        """Match one image's descriptors, then add them to the tree.

        All searches are answered against the tree state at call entry and
        the insertions are applied afterwards, so results never match other
        descriptors of the same image. All entries must share one image_id.
        """
        entries = list(entries)
        if entries:
            image_ids = {e.image_id for e in entries}
            if len(image_ids) != 1:
                raise ValueError(
                    f"entries span several images: {sorted(image_ids)}"
                )
        results = [self.search_nearest(e, tau) for e in entries]
        self.add(entries)
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _walk(self) -> Iterator[tuple[TreeNode, list[tuple[int, int]]]]:
        """Every node in preorder, left subtree first (the tree stream's
        order), with the ``(bit_index, side)`` splits on its path from the
        root; side 0 is left. The path list is shared and changes as the
        walk resumes, so a caller keeps a copy if it needs one."""
        path: list[tuple[int, int]] = []
        # Pending (node, depth, split that leads to it); the root has none.
        stack: list[tuple[TreeNode, int, tuple[int, int] | None]] = [(self.root, 0, None)]
        while stack:
            node, depth, split = stack.pop()
            if split is not None:
                del path[depth - 1 :]
                path.append(split)
            yield node, path
            if isinstance(node, InternalNode):
                stack.append((node.right, depth + 1, (node.bit_index, 1)))
                stack.append((node.left, depth + 1, (node.bit_index, 0)))

    def _iter_leaves(self) -> Iterator[tuple[LeafNode, int]]:
        for node, path in self._walk():
            if isinstance(node, LeafNode):
                yield node, len(path)

    def check_invariants(self) -> None:
        """Raise ValueError unless every stored descriptor routes to its leaf.

        A split bit must lie inside the width and may not repeat on a
        root-to-leaf path, and every row of a leaf must agree with the leaf's
        path at each split index. Together they make a stored descriptor
        retrace its own path, so a search finds it at distance 0. The walk
        costs amortized O(1) per node, plus one gather per non-empty leaf.
        """
        split_at: dict[int, int] = {}
        for node, path in self._walk():
            _check_node(node, path, split_at, self.dim_bits)

    def depth_stats(self) -> DepthStats:
        """Mean / spread / extremes of leaf depth, one sample per leaf."""
        depths = []
        histogram: dict[int, int] = {}
        for leaf, depth in self._iter_leaves():
            depths.append(depth)
            size = len(leaf)
            histogram[size] = histogram.get(size, 0) + 1
        arr = np.asarray(depths, dtype=np.float64)
        return DepthStats(
            mean_depth=float(arr.mean()),
            stddev_depth=float(arr.std()),
            max_depth=int(arr.max()),
            leaf_count=len(depths),
            leaf_size_histogram=dict(sorted(histogram.items())),
        )

    def leaf_entries(self) -> list[DescriptorEntry]:
        """All stored entries, left-to-right, leaf order preserved."""
        return [entry for leaf, _ in self._iter_leaves() for entry in leaf.entries]

    def structurally_equal(self, other: "HammingTree") -> bool:
        """Node-for-node equality, including entry order within leaves.

        The two preorders are compared node by node. Every internal node has
        two children, so the sequence of node kinds fixes the shape, and two
        walks that agree up to the end of one end together.
        """
        if self.dim_bits != other.dim_bits:
            return False
        for (a, _), (b, _) in zip(self._walk(), other._walk()):
            if isinstance(a, LeafNode) != isinstance(b, LeafNode):
                return False
            if isinstance(a, LeafNode):
                if len(a) != len(b) or not _same_rows(a, b):
                    return False
            elif a.bit_index != b.bit_index:
                return False
        return True
