"""Brute-force matching oracle and search-completeness measurement.

The brute-force matcher is the ground truth every tree search is judged
against: it scans all references and therefore always returns the true
nearest neighbor and the full set of threshold-feasible matches. The
completeness instrumentation quantifies how much of that feasible set a
greedy tree search retains, per split bit and per tree depth, and predicts
the depth decay from the single-level measurement.

Per-query work is embarrassingly parallel and everything here is
deterministic given the input corpus (and seed, for the corpus generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .descriptor import (
    DescriptorEntry,
    _block_rows,
    _distance_blocks,
    _to_words,
    _word_columns,
    descriptor_nbytes,
    random_descriptors,
    stack_descriptors,
    unpack_bits,
)
from .synthetic import _noisy_copies
from .tree import HammingTree, LeafHits, MatchRecord, TreeConfig, _image_id_column

__all__ = [
    "BruteForceMatcher",
    "brute_force_nearest",
    "brute_force_all",
    "completeness_single",
    "CompletenessReport",
    "bitwise_completeness",
    "depth_completeness",
    "make_noisy_duplicate_corpus",
    "write_bitwise_csv",
    "write_depth_csv",
]


class BruteForceMatcher:
    """The exhaustive index: every stored descriptor, scanned in full.

    The rows are one word-major ``(words, capacity)`` store that doubles when
    full; the constructor allocates it once, at its final size. Each run of
    equal ``image_id`` in an ``add`` is a segment of consecutive columns,
    which stands in for a tree leaf in ``search_all_batch`` and
    ``hit_references``. Every search reads the store in the word kernel's
    distance blocks; ``_nearest_rows`` finds the first row at the minimum.
    """

    def __init__(self, refs: Sequence[DescriptorEntry]):
        self.refs: list[DescriptorEntry] = []
        self._columns: np.ndarray | None = None
        self._starts: list[int] = []
        self._image_ids: list[int] = []
        self.add(refs)

    def _words(self, matrix: np.ndarray) -> np.ndarray:
        """(n, W) packed rows as uint64 words; ValueError unless W is the stored width."""
        width = len(self.refs[0].descriptor) if self.refs else matrix.shape[1]
        if matrix.shape[1] != width:
            raise ValueError(f"width mismatch: {matrix.shape[1]} vs {width} bytes")
        return _to_words(matrix)

    def add(self, entries: Sequence[DescriptorEntry]) -> None:
        """Store ``entries`` after the rows already held, in order."""
        entries = list(entries)
        if not entries:
            return
        words = self._words(stack_descriptors(entries))
        lo = len(self.refs)
        hi = lo + words.shape[0]
        if self._columns is None or hi > self._columns.shape[1]:
            grown = np.empty((words.shape[1], max(2 * lo, hi)), dtype=np.uint64)
            if lo:
                grown[:, :lo] = self._columns[:, :lo]
            self._columns = grown
        self._columns[:, lo:hi] = words.T
        ids = _image_id_column(entries)
        firsts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        self._starts.extend((lo + firsts).tolist())
        self._image_ids.extend(ids[firsts].tolist())
        self.refs.extend(entries)

    def distances(self, query_descriptor: np.ndarray) -> np.ndarray:
        """Hamming distance from the query to every reference, in order."""
        if not self.refs:
            return np.empty(0, dtype=np.int32)
        query = self._words(np.asarray(query_descriptor, dtype=np.uint8)[None])
        return next(_distance_blocks(query, self._columns[:, : len(self.refs)]))[1][0]

    def _nearest_rows(self, words: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Per row of the (n, words) query words, the earliest stored row in
        ``[lo, hi)`` at its minimum distance, and that distance: one pass over
        the distance blocks, with only the two length-n results outliving one."""
        rows = np.empty(len(words), dtype=np.intp)
        distance = np.empty(len(words), dtype=np.int32)
        for first, dist in _distance_blocks(words, self._columns[:, lo:hi]):
            part = slice(first, first + dist.shape[0])
            rows[part] = dist.argmin(axis=1)
            distance[part] = np.take_along_axis(dist, rows[part, None], axis=1)[:, 0]
        return lo + rows, distance

    def nearest(self, query: DescriptorEntry, tau: int) -> MatchRecord | None:
        """Global minimum-distance reference if within tau; ties go to the
        first reference in sequence order. ``_nearest_rows`` on one row."""
        if not self.refs:
            return None
        words = self._words(np.asarray(query.descriptor, dtype=np.uint8)[None])
        rows, distance = self._nearest_rows(words, 0, len(self.refs))
        if distance[0] > tau:
            return None
        return MatchRecord(query=query, reference=self.refs[rows[0]], distance=int(distance[0]))

    def all_within(self, query: DescriptorEntry, tau: int) -> list[MatchRecord]:
        """Every reference within tau, in sequence order."""
        dists = self.distances(query.descriptor)
        hits = np.nonzero(dists <= tau)[0]
        return [
            MatchRecord(query=query, reference=self.refs[i], distance=int(dists[i]))
            for i in hits
        ]

    def search_all_batch(self, queries: np.ndarray, tau: int) -> LeafHits:
        """Per row of an (n, W) packed query matrix, each segment's closest
        distance within tau, by query, then segment. A distance block is cut
        to its segment minima and their hits, so only the hits outlive it."""
        words = self._words(np.asarray(queries, dtype=np.uint8))
        empty = np.empty(0, dtype=np.intp)
        parts = [(empty, empty, np.empty(0, dtype=np.int32))]
        if self.refs:
            starts = np.asarray(self._starts, dtype=np.intp)
            for first, dist in _distance_blocks(words, self._columns[:, : len(self.refs)]):
                minima = np.minimum.reduceat(dist, starts, axis=1)
                query, segment = np.nonzero(minima <= tau)
                parts.append((first + query, segment, minima[query, segment]))
        query, segment, distance = (np.concatenate(cols) for cols in zip(*parts))
        image_id = np.asarray(self._image_ids, dtype=np.int64)[segment]
        return LeafHits(query, segment, image_id, distance, leaves=[])

    def hit_references(
        self, hits: LeafHits, which: np.ndarray, queries: np.ndarray
    ) -> list[DescriptorEntry]:
        """Per hit in ``which``, its segment's first row at the hit's distance,
        which is the segment minimum: one ``_nearest_rows`` per segment, over
        all of its hits' queries at once."""
        segment, query = hits.position[which], hits.query[which]
        words = _to_words(queries)
        ends = self._starts[1:] + [len(self.refs)]
        rows = np.empty(len(segment), dtype=np.intp)
        for k in np.unique(segment).tolist():
            group = np.flatnonzero(segment == k)
            rows[group] = self._nearest_rows(words[query[group]], self._starts[k], ends[k])[0]
        return [self.refs[row] for row in rows.tolist()]


def brute_force_nearest(
    query: DescriptorEntry, refs: Sequence[DescriptorEntry], tau: int
) -> MatchRecord | None:
    """One-shot nearest match; see BruteForceMatcher for repeated queries."""
    return BruteForceMatcher(refs).nearest(query, tau)


def brute_force_all(
    query: DescriptorEntry, refs: Sequence[DescriptorEntry], tau: int
) -> list[MatchRecord]:
    """One-shot feasible-set scan; see BruteForceMatcher for repeated queries."""
    return BruteForceMatcher(refs).all_within(query, tau)


def completeness_single(
    tree_result: Sequence[MatchRecord], oracle_result: Sequence[MatchRecord]
) -> float:
    """Fraction of the feasible matches that the tree search returned.

    Defined as 1.0 when there are no feasible matches: a query with nothing
    to find carries no evidence of loss. Raises ValueError if the tree result
    is not a subset of the oracle result, which would mean the two sides
    disagree about the corpus.
    """
    oracle_keys = {(m.reference.image_id, m.reference.keypoint_id) for m in oracle_result}
    tree_keys = {(m.reference.image_id, m.reference.keypoint_id) for m in tree_result}
    if not tree_keys <= oracle_keys:
        raise ValueError(
            f"tree result is not a subset of the oracle result: "
            f"{sorted(tree_keys - oracle_keys)[:5]} unexpected"
        )
    if not oracle_keys:
        return 1.0
    return len(tree_keys) / len(oracle_keys)


@dataclass(slots=True)
class CompletenessReport:
    """Completeness curves for one matching threshold.

    per_bit[k] is the mean completeness of a depth-1 tree that splits on bit
    k. per_depth_measured[h] is the mean completeness of a balanced tree of
    depth h, and per_depth_predicted[h] = mean(per_bit) ** h extrapolates the
    depth decay from the single-level average.
    """

    tau: int
    per_bit: np.ndarray
    per_depth_measured: dict[int, float]
    per_depth_predicted: dict[int, float]


def _count_rows(within: np.ndarray, rows: np.ndarray, n_rows: int) -> np.ndarray:
    """(taus, n_rows) counts of the entries of each row that ``within`` marks.

    ``within`` is (taus, entries) and ``rows`` gives each entry's row.
    """
    n_taus = within.shape[0]
    flat = (np.arange(n_taus)[:, None] * n_rows + rows)[within]
    return np.bincount(flat, minlength=n_taus * n_rows).reshape(n_taus, n_rows)


def _completeness_pass(
    q_matrix: np.ndarray,
    r_matrix: np.ndarray,
    taus: Sequence[int],
    dim_bits: int,
    leaf_ids: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per tau, each query's feasible-set size, what each tree finds of it,
    and the per-bit curve.

    A query's completeness for a split on bit k is the share of its feasible
    set on its own side, ``1 - mean(x_k)`` over ``x = q XOR r``, or 1 when
    the set is empty. So the curve is ``1 - (1/n_q) * sum(w * x_k)`` over
    the feasible pairs, with ``w = 1 / |F_q(tau)|``. ``leaf_ids`` holds one
    (query leaf ids, reference leaf ids) pair per tree: a search returns
    exactly the feasible pairs whose two leaf ids are equal, so those are
    counted per tree as ``found``, shaped (trees, taus, n_q). A distance
    block holds whole query rows, so its pairs are final when it is
    produced; their XOR bits are unpacked in chunks whose float64 copy stays
    under the block budget, and nothing of size O(pairs) outlives the block.
    """
    n_q = q_matrix.shape[0]
    sizes = np.empty((len(taus), n_q), dtype=np.int64)
    found = np.empty((len(leaf_ids), len(taus), n_q), dtype=np.int64)
    lost = np.zeros((len(taus), dim_bits))
    q_words, r_words = _to_words(q_matrix), _to_words(r_matrix)
    step = _block_rows(8 * dim_bits)
    for start, dists in _distance_blocks(q_words, _word_columns(r_matrix)):
        rows = slice(start, start + dists.shape[0])
        qi, ri = np.nonzero(dists <= max(taus))
        within = dists[qi, ri] <= np.asarray(taus)[:, None]
        block = sizes[:, rows] = _count_rows(within, qi, dists.shape[0])
        for t, (q_leaf, r_leaf) in enumerate(leaf_ids):
            same = q_leaf[start + qi] == r_leaf[ri]
            found[t, :, rows] = _count_rows(within & same, qi, dists.shape[0])
        weights = within / np.maximum(block, 1)[:, qi]
        for lo in range(0, qi.size, step):
            xor = q_words[start + qi[lo : lo + step]] ^ r_words[ri[lo : lo + step]]
            lost += weights[:, lo : lo + step] @ unpack_bits(xor.view(np.uint8), dim_bits)
    # Each w is rounded, so a bit every feasible pair differs on can sum a
    # hair past n_q; the curve is a mean of values in [0, 1].
    return sizes, found, np.clip(1.0 - lost / n_q, 0.0, 1.0)


def bitwise_completeness(
    queries: Sequence[DescriptorEntry],
    refs: Sequence[DescriptorEntry],
    tau_list: Sequence[int],
    dim_bits: int | None = None,
) -> dict[int, np.ndarray]:
    """Mean completeness of every possible depth-1 split, per threshold.

    For each bit k, the corpus is partitioned into the two leaves of a
    single-node tree testing bit k; a query's search reaches the leaf on its
    own side, so a feasible match survives exactly when it agrees with the
    query on bit k. The returned curves are the per-query completeness values
    averaged (unweighted) over all queries, one array of length dim_bits per
    tau.
    """
    return {r.tau: r.per_bit for r in depth_completeness(queries, refs, tau_list, (), dim_bits)}


def depth_completeness(
    queries: Sequence[DescriptorEntry],
    refs: Sequence[DescriptorEntry],
    tau_list: Sequence[int],
    depths: Sequence[int],
    dim_bits: int | None = None,
) -> list[CompletenessReport]:
    """Measured vs predicted completeness over a family of balanced trees.

    For each depth h a balanced tree is built with n_max=1 so the depth bound
    governs the structure. h=0 is a single leaf holding the whole corpus,
    whose measured completeness is 1 by construction. No search is run: a
    query's share at depth h counts its feasible pairs whose reference
    reaches the same leaf of that tree, which is what a search returns.
    Measured completeness is averaged over all queries; the prediction
    raises the mean single-level completeness to the h-th power. One report
    per threshold.
    Raises ValueError unless ``dim_bits`` (default: the full byte width)
    fits the descriptors' byte width.
    """
    q_matrix, r_matrix = stack_descriptors(queries), stack_descriptors(refs)
    if q_matrix.shape[1] != r_matrix.shape[1]:
        raise ValueError(
            f"query/reference width mismatch: {q_matrix.shape[1]} vs {r_matrix.shape[1]}"
        )
    if dim_bits is None:
        dim_bits = 8 * r_matrix.shape[1]
    if descriptor_nbytes(dim_bits) != r_matrix.shape[1]:
        raise ValueError(
            f"dim_bits {dim_bits} does not fit {r_matrix.shape[1]}-byte descriptors"
        )
    taus = list(tau_list)
    depths = sorted(set(int(h) for h in depths))
    if depths and depths[0] < 0:
        raise ValueError(f"depths must be non-negative, got {depths[0]}")
    tau_max = min(max(taus), dim_bits)
    # Each reference sits in the leaf its own bits route to (the rule that
    # ``check_invariants`` enforces), so one descent of the references and
    # one of the queries per tree say which feasible pairs a search finds.
    leaf_ids = []
    for h in depths:
        if h > 0:
            # delta_max 0.5 admits every bit, so the depth bound alone stops splits.
            config = TreeConfig(tau=tau_max, delta_max=0.5, n_max=1, max_depth=h)
            tree = HammingTree.build_balanced(refs, config, dim_bits)
            leaf_ids.append((tree._leaf_ids(q_matrix)[0], tree._leaf_ids(r_matrix)[0]))
    feasible, found, per_bit = _completeness_pass(q_matrix, r_matrix, taus, dim_bits, leaf_ids)

    measured: dict[int, dict[int, float]] = {tau: {} for tau in taus}
    # A single leaf holding every reference returns exactly each query's
    # feasible set, so depth 0 needs no tree; the trees follow in depth order.
    trees = iter(found)
    for h in depths:
        ratio = np.ones(feasible.shape)
        if h > 0:
            np.divide(next(trees), feasible, out=ratio, where=feasible > 0)
        for tau, value in zip(taus, ratio.mean(axis=1)):
            measured[tau][h] = float(value)

    return [
        CompletenessReport(
            tau=tau,
            per_bit=curve,
            per_depth_measured=measured[tau],
            per_depth_predicted={h: float(curve.mean()) ** h for h in depths},
        )
        for tau, curve in zip(taus, per_bit)
    ]


def make_noisy_duplicate_corpus(
    num_images: int,
    descriptors_per_image: int,
    dim_bits: int,
    max_flips: int,
    seed: int = 0,
) -> tuple[list[DescriptorEntry], list[DescriptorEntry]]:
    """Planted-neighbor corpus for the completeness experiments.

    References are uniform random descriptors spread over ``num_images``
    images. Each reference gets one query: a copy with f distinct bit
    positions flipped, f drawn uniformly from [0, max_flips]. Queries carry
    image ids above the reference range. Reproducible given the seed.
    """
    rng = np.random.default_rng(seed)
    refs: list[DescriptorEntry] = []
    for image in range(num_images):
        matrix = random_descriptors(descriptors_per_image, dim_bits, rng)
        for kp in range(descriptors_per_image):
            refs.append(DescriptorEntry(matrix[kp], image, kp))
    return _noisy_queries(refs, dim_bits, max_flips, rng), refs


def _noisy_queries(
    refs: Sequence[DescriptorEntry], dim_bits: int, max_flips: int, rng: np.random.Generator
) -> list[DescriptorEntry]:
    """One query per reference: a copy with f in [0, max_flips] distinct bits
    flipped and its image id shifted past the largest reference image id."""
    n_images = max((ref.image_id for ref in refs), default=-1) + 1
    copies = _noisy_copies([ref.descriptor for ref in refs], dim_bits, max_flips, rng)
    return [
        DescriptorEntry(copy, n_images + ref.image_id, ref.keypoint_id)
        for ref, copy in zip(refs, copies)
    ]


def write_bitwise_csv(path, per_bit_by_tau: Mapping[int, np.ndarray]) -> None:
    """Write ``bit,tau,completeness`` rows, bits outermost."""
    taus = sorted(per_bit_by_tau)
    n_bits = len(next(iter(per_bit_by_tau.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bit,tau,completeness\n")
        for bit in range(n_bits):
            for tau in taus:
                fh.write(f"{bit},{tau},{per_bit_by_tau[tau][bit]:.6f}\n")


def write_depth_csv(path, reports: Sequence[CompletenessReport]) -> None:
    """Write ``depth,tau,measured,predicted`` rows, depths outermost."""
    depths = sorted({h for r in reports for h in r.per_depth_measured})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("depth,tau,measured,predicted\n")
        for h in depths:
            for report in sorted(reports, key=lambda r: r.tau):
                fh.write(
                    f"{h},{report.tau},{report.per_depth_measured[h]:.6f},"
                    f"{report.per_depth_predicted[h]:.6f}\n"
                )
