"""The benchmark workloads: ``stream``, ``lookup`` and ``exact``.

Each workload generates its inputs from the seed, then runs a fixed number
of rounds in a closed loop (one caller, one thread): a few set-ups, then the
timed pass. Every output is checked. Calls into ``hamtree`` go through its
public names only and are timed from here.

A traced run alternates untraced and traced rounds. The untraced passes give
the end-to-end figures, the traced ones the per-layer figures, and the ratio
of their loop times the tracing overhead.
"""

from __future__ import annotations

import gc
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

import gen
from gen import DIM_BITS, StreamSpec
from hamtree import (
    BruteForceMatcher,
    GroundTruth,
    HammingTree,
    RetrievalConfig,
    TreeConfig,
    bitwise_completeness,
    completeness_single,
    deserialize_tree,
    depth_completeness,
    hamming_distances,
    max_f1,
    pairwise_hamming,
    pr_curve,
    query_image,
    read_descriptor_file,
    run_protocol,
    run_protocol_brute_force,
    serialize_tree,
    write_descriptor_file,
)
from tracer import Tracer

TAU = 25
STREAM_NMAX = 50
LOOKUP_NMAX = 100
SWEEP_TAUS = [10, 25, 50, 75]
SWEEP_DEPTHS = list(range(0, 9))
PREDICTION_GAP_LIMIT = 0.10

SIZES = {
    "full": {
        "stream": {
            "spec": StreamSpec(images=100, per_image=1000, pool_size=2000, loops=75, min_gap=10),
            "round_s": 5.5,
            "setup_images": 5,
            "setup_reps": 3,
            "bytes_prefix_images": 50,
            "check_prefix_images": 20,
        },
        "lookup": {
            "stored": 100_000,
            "queries": 100_000,
            "round_s": 5.5,
            "setup_reps": 1,
            "stored_sample": 1000,
            "oracle_sample": 1000,
            "subset_sample": 200,
        },
        "exact": {
            "spec": StreamSpec(images=100, per_image=200, pool_size=2000, loops=70, min_gap=10),
            "refs": 5000,
            "round_s": 20.0,
            "setup_reps": 15,
            "oracle_sample": 200,
        },
    },
    "tiny": {
        "stream": {
            "spec": StreamSpec(images=12, per_image=100, pool_size=50, loops=4, min_gap=3),
            "round_s": 0.5,
            "setup_images": 2,
            "setup_reps": 3,
            "bytes_prefix_images": 12,
            "check_prefix_images": 6,
        },
        "lookup": {
            "stored": 3000,
            "queries": 2000,
            "round_s": 0.5,
            "setup_reps": 1,
            "stored_sample": 50,
            "oracle_sample": 50,
            "subset_sample": 20,
        },
        "exact": {
            "spec": StreamSpec(images=12, per_image=100, pool_size=50, loops=4, min_gap=3),
            "refs": 300,
            "round_s": 0.5,
            "setup_reps": 2,
            "oracle_sample": 20,
        },
    },
}


@dataclass
class Outcome:
    """What one workload run measured.

    ``e2e`` holds the benchmark's end-to-end metrics, ``report`` the same
    figures under their workload-specific names, ``layers`` the per-layer
    metrics of the traced passes (empty in an untraced run) and ``passes``
    the figures of each untraced pass.
    """

    e2e: dict[str, float]
    report: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    passes: list[dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Checks:
    """Counts operations attempted and failed (exception or wrong output)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def count_many(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def error(self, what: str) -> None:
        """Record a failed operation that raised; prints its traceback."""
        self.count(False)
        print(f"perfbench: {what} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def attempt(self, what: str, fn, *args) -> tuple[object, float]:
        """``fn(*args)`` timed from here: (result, or None if it raised; seconds)."""
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            result = None
            self.error(what)
        return result, perf_counter() - t0


@dataclass
class Pass:
    """One timed pass: its wall time, the time of each op, and the time the
    ops took together (``loop_s`` unless the pass does more than its ops)."""

    loop_s: float
    op_s: Sequence[float]
    result: object
    ops_s: float | None = None

    def __post_init__(self) -> None:
        if self.ops_s is None:
            self.ops_s = self.loop_s


def rounds_in(seconds: float, round_s: float) -> int:
    """Rounds (set-ups and a pass) that fit in a run of ``seconds``, at least one.

    ``round_s`` is a fixed figure per workload, the length of one round of
    the seed code on a 2-vCPU host, so the count depends on the run length
    alone and not on the speed of the code measured: a slower version runs
    the same rounds for longer, and statistics over passes compare like
    with like.
    """
    return max(1, int(seconds // round_s))


def run_rounds(
    count: int, tracer: Tracer | None, one_round: Callable[[Tracer | None], Pass]
) -> tuple[list[Pass], list[Pass]]:
    """Run ``count`` rounds; returns their (untraced, traced) passes.

    With a tracer, untraced and traced rounds alternate, half of ``count``
    each and at least one of each, so a traced run takes about as long.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    # The inputs, generated by now, are left out of every later collection,
    # so what a collection costs does not depend on the benchmark's own data.
    gc.collect()
    gc.freeze()
    kinds = [None] * count if tracer is None else [None, tracer] * max(1, count // 2)
    for use in kinds:
        gc.collect()
        (traced if use is not None else plain).append(one_round(use))
    return plain, traced


def bytes_held(build: Callable[[], object]) -> tuple[object, int]:
    """Run ``build`` under tracemalloc; bytes still allocated after it returns.

    Workloads call this before anything is timed, so the interpreter's state,
    and with it the count, is the same for a given seed.
    """
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def call(tr: Tracer | None, name: str, fn, *args):
    """``fn(*args)``, inside a span called ``name`` when tracing."""
    if tr is None:
        return fn(*args)
    with tr.span(name):
        return fn(*args)


def f1_of(tr: Tracer | None, scores, gt: GroundTruth) -> float:
    """Best F1 of the precision-recall sweep over ``scores`` against the planted truth."""
    curve = call(tr, "evaluation.pr_curve", pr_curve, scores, gt)
    return call(tr, "evaluation.max_f1", max_f1, curve).f1


def pass_metrics(passes: list[Pass]) -> dict[str, float]:
    """Time metrics of the untraced passes, read at the slowest pass.

    On a host shared with other tenants the same code runs up to 1.6x
    faster in quiet spells of seconds to minutes. Most runs have a pass at
    the contended level, so the median, throughput and pass time come from
    the slowest pass, and the tail from all ops of all passes, which that
    level dominates. Over the sets of runs made in tuning this repeated
    better overall than the median or the mean of the passes. The number of
    passes is fixed by the run length (``rounds_in``), not by the speed of
    the code, so the worst is drawn from as many passes in every version.
    """
    return {
        "op_ms_p50": max(median(p.op_s) for p in passes) * 1e3,
        "op_ms_p95": pct(np.concatenate([p.op_s for p in passes]), 95) * 1e3,
        "ops_per_s": min(len(p.op_s) / p.ops_s for p in passes),
        "pass_s": max(p.loop_s for p in passes),
    }


def per_pass(passes: list[Pass]) -> list[dict[str, float]]:
    """The figures of each pass, for the run's record."""
    return [
        {"pass_s": p.loop_s, "op_ms_p50": median(p.op_s) * 1e3, "ops_per_s": len(p.op_s) / p.ops_s}
        for p in passes
    ]


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def valid_scores(scores, query_id: int, n_query: int) -> bool:
    """Votes only for earlier images, each in 1..n_query, ranked by score."""
    keys = [(-s.score, s.image_id) for s in scores]
    return keys == sorted(keys) and all(
        0 <= s.image_id < query_id and 1 <= s.votes <= n_query for s in scores
    )


def score_key(scores) -> list[tuple[int, int]]:
    return [(s.image_id, s.votes) for s in scores]


def tree_shape(tree: HammingTree, n_max: int) -> dict[str, float]:
    """Exact node and leaf counts from ``depth_stats``."""
    stats = tree.depth_stats()
    hist = stats.leaf_size_histogram
    return {
        "tree.leaf_count": stats.leaf_count,
        "tree.splits": stats.leaf_count - 1,
        "tree.oversize_leaves": sum(n for size, n in hist.items() if size > n_max),
        "tree.largest_leaf": max(hist),
        "tree.mean_depth": stats.mean_depth,
        "tree.max_depth": stats.max_depth,
    }


def descriptor_probe(seed: int, tracer: Tracer) -> dict[str, float]:
    """Kernel costs measured directly: a leaf-sized scan and a pairwise block."""
    rng = gen.rng_for(seed, "probe")
    leaf = gen.uniform(rng, STREAM_NMAX)
    query = gen.uniform(rng, 1)[0]
    block_q, block_r = gen.uniform(rng, 256), gen.uniform(rng, 2048)
    calls = 2000
    scan, pair = [], []
    for _ in range(5):
        with tracer.span("descriptor.hamming_distances"):
            t0 = perf_counter()
            for _ in range(calls):
                hamming_distances(query, leaf)
            scan.append((perf_counter() - t0) / (calls * leaf.shape[0]))
        with tracer.span("descriptor.pairwise_hamming"):
            t0 = perf_counter()
            pairwise_hamming(block_q, block_r)
            pair.append((perf_counter() - t0) / (block_q.shape[0] * block_r.shape[0]))
    return {
        "descriptor.scan_ns_per_row": median(scan) * 1e9,
        "descriptor.pairwise_ns_per_pair": median(pair) * 1e9,
    }


def overhead_pct(plain: list[Pass], traced: list[Pass]) -> float:
    """Loop time of traced passes over untraced ones, as a percentage excess."""
    return 100.0 * (median([p.loop_s for p in traced]) / median([p.loop_s for p in plain]) - 1.0)


# ----------------------------------------------------------------------
# stream: query-then-insert, one image at a time, on a growing tree
# ----------------------------------------------------------------------


def stream(seed: int, seconds: float, tracer: Tracer | None, size: str, out: Path) -> Outcome:
    cfg = SIZES[size]["stream"]
    images, truth = gen.stream(seed, cfg["spec"])
    gt = GroundTruth(pairs=truth)
    tree_cfg = dict(tau=TAU, delta_max=0.1, n_max=STREAM_NMAX)
    retrieval = RetrievalConfig(tau=TAU)
    checks = Checks()

    def fill_prefix():
        tree = HammingTree(DIM_BITS, TreeConfig(**tree_cfg))
        for entries in images[: cfg["bytes_prefix_images"]]:
            for e in entries:
                tree.insert(e)
        return tree

    prefix_tree, held = bytes_held(fill_prefix)
    index_bytes = held / prefix_tree.count
    del prefix_tree

    def process(tree: HammingTree, i: int, tr: Tracer | None):
        entries = images[i]
        if tr is None:
            scores = query_image(tree, entries, retrieval, collect_matches=False)
            for e in entries:
                tree.insert(e)
            return scores
        root = tr.begin("bench.image", i)
        with tr.span("retrieval.query_image", i):
            scores = query_image(tree, entries, retrieval, collect_matches=False)
        for e in entries:
            s = tr.begin("tree.insert", i)
            tree.insert(e)
            tr.end(s)
        tr.end(root)
        return scores

    setup_s: list[float] = []

    first = cfg["setup_images"]

    def setup(tr: Tracer | None):
        """Empty index to a warm one: the first few images go in.

        A single image takes a few milliseconds, shorter than the host's
        spells of contention, so its time would flip between their levels.
        """
        # Each set-up starts from a clean heap, so collections fall alike.
        gc.collect()
        t0 = perf_counter()
        tree = HammingTree(DIM_BITS, TreeConfig(**tree_cfg))
        scores = [checks.attempt(f"stream image {i}", process, tree, i, tr)[0]
                  for i in range(first)]
        setup_s.append(perf_counter() - t0)
        return tree, scores

    def one_round(tr: Tracer | None) -> Pass:
        # A few set-ups open every round, so their median spans the run.
        for _ in range(cfg["setup_reps"] - 1):
            setup(tr)
        tree, scores = setup(tr)
        op_s = []
        t_loop = perf_counter()
        for i in range(first, len(images)):
            got, took = checks.attempt(f"stream image {i}", process, tree, i, tr)
            scores.append(got)
            op_s.append(took)
        loop_s = perf_counter() - t_loop
        # Keep the shape, not the tree, so later passes do not add to peak RSS.
        shape = tree_shape(tree, STREAM_NMAX) if tr is not None else None
        return Pass(loop_s, op_s, (shape, scores))

    plain, traced = run_rounds(rounds_in(seconds, cfg["round_s"]), tracer, one_round)

    # An image that raised is already counted; it scores nothing.
    reference = [s if s is not None else [] for s in plain[0].result[1]]
    for p in plain + traced:
        scores = p.result[1]
        for i in range(1, len(images)):
            ok = scores[i] is not None and valid_scores(scores[i], i, len(images[i]))
            checks.count(ok and score_key(scores[i]) == score_key(reference[i]))
    k = cfg["check_prefix_images"]
    protocol, _ = checks.attempt("run_protocol", call, tracer, "evaluation.run_protocol",
                                 run_protocol, images[:k], TreeConfig(**tree_cfg), retrieval)
    if protocol is not None:
        for i in range(k):
            checks.count(score_key(protocol.scores[i]) == score_key(reference[i]))
    f1 = f1_of(tracer, reference, gt)

    e2e = {
        "setup_s": median(setup_s),
        **pass_metrics(plain),
        "accuracy": f1,
        "index_bytes_per_desc": index_bytes,
    }
    report = {
        "setup_s": e2e["setup_s"],
        "image_ms_p50": e2e["op_ms_p50"],
        "image_ms_p95": e2e["op_ms_p95"],
        "images_per_s": e2e["ops_per_s"],
        "max_f1": f1,
        "index_bytes_per_desc": index_bytes,
    }
    outcome = Outcome(e2e, report, passes=per_pass(plain))
    if tracer is not None:
        shape, scores = traced[0].result
        queried = [s for s in scores[first:] if s is not None]
        n_desc = sum(len(images[i]) for i in range(first, len(images)))
        # Requests below ``first`` are the set-up's images, not the timed loop's.
        query_s = tracer.durations("retrieval.query_image", first_request=first)
        insert_s = tracer.durations("tree.insert", first_request=first)
        outcome.layers = {
            "retrieval.query_image_ms_p50": median(query_s) * 1e3,
            "retrieval.query_image_ms_p95": pct(query_s, 95) * 1e3,
            "retrieval.query_s_total": float(query_s.sum()) / len(traced),
            "retrieval.votes_per_query_desc": sum(s.votes for im in queried for s in im) / n_desc,
            "retrieval.images_voted_per_query": float(np.mean([len(im) for im in queried])),
            "tree.insert_us_p50": median(insert_s) * 1e6,
            "tree.insert_us_p99": pct(insert_s, 99) * 1e6,
            "tree.insert_s_total": float(insert_s.sum()) / len(traced),
            **shape,
            "evaluation.pr_curve_ms": median(tracer.durations("evaluation.pr_curve")) * 1e3,
            **descriptor_probe(seed, tracer),
            "trace.overhead_pct": overhead_pct(plain, traced),
        }
    outcome.attempted, outcome.failed = checks.attempted, checks.failed
    return outcome


# ----------------------------------------------------------------------
# lookup: nearest-neighbour queries against a static map loaded from disk
# ----------------------------------------------------------------------


def lookup(seed: int, seconds: float, tracer: Tracer | None, size: str, out: Path) -> Outcome:
    cfg = SIZES[size]["lookup"]
    refs, queries = gen.lookup(seed, cfg["stored"], cfg["queries"])
    tree_cfg = TreeConfig(tau=TAU, delta_max=0.1, n_max=LOOKUP_NMAX)
    _, held = bytes_held(lambda: HammingTree.build_balanced(refs, tree_cfg, DIM_BITS))
    index_bytes = held / len(refs)
    path = out / f"lookup-{seed}.hbd"
    write_descriptor_file(path, refs, DIM_BITS)
    del refs
    checks = Checks()
    setup_s: list[float] = []
    loaded: dict[str, object] = {}

    def setup(tr: Tracer | None) -> None:
        """Descriptor file to a queryable tree: read, build, save, load."""
        # The last load's index goes first, so peak RSS holds one at a time,
        # and each set-up starts from a clean heap, so collections fall alike.
        loaded.clear()
        gc.collect()
        t0 = perf_counter()
        entries = call(tr, "io.read_descriptor_file", read_descriptor_file, path)[0]
        built = call(tr, "tree.build_balanced", HammingTree.build_balanced, entries, tree_cfg, DIM_BITS)
        blob = call(tr, "io.serialize_tree", serialize_tree, built)
        tree = call(tr, "io.deserialize_tree", deserialize_tree, blob, tree_cfg)
        setup_s.append(perf_counter() - t0)
        loaded.update(entries=entries, built=built, blob=blob, tree=tree)

    n = len(queries)

    def one_round(tr: Tracer | None) -> Pass:
        for _ in range(cfg["setup_reps"]):
            setup(tr)
        op_s = [0.0] * n
        results = [None] * n
        search = loaded["tree"].search_nearest
        t_loop = perf_counter()
        for i, q in enumerate(queries):
            t0 = perf_counter()
            try:
                if tr is None:
                    results[i] = search(q, TAU)
                else:
                    s = tr.begin("tree.search_nearest", i)
                    results[i] = search(q, TAU)
                    tr.end(s)
            except Exception:
                checks.error(f"lookup query {i}")
            op_s[i] = perf_counter() - t0
        loop_s = perf_counter() - t_loop
        # Keep compact arrays, not the results, so peak RSS does not grow
        # with the number of passes.
        dist = np.array(
            [-1 if r is None or r.best is None else r.best.distance for r in results],
            dtype=np.int16,
        )
        work = None
        if tr is not None:
            work = np.array(
                [(r.leaf_scanned, r.depth_traversed) for r in results if r is not None]
            )
        return Pass(loop_s, np.array(op_s), (dist, work))

    plain, traced = run_rounds(rounds_in(seconds, cfg["round_s"]), tracer, one_round)

    tr = tracer
    entries, built, blob, tree = (loaded[k] for k in ("entries", "built", "blob", "tree"))
    reference = plain[0].result[0]
    for p in plain + traced:
        dist = p.result[0]
        bad = (dist > TAU) | (dist != reference)
        checks.count_many(n, int(bad.sum()))
    checks.count(call(tr, "tree.structurally_equal", built.structurally_equal, tree))
    rng = gen.rng_for(seed, "lookup-check")
    for row in rng.choice(len(entries), size=cfg["stored_sample"], replace=False):
        res = call(tr, "tree.search_nearest", tree.search_nearest, entries[row], TAU)
        checks.count(res.best is not None and res.best.distance == 0)

    matcher = call(tr, "oracle.BruteForceMatcher", BruteForceMatcher, entries)
    sample = rng.choice(n, size=cfg["oracle_sample"], replace=False)
    agree = 0
    for i in sample:
        oracle = call(tr, "oracle.nearest", matcher.nearest, queries[i], TAU)
        got = int(reference[i])
        want = -1 if oracle is None else oracle.distance
        # The tree sees a subset of the references: it may miss, never beat.
        checks.count(got == -1 or (want != -1 and got >= want))
        agree += got == want
    found = feasible = 0
    for i in sample[: cfg["subset_sample"]]:
        tree_hits = call(tr, "tree.search_all", tree.search_all, queries[i], TAU)
        oracle_hits = call(tr, "oracle.all_within", matcher.all_within, queries[i], TAU)
        try:
            call(tr, "oracle.completeness_single", completeness_single, tree_hits, oracle_hits)
        except ValueError:
            checks.count(False)
            continue
        checks.count(True)
        found += len(tree_hits)
        feasible += len(oracle_hits)
    del matcher

    nn_agreement = agree / len(sample)
    e2e = {
        "setup_s": median(setup_s),
        **pass_metrics(plain),
        "accuracy": nn_agreement,
        "index_bytes_per_desc": index_bytes,
    }
    report = {
        "setup_s": e2e["setup_s"],
        "query_us_p50": e2e["op_ms_p50"] * 1e3,
        "query_us_p99": pct(np.concatenate([p.op_s for p in plain]), 99) * 1e6,
        "queries_per_s": e2e["ops_per_s"],
        "nn_agreement": nn_agreement,
        "index_bytes_per_desc": index_bytes,
    }
    outcome = Outcome(e2e, report, passes=per_pass(plain))
    if tracer is not None:
        dist, work = traced[0].result
        scanned, depth = work.mean(axis=0)
        outcome.layers = {
            **tree_shape(tree, LOOKUP_NMAX),
            "tree.rows_scanned_per_query": float(scanned),
            "tree.depth_per_query": float(depth),
            "tree.hit_ratio": float((dist >= 0).mean()),
            "tree.completeness": found / feasible if feasible else 1.0,
            "tree.build_s": median(tracer.durations("tree.build_balanced")),
            "io.read_descriptors_s": median(tracer.durations("io.read_descriptor_file")),
            "io.serialize_s": median(tracer.durations("io.serialize_tree")),
            "io.deserialize_s": median(tracer.durations("io.deserialize_tree")),
            "io.tree_bytes_per_desc": len(blob) / len(entries),
            "oracle.nearest_ms": median(tracer.durations("oracle.nearest")) * 1e3,
            **descriptor_probe(seed, tracer),
            "trace.overhead_pct": overhead_pct(plain, traced),
        }
    outcome.attempted, outcome.failed = checks.attempted, checks.failed
    return outcome


# ----------------------------------------------------------------------
# exact: brute-force protocol and completeness sweep
# ----------------------------------------------------------------------


def exact(seed: int, seconds: float, tracer: Tracer | None, size: str, out: Path) -> Outcome:
    cfg = SIZES[size]["exact"]
    images, truth = gen.stream(seed, cfg["spec"])
    gt = GroundTruth(pairs=truth)
    retrieval = RetrievalConfig(tau=TAU)
    queries, refs = gen.completeness_corpus(seed, cfg["refs"])
    _, held = bytes_held(lambda: BruteForceMatcher(refs))
    index_bytes = held / len(refs)
    ref_path = out / f"exact-{seed}-refs.hbd"
    query_path = out / f"exact-{seed}-queries.hbd"
    write_descriptor_file(ref_path, refs, DIM_BITS)
    write_descriptor_file(query_path, queries, DIM_BITS)
    del queries, refs
    checks = Checks()
    setup_s: list[float] = []
    loaded: dict[str, object] = {}

    def setup(tr: Tracer | None) -> None:
        """Corpus files to the oracle's first answer."""
        # Each set-up starts from a clean heap, so collections fall alike.
        loaded.clear()
        gc.collect()
        t0 = perf_counter()
        refs = call(tr, "io.read_descriptor_file", read_descriptor_file, ref_path)[0]
        queries = call(tr, "io.read_descriptor_file", read_descriptor_file, query_path)[0]
        matcher = call(tr, "oracle.BruteForceMatcher", BruteForceMatcher, refs)
        call(tr, "oracle.nearest", matcher.nearest, queries[0], TAU)
        setup_s.append(perf_counter() - t0)
        loaded.update(queries=queries, refs=refs, matcher=matcher)

    def one_round(tr: Tracer | None) -> Pass:
        for _ in range(cfg["setup_reps"]):
            setup(tr)
        queries, refs = loaded["queries"], loaded["refs"]
        t_loop = perf_counter()
        protocol, bf_s = checks.attempt(
            "run_protocol_brute_force", call, tr, "evaluation.run_protocol_brute_force",
            run_protocol_brute_force, images, retrieval)
        bitwise, bitwise_s = checks.attempt(
            "bitwise_completeness", call, tr, "oracle.bitwise_completeness",
            bitwise_completeness, queries, refs, SWEEP_TAUS)
        reports, depth_s = checks.attempt(
            "depth_completeness", call, tr, "oracle.depth_completeness",
            depth_completeness, queries, refs, SWEEP_TAUS, SWEEP_DEPTHS)
        loop_s = perf_counter() - t_loop
        if protocol is None:
            op_s = np.array([bf_s])
        else:
            # The library times each image itself; its shares are scaled to
            # the call's time taken here, so work moved out of its per-image
            # loop still counts.
            own = np.asarray(protocol.seconds, dtype=np.float64)
            total = float(own.sum())
            checks.count(len(own) == len(images) and total > 0
                         and own.min() >= 0 and total <= bf_s)
            op_s = own * (bf_s / total) if total > 0 else np.full(len(own), bf_s / len(own))
        return Pass(loop_s, op_s, (protocol, bitwise, reports, bitwise_s + depth_s), ops_s=bf_s)

    plain, traced = run_rounds(rounds_in(seconds, cfg["round_s"]), tracer, one_round)

    def prediction_gap(reports) -> float:
        return max(
            abs(r.per_depth_measured[h] - r.per_depth_predicted[h])
            for r in reports for h in SWEEP_DEPTHS if h >= 1
        )

    # A call that raised is already counted; it is left out of the
    # comparisons below and scores nothing.
    tr = tracer
    queries, refs, matcher = (loaded[k] for k in ("queries", "refs", "matcher"))
    protocol, bitwise, reports, _ = plain[0].result
    for p in plain + traced:
        other, bw, _, _ = p.result
        if other is not None and protocol is not None:
            for i, scores in enumerate(other.scores):
                ok = (valid_scores(scores, i, len(images[i]))
                      and score_key(scores) == score_key(protocol.scores[i]))
                checks.count(ok)
        if bw is not None and bitwise is not None:
            checks.count(all(np.array_equal(bw[t], bitwise[t]) for t in SWEEP_TAUS))
            checks.count(all(np.all((c >= 0) & (c <= 1)) for c in bw.values()))
    gap = prediction_gap(reports) if reports is not None else 1.0
    checks.count(gap <= PREDICTION_GAP_LIMIT)
    bf_f1 = f1_of(tr, protocol.scores, gt) if protocol is not None else 0.0
    tree_run, _ = checks.attempt(
        "run_protocol", call, tr, "evaluation.run_protocol", run_protocol, images,
        TreeConfig(tau=TAU, delta_max=0.1, n_max=STREAM_NMAX), retrieval)
    tree_f1 = f1_of(tr, tree_run.scores, gt) if tree_run is not None else 0.0
    checks.count(bf_f1 >= tree_f1)

    rng = gen.rng_for(seed, "exact-check")
    for i in rng.choice(len(queries), size=cfg["oracle_sample"], replace=False):
        planted = int(np.unpackbits(queries[i].descriptor ^ refs[i].descriptor).sum())
        found = call(tr, "oracle.nearest", matcher.nearest, queries[i], DIM_BITS)
        checks.count(found is not None and found.distance <= planted)

    e2e = {
        "setup_s": median(setup_s),
        **pass_metrics(plain),
        "accuracy": bf_f1,
        "index_bytes_per_desc": index_bytes,
    }
    # An image's brute-force cost grows linearly with the images stored
    # before it, so the middle image costs the mean. The median of the
    # per-image shares instead moves with whichever images a spell of host
    # contention hits; the mean is the call's own time, taken here.
    e2e["op_ms_p50"] = 1e3 / e2e["ops_per_s"]
    report = {
        "setup_s": e2e["setup_s"],
        "images_per_s": e2e["ops_per_s"],
        "max_f1": bf_f1,
        "tree_max_f1": tree_f1,
        "sweep_s": max(p.result[3] for p in plain),
    }
    outcome = Outcome(e2e, report, passes=per_pass(plain))
    if tracer is not None:
        outcome.layers = {
            "evaluation.bf_protocol_s": median(tracer.durations("evaluation.run_protocol_brute_force")),
            "oracle.bitwise_s": median(tracer.durations("oracle.bitwise_completeness")),
            "oracle.depth_s": median(tracer.durations("oracle.depth_completeness")),
            "oracle.prediction_gap_max": gap,
            "oracle.nearest_ms": median(tracer.durations("oracle.nearest")) * 1e3,
            "io.read_descriptors_s": median(tracer.durations("io.read_descriptor_file")),
            "evaluation.pr_curve_ms": median(tracer.durations("evaluation.pr_curve")) * 1e3,
            **descriptor_probe(seed, tracer),
            "trace.overhead_pct": overhead_pct(plain, traced),
        }
    outcome.attempted, outcome.failed = checks.attempted, checks.failed
    return outcome


WORKLOADS = {"stream": stream, "lookup": lookup, "exact": exact}
