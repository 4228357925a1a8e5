"""Command-line interface.

Subcommands: ``gen`` (synthetic corpus + its ground truth), ``match``
(tree-based descriptor matching between two corpora, optionally benchmarked
against brute force), ``protocol`` (sequential query-then-insert evaluation
with timing and optional PR output), ``completeness`` (per-bit and per-depth
search completeness experiments), and ``tree build`` / ``tree info`` (tree
file management).

Exit codes: 0 on success, 1 for usage errors, 2 for data or format errors.
All outputs are deterministic given the inputs and seed, except the timing
CSV.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

import numpy as np

from .descriptor import DescriptorEntry, _stack_checked, descriptor_nbytes
from .evaluation import (
    GroundTruthParams,
    ProtocolResult,
    build_ground_truth,
    max_f1,
    pr_curve,
    read_ground_truth_csv,
    read_poses,
    run_protocol,
    run_protocol_brute_force,
    write_ground_truth_csv,
    write_pr_csv,
    write_timing_csv,
)
from .io import (
    FormatError,
    _check_file_width,
    load_tree,
    read_descriptor_file,
    save_tree,
    write_descriptor_file,
)
from .oracle import (
    BruteForceMatcher,
    _noisy_queries,
    depth_completeness,
    write_bitwise_csv,
    write_depth_csv,
)
from .retrieval import RetrievalConfig, _closest_hits
from .synthetic import SyntheticSpec, generate_sequence
from .tree import HammingTree, TreeConfig

__all__ = ["main"]


class UsageError(Exception):
    """Bad command line or invalid parameter combination."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _parse_loop(text: str) -> tuple[int, int, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--loop expects QUERY:REF:FRACTION, got {text!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad --loop value {text!r}: {exc}") from exc


def _parse_int_list(text: str, dim_bits: int, name: str, unit: str) -> list[int]:
    """The integers of a list like ``0,4-8``, each checked to lie in
    ``[0, dim_bits]`` before any range is expanded."""
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token[1:]:
            lo, hi = map(int, token.split("-", 1))
            if hi < lo:
                raise UsageError(f"reversed range {token!r} in {text!r}")
        else:
            lo = hi = int(token)
        for end in (lo, hi):
            if not 0 <= end <= dim_bits:
                raise UsageError(f"{name} {end} out of range for {dim_bits}-bit {unit}")
        values.extend(range(lo, hi + 1))
    if not values:
        raise UsageError(f"empty integer list: {text!r}")
    return values


def _group_by_image(entries: Sequence[DescriptorEntry]) -> list[list[DescriptorEntry]]:
    """Group a corpus into per-image lists; ids must be contiguous from 0."""
    if not entries:
        raise UsageError("input corpus is empty")
    n_images = max(e.image_id for e in entries) + 1
    if n_images > len(entries):
        # Checked before the lists are made: one record may carry any id.
        raise UsageError(
            f"image ids are not contiguous; largest id {n_images - 1} "
            f"for {len(entries)} records"
        )
    images: list[list[DescriptorEntry]] = [[] for _ in range(n_images)]
    for entry in entries:
        images[entry.image_id].append(entry)
    missing = [i for i, group in enumerate(images) if not group]
    if missing:
        raise UsageError(f"image ids are not contiguous; empty ids {missing[:5]}")
    return images


def _tree_config(args, dim_bits: int, tau: int, max_depth: int | None = None) -> TreeConfig:
    """The tree flags as a config for ``dim_bits``; UsageError if it is invalid."""
    config = TreeConfig(tau=tau, delta_max=args.delta_max, n_max=args.nmax, max_depth=max_depth)
    try:
        config.validate(dim_bits)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_gen(args) -> int:
    spec = SyntheticSpec(
        num_images=args.images,
        descriptors_per_image=args.descriptors_per_image,
        dim_bits=args.dim_bits,
        loop_pairs=[_parse_loop(loop) for loop in args.loop],
        noise_bits=args.noise_bits,
        seed=args.seed,
    )
    try:
        spec.validate()
        _check_file_width(spec.dim_bits)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    images, truth = generate_sequence(spec)
    entries = [entry for group in images for entry in group]
    write_descriptor_file(args.output, entries, spec.dim_bits)
    truth_path = args.truth
    if truth_path is None:
        truth_path = str(args.output) + ".truth.csv"
    write_ground_truth_csv(truth_path, truth)
    print(
        f"wrote {len(entries)} descriptors over {spec.num_images} images to "
        f"{args.output}; {len(truth)} truth pairs to {truth_path}"
    )
    return 0


def _cmd_match(args) -> int:
    db_entries, db_dim = read_descriptor_file(args.db)
    query_entries, query_dim = read_descriptor_file(args.query)
    if db_dim != query_dim:
        raise FormatError(
            f"descriptor width mismatch: db is {db_dim}-bit, query is {query_dim}-bit"
        )
    tree = HammingTree.build_balanced(db_entries, _tree_config(args, db_dim, args.tau), db_dim)
    queries = _stack_checked(query_entries, descriptor_nbytes(db_dim))
    # The routing arrays are made, like the matcher's store, before the clock.
    tree.search_all_batch(queries[:0])

    # Per query, search_nearest's answer; hits are bounded by the reached leaves.
    tree_start = time.perf_counter()
    hits = tree.search_all_batch(queries, args.tau)
    best = _closest_hits(hits, hits.query)
    references = tree.hit_references(hits, best, queries)
    tree_seconds = time.perf_counter() - tree_start

    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("query_image,query_kp,ref_image,ref_kp,distance\n")
        for q, distance, ref in zip(hits.query[best].tolist(), hits.distance[best].tolist(),
                                    references):
            fh.write(f"{query_entries[q].image_id},{query_entries[q].keypoint_id},"
                     f"{ref.image_id},{ref.keypoint_id},{distance}\n")
    print(f"matched {len(best)}/{len(query_entries)} query descriptors -> {args.output}")

    if args.compare_bruteforce:
        matcher = BruteForceMatcher(db_entries)
        bf_start = time.perf_counter()
        if matcher.refs:  # each query's first stored row at its minimum, timed only
            matcher._nearest_rows(matcher._words(queries), 0, len(matcher.refs))
        bf_seconds = time.perf_counter() - bf_start
        # search_nearest's depth_traversed + leaf_scanned, per query.
        depth = {id(leaf): d for leaf, d in tree._iter_leaves()}
        work = [depth[id(leaf)] + len(leaf) for leaf in hits.leaves]
        mean_work = float(np.mean(work)) if work else 0.0
        speedup = bf_seconds / tree_seconds if tree_seconds > 0 else float("inf")
        print(
            f"tree: {tree_seconds:.4f} s, brute force: {bf_seconds:.4f} s, "
            f"speedup: {speedup:.1f}x"
        )
        print(
            f"mean per-query work: {mean_work:.1f} of {len(db_entries)} "
            f"brute-force comparisons"
        )
    return 0


def _cmd_protocol(args) -> int:
    entries, dim_bits = read_descriptor_file(args.input)
    images = _group_by_image(entries)
    if args.eval and args.truth is None and not args.compute_truth:
        raise UsageError("--eval requires --truth CSV or --compute-truth")
    # The evaluation's files are read before the run, so a bad one costs no run.
    truth = poses = None
    if args.eval and args.truth is not None:
        truth = read_ground_truth_csv(args.truth)
    elif args.eval and args.poses:
        poses = read_poses(args.poses)
    retrieval_config = RetrievalConfig(tau=args.tau)
    if args.engine == "bruteforce":
        result: ProtocolResult = run_protocol_brute_force(images, retrieval_config)
    else:
        tree_config = _tree_config(args, dim_bits, args.tau)
        result = run_protocol(images, tree_config, retrieval_config, dim_bits)
    write_timing_csv(args.timing_csv, result.seconds)
    print(
        f"processed {len(images)} images with engine={args.engine}; "
        f"mean {np.mean(result.seconds):.4f} s/image -> {args.timing_csv}"
    )
    if args.scores_csv:
        with open(args.scores_csv, "w", encoding="utf-8") as fh:
            fh.write("query_image,reference_image,score\n")
            for query_id, image_scores in enumerate(result.scores):
                for s in image_scores:
                    fh.write(f"{query_id},{s.image_id},{s.score:.6f}\n")
    if args.eval:
        if truth is None:
            truth = build_ground_truth(images, poses, GroundTruthParams(tau=args.tau))
        curve = pr_curve(result.scores, truth)
        write_pr_csv(args.pr_csv, curve)
        if curve.recall_defined and curve.points:
            best = max_f1(curve)
            print(
                f"max F1 {best.f1:.4f} at threshold {best.threshold:.4f} "
                f"(precision {best.precision:.4f}, recall {best.recall:.4f}) "
                f"-> {args.pr_csv}"
            )
        else:
            print(f"PR curve written to {args.pr_csv}; max F1 undefined")
    return 0


def _cmd_completeness(args) -> int:
    refs, dim_bits = read_descriptor_file(args.input)
    if not refs:
        raise UsageError(f"input corpus {args.input} is empty")
    taus = _parse_int_list(args.taus, dim_bits, "tau", "descriptors")
    depths = _parse_int_list(args.depths, dim_bits, "depth", "trees")
    if args.query:
        queries, query_dim = read_descriptor_file(args.query)
        if not queries:
            raise UsageError(f"query corpus {args.query} is empty")
        if query_dim != dim_bits:
            raise FormatError(
                f"width mismatch: input is {dim_bits}-bit, query is {query_dim}-bit"
            )
    else:
        max_flips = args.max_flips if args.max_flips is not None else max(taus)
        queries = _noisy_queries(refs, dim_bits, max_flips, np.random.default_rng(args.seed))
    reports = depth_completeness(queries, refs, taus, depths, dim_bits)
    write_bitwise_csv(args.bits_csv, {r.tau: r.per_bit for r in reports})
    write_depth_csv(args.depth_csv, reports)
    print(
        f"completeness over {len(queries)} queries / {len(refs)} references -> "
        f"{args.bits_csv}, {args.depth_csv}"
    )
    return 0


def _cmd_tree_build(args) -> int:
    entries, dim_bits = read_descriptor_file(args.input)
    # A tree file stores no tau; this one only has to pass validation.
    config = _tree_config(args, dim_bits, min(TreeConfig().tau, dim_bits), args.max_depth)
    if args.incremental:
        tree = HammingTree(dim_bits, config)
        tree.add(entries)
    else:
        tree = HammingTree.build_balanced(entries, config, dim_bits)
    save_tree(args.output, tree)
    stats = tree.depth_stats()
    print(
        f"built {'incremental' if args.incremental else 'balanced'} tree: "
        f"{tree.count} entries, {stats.leaf_count} leaves, "
        f"max depth {stats.max_depth} -> {args.output}"
    )
    return 0


def _cmd_tree_info(args) -> int:
    tree = load_tree(args.tree)
    stats = tree.depth_stats()
    sizes = stats.leaf_size_histogram
    largest = max(sizes) if sizes else 0
    print(f"dim_bits: {tree.dim_bits}")
    print(f"entries: {tree.count}")
    print(f"leaves: {stats.leaf_count}")
    print(f"depth mean/std/max: {stats.mean_depth:.2f}/{stats.stddev_depth:.2f}/{stats.max_depth}")
    print(f"largest leaf: {largest}")
    return 0


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="hamtree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = TreeConfig()
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--nmax", type=int, default=defaults.n_max)
    shape.add_argument("--delta-max", type=float, default=defaults.delta_max)
    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument("--tau", type=int, default=defaults.tau)

    gen = sub.add_parser("gen", help="generate a synthetic descriptor sequence")
    gen.add_argument("--images", type=int, required=True)
    gen.add_argument("--descriptors-per-image", type=int, default=1000)
    gen.add_argument("--dim-bits", type=int, default=256)
    gen.add_argument(
        "--loop",
        action="append",
        default=[],
        metavar="QUERY:REF:FRACTION",
        help="planted loop pair; repeatable",
    )
    gen.add_argument("--noise-bits", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)
    gen.add_argument("--truth", default=None, help="default: OUTPUT.truth.csv")
    gen.set_defaults(func=_cmd_gen)

    match = sub.add_parser(
        "match", parents=[tau, shape], help="match a query corpus against a database"
    )
    match.add_argument("--db", required=True)
    match.add_argument("--query", required=True)
    match.add_argument("--output", required=True)
    match.add_argument(
        "--compare-bruteforce",
        action="store_true",
        help="also run brute force and report the speedup",
    )
    match.set_defaults(func=_cmd_match)

    protocol = sub.add_parser(
        "protocol", parents=[shape, tau], help="sequential query-then-insert run"
    )
    protocol.add_argument("--input", required=True)
    protocol.add_argument("--poses", default=None, help="optional poses file")
    protocol.add_argument("--engine", choices=("tree", "bruteforce"), default="tree")
    protocol.add_argument("--timing-csv", required=True)
    protocol.add_argument("--scores-csv", default=None)
    protocol.add_argument("--eval", action="store_true", help="emit a PR curve")
    protocol.add_argument("--truth", default=None, help="ground-truth CSV for --eval")
    protocol.add_argument(
        "--compute-truth",
        action="store_true",
        help="derive the ground truth from the corpus (and --poses if given)",
    )
    protocol.add_argument("--pr-csv", default="pr.csv")
    protocol.set_defaults(func=_cmd_protocol)

    completeness = sub.add_parser(
        "completeness", help="per-bit and per-depth completeness experiments"
    )
    completeness.add_argument("--input", required=True, help="reference corpus")
    completeness.add_argument(
        "--query", default=None, help="query corpus; default: noisy copies of input"
    )
    completeness.add_argument("--taus", default="10,25,50,75")
    completeness.add_argument("--depths", default="0-8")
    completeness.add_argument("--max-flips", type=int, default=None)
    completeness.add_argument("--seed", type=int, default=0)
    completeness.add_argument("--bits-csv", default="completeness_bits.csv")
    completeness.add_argument("--depth-csv", default="completeness_depth.csv")
    completeness.set_defaults(func=_cmd_completeness)

    tree = sub.add_parser("tree", help="tree file management")
    tree_sub = tree.add_subparsers(dest="tree_command", required=True)
    build = tree_sub.add_parser("build", parents=[shape], help="build a tree file from a corpus")
    build.add_argument("--input", required=True)
    build.add_argument("--output", required=True)
    build.add_argument("--max-depth", type=int, default=None)
    build.add_argument(
        "--incremental",
        action="store_true",
        help="insert one by one instead of balanced construction",
    )
    build.set_defaults(func=_cmd_tree_build)
    info = tree_sub.add_parser("info", help="describe a tree file")
    info.add_argument("--tree", required=True)
    info.set_defaults(func=_cmd_tree_info)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy takes no negative seed
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
