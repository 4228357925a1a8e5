"""Print the golden results of a source tree: SHA-256 prefixes of what it computes.

Usage, from the repository root:

    python3 tools/golden.py --src .
    python3 tools/golden.py --src /path/to/other/checkout

``hamtree`` is imported from ``<src>/src``, so one script checks a parent
commit and a change alike. The inputs come from this checkout's
``perfbench/gen.py``, imported read-only (no bytecode is written), so both
sides get the same descriptors. One JSON line maps each result to the first
16 hex characters of its SHA-256:

- ``stream_insert``, ``stream_add``, ``stream_reload``: ``serialize_tree``
  after 100 ``gen.stream`` images of the benchmark's ``stream`` shape (n_max
  50, tau 25, delta_max 0.1), grown by one ``insert`` per entry, by one
  ``add`` per image, and by ``add`` with a ``serialize_tree`` /
  ``deserialize_tree`` round trip after image 50; seeds 7, 14001, 14002
- ``score_key``: the ``insert`` runs' votes, ``repr`` of each image's
  ``(image_id, votes)`` list from ``query_image`` before the image goes in
- ``stream_matches``: on seed 7, the (query keypoint, stored image, stored
  keypoint, distance) of each vote's match, which the tie-break among
  equally close stored descriptors picks
- ``stream_compacted``: on a stream whose 20 shared centres pile rows
  into a few leaves, so that ``add`` compacts the arena (30 images of 1000,
  10 loops, gap 5, seed 7; the same tree settings), each image's
  ``query_image`` votes with their matches, then the final
  ``serialize_tree``
- ``shared_root``: that tree's ``search_all_batch`` hits and hit entries
  for its last image's rows, from a second tree over the same root, then
  from the first tree, then from the second again
- ``build_balanced``: ``serialize_tree`` of the balanced build of
  ``gen.lookup(7, 10**5)``'s map at n_max 100
- ``brute_force``: ``run_protocol_brute_force`` votes on ``exact`` seed 14001
- ``depth_completeness``: the ``write_depth_csv`` text of
  ``gen.completeness_corpus(seed, 5000)`` at taus 10/25/50/75 and depths
  0-8, seeds 7 and 14001

``tools/golden.json`` holds the expected line; ``tools/test_golden.py``
checks it. A change that alters results on purpose updates that file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STREAM_SEEDS = (7, 14001, 14002)
MATCH_SEED = 7
COMPLETENESS_SEEDS = (7, 14001)
TAU = 25


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def score_key(scores) -> list[tuple[int, int]]:
    return [(s.image_id, s.votes) for s in scores]


def results() -> dict[str, dict[str, str] | str]:
    """Every golden prefix, by result and seed; ``hamtree`` and ``gen`` are
    importable by now."""
    import gen
    import hamtree as ht
    from hamtree.oracle import write_depth_csv

    spec = gen.StreamSpec(images=100, per_image=1000, pool_size=2000, loops=75, min_gap=10)
    config = dict(tau=TAU, delta_max=0.1, n_max=50)
    retrieval = ht.RetrievalConfig(tau=TAU)
    out: dict[str, dict[str, str] | str] = {
        name: {} for name in ("stream_insert", "score_key", "stream_add", "stream_reload")
    }
    for seed in STREAM_SEEDS:
        images, _ = gen.stream(seed, spec)
        tree = ht.HammingTree(gen.DIM_BITS, ht.TreeConfig(**config))
        votes, matches = [], []
        for entries in images:
            scores = ht.query_image(tree, entries, retrieval, collect_matches=seed == MATCH_SEED)
            votes.append(score_key(scores))
            matches.append([(m.query.keypoint_id, m.reference.image_id,
                             m.reference.keypoint_id, m.distance)
                            for s in scores for m in s.matches])
            for entry in entries:
                tree.insert(entry)
        out["stream_insert"][str(seed)] = digest(ht.serialize_tree(tree))
        out["score_key"][str(seed)] = digest(repr(votes))
        if seed == MATCH_SEED:
            out["stream_matches"] = digest(repr(matches))
        for name, reload_at in (("stream_add", None), ("stream_reload", 50)):
            tree = ht.HammingTree(gen.DIM_BITS, ht.TreeConfig(**config))
            for i, entries in enumerate(images):
                if i == reload_at:
                    tree = ht.deserialize_tree(ht.serialize_tree(tree), ht.TreeConfig(**config))
                tree.add(entries)
            out[name][str(seed)] = digest(ht.serialize_tree(tree))

    out.update(compacted_results(gen, ht, config, retrieval))

    refs, _ = gen.lookup(7, 10**5, 0)
    built = ht.HammingTree.build_balanced(refs, ht.TreeConfig(tau=TAU, delta_max=0.1, n_max=100),
                                          gen.DIM_BITS)
    out["build_balanced"] = digest(ht.serialize_tree(built))

    exact = gen.StreamSpec(images=100, per_image=200, pool_size=2000, loops=70, min_gap=10)
    protocol = ht.run_protocol_brute_force(gen.stream(14001, exact)[0], retrieval)
    out["brute_force"] = digest(repr([score_key(s) for s in protocol.scores]))

    out["depth_completeness"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "depth.csv"
        for seed in COMPLETENESS_SEEDS:
            queries, refs = gen.completeness_corpus(seed, 5000)
            reports = ht.depth_completeness(queries, refs, [10, 25, 50, 75], range(9))
            write_depth_csv(csv, reports)
            out["depth_completeness"][str(seed)] = digest(csv.read_text(encoding="utf-8"))
    return out


def compacted_results(gen, ht, config, retrieval) -> dict[str, str]:
    """The ``stream_compacted`` and ``shared_root`` prefixes."""
    spec = gen.StreamSpec(images=30, per_image=1000, pool_size=20, loops=10, min_gap=5)
    images, _ = gen.stream(MATCH_SEED, spec)
    tree = ht.HammingTree(gen.DIM_BITS, ht.TreeConfig(**config))
    votes = []
    for entries in images:
        scores = ht.query_image(tree, entries, retrieval, collect_matches=True)
        votes.append([(s.image_id, s.votes, [(m.query.keypoint_id, m.reference.image_id,
                                               m.reference.keypoint_id, m.distance)
                                              for m in s.matches]) for s in scores])
        tree.add(entries)
    compacted = digest(repr(votes).encode() + ht.serialize_tree(tree))

    queries = np.array([e.descriptor for e in images[-1]], dtype=np.uint8)
    other = ht.HammingTree(gen.DIM_BITS, ht.TreeConfig(**config), root=tree.root)
    found = []
    for searcher in (other, tree, other):
        hits = searcher.search_all_batch(queries)
        refs = searcher.hit_references(hits, np.arange(len(hits.query)), queries)
        found.append([hits.query.tolist(), hits.position.tolist(), hits.image_id.tolist(),
                      hits.distance.tolist(), [(e.image_id, e.keypoint_id) for e in refs]])
    return {"stream_compacted": compacted, "shared_root": digest(repr(found))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="checkout root whose src/hamtree is imported")
    args = parser.parse_args(argv)
    src = args.src.resolve() / "src"
    if not (src / "hamtree" / "__init__.py").is_file():
        parser.error(f"{src} holds no hamtree package")
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    print(json.dumps(results(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
