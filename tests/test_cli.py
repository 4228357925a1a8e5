"""End-to-end CLI behavior: commands, CSV schemas, exit codes."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

import hamtree.cli
from hamtree import (
    BruteForceMatcher,
    DescriptorEntry,
    HammingTree,
    TreeConfig,
    random_descriptors,
    read_descriptor_file,
    write_descriptor_file,
)
from hamtree.descriptor import flip_bits
from hamtree.cli import main

from test_tree_build import chain_entries


def run(*argv) -> int:
    return main([str(a) for a in argv])


def gen_corpus(tmp_path, name="corpus.hbd", images=6, per_image=30, loops=(), seed=4,
               noise=5, dim=256):
    output = tmp_path / name
    argv = [
        "gen", "--images", images, "--descriptors-per-image", per_image,
        "--dim-bits", dim, "--noise-bits", noise, "--seed", seed,
        "--output", output,
    ]
    for loop in loops:
        argv += ["--loop", loop]
    assert run(*argv) == 0
    return output, tmp_path / (name + ".truth.csv")


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

def test_gen_writes_corpus_and_truth(tmp_path, capsys):
    corpus, truth = gen_corpus(tmp_path, loops=("4:1:0.5",))
    entries, dim_bits = read_descriptor_file(corpus)
    assert dim_bits == 256
    assert len(entries) == 6 * 30
    assert truth.read_text().strip().splitlines() == ["query_id,reference_id", "4,1"]


def test_gen_same_seed_byte_identical(tmp_path):
    a, _ = gen_corpus(tmp_path, name="a.hbd", loops=("3:0:0.7",), seed=11)
    b, _ = gen_corpus(tmp_path, name="b.hbd", loops=("3:0:0.7",), seed=11)
    assert a.read_bytes() == b.read_bytes()
    c, _ = gen_corpus(tmp_path, name="c.hbd", loops=("3:0:0.7",), seed=12)
    assert a.read_bytes() != c.read_bytes()


def test_gen_identical_pair_with_full_overlap(tmp_path):
    corpus, _ = gen_corpus(
        tmp_path, images=2, per_image=10, loops=("1:0:1.0",), noise=0
    )
    entries, _ = read_descriptor_file(corpus)
    first = [e for e in entries if e.image_id == 0]
    second = [e for e in entries if e.image_id == 1]
    for a, b in zip(first, second):
        assert np.array_equal(a.descriptor, b.descriptor)


def test_gen_usage_errors_exit_one(tmp_path, capsys, monkeypatch):
    assert run("gen", "--images", 0, "--output", tmp_path / "x.hbd") == 1
    assert run(
        "gen", "--images", 2, "--loop", "0:1:0.5", "--output", tmp_path / "x.hbd"
    ) == 1
    assert run("gen", "--images", 2, "--loop", "garbage", "--output", tmp_path / "x.hbd") == 1
    # A width no descriptor file can hold is refused before any generating.
    import hamtree.cli

    def unreachable(spec):
        raise AssertionError("generate_sequence called for a width no file can hold")

    monkeypatch.setattr(hamtree.cli, "generate_sequence", unreachable)
    capsys.readouterr()
    assert run("gen", "--images", 300, "--dim-bits", 12, "--output", tmp_path / "x.hbd") == 1
    assert "multiple of 8" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_gen_out_of_range_id_exits_without_traceback(tmp_path, capsys, monkeypatch):
    import hamtree.cli
    from hamtree import generate_sequence

    def overflowing(spec):
        images, truth = generate_sequence(spec)
        images[-1][-1].keypoint_id = 2**32
        return images, truth

    monkeypatch.setattr(hamtree.cli, "generate_sequence", overflowing)
    code = run("gen", "--images", 2, "--descriptors-per-image", 3,
               "--output", tmp_path / "x.hbd")
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert "keypoint_id" in err and "Traceback" not in err


# ----------------------------------------------------------------------
# match
# ----------------------------------------------------------------------

def test_match_self_match_all_zero_distances(tmp_path, capsys):
    corpus, _ = gen_corpus(tmp_path, images=3, per_image=20)
    out = tmp_path / "matches.csv"
    assert run("match", "--db", corpus, "--query", corpus, "--tau", 0,
               "--output", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "query_image,query_kp,ref_image,ref_kp,distance"
    assert len(lines) == 1 + 60
    assert all(line.endswith(",0") for line in lines[1:])


def test_match_empty_query_gives_header_only(tmp_path):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    empty = tmp_path / "empty.hbd"
    from hamtree import write_descriptor_file

    write_descriptor_file(empty, [], 256)
    out = tmp_path / "matches.csv"
    assert run("match", "--db", corpus, "--query", empty, "--output", out) == 0
    assert out.read_text().strip() == "query_image,query_kp,ref_image,ref_kp,distance"


def test_match_width_mismatch_exits_two(tmp_path):
    db, _ = gen_corpus(tmp_path, name="db.hbd", images=2, per_image=5, dim=256)
    query, _ = gen_corpus(tmp_path, name="q.hbd", images=2, per_image=5, dim=128)
    assert run("match", "--db", db, "--query", query, "--output", tmp_path / "m.csv") == 2


def test_match_recall_against_oracle_on_planted_queries(tmp_path):
    # Every query is a noisy copy of a database descriptor, so brute force
    # matches 100% of them at tau=25; the greedy tree search must keep most.
    import numpy as np
    from hamtree import DescriptorEntry, random_descriptors, write_descriptor_file

    rng = np.random.default_rng(30)
    base = random_descriptors(1000, 256, rng)
    db_entries = [DescriptorEntry(base[i], 0, i) for i in range(1000)]
    queries = []
    for i in range(1000):
        noisy = np.array(base[i], copy=True)
        for k in rng.choice(256, size=int(rng.integers(0, 11)), replace=False):
            noisy[k >> 3] ^= np.uint8(1 << (k & 7))
        queries.append(DescriptorEntry(noisy, 1, i))
    db = tmp_path / "db.hbd"
    query_file = tmp_path / "q.hbd"
    write_descriptor_file(db, db_entries, 256)
    write_descriptor_file(query_file, queries, 256)
    out = tmp_path / "m.csv"
    assert run("match", "--db", db, "--query", query_file, "--tau", 25,
               "--output", out) == 0
    found = len(out.read_text().strip().splitlines()) - 1
    assert found >= 0.7 * 1000  # oracle would find all 1000


def test_match_compare_bruteforce_reports_speedup(tmp_path, capsys):
    corpus, _ = gen_corpus(tmp_path, images=4, per_image=50)
    out = tmp_path / "m.csv"
    assert run("match", "--db", corpus, "--query", corpus, "--output", out,
               "--compare-bruteforce") == 0
    printed = capsys.readouterr().out
    assert "speedup" in printed
    assert "mean per-query work" in printed


def test_match_compare_bruteforce_on_an_empty_db(tmp_path, capsys):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    empty = tmp_path / "empty.hbd"
    write_descriptor_file(empty, [], 256)
    out = tmp_path / "m.csv"
    capsys.readouterr()
    assert run("match", "--db", empty, "--query", corpus, "--output", out,
               "--compare-bruteforce") == 0
    assert capsys.readouterr().out.startswith("matched 0/20 ")
    assert out.read_text() == "query_image,query_kp,ref_image,ref_kp,distance\n"


def test_match_brute_force_side_holds_nothing_the_size_of_the_hits(tmp_path, monkeypatch):
    # At tau 256 every query is within tau of each of 5000 one-row images.
    # One hit per (query, image), kept until one per query was picked, made
    # the side from the matcher's build on peak at 57.2 MB; one row per query
    # and one distance block at a time take 1.7 MB.
    rng = np.random.default_rng(18)
    db, query = tmp_path / "db.hbd", tmp_path / "q.hbd"
    write_descriptor_file(db, [DescriptorEntry(row, i, 0) for i, row in
                               enumerate(random_descriptors(5000, 256, rng))], 256)
    write_descriptor_file(query, [DescriptorEntry(row, 5000, k) for k, row in
                                  enumerate(random_descriptors(200, 256, rng))], 256)
    before = []

    def traced_matcher(entries):
        # Everything from here on is the brute-force side.
        before.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return BruteForceMatcher(entries)

    monkeypatch.setattr(hamtree.cli, "BruteForceMatcher", traced_matcher)
    tracemalloc.start()
    try:
        assert run("match", "--db", db, "--query", query, "--tau", 256,
                   "--output", tmp_path / "m.csv", "--compare-bruteforce") == 0
        peak = tracemalloc.get_traced_memory()[1] - before[0]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 1 + 200


def per_query_match(db_entries, dim_bits, query_entries, tau, n_max, delta_max):
    """The CSV text and the "matched" and "mean per-query work" lines of
    ``match``, from one ``search_nearest`` call per query."""
    tree = HammingTree.build_balanced(
        db_entries, TreeConfig(tau=tau, delta_max=delta_max, n_max=n_max), dim_bits
    )
    results = [tree.search_nearest(entry, tau) for entry in query_entries]
    lines = ["query_image,query_kp,ref_image,ref_kp,distance"]
    for m in (r.best for r in results if r.best is not None):
        lines.append(f"{m.query.image_id},{m.query.keypoint_id},"
                     f"{m.reference.image_id},{m.reference.keypoint_id},{m.distance}")
    found = sum(r.best is not None for r in results)
    work = float(np.mean([r.depth_traversed + r.leaf_scanned for r in results]))
    return ("\n".join(lines) + "\n", f"matched {found}/{len(query_entries)} ",
            f"mean per-query work: {work:.1f} of {len(db_entries)} ")


def test_match_output_equals_the_per_query_search(tmp_path, capsys):
    # Rows repeat across images, so equal minima in one leaf are common and
    # the first row inserted must win each of them.
    rng = np.random.default_rng(33)
    base = random_descriptors(60, 64, rng)
    db_entries = []
    for image in range(4):
        picked = rng.choice(len(base), size=40, replace=False)
        db_entries += [DescriptorEntry(base[i], image, kp) for kp, i in enumerate(picked)]
    query_entries = [
        DescriptorEntry(flip_bits(base[i], rng.choice(64, size=int(rng.integers(0, 6)),
                                                      replace=False)), 7, kp)
        for kp, i in enumerate(rng.choice(len(base), size=80))
    ]
    db, query = tmp_path / "db.hbd", tmp_path / "q.hbd"
    write_descriptor_file(db, db_entries, 64)
    write_descriptor_file(query, query_entries, 64)
    for tau, n_max, delta_max in ((3, 10, 0.1), (64, 3, 0.5), (0, 200, 0.1)):
        out = tmp_path / "m.csv"
        assert run("match", "--db", db, "--query", query, "--tau", tau, "--nmax", n_max,
                   "--delta-max", delta_max, "--output", out, "--compare-bruteforce") == 0
        printed = capsys.readouterr().out.splitlines()
        csv, matched, work = per_query_match(
            *read_descriptor_file(db), read_descriptor_file(query)[0], tau, n_max, delta_max
        )
        assert out.read_text() == csv
        assert printed[0].startswith(matched)
        assert printed[2].startswith(work)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

def test_protocol_emits_timing_scores_and_pr(tmp_path, capsys):
    corpus, truth = gen_corpus(
        tmp_path, images=8, per_image=40, loops=("5:0:0.6", "7:2:0.6"), noise=5
    )
    timing = tmp_path / "timing.csv"
    scores = tmp_path / "scores.csv"
    pr = tmp_path / "pr.csv"
    assert run(
        "protocol", "--input", corpus, "--timing-csv", timing,
        "--scores-csv", scores, "--eval", "--truth", truth, "--pr-csv", pr,
    ) == 0
    timing_lines = timing.read_text().strip().splitlines()
    assert timing_lines[0] == "image,seconds"
    assert len(timing_lines) == 1 + 8
    pr_lines = pr.read_text().strip().splitlines()
    assert pr_lines[0] == "threshold,precision,recall,f1"
    assert len(pr_lines) >= 2
    assert "max F1" in capsys.readouterr().out
    score_lines = scores.read_text().strip().splitlines()
    assert score_lines[0] == "query_image,reference_image,score"


def test_protocol_bruteforce_engine_and_computed_truth(tmp_path, capsys):
    corpus, _ = gen_corpus(
        tmp_path, images=6, per_image=30, loops=("4:0:0.7",), noise=4
    )
    timing = tmp_path / "timing.csv"
    pr = tmp_path / "pr.csv"
    assert run(
        "protocol", "--input", corpus, "--engine", "bruteforce",
        "--timing-csv", timing, "--eval", "--compute-truth", "--pr-csv", pr,
    ) == 0
    assert "max F1 1.0000" in capsys.readouterr().out


def test_protocol_eval_without_truth_exits_one(tmp_path):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    assert run(
        "protocol", "--input", corpus, "--timing-csv", tmp_path / "t.csv", "--eval"
    ) == 1


@pytest.mark.parametrize("bad", ["truth", "poses", "poses-nan", "poses-zero"])
def test_protocol_eval_reads_its_files_before_the_run(tmp_path, capsys, bad):
    # A bad row fails with its file and line, exit 2, before any image runs:
    # no timing CSV is written.
    corpus, _ = gen_corpus(tmp_path, images=3, per_image=10)
    if bad == "truth":
        path, line = tmp_path / "truth.csv", 3
        path.write_text("query_id,reference_id\n2,0\n1,2,3\n")
        flags = ("--truth", path)
    else:
        path, line = tmp_path / "poses.txt", 2
        pose = {"poses": "0 0 x 0 0 0 1", "poses-nan": "0 0 nan 0 0 0 1",
                "poses-zero": "0 0 0 0 0 0 0"}[bad]
        path.write_text(f"0 0 0 0 0 0 0 1\n1 {pose}\n2 0 0 0 0 0 0 1\n")
        flags = ("--compute-truth", "--poses", path)
    timing = tmp_path / "timing.csv"
    capsys.readouterr()
    assert run("protocol", "--input", corpus, "--timing-csv", timing, "--eval", *flags) == 2
    assert f"format error: {path}:{line}: " in capsys.readouterr().err
    assert not timing.exists()


def test_protocol_checks_image_ids_before_it_allocates(tmp_path, capsys):
    # Ids contiguous from 0 are all below the record count, so one record
    # with image id 10^6 is refused before 10^6 per-image lists (a 96 MB
    # tracemalloc peak) are made.
    corpus = tmp_path / "far.hbd"
    row = random_descriptors(1, 256, np.random.default_rng(34))[0]
    write_descriptor_file(corpus, [DescriptorEntry(row, 10**6, 0)], 256)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run("protocol", "--input", corpus, "--timing-csv", tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "usage error: image ids are not contiguous" in capsys.readouterr().err
    assert peak < 2**20
    assert not (tmp_path / "t.csv").exists()


def test_protocol_missing_input_exits_two(tmp_path):
    assert run(
        "protocol", "--input", tmp_path / "nope.hbd", "--timing-csv", tmp_path / "t.csv"
    ) == 2


# ----------------------------------------------------------------------
# completeness
# ----------------------------------------------------------------------

def test_completeness_emits_both_csvs(tmp_path):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=100, noise=0)
    bits_csv = tmp_path / "bits.csv"
    depth_csv = tmp_path / "depth.csv"
    assert run(
        "completeness", "--input", corpus, "--taus", "10,25", "--depths", "0-3",
        "--max-flips", 8, "--seed", 2,
        "--bits-csv", bits_csv, "--depth-csv", depth_csv,
    ) == 0
    bits_lines = bits_csv.read_text().strip().splitlines()
    assert bits_lines[0] == "bit,tau,completeness"
    assert len(bits_lines) == 1 + 256 * 2
    depth_lines = depth_csv.read_text().strip().splitlines()
    assert depth_lines[0] == "depth,tau,measured,predicted"
    assert len(depth_lines) == 1 + 4 * 2
    # depth-0 rows are exactly 1.0 both measured and predicted
    for line in depth_lines[1:3]:
        depth, tau, measured, predicted = line.split(",")
        assert depth == "0"
        assert float(measured) == 1.0 and float(predicted) == 1.0
    # predicted column equals mean per-bit completeness to the h-th power
    per_bit = {10: [], 25: []}
    for line in bits_lines[1:]:
        _, tau, value = line.split(",")
        per_bit[int(tau)].append(float(value))
    for line in depth_lines[1:]:
        depth, tau, _, predicted = line.split(",")
        expected = float(np.mean(per_bit[int(tau)])) ** int(depth)
        assert abs(float(predicted) - expected) < 1e-5


def reference_cli_noisy_queries(refs, dim_bits, max_flips, seed):
    """The query loop ``completeness`` ran itself before it shared
    ``make_noisy_duplicate_corpus``'s generator, kept as the reference."""
    rng = np.random.default_rng(seed)
    n_images = max(e.image_id for e in refs) + 1
    queries = []
    flip_counts = rng.integers(0, max_flips + 1, size=len(refs))
    for i, ref in enumerate(refs):
        f = int(flip_counts[i])
        positions = rng.choice(dim_bits, size=f, replace=False) if f else ()
        queries.append(
            DescriptorEntry(
                flip_bits(ref.descriptor, positions),
                n_images + ref.image_id,
                ref.keypoint_id,
            )
        )
    return queries


def test_completeness_default_queries_equal_the_reference_cli_loop(tmp_path):
    corpus, _ = gen_corpus(tmp_path, images=3, per_image=40, dim=64)
    refs, dim_bits = read_descriptor_file(corpus)
    query_file = tmp_path / "queries.hbd"
    write_descriptor_file(query_file, reference_cli_noisy_queries(refs, dim_bits, 9, 17), dim_bits)
    common = ("--input", corpus, "--taus", "4,9", "--depths", "0-3")
    assert run("completeness", *common, "--max-flips", 9, "--seed", 17,
               "--bits-csv", tmp_path / "b1.csv", "--depth-csv", tmp_path / "d1.csv") == 0
    assert run("completeness", *common, "--query", query_file,
               "--bits-csv", tmp_path / "b2.csv", "--depth-csv", tmp_path / "d2.csv") == 0
    assert (tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes()
    assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()


@pytest.mark.parametrize("flags, message", [
    (("--max-flips", 300), "max_flips must be in [0, 256], got 300"),
    (("--max-flips", -1), "max_flips must be in [0, 256], got -1"),
    (("--seed", -1), "--seed must be >= 0, got -1"),
], ids=["max-flips-over-width", "max-flips-negative", "seed-negative"])
def test_completeness_noisy_copy_range_errors_exit_one(tmp_path, capsys, flags, message):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    capsys.readouterr()
    assert run(
        "completeness", "--input", corpus, "--taus", "10", "--depths", "0-1", *flags,
        "--bits-csv", tmp_path / "b.csv", "--depth-csv", tmp_path / "d.csv",
    ) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_gen_negative_seed_exits_one(tmp_path, capsys):
    assert run("gen", "--images", 2, "--seed", -1, "--output", tmp_path / "x.hbd") == 1
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("empty_flag", ["--input", "--query"])
def test_completeness_on_an_empty_corpus_names_the_file(tmp_path, capsys, empty_flag):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    empty = tmp_path / "empty.hbd"
    write_descriptor_file(empty, [], 256)
    files = ["--input", empty]
    if empty_flag == "--query":
        files = ["--input", corpus, "--query", empty]
    capsys.readouterr()
    assert run(
        "completeness", *files, "--taus", "10", "--depths", "0-1",
        "--bits-csv", tmp_path / "b.csv", "--depth-csv", tmp_path / "d.csv",
    ) == 1
    kind = empty_flag.lstrip("-")
    assert capsys.readouterr().err == f"usage error: {kind} corpus {empty} is empty\n"
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("flag, text, token", [
    ("--depths", "0,8-2", "8-2"),
    ("--taus", "10,25-20,50", "25-20"),
])
def test_completeness_reversed_range_exits_one(tmp_path, capsys, flag, text, token):
    # A reversed range is an empty range(): "0,8-2" would run depth 0 alone.
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    lists = {"--taus": "10", "--depths": "0-1", flag: text}
    capsys.readouterr()
    assert run(
        "completeness", "--input", corpus, *(x for item in lists.items() for x in item),
        "--bits-csv", tmp_path / "b.csv", "--depth-csv", tmp_path / "d.csv",
    ) == 1
    assert f"usage error: reversed range {token!r}" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_completeness_tau_out_of_range_exits_one(tmp_path):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    assert run(
        "completeness", "--input", corpus, "--taus", "300", "--depths", "0-1",
        "--bits-csv", tmp_path / "b.csv", "--depth-csv", tmp_path / "d.csv",
    ) == 1


@pytest.mark.parametrize("flag, text, message", [
    ("--depths", "0-1000000", "depth 1000000 out of range for 256-bit trees"),
    ("--taus", "5-1000000", "tau 1000000 out of range for 256-bit descriptors"),
])
def test_completeness_checks_a_range_before_expanding_it(tmp_path, capsys, flag, text, message):
    # Expanded first, "0-1000000" made a list that peaked at about 40 MB.
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    lists = {"--taus": "10", "--depths": "0-1", flag: text}
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run(
            "completeness", "--input", corpus, *(x for item in lists.items() for x in item),
            "--bits-csv", tmp_path / "b.csv", "--depth-csv", tmp_path / "d.csv",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert peak < 1 << 20
    assert not (tmp_path / "b.csv").exists()


# ----------------------------------------------------------------------
# tree build / info
# ----------------------------------------------------------------------

def test_tree_build_and_info_round_trip(tmp_path, capsys):
    corpus, _ = gen_corpus(tmp_path, images=4, per_image=50)
    tree_path = tmp_path / "tree.hbt"
    assert run("tree", "build", "--input", corpus, "--output", tree_path,
               "--nmax", 5) == 0
    assert run("tree", "info", "--tree", tree_path) == 0
    printed = capsys.readouterr().out
    assert "dim_bits: 256" in printed
    assert "entries: 200" in printed


@pytest.mark.parametrize("dim", [8, 16])
def test_tree_build_on_a_narrow_corpus_needs_no_tau(tmp_path, capsys, dim):
    corpus, _ = gen_corpus(tmp_path, images=3, per_image=20, noise=2, dim=dim)
    tree_path = tmp_path / "tree.hbt"
    assert run("tree", "build", "--input", corpus, "--output", tree_path, "--nmax", 4) == 0
    assert run("tree", "info", "--tree", tree_path) == 0
    printed = capsys.readouterr().out
    assert f"dim_bits: {dim}" in printed
    assert "entries: 60" in printed


def test_tree_build_takes_no_tau(tmp_path, capsys):
    # A tree file stores no tau, so the flag would be validated and dropped.
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=10)
    assert run("tree", "build", "--input", corpus, "--output", tmp_path / "t.hbt",
               "--tau", 10) == 1
    assert "unrecognized arguments: --tau" in capsys.readouterr().err
    assert not (tmp_path / "t.hbt").exists()


@pytest.mark.parametrize("argv, flags", [
    (["match", "--db", "d", "--query", "q", "--output", "o"], ("n_max", "delta_max", "tau")),
    (["protocol", "--input", "i", "--timing-csv", "t"], ("n_max", "delta_max", "tau")),
    (["tree", "build", "--input", "i", "--output", "o"], ("n_max", "delta_max")),
])
def test_tree_flags_default_to_tree_config(argv, flags):
    args = vars(hamtree.cli._build_parser().parse_args(argv))
    parsed = {"n_max": args.pop("nmax"), "delta_max": args.pop("delta_max")}
    if "tau" in args:
        parsed["tau"] = args.pop("tau")
    defaults = TreeConfig()
    assert parsed == {flag: getattr(defaults, flag) for flag in flags}


def test_tree_build_incremental(tmp_path):
    corpus, _ = gen_corpus(tmp_path, images=2, per_image=40)
    tree_path = tmp_path / "tree.hbt"
    assert run("tree", "build", "--input", corpus, "--output", tree_path,
               "--incremental", "--nmax", 4) == 0
    from hamtree import load_tree

    tree = load_tree(tree_path)
    assert tree.count == 80


def test_tree_build_and_match_on_a_chain_of_more_than_a_thousand_levels(tmp_path, capsys):
    n = 1101
    corpus, tree_path, out = tmp_path / "chain.hbd", tmp_path / "chain.hbt", tmp_path / "m.csv"
    write_descriptor_file(corpus, chain_entries(n), 2048)
    shape = ("--nmax", 1, "--delta-max", 0.5)
    assert run("tree", "build", "--input", corpus, "--output", tree_path, *shape) == 0
    assert run("tree", "info", "--tree", tree_path) == 0
    assert run("match", "--db", corpus, "--query", corpus, "--output", out, *shape,
               "--compare-bruteforce") == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert f"max depth {n - 1} -> " in printed.out
    assert re.search(rf"^depth mean/std/max: .*/{n - 1}$", printed.out, re.M)
    assert "speedup: " in printed.out
    # Every stored row finds itself.
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + n and all(line.endswith(",0") for line in lines[1:])


def test_tree_info_on_garbage_exits_two(tmp_path):
    bad = tmp_path / "bad.hbt"
    bad.write_bytes(b"not a tree")
    assert run("tree", "info", "--tree", bad) == 2


def test_unknown_command_exits_one():
    assert run("frobnicate") == 1


def test_tree_info_on_corrupt_trees_exits_two_without_traceback(tmp_path, capsys):
    from hamtree import HammingTree, InternalNode, TreeConfig, random_descriptors, serialize_tree
    from hamtree.descriptor import DescriptorEntry

    rng = np.random.default_rng(95)
    entries = [DescriptorEntry(d, 0, i) for i, d in enumerate(random_descriptors(24, 64, rng))]
    tree = HammingTree.build_balanced(entries, TreeConfig(tau=8, n_max=4), 64)
    blob = serialize_tree(tree)
    root = tree.root
    tree.root = InternalNode(root.bit_index, root.right, root.left)
    swapped = serialize_tree(tree)
    # A one-leaf tree whose entry count (bytes 10..13) claims 2**32 - 1 records.
    huge_count = bytearray(serialize_tree(HammingTree.build_balanced(entries[:3], tree.config)))
    huge_count[10:14] = b"\xff" * 4
    variants = [swapped, bytes(huge_count)] + [blob[:cut] for cut in range(0, len(blob), 7)]
    path = tmp_path / "bad.hbt"
    for data in variants:
        path.write_bytes(data)
        assert run("tree", "info", "--tree", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("format error") and "Traceback" not in err
