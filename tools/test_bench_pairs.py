"""Tests of the pair runner: one tiny pair against HEAD, and its verdicts on made-up runs.

Run from the repository root:

    python3 -m pytest tools/test_bench_pairs.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402


def test_one_tiny_pair_against_head(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, "tools/bench_pairs.py", "--parent", "HEAD", "--pairs", "1",
         "--seed", "7", "--size", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    assert record["parent"]["commit"] == record["change"]["commit"] == head
    assert record["python"] and record["numpy"] and record["host"]["name"]
    assert record["seeds"] == [7] and record["size"] == "tiny" and record["seconds"] == 1
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for workload in record["workloads"].values():
        assert workload["failed"] == {"parent": 0, "change": 0}
        assert workload["attempted"]["parent"] >= 1
        assert list(workload["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for m in SPEC["end_to_end"]:
            entry = workload["metrics"][m["name"]]
            assert entry["bound"] == m["bound"] and entry["better"] == m["better"]
            assert isinstance(entry["within_bound"], bool)
            # One run per side: no spread, and the pair is won or not.
            assert entry["unresolved"] is False
            assert entry["wins"] in (0, 1) and entry["ties"] in (0, 1)
            assert entry["wins"] + entry["ties"] <= 1
            for side in ("parent", "change"):
                stats = entry[side]
                assert stats["pairs"] == 1 and len(stats["runs"]) == 1
                assert stats["q1"] == stats["median"] == stats["q3"] == stats["runs"][0] > 0


def test_wins_count_pairs_and_ties_count_for_neither():
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 10.0, 11.0, 8.0]
    assert bench_pairs.wins("lower", parent, change) == 2
    assert bench_pairs.wins("higher", parent, change) == 1
    # Pairs are matched by position (seed), not by rank.
    assert bench_pairs.wins("lower", [1.0, 9.0], [2.0, 8.0]) == 1


def test_ties_count_exactly_equal_pairs():
    parent = [10.0, 10.0, 0.75, 0.5]
    change = [9.0, 10.0, 0.75, 0.5000001]
    assert bench_pairs.ties(parent, change) == 2
    assert bench_pairs.ties(parent, parent) == len(parent)
    # Pairs are matched by position (seed), not by value.
    assert bench_pairs.ties([1.0, 2.0], [2.0, 1.0]) == 0
    # A pair is a win, a loss or a tie, never two of them.
    for better in ("lower", "higher"):
        lost = len(parent) - bench_pairs.wins(better, parent, change) - bench_pairs.ties(parent, change)
        assert lost == bench_pairs.wins(better, change, parent)


def test_unresolved_when_a_spread_exceeds_the_bound():
    tight = bench_pairs.summary([10.0, 10.1, 9.9, 10.0, 10.2])
    wide = bench_pairs.summary([6.0, 10.0, 14.0, 8.0, 12.0])
    slower = bench_pairs.summary([10.5, 10.6, 10.4, 10.5, 10.7])
    assert bench_pairs.unresolved(0.25, "lower", tight, slower) is False
    assert bench_pairs.unresolved(0.25, "lower", wide, tight) is True
    assert bench_pairs.unresolved(0.25, "lower", tight, wide) is True
    assert bench_pairs.unresolved(0.5, "lower", wide, tight) is False
    # Every change run below every parent run settles it despite the spread.
    faster = bench_pairs.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert bench_pairs.unresolved(0.25, "lower", wide, faster) is False
    assert bench_pairs.unresolved(0.25, "higher", wide, faster) is True
