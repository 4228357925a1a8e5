"""Smoke test of the pair runner: one tiny pair against HEAD.

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
            for side in ("parent", "change"):
                stats = entry[side]
                assert stats["pairs"] == 1 and len(stats["runs"]) == 1
                assert stats["q1"] == stats["median"] == stats["q3"] == stats["runs"][0] > 0
