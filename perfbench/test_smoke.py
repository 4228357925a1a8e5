"""Smoke test of the benchmark: a tiny run of each workload, untraced and traced.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Workload-specific names of the end-to-end figures, as the report prints them.
REPORTED = {
    "stream": ["setup_s", "image_ms_p50", "image_ms_p95", "images_per_s", "max_f1",
               "index_bytes_per_desc", "peak_rss_mb", "failed_ratio"],
    "lookup": ["setup_s", "query_us_p50", "query_us_p99", "queries_per_s", "nn_agreement",
               "index_bytes_per_desc", "peak_rss_mb", "failed_ratio"],
    "exact": ["setup_s", "images_per_s", "max_f1", "sweep_s", "peak_rss_mb", "failed_ratio"],
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in listed]
    for m in listed:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))
        assert f"{m['better']} is better" in next(
            line for line in proc.stdout.splitlines() if line.startswith(m["name"] + " ")
        )
        if not trace:
            assert metrics[m["name"]]["value"] > 0, m["name"]

    record = json.loads(
        (ROOT / "perfbench_out" / f"{workload}-seed7-trace{trace}.json").read_text()
    )
    assert record["environment"]["seed"] == 7
    assert "numpy_bitwise_count" in record["environment"]
    report = record["report"]
    for name in REPORTED[workload]:
        assert report[name]["unit"] and report[name]["better"] in ("lower", "higher")
    assert report["failed_ratio"]["value"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "stream", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def workloads(monkeypatch):
    """The workloads module, imported in-process from this checkout."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads

    yield workloads
    gc.unfreeze()


def test_a_raising_image_is_counted(workloads, monkeypatch, tmp_path):
    real = workloads.query_image

    def flaky(tree, entries, *args, **kwargs):
        if entries[0].image_id == 3:
            raise RuntimeError("planted failure")
        return real(tree, entries, *args, **kwargs)

    monkeypatch.setattr(workloads, "query_image", flaky)
    outcome = workloads.stream(7, 1, None, "tiny", tmp_path)
    assert 0 < outcome.failed < outcome.attempted
    assert 0 < outcome.e2e["accuracy"] <= 1


def test_a_raising_protocol_is_counted(workloads, monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(workloads, "run_protocol_brute_force", broken)
    outcome = workloads.exact(7, 1, None, "tiny", tmp_path)
    assert 0 < outcome.failed < outcome.attempted
    assert outcome.e2e["op_ms_p50"] > 0
