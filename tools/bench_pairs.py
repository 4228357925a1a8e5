"""Run the benchmark on a parent commit and on this checkout, in alternating pairs.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seed 2001 --out BENCH_6.json

The parent commit's files are exported with ``git archive`` into a temporary
directory (local only; shallow clones work), and the change side is this
checkout as it stands, uncommitted edits included. Pair k runs every
workload of ``BENCHMARK.json`` once on each side with seed ``--seed + k``;
the parent goes first in even pairs and the change in odd ones. Every run is
``perfbench/run.py --trace 0`` in its own process, for the
``run_seconds`` that ``BENCHMARK.json`` sets (1 s with ``--size tiny``).

The JSON written to ``--out`` holds both commits, the host, the Python and
numpy versions, and per workload and end-to-end metric each side's median,
quartiles, pair count and every run's value, with the metric's bound and
three verdicts:

- ``within_bound``: the change's median is no worse than the parent's by
  more than the bound
- ``wins``: the pairs whose change run beat the parent run of the same
  seed; a tie counts for neither side
- ``ties``: the pairs whose change run equals the parent run of the same
  seed exactly, so a metric that must not move (``accuracy``) reads as
  identical per seed when ``ties`` equals the pair count
- ``unresolved``: either side's quartile spread is wider than the bound
  (as a fraction of that side's median), so the medians cannot tell a
  change of that size from noise, unless every change run beats every
  parent run
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kwargs)


def export(commit: str, directory: Path) -> None:
    """The committed files of ``commit``, written under ``directory``."""
    archive = git("archive", "--format=tar", commit).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """The result object a benchmark run prints last."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--size", size],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {workload} seed {seed} in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3, "pairs": len(values), "runs": values}


def within(bound: float, better: str, parent: float, change: float) -> bool:
    if better == "lower":
        return change <= parent * (1 + bound)
    return change >= parent * (1 - bound)


def beats(better: str, change: float, parent: float) -> bool:
    return change < parent if better == "lower" else change > parent


def wins(better: str, parent: list[float], change: list[float]) -> int:
    """Pairs the change won, pairing runs of the same seed; ties count for neither."""
    return sum(beats(better, c, p) for p, c in zip(parent, change))


def ties(parent: list[float], change: list[float]) -> int:
    """Pairs whose two runs of the same seed gave exactly the same value."""
    return sum(c == p for p, c in zip(parent, change))


def unresolved(bound: float, better: str, parent: dict, change: dict) -> bool:
    """Either ``summary``'s quartile spread exceeds ``bound`` times its
    median, and some change run does not beat every parent run."""
    spread = any(s["q3"] - s["q1"] > bound * abs(s["median"]) for s in (parent, change))
    return spread and not all(
        beats(better, c, p) for c in change["runs"] for p in parent["runs"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.size == "full" else 1
    workloads = [w["name"] for w in spec["workloads"]]
    parent_commit = git("rev-parse", args.parent, text=True).stdout.strip()
    change_commit = git("rev-parse", "HEAD", text=True).stdout.strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no", text=True).stdout.strip())

    results = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp), "change": ROOT}
        export(parent_commit, sides["parent"])
        for k in range(args.pairs):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    result = run(sides[side], workload, args.seed + k, seconds, args.size)
                    results[workload][side].append(result)
                    print(f"pair {k + 1}/{args.pairs} {workload} {side}: failed "
                          f"{result['failed']}/{result['attempted']}", file=sys.stderr)

    report = {}
    for workload, by_side in results.items():
        metrics = {}
        for m in spec["end_to_end"]:
            entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
            for side, side_runs in by_side.items():
                entry[side] = summary([r["metrics"][m["name"]]["value"] for r in side_runs])
            parent, change = entry["parent"], entry["change"]
            entry["within_bound"] = within(
                m["bound"], m["better"], parent["median"], change["median"]
            )
            entry["wins"] = wins(m["better"], parent["runs"], change["runs"])
            entry["ties"] = ties(parent["runs"], change["runs"])
            entry["unresolved"] = unresolved(m["bound"], m["better"], parent, change)
            metrics[m["name"]] = entry
        report[workload] = {
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in by_side.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in by_side.items()},
            "metrics": metrics,
        }
    record = {
        "parent": {"ref": args.parent, "commit": parent_commit},
        "change": {"commit": change_commit, "uncommitted_edits": dirty},
        "host": {"name": platform.node(), "cpus": os.cpu_count(), "machine": platform.machine()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "size": args.size,
        "seconds": seconds,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "workloads": report,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
