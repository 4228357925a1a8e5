"""Benchmark for hamtree: one workload per process, one JSON line of results.

Usage, from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Workloads are ``stream``, ``lookup`` and ``exact`` (see BENCHMARK.json and
perfbench/README.md). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. The library is imported
from ``src/`` of the checkout this file sits in, never from elsewhere.

Stdout ends with one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). The lines before it give the
environment, the workload sizes and each metric under its workload-specific
name, with its unit and direction. The same record, and in a traced run every
span, is written under ``perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

# The end-to-end figures under their workload-specific names.
REPORT = {
    "setup_s": ("s", "lower"),
    "image_ms_p50": ("ms", "lower"),
    "image_ms_p95": ("ms", "lower"),
    "images_per_s": ("1/s", "higher"),
    "max_f1": ("ratio", "higher"),
    "tree_max_f1": ("ratio", "higher"),
    "query_us_p50": ("us", "lower"),
    "query_us_p99": ("us", "lower"),
    "queries_per_s": ("1/s", "higher"),
    "nn_agreement": ("ratio", "higher"),
    "sweep_s": ("s", "lower"),
    "index_bytes_per_desc": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ratio": ("ratio", "lower"),
}


def listed_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) name -> (unit, better), as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    )


def import_library() -> None:
    """Import hamtree from this checkout's src/; exit non-zero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import hamtree
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hamtree from {SRC}: {exc}")
    if not Path(hamtree.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: hamtree was imported from {hamtree.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy as np

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_bitwise_count": hasattr(np, "bitwise_count"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def sizes(workload: str, size: str) -> dict:
    import gen
    from workloads import SIZES

    shape = {name: getattr(gen, name) for name in
             ("DIM_BITS", "POOL_SHARE", "POOL_FLIPS", "LOOP_OVERLAP", "LOOP_FLIPS",
              "MAX_FLIPS", "IMAGE_ROWS")}
    return {
        **{key: asdict(value) if is_dataclass(value) else value
           for key, value in SIZES[size][workload].items()},
        "generator": shape,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["stream", "lookup", "exact"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)

    end_to_end, per_layer = listed_metrics()
    import_library()
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer, args.size, OUT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.e2e["peak_rss_mb"] = peak_rss_mb
    outcome.report["peak_rss_mb"] = peak_rss_mb
    outcome.report["failed_ratio"] = outcome.failed / outcome.attempted

    if tracer is None:
        metrics = {name: {"value": outcome.e2e[name], "unit": unit}
                   for name, (unit, _) in end_to_end.items()}
    else:
        layers = {name: 0.0 for name in per_layer}
        layers.update(outcome.layers)
        for layer, seconds in tracer.self_seconds().items():
            layers[f"{layer}.self_s"] = seconds
        layers["trace.spans"] = len(tracer.names)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in per_layer.items()}

    env = environment(args)
    record = {
        "environment": env,
        "sizes": sizes(args.workload, args.size),
        "report": {name: {"value": value, "unit": REPORT[name][0], "better": REPORT[name][1]}
                   for name, value in outcome.report.items()},
        "metrics": metrics,
        "passes": outcome.passes,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv")

    print("environment " + json.dumps(env))
    print("sizes " + json.dumps(record["sizes"]))
    for name, entry in record["report"].items():
        print(f"{name:<32} {entry['value']:>16.6g} {entry['unit']:<6} {entry['better']} is better")
    listed = end_to_end if tracer is None else per_layer
    for name, entry in metrics.items():
        print(f"{name:<32} {entry['value']:>16.6g} {entry['unit']:<6} {listed[name][1]} is better")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
