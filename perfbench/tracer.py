"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request id). Names are
``<layer>.<call>``, where the layer is a module of ``hamtree`` or ``bench``
for the benchmark's own request spans. Spans are opened only by benchmark
code, around its calls into the library, and kept in plain lists until the
run ends and ``write`` dumps them.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("descriptor", "tree", "retrieval", "oracle", "evaluation", "io")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self._open: list[int] = [-1]

    def begin(self, name: str, request: int = -1) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.requests.append(request)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, request: int = -1):
        idx = self.begin(name, request)
        try:
            yield
        finally:
            self.end(idx)

    def durations(self, name: str, first_request: int = -1) -> np.ndarray:
        """Durations in seconds of the spans called ``name``, in open order,
        whose request id is at least ``first_request``."""
        return np.array([
            e - s
            for n, s, e, r in zip(self.names, self.starts, self.ends, self.requests)
            if n == name and r >= first_request
        ])

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time not covered by the span's children."""
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        covered = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        own = dur - covered
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in zip(self.names, own):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += float(value)
        return out

    def write(self, path) -> None:
        """One CSV row per span, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,request\n")
            for i, (n, s, e, p, r) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.requests)
            ):
                fh.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{r}\n")
