"""Spans around the public functions of holelab's modules.

`Tracer.install` replaces every public function of the layer modules at
each module attribute where callers look it up (`hole_estimators.sample_seed`,
`cli_reports.count_zeros_disk`, ...) with a wrapper that records a span:
name, start, end and parent.  Spans stay in memory, in flat arrays, until
`write` saves them.  Only single-process runs are traced: pool workers
would record into their own copies of the arrays.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

LAYERS = ("coeff_models", "sampling", "evaluate_zeros", "hole_estimators",
          "volume_geometry", "covariance_det", "hermite_asymptotics",
          "cli_reports", "_parallel")

# work counted at the call boundary, beyond calls and errors
COUNTERS = {
    "evaluate_zeros.winding_counts_batch": ("rows", lambda rows, *a, **k: len(rows)),
    "parallel.run_chunked": ("chunks", lambda fn, payloads, *a, **k: len(payloads)),
}


def layer_of(module_name: str) -> str:
    """Metric prefix of a module: `holelab._parallel` -> `parallel`."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, key: str):
        name_id = len(self.names)
        self.names.append(key)
        counter = COUNTERS.get(key)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[f"{key}.{counter[0]}"] += counter[1](*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.errors[key] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def install(self, package: str = "holelab"):
        """Wrap the layers' public functions for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self.wrap(obj, f"{layer_of(module.__name__)}.{name}")
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        try:
            yield self
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)

    def self_times(self) -> tuple[dict[str, int], dict[str, float], float]:
        """(calls, self seconds) per function, and the summed root-span time.

        Self time is a span's duration minus its direct children's; calls in
        one thread nest, so the children's durations are the covered part.
        """
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        roots = 0.0
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
            else:
                roots += dur[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for i in range(n):
            key = self.names[self.span_name[i]]
            calls[key] += 1
            self_s[key] += dur[i] - child[i]
        for key in self.names:
            calls.setdefault(key, 0)
            self_s.setdefault(key, 0.0)
        return dict(calls), dict(self_s), roots

    def child_calls(self, child: str, parent: str) -> int:
        """Calls of `child` made directly by `parent`."""
        c, p = self.names.index(child), self.names.index(parent)
        return sum(1 for i in range(len(self.span_name))
                   if self.span_name[i] == c and self.span_parent[i] >= 0
                   and self.span_name[self.span_parent[i]] == p)

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: id, parent id, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                          f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n")
