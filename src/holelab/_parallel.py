"""Deterministic chunked execution, serial or across a process pool.

Every parallel job covers one range of sample indices from
`sample_ranges`, so chunk boundaries are fixed by sample index, never by
worker count.  Callers bind a job's shared arguments with
`functools.partial` and pass the ranges as payloads; results come back in
range order and are reduced in that order, so any worker count produces
bit-identical output.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def resolve_workers(workers: int | None = None) -> int:
    """Explicit value > THREADS env var > machine parallelism."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def sample_ranges(samples: int, rows: int) -> list[range]:
    """Consecutive ranges of at most `rows` indices covering 0..samples-1."""
    return [range(start, min(start + rows, samples)) for start in range(0, samples, rows)]


def run_chunked(fn, payloads, workers: int | None = None) -> list:
    """fn over payloads, results in payload order."""
    workers = resolve_workers(workers)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(fn, payloads))
