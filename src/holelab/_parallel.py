"""Deterministic chunked execution, serial or across a process pool.

Every parallel job covers one range of sample indices from
`sample_ranges`, so chunk boundaries are fixed by sample index, never by
worker count.  Callers bind a job's shared arguments with
`functools.partial` and pass the ranges as payloads; results come back in
range order and are reduced in that order, so any worker count produces
bit-identical output.

Pool workers keep the memory they free.  Each job allocates its row
blocks and the kernel's temporaries afresh, about 1 MB each for the one
Monte Carlo job of `hole`, `conditioned` and `zeros`, which streams its
rows in blocks of at most 2^16 values; by default glibc hands freed heap
back to the kernel once more of it is free than its dynamic trim
threshold (twice the largest block it has freed from `mmap`), so every
job page-faults them in again.  Each worker therefore starts with
`_keep_freed_memory`, which raises glibc's mmap threshold to 32 MiB and
its trim threshold to 1 GiB.  In 2-worker runs on a 2-vCPU x86-64 host,
a 543-row `conditioned --r 12` job after a worker's first then took 1
minor fault instead of about 5 400 (32-40 ms instead of 45-47 ms), and a
2048-row `hole --r 1` job 5 instead of about 1 700 (22 ms against 20-24
ms).  The workers exit when `run_chunked` returns, and the memory with
them; the serial path leaves the caller's allocator alone.  Where the C
library has no `mallopt`, workers run as before.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor

_BLOCK_VALUES = 2**16  # values per block of the kernel, the draws and the jobs (1 MB complex128)
_STREAM_VALUES = 2**18  # most values in a Monte Carlo job, its row degree bound, or a covdet grid
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BELOW_BYTES = 32 << 20  # blocks up to this size come from the reusable heap
_TRIM_ABOVE_BYTES = 1 << 30  # free heap kept before any is returned to the kernel


def _keep_freed_memory() -> None:
    """Pool initializer: let glibc reuse freed blocks instead of returning them.

    Setting either threshold switches off glibc's dynamic mmap threshold,
    so both are set: a trim threshold alone would leave multi-MB arrays on
    fresh `mmap` pages.  A no-op where `mallopt` is missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _KEEP_BELOW_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_ABOVE_BYTES)


def resolve_workers(workers: int | None = None) -> int:
    """Explicit value > THREADS env var > CPUs this process may run on.

    A THREADS value that is not a positive integer raises ValueError
    naming THREADS.
    """
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"THREADS must be a positive integer, got {env!r}")
        return int(env)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_ranges(samples: int, rows: int) -> list[range]:
    """Consecutive ranges of at most `rows` indices covering 0..samples-1."""
    return [range(start, min(start + rows, samples)) for start in range(0, samples, rows)]


def run_chunked(fn, payloads, workers: int | None = None) -> list:
    """fn over payloads, results in payload order."""
    workers = resolve_workers(workers)
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads)),
                             initializer=_keep_freed_memory) as pool:
        return list(pool.map(fn, payloads))
