"""Deterministic chunked execution, serial or across forked children.

Every parallel job covers one range of sample indices from
`sample_ranges`, so chunk boundaries are fixed by sample index, never by
worker count.  Callers bind a job's shared arguments with
`functools.partial` and pass the ranges as payloads; results come back in
range order and are reduced in that order, so any worker count produces
bit-identical output.

`run_chunked` forks one child per worker, `min(workers, len(payloads))`
of them.  Child k runs payloads k, k + shares, k + 2 shares, ... in
order, stops at the first exception, and sends its results and that
exception back through its own pipe; the parent runs no payload itself
and raises the exception of the lowest failing payload index, the one a
serial run raises.  The children inherit the job and its arguments by
the fork, so nothing but results crosses a pipe.  The process pool this
replaced paid for its threads, queues and imports on every command: on a
2-vCPU x86-64 host, 2-worker `conditioned --r 12 --samples 4096` took
32.5 ms with it and 27.8 ms with the forks (median of 30 runs).  The
parent stays out of the work because the memory a share builds would add
to its own peak: `hole --r 1 --samples 100000` peaks at 31.2 MiB in the
parent at 2 workers against 46.9 MiB at `--threads 1`.

Children keep the memory they free.  Each job allocates its row
blocks and the kernel's temporaries afresh, about 1 MB each for the one
Monte Carlo job of `hole`, `conditioned` and `zeros`, which streams its
rows in blocks of at most 2^16 values; by default glibc hands freed heap
back to the kernel once more of it is free than its dynamic trim
threshold (twice the largest block it has freed from `mmap`), so every
job page-faults them in again.  Each child therefore starts with
`_keep_freed_memory`, which raises glibc's mmap threshold to 32 MiB and
its trim threshold to 1 GiB.  In 2-worker runs on a 2-vCPU x86-64 host,
a 543-row `conditioned --r 12` job after a worker's first then took 1
minor fault instead of about 5 400 (32-40 ms instead of 45-47 ms), and a
2048-row `hole --r 1` job 5 instead of about 1 700 (22 ms against 20-24
ms).  The children exit before `run_chunked` returns, and the memory with
them; the serial path leaves the caller's allocator alone.  Where the C
library has no `mallopt`, children run as before, and where there is no
`os.fork`, every payload runs serially.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import sys

_BLOCK_VALUES = 2**16  # values per block of the kernel, the draws and the jobs (1 MB complex128)
_STREAM_VALUES = 2**18  # most values in a Monte Carlo job, its row degree bound, or a covdet grid
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_KEEP_BELOW_BYTES = 32 << 20  # blocks up to this size come from the reusable heap
_TRIM_ABOVE_BYTES = 1 << 30  # free heap kept before any is returned to the kernel


def _keep_freed_memory() -> None:
    """Let glibc reuse freed blocks instead of returning them; each child calls it first.

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


def _run_share(fn, share, pipe: int) -> None:
    """In a forked child: fn over `share` up to its first exception, pickled to `pipe`.

    Never returns: the child flushes its standard streams and leaves by
    `os._exit`, so no exit handler or buffer it inherited runs twice.  A
    child that fails before sending leaves its pipe empty.
    """
    code = 1
    try:
        _keep_freed_memory()
        results, error = [], None
        for payload in share:
            try:
                results.append(fn(payload))
            except Exception as exc:
                error = exc
                break
        data = pickle.dumps((results, error), pickle.HIGHEST_PROTOCOL)  # whole, or nothing sent
        with open(pipe, "wb") as out:
            out.write(data)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def run_chunked(fn, payloads, workers: int | None = None) -> list:
    """fn over payloads, results in payload order.

    Raises what fn raises on the lowest failing payload, as a serial run
    does, and RuntimeError for a child that ends without sending its
    results (killed, or out of memory).  No child outlives the call.
    """
    workers = resolve_workers(workers)
    if workers <= 1 or len(payloads) <= 1 or not hasattr(os, "fork"):
        return [fn(p) for p in payloads]
    shares = min(workers, len(payloads))
    results: list = [None] * len(payloads)
    failed: dict[int, Exception] = {}  # payload index -> what fn raised there
    pids: dict[int, int] = {}  # share -> pid of its child, until reaped
    pipes = []  # read end of each share's pipe
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for k in range(shares):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, payloads[k::shares], write)
            finally:
                os.close(write)
            pids[k] = pid
        for k, pipe in enumerate(pipes):
            data = pipe.read()
            _, status = os.waitpid(pids.pop(k), 0)
            if not data:
                raise RuntimeError(f"worker {k} of {shares} ended without sending its results "
                                   f"(exit code {os.waitstatus_to_exitcode(status)})")
            done, error = pickle.loads(data)
            results[k:k + shares * len(done):shares] = done
            if error is not None:
                failed[k + shares * len(done)] = error
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal  # only to stop the children an error left running

            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failed:
        raise failed[min(failed)]
    return results
