import ctypes
import os
import time

import numpy as np
import pytest

from holelab._parallel import _keep_freed_memory, run_chunked, sample_ranges


@pytest.mark.parametrize("samples, rows, expected", [
    (6, 3, [range(0, 3), range(3, 6)]),
    (7, 3, [range(0, 3), range(3, 6), range(6, 7)]),
    (5, 8, [range(0, 5)]),
    (1, 4, [range(0, 1)]),
])
def test_sample_ranges_cover_every_index_once(samples, rows, expected):
    ranges = sample_ranges(samples, rows)
    assert ranges == expected
    assert [i for part in ranges for i in part] == list(range(samples))


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _refaults(megabytes: int) -> int:
    """Minor page faults over five rounds of allocating and freeing one array."""
    import resource  # POSIX only; runs only where glibc's mallopt exists

    n = (megabytes << 20) // 8
    np.ones(n)  # the first round faults its pages in
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        np.ones(n)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def test_pool_workers_reuse_the_memory_they_free():
    if not _has_mallopt():  # no glibc: the initializer leaves the allocator alone
        assert _keep_freed_memory() is None
        return
    # glibc's defaults returned the freed 8 MB and faulted it in again: 518 faults
    # per worker on a 2-vCPU x86-64 Linux host, against 4 with the policy
    assert max(run_chunked(_refaults, [8, 8], workers=2)) < 64


def _square(x: int) -> int:
    return x * x


def _fail_at_3_and_4(x: int) -> int:
    if x in (3, 4):
        raise ValueError(f"payload {x}")
    return x


def _exit_at_2(x: int) -> int:
    if x == 2:
        os._exit(3)  # a child that dies without sending anything, as when it is killed
    time.sleep(0.01 if x < 2 else 5.0)  # the other child is still at work when it dies
    return x


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_results_come_back_in_payload_order():
    # share 0 runs payloads 0, 2, 4, 6 and share 1 runs 1, 3, 5
    assert run_chunked(_square, list(range(7)), workers=2) == [x * x for x in range(7)]
    assert _no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_lowest_failing_payload_raises(workers):
    # at 2 workers payload 3 fails in the second child and 4 in the first,
    # each child stops at its failure, and a serial run raises payload 3's
    with pytest.raises(ValueError, match="^payload 3$"):
        run_chunked(_fail_at_3_and_4, list(range(7)), workers=workers)
    assert _no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="run serially, os._exit would end pytest")
def test_a_child_that_dies_without_results_raises_and_no_child_is_left():
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="worker 0 of 2 ended without sending its results "
                                           r"\(exit code 3\)"):
        run_chunked(_exit_at_2, list(range(4)), workers=2)
    assert _no_child_left()  # the child still sleeping in payload 3 was killed and reaped
    assert time.perf_counter() - start < 4.0
