import ctypes

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
