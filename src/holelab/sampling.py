"""Seedable coefficient draws and truncation degrees with tail certificates.

Randomness comes from a counter-based Philox stream keyed by the draw's
master seed.  Index n of a draw always consumes the two 64-bit words 2n and
2n+1 (magnitude word, phase word), so regenerating a draw with a larger
count leaves the earlier values bit-identical, and disjoint index ranges
can be produced independently.

Monte Carlo sample i of a run keys its stream with sample_seed(seed, i),
numpy's SeedSequence((seed, i)) hash.  The samplers draw whole row ranges
i..j at once: `sample_seeds` computes the hash for every i in uint32 array
arithmetic, and one Philox, its key rewritten and its counter reset per row,
generates the rows in blocks of about 2^16 values.  Row k of `draw_rows`
equals the one-row `draw_coeffs` keyed by sample_seed(seed, i + k) bit for
bit, so batching changes no value.

The unit complex Gaussian (density exp(-|z|^2)/pi) is sampled as
magnitude-phase: |phi|^2 is standard exponential via inverse CDF and the
phase is uniform.  The same inverse-CDF route yields exponential magnitudes
truncated to an interval without any rejection loop, which the conditioned
hole sampler relies on.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .coeff_models import CoefficientModel

_WORD_TO_UNIT = 2.0**-53  # top 53 bits of a 64-bit word -> uniform in [0, 1)
_SEED_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_BLOCK_VALUES = 2**16  # values per generated row block (bounds the temporaries)
# numpy's SeedSequence: pool size and hash constants (uint32 arithmetic)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class Distribution(Enum):
    COMPLEX_GAUSSIAN = "complex-gaussian"
    RADEMACHER = "rademacher"
    STEINHAUS = "steinhaus"


def _check_range(start: int, stop: int) -> None:
    # a sample index is one uint32 entropy word of the seed hash
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"need 0 <= start <= stop <= 2**32, got {start}, {stop}")


def sample_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Derived 64-bit seeds (uint64) of Monte Carlo samples start..stop-1.

    The value for sample i is numpy's SeedSequence((master_seed, i)) hash,
    generate_state(1, uint64), computed for all i at once in uint32 array
    arithmetic.  Hashing (seed, index) rather than advancing one stream keeps
    results independent of worker count and chunking.
    """
    _check_range(start, stop)
    return _seed_hash(master_seed, np.arange(start, stop, dtype=np.uint64).astype(np.uint32))


def sample_seed(master_seed: int, index: int) -> int:
    """Derived 64-bit seed for Monte Carlo sample `index` (one row of sample_seeds)."""
    _check_range(index, index + 1)
    return int(_seed_hash(master_seed, int(index)))


def _hash_consts(h: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) pairs of SeedSequence's running hash constant."""
    pairs = []
    for _ in range(count):
        pairs.append((h, (h * mult) & _MASK32))
        h = pairs[-1][1]
    return tuple(pairs)


# one pair per pool word, then one per ordered pair of pool words; two output words
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 2)


def _seed_hash(master_seed: int, index):
    """SeedSequence((master_seed, index)).generate_state(1, uint64).

    `index` is a Python int below 2^32 or a uint32 array.  Every step masks
    to 32 bits, so the seed's words stay Python ints until they meet the
    index and arrays wrap exactly as numpy's uint32 hash does.
    """
    seed = int(master_seed) & _SEED_MASK
    # entropy words: the seed's one or two little-endian uint32 words, then i
    words = [seed & _MASK32] + ([seed >> 32] if seed > _MASK32 else []) + [index]
    consts = iter(_HASH_A)
    pool = [_hashmix(words[k] if k < len(words) else 0, *next(consts))
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    consts = iter(_HASH_B)
    lo, hi = (np.asarray(_hashmix(pool[k], *next(consts)), dtype=np.uint64) for k in range(2))
    return lo | (hi << np.uint64(32))


def _hashmix(value, xor: int, mult: int):
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    out = (((x * _MIX_MULT_L) & _MASK32) - ((y * _MIX_MULT_R) & _MASK32)) & _MASK32
    return out ^ (out >> 16)


def _philox_words(keys: np.ndarray, count: int) -> np.ndarray:
    """Row k: the first 2*count words of np.random.Philox(key=keys[k]).

    One generator serves every row: its key is rewritten and its counter
    and buffer reset, which is the state a fresh Philox(key=k) starts in.
    """
    words = np.empty((len(keys), 2 * count), dtype=np.uint64)
    bg = np.random.Philox(0)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64),
                       "key": np.zeros(2, dtype=np.uint64)},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    for k in range(len(keys)):
        key[0] = keys[k]
        bg.state = state
        words[k] = bg.random_raw(2 * count)
    return words


def _split_uniforms(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = (words >> np.uint64(11)) * _WORD_TO_UNIT
    return u[..., 0::2], u[..., 1::2]


def uniform_pairs(master_seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-index uniform pairs (u_mag, u_phase), each in [0, 1), of one keyed stream."""
    keys = np.array([int(master_seed) & _SEED_MASK], dtype=np.uint64)
    u_mag, u_phase = _split_uniforms(_philox_words(keys, count))
    return u_mag[0], u_phase[0]


def uniform_rows(master_seed: int, start: int, stop: int,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """(u_mag, u_phase) of shape (stop - start, count) for samples start..stop-1.

    Row k equals uniform_pairs(sample_seed(master_seed, start + k), count)
    bit for bit; sample indices must lie below 2^32.
    """
    return _split_uniforms(_philox_words(sample_seeds(master_seed, start, stop), count))


def transform_rows(master_seed: int, start: int, stop: int, count: int,
                   transform) -> np.ndarray:
    """Complex rows transform(u_mag, u_phase) of samples start..stop-1.

    The uniform rows are generated and transformed in blocks of about 2^16
    values, written into one preallocated (stop - start, count) array, so
    temporaries stay bounded whatever the row range.  `transform` takes
    (u_mag, u_phase) blocks of shape (rows, count) and must treat each row
    on its own, so the blocking changes no value.
    """
    _check_range(start, stop)
    if count < 1:
        raise ValueError("count must be >= 1")
    rows = np.empty((stop - start, count), dtype=np.complex128)
    step = max(1, _BLOCK_VALUES // count)
    for lo in range(0, stop - start, step):
        hi = min(lo + step, stop - start)
        rows[lo:hi] = transform(*uniform_rows(master_seed, start + lo, start + hi, count))
    return rows


def _values_from_uniforms(dist: Distribution, u_mag: np.ndarray,
                          u_phase: np.ndarray) -> np.ndarray:
    if dist is Distribution.COMPLEX_GAUSSIAN:
        mag = np.sqrt(-np.log1p(-u_mag))
        return mag * np.exp(2j * np.pi * u_phase)
    if dist is Distribution.RADEMACHER:
        return np.where(u_mag < 0.5, 1.0, -1.0).astype(np.complex128)
    if dist is Distribution.STEINHAUS:
        return np.exp(2j * np.pi * u_phase)
    raise ValueError(f"unknown distribution {dist!r}")


def draw_coeffs(dist: Distribution, count: int, master_seed: int) -> np.ndarray:
    """Independent draws phi_0..phi_{count-1} from the given distribution."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return _values_from_uniforms(dist, *uniform_pairs(master_seed, count))


def draw_rows(dist: Distribution, master_seed: int, start: int, stop: int,
              count: int) -> np.ndarray:
    """Coefficient rows of samples start..stop-1, shape (stop - start, count).

    Row k equals draw_coeffs(dist, count, sample_seed(master_seed, start + k))
    bit for bit.
    """
    if not isinstance(dist, Distribution):
        raise ValueError(f"unknown distribution {dist!r}")
    return transform_rows(master_seed, start, stop, count,
                          lambda u_mag, u_phase: _values_from_uniforms(dist, u_mag, u_phase))


def truncated_exp_from_uniform(u, lower=0.0, upper=None):
    """Standard-exponential inverse CDF, conditioned to [lower, upper].

    With q = 1 - exp(-(upper - lower)) the conditional quantile is
    lower - log(1 - u*q); `upper=None` means no upper truncation.
    Stable for caps as small as the double-precision underflow threshold.
    """
    u = np.asarray(u, dtype=np.float64)
    if upper is None:
        return lower - np.log1p(-u)
    q = -np.expm1(-(np.asarray(upper, dtype=np.float64) - lower))
    return lower - np.log1p(-u * q)


def truncation_tail_bound(model: CoefficientModel, r: float, eps: float, degree: int) -> float:
    """Union-bound failure probability of truncating at `degree`.

    Splits the allowance eps geometrically over the discarded indices and
    uses the exact Gaussian tail P(|phi| >= lam) = exp(-lam^2): the term for
    index n is exp(-(eps * 2^-(n-degree) / (a_n r^n))^2).  If the bound is
    below `fail_prob`, the discarded tail is <= eps uniformly on |z| <= r
    with probability >= 1 - fail_prob.
    """
    log_r = math.log(r)
    log_eps = math.log(eps)
    ln2 = math.log(2.0)
    total = 0.0
    n = degree + 1
    block = 64
    while True:
        idx = np.arange(n, n + block, dtype=np.float64)
        t = model.log_coeffs(n + block - 1)[n : n + block] + idx * log_r
        log_lam_sq = 2.0 * (log_eps - (idx - degree) * ln2 - t)
        # exp(-lam^2) with lam^2 in log scale; lam^2 > ~745 underflows the term to 0
        terms = np.exp(-np.exp(np.minimum(log_lam_sq, 700.0)))
        total += float(np.sum(terms))
        # lam^2 dips before it climbs (the geometric split shrinks the
        # allowance faster than a_n r^n decays up to n ~ 4 r^2); only stop
        # once the block is all-zero on the final, increasing stretch.
        if np.all(terms == 0.0) and np.all(np.diff(log_lam_sq[-8:]) > 0):
            return total
        n += block
        if n > degree + 1_000_000:
            raise RuntimeError("tail certificate did not converge")


def truncation_degree(model: CoefficientModel, r: float, eps: float, fail_prob: float) -> int:
    """Smallest degree >= floor(e r^2) + 1 whose tail certificate meets fail_prob."""
    if not (0 < eps < 1 and 0 < fail_prob < 1):
        raise ValueError("eps and fail_prob must lie in (0, 1)")
    if not r > 0:
        raise ValueError("r must be positive")
    degree = int(math.floor(math.e * r * r)) + 1
    while truncation_tail_bound(model, r, eps, degree) > fail_prob:
        degree += 1
    return degree
