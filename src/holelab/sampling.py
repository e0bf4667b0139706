"""Seedable coefficient draws and truncation degrees with tail certificates.

Randomness comes from a counter-based Philox stream keyed by the draw's
master seed.  Index n of a draw always consumes the two 64-bit words 2n and
2n+1 (magnitude word, phase word), so regenerating a draw with a larger
count leaves the earlier values bit-identical, and disjoint index ranges
can be produced independently.

Monte Carlo sample i of a run keys its stream with sample_seed(seed, i),
numpy's SeedSequence((seed, i)) hash; a one-row draw (`draw_coeffs`,
`uniform_pairs`) keys it with the seed itself.  `sample_seeds` computes
the hash for every i of a range in uint32 array arithmetic, and one
Philox, its key rewritten and its counter reset per row, generates the
rows of those keys in one call; the caller bounds their number.  A Monte
Carlo job hashes the seeds of all its samples once and draws each block
from its slice of them.  Row k of `draw_rows` equals the one-row
`draw_coeffs` keyed by sample_seed(seed, i + k) bit for bit, so batching
changes no value.

The unit complex Gaussian (density exp(-|z|^2)/pi) is sampled as
magnitude-phase: |phi|^2 is standard exponential via inverse CDF and the
phase is uniform.  The same inverse-CDF route yields exponential magnitudes
truncated to an interval without any rejection loop, which the conditioned
hole sampler relies on.

Every law is drawn in polar form, by one generator with one entry
point: `polar_keyed` turns a uint64 key per row into the squared moduli
|phi_n|^2 of those rows, from their magnitude words by the law's moduli
function (`gaussian_moduli`, ones for Steinhaus, the conditioned caps in
`hole_estimators`), each written over the uniforms with no square root,
and keeps their phase words.  `PolarRows.rows` forms phi_n = |phi_n|
e^(2 pi i u_n), the root taken there, for the rows asked for only, in
`_polar_values`, the one place phases are computed.  A Monte Carlo job
hands the kernel log|phi_n| = (1/2) log|phi_n|^2, and the kernel forms
only the rows its dominant-term pass leaves, at their scaled moduli
(`PolarRows.phased`); `draw_rows` and `draw_coeffs` form every row by
`rows`, so a drawn phi_n keeps the bits of sqrt(|phi_n|^2) e^(2 pi i u_n).
Rademacher signs come from the magnitude uniforms alone, drawn under the
identity law.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .coeff_models import CoefficientModel

_WORD_TO_UNIT = 2.0**-53  # top 53 bits of a 64-bit word -> uniform in [0, 1)
_SEED_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
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
    The state holds Python ints, so setting it converts no array per row.
    """
    words = np.empty((len(keys), 2 * count), dtype=np.uint64)
    bg = np.random.Philox(0)
    key = [0, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for k, seed in enumerate(keys.tolist()):
        key[0] = seed
        bg.state = state
        words[k] = bg.random_raw(2 * count)
    return words


def unit_floats(words: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) from the top 53 bits of 64-bit words.

    The shifted word is below 2^53, so its int64 view converts to float64
    exactly and gives the values the uint64 word gives, through numpy's
    int64-times-float loop instead of its mixed uint64 promotion.
    """
    return (words >> np.uint64(11)).view(np.int64) * _WORD_TO_UNIT


def uniform_pairs(master_seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-index uniform pairs (u_mag, u_phase), each in [0, 1), of one keyed stream."""
    key = np.array([int(master_seed) & _SEED_MASK], dtype=np.uint64)
    block = polar_keyed(np.asarray, key, count)
    return block.squares[0], unit_floats(block.phase_words[0])


class PolarRows(NamedTuple):
    """Rows of one law in polar form: the squared moduli at once, complex rows on request.

    squares[k, n] is |phi_n|^2 of row k, the law's value of its magnitude
    word (the magnitude uniform itself under the identity law), and
    phase_words[k, n] that row's phase word 2n+1.  `rows` forms phi_n =
    |phi_n| e^(2 pi i u_n), u_n the phase word's uniform, taking the square
    root only for the rows asked for; `log_moduli` gives the kernel log|phi_n|
    with no root, and `phased` the rows it forms at its scaled moduli.
    """

    squares: np.ndarray
    phase_words: np.ndarray

    def rows(self, which=None) -> np.ndarray:
        """Complex rows `which` (row indices; all rows when None), in a new array."""
        which = slice(None) if which is None else which
        return self.phased(which, np.sqrt(self.squares[which]))

    def phased(self, which, moduli: np.ndarray) -> np.ndarray:
        """moduli times the phases e^(2 pi i u_n) of rows `which`, in a new array."""
        out = np.empty(moduli.shape, dtype=np.complex128)
        _polar_values(moduli, unit_floats(self.phase_words[which]), out)
        return out

    def log_moduli(self) -> np.ndarray:
        """log|phi_n| = (1/2) log|phi_n|^2 of every row, in a new array (-inf for a zero)."""
        with np.errstate(divide="ignore"):
            out = np.log(self.squares)
        out *= 0.5
        return out


def _polar_values(moduli: np.ndarray, u_phase: np.ndarray, out: np.ndarray) -> None:
    """Write moduli times e^(2 pi i u_phase) into `out`; u_phase is overwritten.

    The value is written as its real and imaginary planes, moduli cos(2
    pi u_phase) and moduli sin(2 pi u_phase), each through one real
    temporary, so no complex temporary is formed.  They hold the bits of
    moduli * np.exp(2j * np.pi * u_phase), except that a zero modulus (a
    magnitude uniform of exactly 0) may give a zero of the other sign.
    """
    angle = np.multiply(u_phase, 2.0 * np.pi, out=u_phase)
    np.multiply(moduli, np.cos(angle), out=out.real)
    np.multiply(moduli, np.sin(angle, out=angle), out=out.imag)


def polar_keyed(moduli, keys: np.ndarray, count: int) -> PolarRows:
    """Rows phi_0..phi_{count-1} of the law `moduli`, one per key (uint64) of `keys`.

    moduli(u) maps the rows' magnitude uniforms, a new array it may
    overwrite, to their |phi_n|^2 (`PolarRows.squares`).

    Row k reads the stream np.random.Philox(key=keys[k]).  One block: the
    caller bounds len(keys).  Monte Carlo sample i is keyed by
    sample_seed(master_seed, i), so a slice of sample_seeds(master_seed,
    i, j) gives samples i..j; a one-row draw is keyed by its seed itself.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    words = _philox_words(keys, count)
    mag = words[:, 0::2]  # read once, so shifted in place: the uniforms of `unit_floats`
    np.right_shift(mag, np.uint64(11), out=mag)
    return PolarRows(moduli(mag.view(np.int64) * _WORD_TO_UNIT), words[:, 1::2])


def gaussian_moduli(u_mag: np.ndarray) -> np.ndarray:
    """|phi|^2 of the unit complex Gaussian, standard exponential by inverse CDF, over u_mag."""
    return truncated_exp_from_uniform(u_mag, out=u_mag)


# the moduli function of each law; Rademacher draws its magnitude uniforms as they are
_MODULI = {Distribution.COMPLEX_GAUSSIAN: gaussian_moduli, Distribution.STEINHAUS: np.ones_like,
           Distribution.RADEMACHER: np.asarray}


def _law_values(dist: Distribution, block: PolarRows) -> np.ndarray:
    """Complex rows of a block drawn under _MODULI[dist]; Rademacher signs from its uniforms."""
    if dist is Distribution.RADEMACHER:
        return np.where(block.squares < 0.5, 1.0, -1.0).astype(np.complex128)
    return block.rows()


def _moduli(dist: Distribution):
    if dist not in _MODULI:
        raise ValueError(f"unknown distribution {dist!r}")
    return _MODULI[dist]


def draw_coeffs(dist: Distribution, count: int, master_seed: int) -> np.ndarray:
    """Independent draws phi_0..phi_{count-1} from the given distribution."""
    key = np.array([int(master_seed) & _SEED_MASK], dtype=np.uint64)
    return _law_values(dist, polar_keyed(_moduli(dist), key, count))[0]


def draw_rows(dist: Distribution, master_seed: int, start: int, stop: int,
              count: int) -> np.ndarray:
    """Coefficient rows of samples start..stop-1, shape (stop - start, count).

    Row k equals draw_coeffs(dist, count, sample_seed(master_seed, start + k))
    bit for bit.  One block: the caller bounds stop - start.
    """
    keys = sample_seeds(master_seed, start, stop)
    return _law_values(dist, polar_keyed(_moduli(dist), keys, count))


def truncated_exp_from_uniform(u, lower=0.0, upper=None, out=None):
    """Standard-exponential inverse CDF, conditioned to [lower, upper].

    With q = 1 - exp(-(upper - lower)) the conditional quantile is
    lower - log(1 - u*q); `upper=None` means no upper truncation (q = 1).
    Stable for caps as small as the double-precision underflow threshold.
    Written into `out` when given, with no temporary of its size: u (-q)
    is u*q negated exactly, and log1p and the subtraction run in place.
    """
    u = np.asarray(u, dtype=np.float64)
    neg_q = -1.0 if upper is None else np.expm1(-(np.asarray(upper, dtype=np.float64) - lower))
    if out is None:
        out = np.empty(np.broadcast(u, neg_q).shape)
    x = np.multiply(u, neg_q, out=out)
    np.log1p(x, out=x)
    return np.subtract(lower, x, out=x)


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
    """Smallest degree >= floor(e r^2) + 1 whose tail certificate meets fail_prob.

    The bound cannot grow with the degree: one degree more drops the first
    discarded term and doubles the allowance of every other, which shrinks
    its term.  So the search doubles its step from the floor until a degree
    meets fail_prob, then bisects between the last degree that failed and
    the first that met it: about 2 log2 of the distance from the floor in
    `truncation_tail_bound` calls, where a scan by ones takes the distance.
    """
    if not (0 < eps < 1 and 0 < fail_prob < 1):
        raise ValueError("eps and fail_prob must lie in (0, 1)")
    if not r > 0:
        raise ValueError("r must be positive")

    def meets(degree: int) -> bool:
        return truncation_tail_bound(model, r, eps, degree) <= fail_prob

    lowest = int(math.floor(math.e * r * r)) + 1
    if meets(lowest):
        return lowest
    failed, step = lowest, 1
    while not meets(failed + step):
        failed += step
        step *= 2
    met = failed + step
    while met - failed > 1:
        mid = (failed + met) // 2
        if meets(mid):
            met = mid
        else:
            failed = mid
    return met
