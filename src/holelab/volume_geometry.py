"""Exact volume of product-constrained boxes, its factorial bound, and an MC oracle.

The set is C_k(t, s) = {0 <= x_j <= t, prod x_j <= s} in R^k.  Its volume has
the closed form

    V_k(t, s) = t^k                                   if s >= t^k,
              = s * sum_{m=0}^{k-1} log^m(t^k / s)/m!  otherwise,

which this module evaluates in log scale (log m! by `math.lgamma`, the sum
as a log-sum-exp shifted by its largest term) so that dimensions k in the
thousands remain usable through `volume_exact_log`; where the linear value
overflows, `volume_exact` refuses it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeff_models import log_gamma
from .sampling import _SEED_MASK, unit_floats
from ._parallel import sample_ranges

_MC_CHUNK = 1 << 18  # samples per keyed stream
_MC_BLOCK = 1 << 14  # samples per draw from a stream (at most 8 words each: 1 MB)


@dataclass(frozen=True)
class VolumeQuery:
    k: int
    t: float
    s: float

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError("k must be a positive integer")
        if not (self.t > 0 and self.s > 0):
            raise ValueError("t and s must be positive")


def _log_ratio(q: VolumeQuery) -> float:
    """log(t^k / s)."""
    return q.k * math.log(q.t) - math.log(q.s)


def volume_exact_log(q: VolumeQuery) -> float:
    """log V_k(t, s) by the closed form, stable for large k."""
    L = _log_ratio(q)
    if L <= 0:  # s >= t^k: the whole box qualifies
        return q.k * math.log(q.t)
    m = np.arange(q.k, dtype=np.float64)
    terms = m * math.log(L) - log_gamma(m + 1.0)
    top = float(np.max(terms))  # log-sum-exp shifted by the largest term
    return math.log(q.s) + (math.log(float(np.sum(np.exp(terms - top)))) + top)


def volume_exact(q: VolumeQuery) -> float:
    """V_k(t, s); OverflowError, naming the log volume and k, past the largest double."""
    log_volume, log_max = volume_exact_log(q), math.log(np.finfo(float).max)
    if log_volume > log_max:
        raise OverflowError(f"the volume overflows a double: log volume {log_volume:.6g} at "
                            f"k={q.k}, past {log_max:.6g}")
    return math.exp(log_volume)


def volume_upper_bound_log(q: VolumeQuery) -> float:
    """log of s/(k-1)! * log^k(t^k/s); requires the hypothesis log(t^k/s) >= k."""
    return _upper_bound_log_from_logs(q.k, math.log(q.t), math.log(q.s))


def _upper_bound_log_from_logs(k: int, log_t: float, log_s: float) -> float:
    L = k * log_t - log_s
    if L < k:
        raise ValueError(f"hypothesis log(t^k/s) >= k fails: {L:.6g} < {k}")
    return log_s - math.lgamma(k) + k * math.log(L)


@dataclass(frozen=True)
class VolumeMCResult:
    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    hits: int
    samples: int


def volume_mc(q: VolumeQuery, samples: int, seed: int) -> VolumeMCResult:
    """Hit-or-miss estimate: uniform points in [0,t]^k, count prod <= s.

    Philox streams keyed by (seed, k), stream k from sample k _MC_CHUNK on,
    make the tally independent of chunk scheduling.  Each stream is drawn
    in consecutive blocks of at most _MC_BLOCK samples (`sample_ranges`),
    the same words as one draw, so memory stays at one block.  Binomial
    normal-approximation interval at 95%.
    """
    if q.k > 8:
        raise ValueError("hit-or-miss degrades beyond k = 8")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    hits = 0
    # prod(x_j) <= s with x_j = t*u_j  <=>  prod(u_j) <= s / t^k
    ratio = q.s * q.t ** (-q.k)
    for chunk_index, lo in enumerate(range(0, samples, _MC_CHUNK)):  # fixed size: keyed streams
        bits = np.random.Philox(key=np.array([seed & _SEED_MASK, chunk_index], dtype=np.uint64))
        for block in sample_ranges(range(lo, min(lo + _MC_CHUNK, samples)), _MC_BLOCK):
            u = unit_floats(bits.random_raw(len(block) * q.k)).reshape(len(block), q.k)
            prod = u[:, 0].copy()  # left to right, as np.prod multiplies, without its reduce
            for j in range(1, q.k):
                prod *= u[:, j]
            hits += int(np.count_nonzero(prod <= ratio))
    p = hits / samples
    box = q.t ** q.k
    stderr = box * math.sqrt(p * (1.0 - p) / samples)
    est = box * p
    z = 1.959963984540054
    return VolumeMCResult(estimate=est, stderr=stderr,
                          ci_low=est - z * stderr, ci_high=est + z * stderr,
                          hits=hits, samples=samples)


def log_integral_annotation(r: float, big_c: float = 1.0) -> dict:
    """Report-only bound for the log-volume integral over the grid-moduli event.

    With N = floor(e r^2), t = exp(2 r^2) and s = exp(4 N log r + C r^2 / delta^2)
    the chain I' <= 2^N * s * V_N(t, s) is evaluated through the factorial
    upper bound, all in log scale.  C is a free scale parameter (default 1)
    and delta = r^(-4/5), the regime this annotation is paired with; it
    shrinks with r, and no lower bound on it is enforced.
    """
    if not r > 1:
        raise ValueError("annotation needs r > 1")
    delta = r ** (-0.8)
    n_pts = int(math.floor(math.e * r * r))
    log_s = 4.0 * n_pts * math.log(r) + big_c * r * r / delta**2
    log_t = 2.0 * r * r
    L = n_pts * log_t - log_s
    record = {
        "r": r,
        "n_points": n_pts,
        "delta": delta,
        "big_c": big_c,
        "log_s": log_s,
        "log_t": log_t,
        "hypothesis_ok": L >= n_pts,
        "log_volume_bound": None,
        "log_integral_bound": None,
        "reference_scale": (math.log(r) + delta**-2) * r * r,
    }
    if record["hypothesis_ok"]:
        vol = _upper_bound_log_from_logs(n_pts, log_t, log_s)
        record["log_volume_bound"] = vol
        record["log_integral_bound"] = n_pts * math.log(2.0) + log_s + vol
    return record
