"""Taylor coefficients of exp(z^2/2 + beta*z) and forced-zero experiments.

Writing g_n for the Taylor coefficients, the numerically meaningful object
is the scaled sequence h_n = g_n * sqrt(n!): it satisfies the benign
recurrence

    h_{n+1} = beta * h_n / sqrt(n+1) + h_{n-1} * sqrt(n/(n+1)),

(the stable form of (n+1) g_{n+1} = beta g_n + g_{n-1}, from f' = (z+beta) f),
whereas raw g_n underflows like n^(-n/2).  |h_n| grows like
const * n^(-1/4) * e^(Re(beta) sqrt(n)), so values stay inside double range
while Re(beta)*sqrt(nmax) stays below ~700; all operations here live well
inside that envelope.

The saddle-point two-term approximation for g_{n-1},

    (4 pi)^(-1/2) n^(-n/2) e^(n/2 - beta^2/4) (e^(beta sqrt n) + (-1)^n e^(-beta sqrt n)),

carries its explicit constant, so ratio tests against the recurrence are
absolute rather than up-to-constant.

Forced-zero jobs hold at most 64 rows, cut by the one splitter
`_parallel.sample_ranges`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coeff_models import CoefficientModel
from .evaluate_zeros import min_zero_moduli, rotate_draw
from .sampling import Distribution, draw_rows
from ._parallel import _STREAM_VALUES, run_chunked, sample_ranges

_ESCAPE_BLOCK = 1024  # recurrence steps between escape checks
_FORCED_ZERO_JOB = 64  # most rows in a forced-zero job, fixed by sample index
SADDLE_MIN_N = 16  # smallest n the saddle-point approximation accepts


@dataclass(frozen=True)
class HermiteSeries:
    beta: complex
    scaled: np.ndarray  # h_n = g_n * sqrt(n!) for n = 0..nmax


def hermite_coeffs(beta: complex, nmax: int) -> HermiteSeries:
    """Scaled coefficients h_0..h_nmax via the two-term recurrence."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    beta = complex(beta)
    h = _recurrence_start(beta, nmax)
    _recurrence_fill(h, beta, 1, nmax)
    return HermiteSeries(beta=beta, scaled=h)


def _recurrence_start(beta: complex, nmax: int) -> np.ndarray:
    """Room for h_0..h_nmax (at least h_0, h_1), with h_0 = 1 and h_1 = beta set."""
    h = np.empty(max(nmax, 1) + 1, dtype=np.complex128)
    h[0] = 1.0
    h[1] = beta
    return h


def _recurrence_fill(h: np.ndarray, beta: complex, lo: int, hi: int) -> None:
    """Fill h_{lo+1}..h_hi in place from h_{lo-1} and h_lo; lo >= 1.

    Every step is the same floating-point operation whatever the block
    bounds, so filling in blocks gives the same h_n bit for bit.  The last
    two values are carried as Python complex numbers.
    """
    n = np.arange(float(lo), float(hi))
    inv_sqrt = 1.0 / np.sqrt(n + 1.0)
    ratio = np.sqrt(n / (n + 1.0))
    prev, cur = complex(h[lo - 1]), complex(h[lo])
    block = []
    for step, carry in zip(inv_sqrt.tolist(), ratio.tolist()):
        prev, cur = cur, beta * cur * step + prev * carry
        block.append(cur)
    h[lo + 1: hi + 1] = block


def log_g(series: HermiteSeries, n: int) -> complex:
    """Complex log of g_n = h_n / sqrt(n!) recovered from the scaled sequence."""
    return complex(np.log(series.scaled[n])) - 0.5 * math.lgamma(n + 1.0)


def saddle_point_log_approx(beta: complex, n: int) -> complex:
    """Complex log of the two-term approximation of g_{n-1}."""
    if n < SADDLE_MIN_N:
        raise ValueError(f"approximation needs n >= {SADDLE_MIN_N}")
    beta = complex(beta)
    if beta == 0:
        raise ValueError("beta must be nonzero")
    w = beta * math.sqrt(n)
    sign = -1.0 if n % 2 else 1.0
    if w.real >= 0:
        cross = w + cmath.log(1.0 + sign * cmath.exp(-2.0 * w))
    else:
        cross = -w + cmath.log(sign + cmath.exp(2.0 * w))
    return (-0.5 * math.log(4.0 * math.pi) + 0.5 * n - beta * beta / 4.0
            - 0.5 * n * math.log(n) + cross)


def saddle_deviation(beta: complex, n: int, series: HermiteSeries | None = None) -> float:
    """|g_{n-1} / approximation - 1|, with both sides handled in log scale."""
    approx = saddle_point_log_approx(beta, n)  # refuses beta = 0 before a log of g_{n-1} = 0
    if series is None:
        series = hermite_coeffs(beta, n - 1)
    return abs(cmath.exp(log_g(series, n - 1) - approx) - 1.0)


def annulus_escape(beta: complex, c1: float, c2: float, nmax: int) -> int | None:
    """Smallest n <= nmax with |h_n| outside [c1, c2], or None.

    The recurrence runs in blocks of `_ESCAPE_BLOCK` steps and stops after
    the block holding the first escape.
    """
    if not 0 < c1 <= c2:
        raise ValueError("need 0 < c1 <= c2")
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    beta = complex(beta)
    h = _recurrence_start(beta, nmax)
    lo, checked = 1, 0  # h_0..h_lo are filled, h_0..h_{checked-1} lie in the band
    while True:
        mags = np.abs(h[checked: min(lo, nmax) + 1])
        outside = np.flatnonzero((mags < c1) | (mags > c2))
        if outside.size:
            return checked + int(outside[0])
        if lo >= nmax:
            return None
        checked = lo + 1
        hi = min(lo + _ESCAPE_BLOCK, nmax)
        _recurrence_fill(h, beta, lo, hi)
        lo = hi


def all_ones_draw(degree: int) -> np.ndarray:
    """The deterministic draw phi_n = 1, a valid point for both unimodular laws."""
    return np.ones(degree + 1, dtype=np.complex128)


def forced_zero_experiment(dist: Distribution, samples: int, degree: int,
                           seed: int, *, workers: int = 1,
                           rotate: float = 0.0) -> dict:
    """Distribution of the smallest zero modulus for unimodular-coefficient draws.

    Sample 0 is the all-ones draw; samples 1.. are random.  Every truncated
    series of this kind has roots, so each minimum is finite; a non-finite
    value raises.  `rotate` multiplies phi_n by e^(i n theta) before root
    finding (a rotation of the zero set, useful for invariance checks).
    """
    if dist not in (Distribution.RADEMACHER, Distribution.STEINHAUS):
        raise ValueError("experiment defined for Rademacher or Steinhaus draws")
    if not 50 <= degree < _STREAM_VALUES:  # the Monte Carlo row bound too, before any draw
        raise ValueError(f"degree {degree}: at least 50 and at most {_STREAM_VALUES - 1}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mods = np.concatenate(run_chunked(partial(_forced_zero_job, dist, degree, seed, rotate),
                                      sample_ranges(range(samples), _FORCED_ZERO_JOB), workers))
    if not np.all(np.isfinite(mods)):
        raise ArithmeticError("non-finite minimum zero modulus encountered")
    q25, q50, q75, q90 = (float(q) for q in np.quantile(mods, [0.25, 0.5, 0.75, 0.9]))
    return {
        "dist": dist.value,
        "samples": samples,
        "degree": degree,
        "seed": seed,
        "min": float(np.min(mods)),
        "max": float(np.max(mods)),
        "mean": float(np.mean(mods)),
        "q25": q25,
        "q50": q50,
        "q75": q75,
        "q90": q90,
        "all_finite": True,
    }


def _forced_zero_job(dist: Distribution, degree: int, seed: int, rotate: float,
                     samples: range) -> np.ndarray:
    """Smallest zero moduli of `samples`, sample 0 replaced by the all-ones draw."""
    rows = draw_rows(dist, seed, samples.start, samples.stop, degree + 1)
    if samples.start == 0:
        rows[0] = all_ones_draw(degree)
    if rotate != 0.0:
        rows = rotate_draw(rows, rotate)
    return min_zero_moduli(rows, CoefficientModel.gef(), first_index=samples.start)
