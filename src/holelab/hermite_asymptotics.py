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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .coeff_models import CoefficientModel
from .evaluate_zeros import min_zero_moduli, rotate_draw
from .sampling import Distribution, draw_rows


@dataclass(frozen=True)
class HermiteSeries:
    beta: complex
    scaled: np.ndarray  # h_n = g_n * sqrt(n!) for n = 0..nmax


def hermite_coeffs(beta: complex, nmax: int) -> HermiteSeries:
    """Scaled coefficients h_0..h_nmax via the two-term recurrence."""
    if nmax < 2:
        raise ValueError("nmax must be >= 2")
    beta = complex(beta)
    h = np.empty(nmax + 1, dtype=np.complex128)
    h[0] = 1.0
    h[1] = beta
    inv_sqrt = 1.0 / np.sqrt(np.arange(1.0, nmax + 1.0))
    ratio = np.sqrt(np.arange(1.0, nmax + 1.0) / np.arange(2.0, nmax + 2.0))
    for n in range(1, nmax):
        h[n + 1] = beta * h[n] * inv_sqrt[n] + h[n - 1] * ratio[n - 1]
    return HermiteSeries(beta=beta, scaled=h)


def log_g(series: HermiteSeries, n: int) -> complex:
    """Complex log of g_n recovered from the scaled sequence."""
    return complex(np.log(series.scaled[n])) - 0.5 * float(gammaln(n + 1.0))


def saddle_point_log_approx(beta: complex, n: int) -> complex:
    """Complex log of the two-term approximation of g_{n-1}."""
    if n < 16:
        raise ValueError("approximation needs n >= 16")
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


def saddle_point_approx(beta: complex, n: int) -> complex:
    """The approximation itself; underflows to 0 once n^(-n/2) leaves double range."""
    return cmath.exp(saddle_point_log_approx(beta, n))


def saddle_deviation(beta: complex, n: int, series: HermiteSeries | None = None) -> float:
    """|g_{n-1} / approximation - 1|, with both sides handled in log scale."""
    if series is None:
        series = hermite_coeffs(beta, n - 1)
    return abs(cmath.exp(log_g(series, n - 1) - saddle_point_log_approx(beta, n)) - 1.0)


def annulus_escape(beta: complex, c1: float, c2: float, nmax: int) -> int | None:
    """Smallest n <= nmax with |h_n| outside [c1, c2], or None."""
    if not 0 < c1 <= c2:
        raise ValueError("need 0 < c1 <= c2")
    mags = np.abs(hermite_coeffs(beta, max(nmax, 2)).scaled[: nmax + 1])
    outside = (mags < c1) | (mags > c2)
    if not outside.any():
        return None
    return int(np.argmax(outside))


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
    if degree < 50:
        raise ValueError("degree must be >= 50")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    from ._parallel import run_chunked

    chunks = [(start, min(start + 64, samples)) for start in range(0, samples, 64)]
    payloads = [(dist.value, start, stop, degree, seed, rotate) for start, stop in chunks]
    parts = run_chunked(_forced_zero_chunk, payloads, workers)
    mods = np.concatenate(parts)
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


def _forced_zero_chunk(payload) -> np.ndarray:
    dist_value, start, stop, degree, seed, rotate = payload
    rows = draw_rows(Distribution(dist_value), seed, start, stop, degree + 1)
    if start == 0:
        rows[0] = all_ones_draw(degree)
    if rotate != 0.0:
        rows = rotate_draw(rows, rotate)
    return min_zero_moduli(rows, CoefficientModel.gef(), first_index=start)
