"""Hole-probability estimators: direct MC, an exact certified bound, and
sampling conditioned on the certifying event.

The confinement event Omega_r on the square-root-factorial coefficients is

    (i)    |phi_0| >= 2r,
    (ii)   |phi_n| <= (1/3r) (a_n r^n)^(-1)      for 1 <= n <= floor(e r^2),
    (iii)  |phi_n| <= exp((n - e r^2)/4)          for n > floor(e r^2).

Its probability is exactly computable from the Gaussian modulus law
P(|w| >= lam) = exp(-lam^2):

    log P(Omega_r) = -4 r^2 + sum_n log(1 - e^(-lam_n^2)) + sum_n log(1 - e^(-mu_n^2))

with lam_n = (3r a_n r^n)^(-1) and mu_n^2 = exp((n - e r^2)/2).  The exact
probabilities 1 - e^(-lam^2) are used throughout instead of the classical
bracketing lam^2/2 <= P <= lam^2 (the bracket survives as a test assertion).
When the worst-case triangle-inequality margin

    2r - floor(e r^2)/(3r) - 1/(1 - e^(-1/4))

is positive, Omega_r forces |f| > 0 on the closed disk of radius r, so
exp(log P(Omega_r)) is then a rigorous lower bound for the hole probability.

Both Monte Carlo estimators split their samples into jobs by sample index
(`_parallel.sample_ranges`) and run one job, `_zero_free_job`, which draws
and counts its rows in one call; a row the kernel cannot certify raises,
naming its sample.  A job holds at most 2048 rows and at most about 2^18
coefficient values (2048 rows at r = 1, 543 at the conditioned degree for
r = 12), so a worker's memory stays bounded as the degree grows like r^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coeff_models import CoefficientModel, ModelKind, s_asymptotic, s_of_r
from .evaluate_zeros import ZeroCountError, winding_counts_batch
from .sampling import (
    Distribution,
    draw_rows,
    truncated_exp_from_uniform,
    transform_rows,
    truncation_degree,
    uniform_pairs,
)
from ._parallel import run_chunked, sample_ranges

Z95 = 1.959963984540054
# Sum of the clause-(iii) worst-case tail e^(-(k-1)/4), k >= 1; covers any
# fractional offset of e r^2 from its floor.
TAIL_MARGIN_CONST = 1.0 / (1.0 - math.exp(-0.25))
MC_CHUNK = 2048  # most rows in one Monte Carlo job
_STREAM_VALUES = 2**18  # most coefficient values drawn and counted in one job (4 MB)
TAIL_EPS = 1e-9  # bound on the truncation tail on |z| <= r; every count is certified against it
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class HoleEstimate:
    radius: float
    point_value: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int


@dataclass(frozen=True)
class OmegaCertificate:
    radius: float
    log_prob: float
    margin: float
    valid: bool
    tail_cut: int


def wilson_interval(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(-x)) for x > 0, switching at ln 2 as usual."""
    x = np.asarray(x, dtype=np.float64)
    small = x <= _LN2
    out = np.empty_like(x)
    out[small] = np.log(-np.expm1(-x[small]))
    out[~small] = np.log1p(-np.exp(-x[~small]))
    return out


def _log1mexp_from_log(log_x: np.ndarray) -> np.ndarray:
    """log(1 - exp(-x)) given log(x); exact to ~1e-16 even when x underflows.

    For log(x) < -36.7, log(1 - e^(-x)) = log(x) + log(1 - x/2 + ...) and the
    correction is below 1e-16 absolute.
    """
    log_x = np.asarray(log_x, dtype=np.float64)
    tiny = log_x < -36.7
    out = np.where(tiny, log_x, 0.0)
    rest = ~tiny
    if np.any(rest):
        out[rest] = _log1mexp(np.exp(log_x[rest]))
    return out


def _gef_terms(r: float, m: int) -> np.ndarray:
    """t_n = log(a_n r^n) for n = 1..m with a_n = (n!)^(-1/2)."""
    return CoefficientModel.gef().log_coeffs(m)[1:] + np.arange(1, m + 1) * math.log(r)


def _omega_detail(r: float) -> tuple[float, int]:
    if not r >= 1:
        raise ValueError("confinement event defined for r >= 1")
    er2 = math.e * r * r
    m = int(math.floor(er2))
    # clause (i)
    total = -4.0 * r * r
    # clause (ii): lam_n^2 = (9 r^2)^(-1) (a_n r^n)^(-2), kept in log scale
    log_lam_sq = -2.0 * _gef_terms(r, m) - math.log(9.0 * r * r)
    total += float(np.sum(_log1mexp_from_log(log_lam_sq)))
    # clause (iii): mu_n^2 = exp((n - e r^2)/2); remainder after stopping is
    # below sum 2 e^(-mu^2) < 1e-15 once mu^2 > 36
    n = m + 1
    while True:
        mu_sq = math.exp(0.5 * (n - er2))
        if mu_sq <= _LN2:
            total += math.log(-math.expm1(-mu_sq))
        else:
            total += math.log1p(-math.exp(-mu_sq))
        if mu_sq > 36.0:
            return total, n
        n += 1


def omega_log_prob(r: float) -> float:
    """Exact log-probability of the confinement event at radius r."""
    return _omega_detail(r)[0]


def omega_certificate(r: float) -> OmegaCertificate:
    """Certificate record; `valid` means the worst-case |f| margin is positive."""
    m = int(math.floor(math.e * r * r))
    margin = 2.0 * r - m / (3.0 * r) - TAIL_MARGIN_CONST
    log_prob, tail_cut = _omega_detail(r)
    return OmegaCertificate(radius=r, log_prob=log_prob, margin=margin,
                            valid=margin > 0.0, tail_cut=tail_cut)


def smallest_certified_radius(step: float = 0.5, r_max: float = 64.0) -> float:
    """Smallest radius on the {1, 1+step, ...} grid with a valid certificate."""
    r = 1.0
    while r <= r_max:
        if omega_certificate(r).valid:
            return r
        r = round(r + step, 12)
    raise RuntimeError(f"no valid certificate up to r = {r_max}")


# ---------------------------------------------------------------------------
# direct Monte Carlo


def _job_rows(degree: int) -> int:
    """Rows per Monte Carlo job: at most MC_CHUNK and about _STREAM_VALUES values."""
    return min(MC_CHUNK, max(1, _STREAM_VALUES // (degree + 1)))


def _zero_free_job(draw, log_coeffs: np.ndarray, r: float, samples: range) -> int:
    """Zero-free rows among `samples`, drawn by draw(start, stop); an uncertified row raises."""
    counts = winding_counts_batch(draw(samples.start, samples.stop), r, log_coeffs=log_coeffs,
                                  tail_eps=TAIL_EPS, first_index=samples.start)
    return int(np.count_nonzero(counts == 0))


def hole_mc(model: CoefficientModel, r: float, samples: int, seed: int,
            *, workers: int | None = 1) -> HoleEstimate:
    """Fraction of draws whose series is zero-free on |z| < r.

    Truncation comes from the tail certificate at eps = 1e-9 with failure
    budget 1e-6/samples, and each count is certified against that tail, so
    it holds for f itself unless the certificate fails.  A row the kernel
    cannot certify raises ZeroCountError naming its sample; no row leaves
    the denominator.  Identical seeds give bit-identical results for any
    worker count (per-sample seeding, fixed chunking, integer tallies).
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    degree = truncation_degree(model, r, TAIL_EPS, 1e-6 / samples)
    draw = partial(draw_rows, Distribution.COMPLEX_GAUSSIAN, seed, count=degree + 1)
    zero_free = sum(run_chunked(partial(_zero_free_job, draw, model.log_coeffs(degree), r),
                                sample_ranges(samples, _job_rows(degree)), workers))
    lo, hi = wilson_interval(zero_free, samples)
    return HoleEstimate(radius=r, point_value=zero_free / samples, ci_low=lo, ci_high=hi,
                        samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# sampling conditioned on the confinement event


def _conditioned_caps_sq_log(r: float, degree: int) -> np.ndarray:
    """log of the squared magnitude caps for indices 1..degree."""
    m = int(math.floor(math.e * r * r))
    caps = np.empty(degree)
    caps[:m] = -2.0 * _gef_terms(r, m) - math.log(9.0 * r * r)
    n = np.arange(m + 1, degree + 1, dtype=np.float64)
    caps[m:] = 0.5 * (n - math.e * r * r)
    return caps


def conditioned_degree(r: float) -> int:
    """Truncation degree for conditioned draws.

    On the event, index n > floor(e r^2) contributes at most
    e^(-(n - e r^2)/4) to |f| on the disk; the degree is chosen so the
    discarded deterministic tail sum is below TAIL_EPS.
    """
    er2 = math.e * r * r
    extra = 4.0 * math.log(TAIL_MARGIN_CONST / TAIL_EPS)
    return int(math.ceil(er2 + extra))


def _conditioned_values(r: float, caps_sq: np.ndarray, u_mag: np.ndarray,
                        u_phase: np.ndarray) -> np.ndarray:
    """Conditioned coefficients from uniform pairs (one row or a row block)."""
    e_sq = np.empty(u_mag.shape)
    e_sq[..., 0] = truncated_exp_from_uniform(u_mag[..., 0], lower=4.0 * r * r)
    e_sq[..., 1:] = truncated_exp_from_uniform(u_mag[..., 1:], upper=caps_sq)
    return np.sqrt(e_sq) * np.exp(2j * np.pi * u_phase)


def conditioned_draw(r: float, master_seed: int, degree: int | None = None) -> np.ndarray:
    """One coefficient vector phi_0..phi_degree drawn from the confinement event.

    Every magnitude is an inverse-CDF sample of a truncated exponential (in
    the squared modulus), so no rejection loop is involved and each value
    satisfies its clause bound by construction.
    """
    if degree is None:
        degree = conditioned_degree(r)
    caps_sq = np.exp(_conditioned_caps_sq_log(r, degree))
    return _conditioned_values(r, caps_sq, *uniform_pairs(master_seed, degree + 1))


def conditioned_rows(r: float, seed: int, start: int, stop: int,
                     degree: int | None = None) -> np.ndarray:
    """Conditioned draws of samples start..stop-1, shape (stop - start, degree + 1).

    Row k equals conditioned_draw(r, sample_seed(seed, start + k), degree)
    bit for bit.
    """
    if degree is None:
        degree = conditioned_degree(r)
    caps_sq = np.exp(_conditioned_caps_sq_log(r, degree))
    return transform_rows(seed, start, stop, degree + 1, partial(_conditioned_values, r, caps_sq))


def omega_conditioned_sample(model: CoefficientModel, r: float, samples: int,
                             seed: int, *, workers: int | None = 1) -> float:
    """Zero-free fraction among draws conditioned on the confinement event.

    With a valid certificate this must be exactly 1.0; below the certified
    radius the fraction is an empirical probe of the implication.
    """
    if model.kind is not ModelKind.GEF:
        raise ValueError("the confinement event is specific to a_n = (n!)^(-1/2)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not r >= 1:
        raise ValueError("conditioned sampling defined for r >= 1")
    degree = conditioned_degree(r)
    draw = partial(conditioned_rows, r, seed, degree=degree)
    return sum(run_chunked(partial(_zero_free_job, draw, model.log_coeffs(degree), r),
                           sample_ranges(samples, _job_rows(degree)), workers)) / samples


# ---------------------------------------------------------------------------
# combined report


def hole_bracket_report(model: CoefficientModel, r: float, samples: int, seed: int,
                        *, mc_cutoff: float = 25.0,
                        workers: int | None = 1) -> dict:
    """One record bracketing the hole probability at radius r.

    Emits the exact sum, its growth law, the confinement-event bound with
    certificate status, and (when S(r) <= mc_cutoff, i.e. the probability is
    within Monte Carlo reach) a direct estimate with its Wilson interval.
    """
    s_val = s_of_r(model, r)
    record: dict = {
        "r": r,
        "s_of_r": s_val,
        "s_asymptotic": s_asymptotic(model, r),
        "omega_log_prob": None,
        "cert_valid": None,
        "cert_margin": None,
        "certified_lower_bound": None,
        "certified_lower_bound_log": None,
        "mc_skipped": True,
        "p_hat": None,
        "ci_low": None,
        "ci_high": None,
        "samples": 0,
        "seed": seed,
    }
    if r >= 1 and model.kind is ModelKind.GEF:
        cert = omega_certificate(r)
        record["omega_log_prob"] = cert.log_prob
        record["cert_valid"] = cert.valid
        record["cert_margin"] = cert.margin
        if cert.valid:
            # the linear value underflows to 0 at every certifiable radius
            # (log P < -900 already at r = 4.5); the log field carries it
            record["certified_lower_bound"] = math.exp(cert.log_prob)
            record["certified_lower_bound_log"] = cert.log_prob
    if s_val <= mc_cutoff:
        est = hole_mc(model, r, samples, seed, workers=workers)
        record.update(mc_skipped=False, p_hat=est.point_value,
                      ci_low=est.ci_low, ci_high=est.ci_high,
                      samples=est.samples)
    return record
