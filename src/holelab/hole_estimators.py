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
One function, `_conditioned_caps_sq_log`, gives log lam_n^2 and log mu_n^2:
the conditioned sampler draws under those caps, and the sum above runs
over the same caps, so the probability reported is that of the event
sampled.
When the worst-case triangle-inequality margin

    2r - floor(e r^2)/(3r) - 1/(1 - e^(-1/4))

is positive, Omega_r forces |f| > 0 on the closed disk of radius r, so
exp(log P(Omega_r)) is then a rigorous lower bound for the hole probability.

Every Monte Carlo count, the `zeros` command's too, comes from one job,
`_count_job`, run by `sample_counts` on consecutive sample ranges; a row
the kernel cannot certify raises, naming its sample.  The samples are
split into the fewest jobs of at most 2048 rows and about 2^18 values
(at most 543 rows at the conditioned degree for r = 12, 69 at the
`zeros` degree for r = 36), or of 100 rows that the root oracle checks,
all of nearly equal size and fixed by sample index, by the one splitter
`_parallel.sample_ranges`, which cuts `forced-zero`'s jobs too: 4096
conditioned samples at r = 12 make eight 512-row jobs, and 100 000 hole
samples at r = 1 forty-nine jobs of 2041 rows (the last of 2032).  A job
draws and counts one block of at most 2^16 values at a time, its blocks
split the same way (four 128-row blocks for a 512-row job at r = 12; a
hole job at r = 1 is one block), so a worker's memory stays bounded as
the degree grows like r^2; a degree of 2^18 or more is refused before
any array of its size is built.  The blocks come from the one entry
point of the one row generator, `sampling.polar_keyed`, from the job's
sample seeds hashed once, and go to the one count route,
`winding_counts_polar`, which forms the complex rows only of those its
dominant-term pass leaves: no conditioned row at a certified radius,
about 91% of hole rows at r = 1 and 26% at r = 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .coeff_models import CoefficientModel, ModelKind, s_asymptotic, s_of_r
from .evaluate_zeros import ZeroCountError, verify_counts, winding_counts_polar
from .sampling import (
    _SEED_MASK,
    gaussian_moduli,
    polar_keyed,
    sample_seeds,
    truncated_exp_from_uniform,
    truncation_degree,
)
from ._parallel import _BLOCK_VALUES, _STREAM_VALUES, run_chunked, sample_ranges

Z95 = 1.959963984540054
# Sum of the clause-(iii) worst-case tail e^(-(k-1)/4), k >= 1; covers any
# fractional offset of e r^2 from its floor.
TAIL_MARGIN_CONST = 1.0 / (1.0 - math.exp(-0.25))
MC_CHUNK = 2048  # most rows in one Monte Carlo job
_VERIFY_JOB = 100  # rows in a job the root oracle checks, at about N^2 a row to the kernel's N
_MC_CUTOFF = 25.0  # largest S(r) at which the hole report runs Monte Carlo
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


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("n must be positive")
    p, z = successes / n, Z95
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


def _conditioned_caps_sq_log(r: float, degree: int) -> np.ndarray:
    """log of the squared magnitude caps for indices 1..degree: log lam_n^2 and log mu_n^2.

    The one definition of clauses (ii) and (iii): the sampler draws under
    these caps and `omega_log_prob` sums their probabilities.
    """
    er2 = math.e * r * r
    m = int(math.floor(er2))
    n = np.arange(1, degree + 1, dtype=np.float64)
    caps = 0.5 * (n - er2)
    log_terms = CoefficientModel.gef().log_coeffs(m)[1:] + n[:m] * math.log(r)  # log(a_n r^n)
    caps[:m] = -2.0 * log_terms - math.log(9.0 * r * r)
    return caps


def _omega_detail(r: float) -> tuple[float, int]:
    if not r >= 1:
        raise ValueError("confinement event defined for r >= 1")
    # clause (iii) stops at the first n with mu_n^2 > 36; the terms left out
    # sum to below 2 e^(-36) < 1e-15
    tail_cut = math.floor(math.e * r * r + 2.0 * math.log(36.0)) + 1
    caps = _conditioned_caps_sq_log(r, tail_cut)
    # clause (i) is P(|phi_0| >= 2r) = e^(-4 r^2)
    return -4.0 * r * r + float(np.sum(_log1mexp_from_log(caps))), tail_cut


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


def smallest_certified_radius() -> float:
    """Smallest radius on the grid 1, 1.5, ..., 64 with a valid certificate."""
    r = 1.0
    while r <= 64.0:
        if omega_certificate(r).valid:
            return r
        r += 0.5
    raise RuntimeError("no valid certificate up to r = 64")


# ---------------------------------------------------------------------------
# direct Monte Carlo


def _job_rows(degree: int, verify: bool = False) -> int:
    """Most rows in a job: _VERIFY_JOB, or at most MC_CHUNK and about _STREAM_VALUES values."""
    return _VERIFY_JOB if verify else min(MC_CHUNK, max(1, _STREAM_VALUES // (degree + 1)))


def _count_job(draw, log_coeffs: np.ndarray, r: float, tail_eps: float,
               verify: CoefficientModel | None, seed: int, samples: range) -> np.ndarray:
    """Certified zero counts of `samples`, drawn by draw(keys); an uncertified row raises.

    The seeds of all the job's samples are hashed once, and draw gives each
    block's rows in polar form from its slice of them
    (`sampling.polar_keyed`); with `verify`, the model, they are formed
    once and the root oracle checks their counts.  The blocks, in sample
    order, are as few as fit in _BLOCK_VALUES values, of nearly equal size
    (`sample_ranges`), each naming its first sample; the kernel counts
    each row on its own, so they change no count.
    """
    keys = sample_seeds(seed, samples.start, samples.stop)
    counts = np.empty(len(samples), dtype=np.int32)  # a count is at most the degree, below 2^18
    for span in sample_ranges(samples, max(1, _BLOCK_VALUES // len(log_coeffs))):
        at = slice(span.start - samples.start, span.stop - samples.start)
        block = draw(keys[at])
        rows = None if verify is None else block.rows()  # rows[idx] is a copy the kernel scales
        got = winding_counts_polar(block.moduli, block.rows if rows is None else rows.__getitem__,
                                   r, log_coeffs=log_coeffs, tail_eps=tail_eps,
                                   first_index=span.start)
        if rows is not None:
            verify_counts(rows, verify, r, got, first_index=span.start)
        counts[at] = got
    return counts


def sample_counts(model: CoefficientModel, r: float, degree: int, samples: int, seed: int, *,
                  conditioned: bool = False, tail_eps: float = TAIL_EPS, verify: bool = False,
                  workers: int | None = 1) -> list[np.ndarray]:
    """Certified zero counts in |z| < r of samples 0..samples-1, one int32 array per job, in order.

    Rows are Gaussian, or conditioned on the event at r (`_row_law`); with
    `verify` the root oracle checks every count.  The jobs are the fewest
    that `_job_rows` allows, of nearly equal size (`sample_ranges`), fixed
    by sample index.  An r that is not positive raises ValueError.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    draw = partial(polar_keyed, _row_law(r, degree, conditioned), count=degree + 1)
    job = partial(_count_job, draw, model.log_coeffs(degree), r, tail_eps,
                  model if verify else None, seed)
    return run_chunked(job, sample_ranges(range(samples), _job_rows(degree, verify)), workers)


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
    zero_free = sum(int(np.count_nonzero(counts == 0))
                    for counts in sample_counts(model, r, degree, samples, seed, workers=workers))
    lo, hi = wilson_interval(zero_free, samples)
    return HoleEstimate(radius=r, point_value=zero_free / samples, ci_low=lo, ci_high=hi,
                        samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# sampling conditioned on the confinement event


def conditioned_degree(r: float) -> int:
    """Truncation degree for conditioned draws.

    On the event, index n > floor(e r^2) contributes at most
    e^(-(n - e r^2)/4) to |f| on the disk; the degree is chosen so the
    discarded deterministic tail sum is below TAIL_EPS.
    """
    er2 = math.e * r * r
    extra = 4.0 * math.log(TAIL_MARGIN_CONST / TAIL_EPS)
    return int(math.ceil(er2 + extra))


def _conditioned_moduli(r: float, caps_sq: np.ndarray, u_mag: np.ndarray) -> np.ndarray:
    """|phi_n| of conditioned draws from magnitude uniforms (one row or a row block).

    |phi_0|^2 is a standard exponential conditioned to at least 4 r^2 and
    |phi_n|^2, n >= 1, one conditioned to at most caps_sq[n - 1], both by
    inverse CDF, written straight into the one array returned.
    """
    e_sq = np.empty(u_mag.shape)
    truncated_exp_from_uniform(u_mag[..., 0], lower=4.0 * r * r, out=e_sq[..., 0])
    truncated_exp_from_uniform(u_mag[..., 1:], upper=caps_sq, out=e_sq[..., 1:])
    return np.sqrt(e_sq, out=e_sq)


def _row_law(r: float, degree: int, conditioned: bool):
    """The moduli function of Monte Carlo rows phi_0..phi_degree: Gaussian, or conditioned at r."""
    if degree >= _STREAM_VALUES:  # the row bound, before any array of the degree's size
        name = "conditioned degree" if conditioned else "degree"
        raise ValueError(f"{name} {degree} at r={r!r}: at most {_STREAM_VALUES - 1}")
    if not conditioned:
        return gaussian_moduli
    return partial(_conditioned_moduli, r, np.exp(_conditioned_caps_sq_log(r, degree)))


def conditioned_draw(r: float, master_seed: int, degree: int | None = None) -> np.ndarray:
    """One coefficient vector phi_0..phi_degree drawn from the confinement event.

    Every magnitude is an inverse-CDF sample of a truncated exponential (in
    the squared modulus), so no rejection loop is involved and each value
    satisfies its clause bound by construction.
    """
    if degree is None:
        degree = conditioned_degree(r)
    key = np.array([int(master_seed) & _SEED_MASK], dtype=np.uint64)
    return polar_keyed(_row_law(r, degree, True), key, degree + 1).rows()[0]


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
    counts = sample_counts(model, r, conditioned_degree(r), samples, seed, conditioned=True,
                           workers=workers)
    return sum(int(np.count_nonzero(job == 0)) for job in counts) / samples


# ---------------------------------------------------------------------------
# combined report


def hole_bracket_report(model: CoefficientModel, r: float, samples: int, seed: int,
                        *, workers: int | None = 1) -> dict:
    """One record bracketing the hole probability at radius r.

    Emits the exact sum, its growth law, the confinement-event bound with
    certificate status, and (when S(r) <= 25, i.e. the probability is
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
    if s_val <= _MC_CUTOFF:
        est = hole_mc(model, r, samples, seed, workers=workers)
        record.update(mc_skipped=False, p_hat=est.point_value,
                      ci_low=est.ci_low, ci_high=est.ci_high,
                      samples=est.samples)
    return record
