"""Circulant covariance matrices on a circle grid and their determinant bounds.

For N points z_j = kappa*r*exp(2*pi*i*j/N) the covariance Sigma_ij =
exp(z_i * conj(z_j)) depends only on (i - j) mod N, so Sigma is circulant
with explicit eigenvalues

    lambda_m = N * sum_{n >= 0, n = m (mod N)} x^n / n!,   x = (kappa*r)^2.

The eigenvalue route works in log scale (log n! by `math.lgamma`) out to
r = 20 and beyond, where the dense matrix (diagonal e^x) cannot even be
factorized in double precision; the dense oracle uses numpy's Cholesky.
A Cauchy-Binet minor of the square-root-factorial Vandermonde factor yields
the closed-form lower bound implemented in `vandermonde_lower_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import _STREAM_VALUES
from .coeff_models import CoefficientModel, log_gamma, s_of_r

_EIG_TERM_CUTOFF = math.log(1e-18)


@dataclass(frozen=True)
class CovarianceSpec:
    """Grid parameters (r, kappa, N) for the circle z_j = kappa*r*e^(2 pi i j/N)."""

    r: float
    kappa: float
    n_points: int

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("r must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")
        if not (isinstance(self.n_points, int) and self.n_points >= 1):
            raise ValueError("n_points must be a positive integer")

    @classmethod
    def default(cls, r: float) -> "CovarianceSpec":
        """delta = r^(-4/5), kappa = 1 - sqrt(delta), N = floor(e r^2)."""
        if not r > 1:
            raise ValueError("default spec needs r > 1 so that kappa > 0")
        delta = r ** (-0.8)
        return cls(r=r, kappa=1.0 - math.sqrt(delta), n_points=int(math.floor(math.e * r * r)))


def grid_points(spec: CovarianceSpec) -> np.ndarray:
    """The N grid points, z_0 = kappa*r on the positive real axis."""
    j = np.arange(spec.n_points)
    return spec.kappa * spec.r * np.exp(2j * np.pi * j / spec.n_points)


def circulant_log_eigenvalues(spec: CovarianceSpec) -> np.ndarray:
    """log(lambda_m) for m = 0..N-1, the N modular series summed in log scale, a term each a pass."""
    x = (spec.kappa * spec.r) ** 2
    acc = np.full(spec.n_points, -math.inf)
    m = np.arange(spec.n_points)
    n = m.astype(np.float64)
    while len(m):
        term = n * math.log(x) - log_gamma(n + 1.0)
        acc[m] = np.logaddexp(acc[m], term)
        more = ~((n > x) & (term < acc[m] + _EIG_TERM_CUTOFF))
        m, n = m[more], n[more] + spec.n_points
    return math.log(spec.n_points) + acc


def logdet_circulant(spec: CovarianceSpec) -> float:
    """log det Sigma as the sum of the exact circulant log-eigenvalues."""
    return float(np.sum(circulant_log_eigenvalues(spec)))


def logdet_dense(spec: CovarianceSpec) -> float:
    """Oracle route: build Sigma and Cholesky-factorize it (numpy's LAPACK Cholesky).

    Only feasible while the smallest eigenvalue stays clear of the rounding
    floor; a nonpositive pivot fails loudly with its index.
    """
    if spec.n_points > 64:
        raise ValueError("dense oracle limited to N <= 64")
    if (spec.kappa * spec.r) ** 2 > 300.0:
        raise ValueError("dense oracle limited to (kappa*r)^2 <= 300")
    z = grid_points(spec)
    sigma = np.exp(np.outer(z, np.conj(z)))
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            "nonpositive pivot in dense factorization: leading minor "
            f"{_first_failing_pivot(sigma)} is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _first_failing_pivot(sigma: np.ndarray) -> int:
    """1-based index of the first leading minor that numpy's Cholesky rejects.

    Pivot k fails exactly when the leading k x k block factors and the
    (k+1) x (k+1) one does not, so bisection over the block size finds it.
    """
    lo, hi = 0, len(sigma)  # the leading lo-block factors, the hi-block does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(sigma[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return hi


def vandermonde_lower_bound(spec: CovarianceSpec) -> float:
    """log of the squared Vandermonde-type minor: a rigorous det lower bound.

    Equals sum_{n=1}^{N} 2*log(a_n) + 2N*log(kr) + N(N-1)*log(kr) + N*log(N)
    with a_n = (n!)^(-1/2); term by term it lower-bounds each circulant
    eigenvalue series by a single summand, so it never exceeds the log-det.
    """
    n_pts = spec.n_points
    log_kr = math.log(spec.kappa * spec.r)
    sum_2log_a = -float(np.sum(log_gamma(np.arange(1, n_pts + 1, dtype=np.float64) + 1.0)))
    return (sum_2log_a + 2.0 * n_pts * log_kr
            + n_pts * (n_pts - 1) * log_kr + n_pts * math.log(n_pts))


def minor_gap_report(spec: CovarianceSpec) -> dict:
    """Minor bound, log-det, and their gaps to S(kappa*r).

    At desk-scale radii the minor bound (and even the log-det) sits far
    below S(kappa*r): the default N = floor(e r^2) drags in eigenvalues that
    are tiny at radius kappa*r.  The gap is reported, not asserted.  A grid
    of more than 2^18 points (the default one past r = 310.54) is refused.
    """
    if spec.n_points > _STREAM_VALUES:
        raise ValueError(f"N = {spec.n_points} grid points: at most {_STREAM_VALUES}")
    lead = vandermonde_lower_bound(spec)
    ld = logdet_circulant(spec)
    s_kr = s_of_r(CoefficientModel.gef(), spec.kappa * spec.r)
    return {
        "r": spec.r,
        "kappa": spec.kappa,
        "n_points": spec.n_points,
        "vandermonde_lower_bound": lead,
        "logdet_circulant": ld,
        "s_at_kappa_r": s_kr,
        "gap_logdet_minus_minor": ld - lead,
        "gap_logdet_minus_s": ld - s_kr,
    }
