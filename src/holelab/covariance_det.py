"""Circulant covariance matrices on a circle grid and their determinant bounds.

For N points z_j = kappa*r*exp(2*pi*i*j/N) the covariance Sigma_ij =
exp(z_i * conj(z_j)) depends only on (i - j) mod N, so Sigma is circulant
with explicit eigenvalues

    lambda_m = N * sum_{n >= 0, n = m (mod N)} x^n / n!,   x = (kappa*r)^2.

The eigenvalue route works in log scale out to r = 20 and beyond, where the
dense matrix (diagonal e^x) cannot even be factorized in double precision.
A Cauchy-Binet minor of the square-root-factorial Vandermonde factor yields
the closed-form lower bound implemented in `vandermonde_lower_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from .coeff_models import CoefficientModel, s_of_r

_EIG_TERM_CUTOFF = math.log(1e-18)


@dataclass(frozen=True)
class CovarianceSpec:
    """Grid parameters (r, kappa, N) for the circle z_j = kappa*r*e^(2 pi i j/N)."""

    r: float
    kappa: float
    n_points: int
    delta: float | None = None

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
        return cls(r=r, kappa=1.0 - math.sqrt(delta),
                   n_points=int(math.floor(math.e * r * r)), delta=delta)


def grid_points(spec: CovarianceSpec) -> np.ndarray:
    """The N grid points, z_0 = kappa*r on the positive real axis."""
    j = np.arange(spec.n_points)
    return spec.kappa * spec.r * np.exp(2j * np.pi * j / spec.n_points)


def circulant_log_eigenvalues(spec: CovarianceSpec) -> np.ndarray:
    """log(lambda_m) for m = 0..N-1, each modular series summed in log scale."""
    n_pts = spec.n_points
    x = (spec.kappa * spec.r) ** 2
    log_x = math.log(x)
    log_n_pts = math.log(n_pts)
    out = np.empty(n_pts)
    for m in range(n_pts):
        n = m
        acc = -math.inf
        while True:
            term = n * log_x - float(gammaln(n + 1.0))
            acc = np.logaddexp(acc, term)
            if n > x and term < acc + _EIG_TERM_CUTOFF:
                break
            n += n_pts
        out[m] = log_n_pts + acc
    return out


def logdet_circulant(spec: CovarianceSpec) -> float:
    """log det Sigma as the sum of the exact circulant log-eigenvalues."""
    return float(np.sum(circulant_log_eigenvalues(spec)))


def logdet_dense(spec: CovarianceSpec) -> float:
    """Oracle route: build Sigma and Cholesky-factorize it.

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
        chol = scipy.linalg.cholesky(sigma, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise ArithmeticError(f"nonpositive pivot in dense factorization: {exc}") from exc
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def vandermonde_lower_bound(spec: CovarianceSpec) -> float:
    """log of the squared Vandermonde-type minor: a rigorous det lower bound.

    Equals sum_{n=1}^{N} 2*log(a_n) + 2N*log(kr) + N(N-1)*log(kr) + N*log(N)
    with a_n = (n!)^(-1/2); term by term it lower-bounds each circulant
    eigenvalue series by a single summand, so it never exceeds the log-det.
    """
    n_pts = spec.n_points
    log_kr = math.log(spec.kappa * spec.r)
    sum_2log_a = -float(np.sum(gammaln(np.arange(1, n_pts + 1, dtype=np.float64) + 1.0)))
    return (sum_2log_a + 2.0 * n_pts * log_kr
            + n_pts * (n_pts - 1) * log_kr + n_pts * math.log(n_pts))


def minor_gap_report(spec: CovarianceSpec) -> dict:
    """Minor bound, log-det, and their gaps to S(kappa*r).

    At desk-scale radii the minor bound (and even the log-det) sits far
    below S(kappa*r): the default N = floor(e r^2) drags in eigenvalues that
    are tiny at radius kappa*r.  The gap is reported, not asserted.
    """
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
