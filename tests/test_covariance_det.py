import math
import re

import numpy as np
import pytest
from scipy.special import gammaln

from holelab import (
    CoefficientModel,
    CovarianceSpec,
    grid_points,
    logdet_circulant,
    logdet_dense,
    s_of_r,
    vandermonde_lower_bound,
)
from holelab.covariance_det import circulant_log_eigenvalues, minor_gap_report

# frozen mpmath oracle: logdet at (r=1.5, kappa=0.8, N=8)
LOGDET_15_08_8 = 1.29119857838719738


def vandermonde_lower_bound_regrouped(spec: CovarianceSpec) -> float:
    """The minor bound written as sum_n 2*log(a_n (kr)^n) + N log N (identity check)."""
    n_pts = spec.n_points
    n = np.arange(1, n_pts + 1, dtype=np.float64)
    t = n * math.log(spec.kappa * spec.r) - 0.5 * gammaln(n + 1.0)
    return 2.0 * float(np.sum(t)) + n_pts * math.log(n_pts)


def _dense_feasible(spec) -> bool:
    """Conditioning guard: smallest eigenvalue must stay clear of the
    double-precision rounding floor of the dense factorization."""
    log_eigs = circulant_log_eigenvalues(spec)
    return float(np.min(log_eigs) - np.max(log_eigs)) > math.log(1e-10)


def test_grid_points_example():
    pts = grid_points(CovarianceSpec(1.0, 0.5, 4))
    expect = np.array([0.5, 0.5j, -0.5, -0.5j])
    assert np.max(np.abs(pts - expect)) < 1e-15


def test_grid_points_common_modulus():
    spec = CovarianceSpec.default(2.5)
    pts = grid_points(spec)
    assert np.max(np.abs(np.abs(pts) - spec.kappa * spec.r)) <= 1e-15
    assert pts[0].imag == 0.0 and pts[0].real > 0.0


def test_first_point_difference_product_identity():
    # prod_{j>=1} (z_0 - z_j) = N * (kappa r)^(N-1)
    for spec in (CovarianceSpec(1.0, 0.5, 4), CovarianceSpec(2.0, 0.7, 9)):
        pts = grid_points(spec)
        prod = np.prod(pts[0] - pts[1:])
        expect = spec.n_points * (spec.kappa * spec.r) ** (spec.n_points - 1)
        assert abs(prod - expect) <= 1e-10 * abs(expect)


def test_logdet_single_point():
    spec = CovarianceSpec(1.5, 0.8, 1)
    assert logdet_circulant(spec) == pytest.approx((0.8 * 1.5) ** 2, rel=1e-14)
    assert logdet_dense(spec) == pytest.approx((0.8 * 1.5) ** 2, rel=1e-12)


def test_logdet_two_points_closed_form():
    # det = e^(2x) - e^(-2x) for N = 2, x = (kappa r)^2
    spec = CovarianceSpec(1.5, 0.8, 2)
    x = (0.8 * 1.5) ** 2
    expect = math.log(math.exp(2 * x) - math.exp(-2 * x))
    assert logdet_circulant(spec) == pytest.approx(expect, rel=1e-12)
    assert logdet_dense(spec) == pytest.approx(expect, rel=1e-10)


def test_logdet_against_frozen_oracle():
    spec = CovarianceSpec(1.5, 0.8, 8)
    assert logdet_circulant(spec) == pytest.approx(LOGDET_15_08_8, rel=1e-13)


def test_circulant_matches_dense_where_feasible():
    checked = 0
    for r in (1.2, 1.5, 2.0, 2.5):
        for kappa in (0.5, 0.8, 0.95):
            for n_pts in (2, 4, 8, 16):
                spec = CovarianceSpec(r, kappa, n_pts)
                if not _dense_feasible(spec):
                    continue
                lc = logdet_circulant(spec)
                ld = logdet_dense(spec)
                assert abs(lc - ld) <= 1e-8 * abs(ld), (spec, lc, ld)
                checked += 1
    assert checked >= 20


def test_dense_positive_pivots_default_specs():
    for r in (1.5, 2.0, 2.5):
        logdet_dense(CovarianceSpec.default(r))  # raises on nonpositive pivot


def test_dense_failure_names_the_first_nonpositive_pivot():
    # at r = 4 the default grid's matrix is not positive definite in double
    # precision.  The error names the first leading minor k that numpy's
    # Cholesky rejects, which moves with the bits of sigma (numpy's complex
    # exp loop: 21 on AVX-512 loops, 24 on the baseline ones), so it is
    # checked on the matrix built here: the leading (k-1) block factors and
    # the k block does not
    spec = CovarianceSpec.default(4.0)
    with pytest.raises(ArithmeticError, match=r"leading minor \d+ ") as failure:
        logdet_dense(spec)
    k = int(re.search(r"leading minor (\d+) ", str(failure.value)).group(1))
    z = grid_points(spec)
    sigma = np.exp(np.outer(z, np.conj(z)))
    assert 1 < k <= len(sigma)
    np.linalg.cholesky(sigma[: k - 1, : k - 1])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(sigma[:k, :k])


def _looped_log_eigenvalues(spec: CovarianceSpec) -> np.ndarray:
    """The replaced route: each series summed on its own, one term at a time."""
    x = (spec.kappa * spec.r) ** 2
    out = np.empty(spec.n_points)
    for m in range(spec.n_points):
        n, acc = m, -math.inf
        while True:
            term = n * math.log(x) - math.lgamma(n + 1.0)
            acc = np.logaddexp(acc, term)
            if n > x and term < acc + math.log(1e-18):
                break
            n += spec.n_points
        out[m] = math.log(spec.n_points) + acc
    return out


@pytest.mark.parametrize("spec", [
    CovarianceSpec(1.0, 0.5, 1), CovarianceSpec(1.5, 0.8, 2), CovarianceSpec(1.5, 0.8, 8),
    CovarianceSpec(2.0, 0.7, 9), CovarianceSpec(1.2, 0.9, 12), CovarianceSpec(30.0, 0.9, 100),
    CovarianceSpec(10.0, 0.99, 3), CovarianceSpec.default(2.0), CovarianceSpec.default(20.0),
    CovarianceSpec.default(40.0),
], ids=lambda spec: f"r{spec.r:g}-N{spec.n_points}")
def test_eigenvalues_equal_the_per_series_loop(spec):
    # the array passes add the same terms in the same order as the loop
    assert np.array_equal(circulant_log_eigenvalues(spec), _looped_log_eigenvalues(spec))


def test_grid_above_2_to_the_18_is_refused():
    # a default grid past r = 310.54 would need e r^2 points; N = 2^18 is still run
    assert CovarianceSpec.default(310.6).n_points > 2**18
    with pytest.raises(ValueError, match=r"^N = 262145 grid points: at most 262144$"):
        minor_gap_report(CovarianceSpec(2.0, 0.5, 2**18 + 1))
    assert math.isfinite(minor_gap_report(CovarianceSpec(2.0, 0.5, 2**18))["logdet_circulant"])


def test_eigenvalues_positive_and_finite():
    for spec in (CovarianceSpec.default(2.0), CovarianceSpec(1.2, 0.9, 12)):
        log_eigs = circulant_log_eigenvalues(spec)
        assert np.all(np.isfinite(log_eigs))  # finite log <=> lambda > 0


def test_vandermonde_chain_default_specs():
    for r in (1.5, 2.0, 2.5, 3.0):
        spec = CovarianceSpec.default(r)
        assert vandermonde_lower_bound(spec) <= logdet_circulant(spec)


def test_vandermonde_regrouping_identity():
    for spec in (CovarianceSpec.default(2.0), CovarianceSpec(1.5, 0.8, 8)):
        a = vandermonde_lower_bound(spec)
        b = vandermonde_lower_bound_regrouped(spec)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_single_point_minor_vs_logdet():
    # N=1: minor bound is 2 log(a_1 kr) = 2 log(kr); logdet = (kr)^2
    spec = CovarianceSpec(1.5, 0.8, 1)
    assert vandermonde_lower_bound(spec) == pytest.approx(2 * math.log(1.2), rel=1e-14)
    assert vandermonde_lower_bound(spec) <= logdet_circulant(spec)


def test_minor_gap_report_fields(gef):
    spec = CovarianceSpec.default(2.0)
    rec = minor_gap_report(spec)
    assert rec["gap_logdet_minus_minor"] >= 0.0
    assert rec["s_at_kappa_r"] == pytest.approx(s_of_r(gef, spec.kappa * spec.r), rel=1e-12)
    # desk-scale regime: the log-det sits far below S(kappa r); recorded, not asserted
    assert rec["gap_logdet_minus_s"] == pytest.approx(rec["logdet_circulant"] - rec["s_at_kappa_r"], rel=1e-12)


def test_logdet_scales_to_r_20():
    spec = CovarianceSpec.default(20.0)
    assert spec.n_points == 1087
    val = logdet_circulant(spec)
    assert math.isfinite(val)
    assert vandermonde_lower_bound(spec) <= val


def test_dense_preconditions():
    with pytest.raises(ValueError):
        logdet_dense(CovarianceSpec(30.0, 0.9, 100))
    with pytest.raises(ValueError):
        logdet_dense(CovarianceSpec(25.0, 0.9, 10))  # (kr)^2 > 300


def test_spec_validation():
    with pytest.raises(ValueError):
        CovarianceSpec(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        CovarianceSpec(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        CovarianceSpec(1.0, 0.5, 0)
    with pytest.raises(ValueError):
        CovarianceSpec.default(1.0)  # kappa would be 0


def test_default_spec_parameters():
    spec = CovarianceSpec.default(2.0)
    assert spec.kappa == pytest.approx(1.0 - math.sqrt(2.0 ** -0.8), rel=1e-15)
    assert spec.n_points == int(math.e * 4.0)
