"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes.

Criterion 1 checks the exact qualifying-index sum against the reference
constant 3e^2/4 of the quartic growth law.  The sum demonstrably converges
to (e^2/4) r^4 instead (three independent routes agree: arbitrary-precision
summation, an integral estimate of the term profile, and the confinement-
event probability the sum governs), so the ratio sits at 1/3 and the
bracket check fails.  It is left failing on purpose rather than rescaled;
the companion deviation-shrink check passes and pins the actual convergence
behavior.
"""

import math
import time

import numpy as np
import pytest

from holelab import (
    CoefficientModel,
    CovarianceSpec,
    Distribution,
    TruncatedSeries,
    VolumeQuery,
    annulus_escape,
    count_zeros_disk,
    draw_coeffs,
    draw_rows,
    forced_zero_experiment,
    hole_mc,
    logdet_circulant,
    logdet_dense,
    omega_conditioned_sample,
    omega_log_prob,
    s_of_r,
    sample_seed,
    truncation_degree,
    vandermonde_lower_bound,
    volume_exact,
    volume_mc,
)
from holelab.coeff_models import QUARTIC_LAW_CONST
from holelab.covariance_det import circulant_log_eigenvalues, minor_gap_report
from holelab.evaluate_zeros import winding_counts_batch
from holelab.hermite_asymptotics import hermite_coeffs, saddle_deviation
from holelab.hole_estimators import smallest_certified_radius
from holelab.volume_geometry import volume_exact_log, volume_upper_bound_log


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_quartic_growth_constant(gef):
    t0 = time.monotonic()
    ratio_100 = s_of_r(gef, 100.0) * 4.0 / (3.0 * math.e**2 * 100.0**4)
    ratio_200 = s_of_r(gef, 200.0) * 4.0 / (3.0 * math.e**2 * 200.0**4)
    dev_100 = abs(ratio_100 - 1.0)
    dev_200 = abs(ratio_200 - 1.0)
    elapsed = time.monotonic() - t0
    in_bracket = 0.99 <= ratio_100 <= 1.01
    shrinks = dev_200 < dev_100
    _report(1, "quartic growth constant", in_bracket and shrinks and elapsed < 1.0,
            f"ratio(100)={ratio_100:.6f} ratio(200)={ratio_200:.6f} "
            f"dev200<dev100={shrinks} runtime={elapsed:.2f}s "
            f"(exact sum tracks (e^2/4)r^4; the 3e^2/4 reference puts the ratio at 1/3)")
    assert elapsed < 1.0
    assert shrinks, "deviation must shrink from r=100 to r=200"
    assert in_bracket, (
        f"s_of_r(gef, 100)*4/(3e^2*100^4) = {ratio_100:.6f} not in [0.99, 1.01]; "
        "the exact sum converges to (e^2/4) r^4, one third of the reference constant")


def test_criterion_2_confinement_bound_mechanism(gef):
    t0 = time.monotonic()
    ratio = -omega_log_prob(20.0) / s_of_r(gef, 20.0)
    r_min = smallest_certified_radius()
    fraction = omega_conditioned_sample(gef, r_min, 1000, 20260810, workers=1)
    elapsed = time.monotonic() - t0
    ok = (0.95 <= ratio <= 1.05) and fraction == 1.0
    _report(2, "confinement-event bound", ok,
            f"-logP/S at r=20: {ratio:.5f}; zero-free fraction at certified r={r_min}: "
            f"{fraction} on 1000 conditioned samples; runtime={elapsed:.1f}s")
    assert 0.95 <= ratio <= 1.05
    assert r_min == 4.5
    assert fraction == 1.0


VOLUME_GRID = [
    (1, 2.0, 1.0), (1, 2.0, 5.0), (2, 2.0, 1.0), (2, 1.5, 0.5),
    (3, 2.0, 1.0), (3, 1.2, 0.3), (3, 3.0, 10.0), (4, 2.0, 0.5),
    (4, 1.5, 0.9), (4, 2.5, 30.0), (5, 1.5, 2.0), (5, 2.0, 0.1),
    (5, 1.1, 0.7), (6, 1.5, 0.8), (6, 2.0, 10.0), (6, 1.2, 0.05),
    (7, 1.3, 0.4), (7, 1.8, 3.0), (8, 1.4, 1.5), (8, 1.2, 0.2),
]


def test_criterion_3_volume_formula():
    t0 = time.monotonic()
    worst = 0.0
    for i, (k, t, s) in enumerate(VOLUME_GRID):
        q = VolumeQuery(k, t, s)
        exact = volume_exact(q)
        mc = volume_mc(q, 10**6, 40_000 + i)
        if mc.stderr > 0:
            worst = max(worst, abs(mc.estimate - exact) / mc.stderr)
        else:
            assert mc.estimate == pytest.approx(exact, rel=1e-12)
        L = k * math.log(t) - math.log(s)
        if L >= k:
            assert volume_exact_log(q) <= volume_upper_bound_log(q) + 1e-12
    elapsed = time.monotonic() - t0
    ok = worst <= 3.0 and elapsed < 60.0
    _report(3, "volume closed form vs MC", ok,
            f"20-point grid at 1e6 points each, worst |exact-mc| = {worst:.2f} sigma; "
            f"bound holds wherever log(t^k/s) >= k; runtime={elapsed:.1f}s")
    assert worst <= 3.0
    assert elapsed < 60.0


def test_criterion_4_covariance_determinant(gef):
    t0 = time.monotonic()
    # (a) circulant equals dense at 1e-8 wherever the dense route is
    # conditioned well enough to carry that accuracy (smallest eigenvalue
    # within 1e-10 of scale); N <= 16, r <= 2.5
    compared = 0
    for r in (1.2, 1.5, 2.0, 2.5):
        for kappa in (0.5, 0.8, 0.95):
            for n_pts in (1, 2, 4, 8, 16):
                spec = CovarianceSpec(r, kappa, n_pts)
                log_eigs = circulant_log_eigenvalues(spec)
                if float(np.min(log_eigs) - np.max(log_eigs)) <= math.log(1e-10):
                    continue
                lc = logdet_circulant(spec)
                ld = logdet_dense(spec)
                assert abs(lc - ld) <= 1e-8 * max(1.0, abs(ld)), (spec, lc, ld)
                compared += 1
    assert compared >= 30
    # (b) minor bound below the log-determinant at the default grids
    gaps = {}
    for r in (1.5, 2.0, 2.5, 3.0):
        spec = CovarianceSpec.default(r)
        assert vandermonde_lower_bound(spec) <= logdet_circulant(spec)
        gaps[r] = minor_gap_report(spec)["gap_logdet_minus_s"]
    elapsed = time.monotonic() - t0
    _report(4, "covariance determinant", elapsed < 10.0,
            f"{compared} circulant-vs-dense agreements at 1e-8; minor chain holds at "
            f"r=1.5..3; logdet-S(kappa r) gaps {dict((k, round(v, 1)) for k, v in gaps.items())}; "
            f"runtime={elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_5_zero_counting_cross_verified(gef):
    t0 = time.monotonic()
    total = 0
    for r in (0.5, 1.0, 1.5, 2.0):
        degree = truncation_degree(gef, r, 1e-9, 1e-9)
        for i in range(1000):
            draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, degree + 1,
                               sample_seed(int(r * 1000), i))
            res = count_zeros_disk(TruncatedSeries(draw, gef), r, verify=True)
            assert res.verified_by_oracle
            total += 1
    elapsed = time.monotonic() - t0
    _report(5, "argument principle vs root oracle", total == 4000,
            f"{total} draws, zero mismatches; runtime={elapsed:.1f}s")
    assert total == 4000


def test_criterion_6_first_intensity(gef):
    t0 = time.monotonic()
    degree = truncation_degree(gef, 1.0, 1e-9, 1e-10)
    a = np.exp(gef.log_coeffs(degree))
    counts = []
    for start in range(0, 10_000, 2000):
        rows = draw_rows(Distribution.COMPLEX_GAUSSIAN, 606060, start, start + 2000, degree + 1) * a
        counts.append(winding_counts_batch(rows, 1.0))
    counts = np.concatenate(counts)
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1) / math.sqrt(len(counts)))
    elapsed = time.monotonic() - t0
    ok = abs(mean - 1.0) <= 3.0 * se
    _report(6, "expected zero count", ok,
            f"mean n(1) = {mean:.4f} +- {se:.4f} over 10^4 draws; runtime={elapsed:.1f}s")
    assert ok


def test_criterion_7_hole_mc_sanity(gef):
    t0 = time.monotonic()
    tiny = hole_mc(gef, 0.05, 10**5, 515151, workers=1)
    assert tiny.ci_high >= 0.99
    seed = 20260810
    estimates = [hole_mc(gef, r, 10**5, seed, workers=1).point_value
                 for r in (0.6, 0.8, 1.0, 1.2)]
    elapsed = time.monotonic() - t0
    monotone = all(a >= b for a, b in zip(estimates, estimates[1:]))
    _report(7, "hole probability MC", monotone,
            f"p(0.05) CI high = {tiny.ci_high:.5f}; common-seed estimates "
            f"{[round(p, 4) for p in estimates]} nonincreasing; runtime={elapsed:.1f}s")
    assert monotone


def test_criterion_8_saddle_point_ratio():
    t0 = time.monotonic()
    series = hermite_coeffs(1.0, 4 * 10**4)
    dev_1 = saddle_deviation(1.0, 10**4, series)
    dev_4 = saddle_deviation(1.0, 4 * 10**4, series)
    elapsed = time.monotonic() - t0
    ok = dev_1 <= 0.05 and dev_4 <= 0.6 * dev_1 and elapsed < 10.0
    _report(8, "saddle-point coefficient ratio", ok,
            f"deviation at n=1e4: {dev_1:.5f}; at 4e4: {dev_4:.5f} "
            f"(ratio {dev_4 / dev_1:.2f}); runtime={elapsed:.2f}s")
    assert dev_1 <= 0.05
    assert dev_4 <= 0.6 * dev_1
    assert elapsed < 10.0


def test_criterion_9_forced_zero_evidence():
    t0 = time.monotonic()
    rad = forced_zero_experiment(Distribution.RADEMACHER, 1000, 200, 909090, workers=1)
    stein = forced_zero_experiment(Distribution.STEINHAUS, 1000, 200, 909091, workers=1)
    escape = annulus_escape(1.0, 0.5, 2.0, 10**5)
    elapsed = time.monotonic() - t0
    ok = rad["all_finite"] and stein["all_finite"] and escape is not None
    _report(9, "forced zeros for unimodular draws", ok,
            f"min-modulus max: rademacher {rad['max']:.4f}, steinhaus {stein['max']:.4f} "
            f"(10^3 each, degree 200, all finite); annulus escape at n={escape}; "
            f"runtime={elapsed:.1f}s")
    assert rad["all_finite"] and stein["all_finite"]
    assert escape is not None
