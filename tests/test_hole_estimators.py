import json
import math
import pickle
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

mp.mp.dps = 60  # the log(1 - e^-x) oracle needs headroom at x ~ 1e-12

from holelab import (
    hole_bracket_report,
    hole_mc,
    omega_certificate,
    omega_conditioned_sample,
    omega_log_prob,
    s_of_r,
)
from holelab import Distribution, draw_rows, evaluate_zeros, hole_estimators, truncation_degree
from holelab._parallel import run_chunked, sample_ranges
from holelab.evaluate_zeros import _unit_circle_rows, winding_counts_batch
from holelab.hole_estimators import (
    TAIL_EPS,
    TAIL_MARGIN_CONST,
    _conditioned_caps_sq_log,
    _log1mexp,
    _log1mexp_from_log,
    conditioned_degree,
    conditioned_draw,
    conditioned_rows,
    smallest_certified_radius,
    wilson_interval,
)

# frozen mpmath oracle values of the exact confinement log-probability
OMEGA_ORACLE = {
    1.0: -8.458576646883174,
    2.0: -64.78479088916725,
    5.0: -1446.7601744896376,
    10.0: -19841.120822886330,
    20.0: -301805.11887253491,
}


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 100)[0] == pytest.approx(0.0, abs=1e-15)
    assert wilson_interval(100, 100)[1] == 1.0
    lo_n, hi_n = wilson_interval(500, 1000)
    assert hi_n - lo_n < hi - lo


def test_log1mexp_against_mpmath():
    xs = np.array([1e-12, 1e-6, 0.1, math.log(2.0), 1.0, 5.0, 40.0])
    got = _log1mexp(xs)
    for x, g in zip(xs, got):
        expect = float(mp.log(1 - mp.exp(-mp.mpf(x))))
        assert g == pytest.approx(expect, rel=1e-13)


def test_log1mexp_from_log_deep_underflow():
    # x = e^-500 underflows; log(1 - e^-x) ~ log x = -500
    out = float(_log1mexp_from_log(np.array([-500.0]))[0])
    assert out == pytest.approx(-500.0, abs=1e-12)
    # moderate regime agrees with the direct path
    out2 = float(_log1mexp_from_log(np.array([math.log(0.3)]))[0])
    assert out2 == pytest.approx(float(_log1mexp(np.array([0.3]))[0]), rel=1e-13)


def test_gaussian_small_ball_bracket():
    # lambda^2/2 <= P(|w| <= lambda) = 1 - e^(-lambda^2) <= lambda^2 for lambda <= 1
    lam = np.linspace(1e-6, 1.0, 500)
    prob = -np.expm1(-(lam**2))
    assert np.all(prob >= lam**2 / 2.0)
    assert np.all(prob <= lam**2)


def test_omega_log_prob_frozen_oracle():
    for r, expect in OMEGA_ORACLE.items():
        assert omega_log_prob(r) == pytest.approx(expect, rel=1e-13)


def test_omega_clause_one_contribution():
    # strip clauses (ii) and (iii): their log-probabilities are <= 0, so the
    # total is bounded by the clause-(i) term -4 r^2; at r=1 the |phi_0|
    # clause contributes exactly exp(-4) of the total mass
    for r in (1.0, 2.0, 5.0):
        assert omega_log_prob(r) <= -4.0 * r * r


def test_omega_log_prob_decreasing():
    rs = [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0]
    vals = [omega_log_prob(r) for r in rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_omega_vs_s_lower_chain(gef):
    # -log P(Omega_r) >= S(r) - floor(e r^2) log(18 r^2) - 2
    for r in (5.0, 10.0, 20.0):
        m = math.floor(math.e * r * r)
        assert -omega_log_prob(r) >= s_of_r(gef, r) - m * math.log(18.0 * r * r) - 2.0


def test_omega_exceeds_s(gef):
    assert -omega_log_prob(5.0) >= s_of_r(gef, 5.0)


def test_omega_ratio_near_one_at_20(gef):
    ratio = -omega_log_prob(20.0) / s_of_r(gef, 20.0)
    assert 0.95 <= ratio <= 1.05


def test_omega_requires_r_at_least_one():
    with pytest.raises(ValueError):
        omega_log_prob(0.8)


def test_certificate_margins_and_validity():
    c1 = omega_certificate(1.0)
    assert c1.margin == pytest.approx(2.0 - 2.0 / 3.0 - TAIL_MARGIN_CONST, rel=1e-12)
    assert not c1.valid
    c10 = omega_certificate(10.0)
    assert c10.margin == pytest.approx(20.0 - 271.0 / 30.0 - TAIL_MARGIN_CONST, rel=1e-12)
    assert c10.valid
    assert TAIL_MARGIN_CONST == pytest.approx(1.0 / (1.0 - math.exp(-0.25)), rel=1e-15)


def test_certificate_margin_increasing_beyond_floor_jumps():
    # the grid step gain 0.1*(2 - e/3) beats the floor-jump loss 1/(3r) only
    # for r >= ~3.05; below that the 0.1-grid has two isolated dips
    margins = [omega_certificate(r).margin for r in np.arange(3.1, 20.01, 0.1)]
    assert all(a < b for a, b in zip(margins, margins[1:]))


def test_smallest_certified_radius_is_4_5():
    assert smallest_certified_radius() == 4.5
    assert not omega_certificate(4.0).valid
    assert omega_certificate(4.5).valid


def test_certified_radius_incompatible_with_direct_mc(gef):
    # wherever the certificate is valid, S(r) is already far beyond what
    # direct Monte Carlo can resolve (the report's cutoff is 25)
    r = smallest_certified_radius()
    assert s_of_r(gef, r) > 25.0


def test_conditioned_draw_satisfies_clause_bounds():
    r = 4.5
    degree = conditioned_degree(r)
    caps = np.exp(_conditioned_caps_sq_log(r, degree))
    for seed in range(10):
        phi = conditioned_draw(r, seed)
        assert abs(phi[0]) >= 2.0 * r
        assert np.all(np.abs(phi[1:]) ** 2 <= caps)


@pytest.mark.parametrize("r", [1.0, 4.5, 12.0])
def test_conditioned_rows_match_per_sample_objects(r):
    # oracle: per-sample SeedSequence and Philox objects, one row at a time
    degree = conditioned_degree(r)
    caps = np.exp(_conditioned_caps_sq_log(r, degree))
    start, stop = 3, 3 + 2 * (2**16 // (degree + 1)) + 2  # straddles a generation block
    rows = conditioned_rows(r, 2**40 + 9, start, stop)
    assert rows.shape == (stop - start, degree + 1)
    for k in (0, 1, stop - start - 2, stop - start - 1):
        key = int(np.random.SeedSequence((2**40 + 9, start + k)).generate_state(1, np.uint64)[0])
        u = (np.random.Philox(key=key).random_raw(2 * (degree + 1)) >> np.uint64(11)) * 2.0**-53
        e_sq = np.empty(degree + 1)
        e_sq[0] = 4.0 * r * r - np.log1p(-u[0])
        e_sq[1:] = 0.0 - np.log1p(-u[2::2] * -np.expm1(-caps))
        expected = np.sqrt(e_sq) * np.exp(2j * np.pi * u[1::2])
        assert rows[k].tobytes() == expected.tobytes()
        assert conditioned_draw(r, key, degree).tobytes() == expected.tobytes()


def test_conditioned_degree_tail_budget():
    r = 4.5
    degree = conditioned_degree(r)
    er2 = math.e * r * r
    n = np.arange(degree + 1, degree + 4000)
    assert float(np.sum(np.exp(-0.25 * (n - er2)))) <= 1e-9


def test_conditioned_fraction_is_one_at_certified_radius(gef):
    frac = omega_conditioned_sample(gef, 4.5, 100, 314)
    assert frac == 1.0


def test_conditioned_r12_rows_keep_every_term(gef, monkeypatch):
    # a_n underflows to 0 for n >= 314 at r = 12 while phi_n a_n r^n stays
    # up to 1/(3r): the rows the kernel evaluates must keep every such term
    scaled = []

    def spy(rows, r, *args, **kwargs):
        scaled.append(_unit_circle_rows(np.asarray(rows), r, kwargs.get("log_coeffs"))[0])
        return winding_counts_batch(rows, r, *args, **kwargs)

    monkeypatch.setattr(hole_estimators, "winding_counts_batch", spy)
    assert omega_conditioned_sample(gef, 12.0, 4, 1, workers=1) == 1.0
    rows = np.concatenate(scaled)
    assert rows.shape == (4, conditioned_degree(12.0) + 1)
    assert np.all(rows != 0)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conditioned_chunk_memory_does_not_grow_with_its_rows(gef):
    # a 2048-row chunk at r = 12 (degree 481) streams through blocks of
    # about 543 rows, so it peaks near a 512-row chunk, not four times it
    omega_conditioned_sample(gef, 12.0, 1, 1, workers=1)  # warm every cache first
    small = _traced_peak(lambda: omega_conditioned_sample(gef, 12.0, 512, 1, workers=1))
    full = _traced_peak(lambda: omega_conditioned_sample(gef, 12.0, 2048, 1, workers=1))
    assert full <= 1.5 * small


@pytest.mark.parametrize("block", [2**12, 2**20])
def test_streamed_chunks_are_independent_of_the_block_size(gef, monkeypatch, block):
    hole = hole_mc(gef, 3.0, 4500, 8, workers=1)
    frac = omega_conditioned_sample(gef, 4.5, 300, 2, workers=1)
    monkeypatch.setattr(hole_estimators, "_STREAM_VALUES", block)
    assert hole_mc(gef, 3.0, 4500, 8, workers=1) == hole
    assert omega_conditioned_sample(gef, 4.5, 300, 2, workers=1) == frac


def _refuse_row(monkeypatch, row, r, log_coeffs):
    """Make the kernel's arc bisection refuse every row equal to `row` (phi_0..phi_N)."""
    target = _unit_circle_rows(row[None, :], r, log_coeffs)[0][0]
    bisect = evaluate_zeros._bisect

    def refuse(D, *args):
        refused = bisect(D, *args)
        refused[np.all(D == target, axis=1)] = True
        return refused

    monkeypatch.setattr(evaluate_zeros, "_bisect", refuse)


def test_uncertified_conditioned_row_names_its_sample(gef, monkeypatch):
    # the kernel refuses the row of sample 2053, six rows into the second chunk
    degree = conditioned_degree(4.5)
    _refuse_row(monkeypatch, conditioned_rows(4.5, 2, 2053, 2054)[0], 4.5, gef.log_coeffs(degree))
    monkeypatch.setattr(hole_estimators, "_STREAM_VALUES", 2**12)
    assert omega_conditioned_sample(gef, 4.5, 2053, 2, workers=1) == 1.0
    with pytest.raises(hole_estimators.ZeroCountError, match=r"^sample 2053 at r=4.5: "):
        omega_conditioned_sample(gef, 4.5, 2100, 2, workers=1)


def test_jobs_hold_2048_rows_at_r1_and_bounded_values_at_conditioned_r12(gef, monkeypatch):
    calls = []

    def spy(fn, payloads, workers=None):
        calls.append((fn, payloads))
        return run_chunked(fn, payloads, workers)

    monkeypatch.setattr(hole_estimators, "run_chunked", spy)
    hole_mc(gef, 1.0, 5000, 7, workers=1)
    omega_conditioned_sample(gef, 12.0, 1200, 1, workers=1)
    (_, hole_jobs), (conditioned_job, conditioned_jobs) = calls
    assert hole_jobs == [range(0, 2048), range(2048, 4096), range(4096, 5000)]
    degree = len(conditioned_job.args[1]) - 1
    assert degree == conditioned_degree(12.0)
    assert conditioned_jobs == sample_ranges(1200, 543)
    assert all(len(job) * (degree + 1) <= 2**18 for job in conditioned_jobs)


def test_uncertified_hole_row_raises_naming_its_sample(gef, monkeypatch):
    # the kernel refuses sample 2100, in the second 2048-row job: the estimate
    # must not quietly drop it from its denominator; forked workers inherit the patch
    degree = truncation_degree(gef, 1.0, TAIL_EPS, 1e-6 / 3000)
    row = draw_rows(Distribution.COMPLEX_GAUSSIAN, 5, 2100, 2101, degree + 1)[0]
    _refuse_row(monkeypatch, row, 1.0, gef.log_coeffs(degree))
    for workers in (1, 2):
        with pytest.raises(hole_estimators.ZeroCountError, match=r"^sample 2100 at r=1\.0: "):
            hole_mc(gef, 1.0, 3000, 5, workers=workers)


def test_hole_job_pickles_without_the_model_cache(gef, monkeypatch):
    # the gef fixture caches 120 001 log a_n; a job ships only the degree + 1 it uses
    jobs = []

    def spy(fn, payloads, workers=None):
        jobs.append(fn)
        return run_chunked(fn, payloads, workers)

    monkeypatch.setattr(hole_estimators, "run_chunked", spy)
    hole_mc(gef, 1.0, 200, 3, workers=1)
    assert len(pickle.dumps(jobs[0])) < 8192


def test_conditioned_fraction_reported_below_certified_radius(gef):
    frac = omega_conditioned_sample(gef, 1.0, 100, 314)
    assert 0.0 <= frac <= 1.0


def test_conditioned_validation(gef, ml1):
    with pytest.raises(ValueError):
        omega_conditioned_sample(ml1, 2.0, 10, 1)
    with pytest.raises(ValueError):
        omega_conditioned_sample(gef, 0.5, 10, 1)


def test_hole_mc_tiny_radius(gef):
    est = hole_mc(gef, 0.05, 1000, 3)
    assert est.ci_high >= 0.99


def test_hole_mc_reproducible_and_worker_independent(gef):
    a = hole_mc(gef, 1.0, 600, 11)
    b = hole_mc(gef, 1.0, 600, 11)
    c = hole_mc(gef, 1.0, 600, 11, workers=3)
    assert a == b == c
    assert a.ci_low <= a.point_value <= a.ci_high


def test_hole_mc_common_random_numbers_monotone(gef):
    # same-seed draws are shared across radii (per-index streams), so the
    # hole indicators are nested and the estimate is monotone already at
    # modest sample sizes
    vals = [hole_mc(gef, r, 2000, 7).point_value for r in (0.8, 1.2)]
    assert vals[0] >= vals[1]


def test_hole_mc_validation(gef):
    with pytest.raises(ValueError):
        hole_mc(gef, 1.0, 50, 1)


def test_hole_mc_unit_radius_regression(gef):
    # frozen direct-MC value (10^4 draws, fixed seed); an independent seed
    # must land inside overlapping Wilson intervals
    est = hole_mc(gef, 1.0, 10_000, 123456)
    assert est.point_value == 0.2041
    other = hole_mc(gef, 1.0, 10_000, 654321)
    assert est.ci_low <= other.ci_high and other.ci_low <= est.ci_high


def test_omega_clause_one_empirical(gef):
    # P(|phi_0| >= 2r) = exp(-4 r^2): check the Gaussian modulus law that
    # prices the first clause, at r = 1
    from holelab import Distribution, draw_coeffs

    draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 10**5, 2718)
    p_hat = float(np.mean(np.abs(draw) >= 2.0))
    p = math.exp(-4.0)
    assert abs(p_hat - p) <= 3.0 * math.sqrt(p * (1 - p) / 10**5)


def test_bracket_report_mc_branch(gef):
    rec = hole_bracket_report(gef, 1.0, 500, 99)
    assert not rec["mc_skipped"]
    assert rec["ci_low"] <= rec["p_hat"] <= rec["ci_high"]
    assert rec["cert_valid"] is False
    assert rec["certified_lower_bound"] is None
    assert rec["s_of_r"] == 0.0


def test_bracket_report_skip_branch(gef):
    rec = hole_bracket_report(gef, 20.0, 500, 99)
    assert rec["mc_skipped"]
    assert rec["p_hat"] is None
    assert rec["omega_log_prob"] == pytest.approx(OMEGA_ORACLE[20.0], rel=1e-13)
    assert rec["cert_valid"] is True
    # probability so small its linear value underflows to exactly 0
    assert rec["certified_lower_bound"] == 0.0


def test_bracket_report_certified_bound_consistent(gef):
    # at the smallest certified radius the bound exp(log P) must sit below
    # any attainable hole probability; S(4.5) >> 25 keeps MC out of reach,
    # so consistency is checked against the conditioned sampler instead
    rec = hole_bracket_report(gef, 4.5, 500, 99)
    assert rec["mc_skipped"]
    assert rec["cert_valid"]
    # log P(Omega) < -900 at every certifiable radius: the linear bound
    # underflows to the (vacuous but valid) 0.0 and the log field carries it
    assert rec["certified_lower_bound"] == 0.0
    assert rec["certified_lower_bound_log"] == pytest.approx(rec["omega_log_prob"], rel=1e-12)


def test_bracket_report_json_round_trip(gef):
    rec = hole_bracket_report(gef, 1.0, 200, 5)
    parsed = json.loads(json.dumps(rec))
    assert parsed == json.loads(json.dumps(parsed))
    assert set(rec) == set(parsed)
