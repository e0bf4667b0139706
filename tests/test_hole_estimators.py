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
from holelab import Distribution, draw_rows, evaluate_zeros, hole_estimators, sampling
from holelab import truncation_degree
from holelab._parallel import run_chunked
from holelab.evaluate_zeros import _unit_circle_scale, winding_counts_polar
from holelab.hole_estimators import (
    TAIL_EPS,
    TAIL_MARGIN_CONST,
    _conditioned_caps_sq_log,
    _log1mexp,
    _log1mexp_from_log,
    _row_law,
    conditioned_degree,
    conditioned_draw,
    sample_counts,
    smallest_certified_radius,
    wilson_interval,
)


def _conditioned_rows(r, seed, start, stop, degree=None):
    """Conditioned draws of samples start..stop-1, shape (stop - start, degree + 1)."""
    degree = conditioned_degree(r) if degree is None else degree
    keys = sampling.sample_seeds(seed, start, stop)
    return sampling.polar_keyed(_row_law(r, degree, True), keys, degree + 1).rows()


# frozen mpmath oracle values of the exact confinement log-probability
OMEGA_ORACLE = {
    1.0: -8.458576646883174,
    2.0: -64.78479088916725,
    4.5: -989.52914776262923,
    5.0: -1446.7601744896376,
    10.0: -19841.120822886330,
    12.0: -40349.849626681725,
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


def _stepped_tail_cut(r):
    """The first n > floor(e r^2) with mu_n^2 = exp((n - e r^2)/2) > 36, found by stepping."""
    er2 = math.e * r * r
    n = math.floor(er2) + 1
    while not math.exp(0.5 * (n - er2)) > 36.0:
        n += 1
    return n


def test_tail_cut_matches_a_stepping_loop():
    grid = [1.0 + 0.05 * k for k in range(380)] + [20.0 + 0.5 * k for k in range(201)]
    for r in grid:
        assert omega_certificate(r).tail_cut == _stepped_tail_cut(r), r


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


@pytest.mark.parametrize("r", [4.5, 12.0])
def test_every_conditioned_row_meets_the_certificate_margin(gef, r):
    # the paper's lower bound row by row, in linear scale and without the
    # kernel: |phi_0| - sum_{n>=1} |phi_n| a_n r^n >= the certificate's
    # worst-case margin.  The rows use about two thirds of their caps, so a
    # sum can still meet the margin with caps that are too large: each
    # clause's worst case is checked term by term as well
    cert = omega_certificate(r)
    degree = conditioned_degree(r)
    m = math.floor(math.e * r * r)
    n = np.arange(1, degree + 1)
    rows = _conditioned_rows(r, 1, 0, 2000, degree)
    terms = np.abs(rows[:, 1:]) * np.exp(gef.log_coeffs(degree)[1:] + n * math.log(r))
    lead = np.abs(rows[:, 0])
    margin = lead - terms.sum(axis=1)
    print(f"r={r}: smallest margin {margin.min():.4g}, certificate {cert.margin:.4g}")
    assert margin.min() >= cert.margin > 0
    slack = 1.0 + 1e-9  # rounding of a term drawn at its cap
    assert np.all(lead * slack >= 2.0 * r)  # (i)
    assert np.all(terms[:, :m] <= slack / (3.0 * r))  # (ii)
    tail = terms[:, m:]  # (iii): at most e^(-(n - e r^2)/4), summing to TAIL_MARGIN_CONST
    assert np.all(tail <= slack * np.exp(-0.25 * (n[m:] - math.e * r * r)))
    assert np.all(tail.sum(axis=1) <= TAIL_MARGIN_CONST)


@pytest.mark.parametrize("r", [1.0, 4.5, 12.0])
def test_conditioned_rows_match_per_sample_objects(r):
    # oracle: per-sample SeedSequence and Philox objects, one row at a time
    degree = conditioned_degree(r)
    caps = np.exp(_conditioned_caps_sq_log(r, degree))
    start, stop = 3, 3 + 2 * (2**16 // (degree + 1)) + 2  # straddles a 2^16-value block
    rows = _conditioned_rows(r, 2**40 + 9, start, stop)
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


def test_conditioned_draw_refuses_a_degree_past_the_bound():
    # r = 1e6 once asked for 19.8 TiB: the bound comes before any array of the degree's size
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^conditioned degree 2718281828548 at "
                                             r"r=1000000\.0: at most 262143$"):
            conditioned_draw(1e6, 1)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


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
    # up to 1/(3r): the scaled moduli the kernel reads must keep every such term
    scaled = []

    def spy(moduli, form_rows, r, **kwargs):
        scaled.append(_unit_circle_scale(moduli, r, kwargs["log_coeffs"])[2])
        return winding_counts_polar(moduli, form_rows, r, **kwargs)

    monkeypatch.setattr(hole_estimators, "winding_counts_polar", spy)
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


def test_uncertified_conditioned_row_names_its_sample(gef, monkeypatch, refuse_row):
    # the kernel refuses the row of sample 2053, six rows into the second chunk
    degree = conditioned_degree(4.5)
    refuse_row(_conditioned_rows(4.5, 2, 2053, 2054)[0], 4.5, gef.log_coeffs(degree))
    monkeypatch.setattr(hole_estimators, "_STREAM_VALUES", 2**12)
    assert omega_conditioned_sample(gef, 4.5, 2053, 2, workers=1) == 1.0
    with pytest.raises(hole_estimators.ZeroCountError, match=r"^sample 2053 at r=4.5: "):
        omega_conditioned_sample(gef, 4.5, 2100, 2, workers=1)


def _zeros_counts(gef, r, samples, seed, *, workers):
    """The counts of the `zeros` command's Gaussian rows, through the shared entry."""
    degree = truncation_degree(gef, r, TAIL_EPS, 1e-9)
    return np.concatenate(sample_counts(gef, r, degree, samples, seed, workers=workers)).tolist()


def test_counts_cross_from_the_jobs_as_int32(gef):
    # a count is at most the degree, below 2^18; 2100 rows at r = 1 make the
    # fewest jobs of at most 2048 rows, two of 1050
    degree = truncation_degree(gef, 1.0, TAIL_EPS, 1e-9)
    jobs = sample_counts(gef, 1.0, degree, 2100, 3, workers=2)
    assert [(job.dtype, len(job)) for job in jobs] == [(np.int32, 1050), (np.int32, 1050)]
    assert np.concatenate(jobs).tolist() == _zeros_counts(gef, 1.0, 2100, 3, workers=1)


def _degree(gef, estimator, r, samples):
    """Truncation degree of an estimator run."""
    if estimator is hole_mc:
        return truncation_degree(gef, r, TAIL_EPS, 1e-6 / samples)
    if estimator is _zeros_counts:
        return truncation_degree(gef, r, TAIL_EPS, 1e-9)
    return conditioned_degree(r)


# (r, samples, jobs) of each estimator run: the fewest jobs of at most
# 2048 rows and about 2^18 values, of nearly equal size; conditioned r = 12
# (at most 543 rows) makes two 300-row jobs, zeros r = 36 (degree 3768, at
# most 69 rows) two 35-row ones
_BLOCK_CASES = {
    "hole-r3": (hole_mc, 3.0, 300, [range(0, 300)]),
    "conditioned-r4.5": (omega_conditioned_sample, 4.5, 300, [range(0, 300)]),
    "conditioned-r12": (omega_conditioned_sample, 12.0, 600, [range(0, 300), range(300, 600)]),
    "zeros-r36": (_zeros_counts, 36.0, 70, [range(0, 35), range(35, 70)]),
}


@pytest.mark.parametrize("case", _BLOCK_CASES)
def test_job_blocks_change_no_count(gef, monkeypatch, case):
    # each job draws and counts blocks of 1 row, 7 rows or the whole job:
    # the blocks start where they should and every sample keeps its count
    estimator, r, samples, jobs = _BLOCK_CASES[case]
    degree = _degree(gef, estimator, r, samples)
    blocks = []

    def spy(moduli, form_rows, r, **kwargs):
        counts = winding_counts_polar(moduli, form_rows, r, **kwargs)
        blocks.append((kwargs["first_index"], counts))
        return counts

    monkeypatch.setattr(hole_estimators, "winding_counts_polar", spy)
    seen = []
    for rows in (1, 7, len(jobs[0])):
        monkeypatch.setattr(hole_estimators, "_BLOCK_VALUES", rows * (degree + 1))
        blocks.clear()
        result = estimator(gef, r, samples, 5, workers=1)
        assert [lo for lo, _ in blocks] == [lo for job in jobs for lo in job[::rows]]
        seen.append((result, np.concatenate([counts for _, counts in blocks]).tolist()))
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0][1]) == samples


def test_refused_row_in_a_second_block_names_its_sample(gef, refuse_row):
    # conditioned r = 12: at most 543 rows in a job and 135 in a block; 700
    # samples make two 350-row jobs of three blocks (117, 117 and 116 rows),
    # and sample 683 lies in the last block of the second job
    degree = conditioned_degree(12.0)
    step = hole_estimators._BLOCK_VALUES // (degree + 1)
    assert (hole_estimators._job_rows(degree), step) == (543, 135)
    refuse_row(_conditioned_rows(12.0, 3, 683, 684)[0], 12.0, gef.log_coeffs(degree))
    with pytest.raises(hole_estimators.ZeroCountError, match=r"^sample 683 at r=12\.0: "):
        omega_conditioned_sample(gef, 12.0, 700, 3, workers=1)


# (estimator, r, samples): GEF blocks at r = 0.5 and r = 1 mix rows the
# pass counts with rows it leaves; every conditioned r = 12 row passes
_ROUTE_CASES = {
    "hole-r0.5": (hole_mc, 0.5, 2500),
    "hole-r1": (hole_mc, 1.0, 2500),
    "conditioned-r12": (omega_conditioned_sample, 12.0, 300),
}


def _count_blocks(monkeypatch, estimator, gef, r, samples):
    """Run the estimator at seed 5; its result, each block's counts, and the rows formed.

    The formed rows are copied as the kernel gets them, before it scales
    them, with the sample of each.
    """
    blocks, formed = [], []

    def spy(moduli, form_rows, r, **kwargs):
        def form(idx):
            rows = form_rows(idx)
            formed.append((kwargs["first_index"] + idx, rows.copy()))
            return rows

        counts = winding_counts_polar(moduli, form, r, **kwargs)
        blocks.append(counts)
        return counts

    monkeypatch.setattr(hole_estimators, "winding_counts_polar", spy)
    result = estimator(gef, r, samples, 5, workers=1)
    return result, np.concatenate(blocks).tolist(), formed


def _pass_off(monkeypatch):
    monkeypatch.setattr(evaluate_zeros, "_dominant_terms", lambda K, bits: np.full(len(K), -1))


@pytest.mark.parametrize("case", _ROUTE_CASES)
def test_rows_formed_for_the_grid_are_the_draws_bit_for_bit(gef, monkeypatch, case):
    # conditioned rows reach the grid only with the pass off
    estimator, r, samples = _ROUTE_CASES[case]
    degree = _degree(gef, estimator, r, samples)
    if estimator is hole_mc:
        draws = draw_rows(Distribution.COMPLEX_GAUSSIAN, 5, 0, samples, degree + 1)
    else:
        draws = _conditioned_rows(r, 5, 0, samples, degree)
        _pass_off(monkeypatch)
    _, _, formed = _count_blocks(monkeypatch, estimator, gef, r, samples)
    sampled = np.concatenate([idx for idx, _ in formed])
    print(f"{case}: {len(sampled)} of {samples} rows formed")
    if estimator is hole_mc:
        assert 0.05 * samples < len(sampled) < 0.95 * samples
    else:
        assert sampled.tolist() == list(range(samples))
    for idx, rows in formed:
        assert rows.tobytes() == draws[idx].tobytes()


def test_conditioned_r12_job_forms_no_phase(gef, monkeypatch):
    # every conditioned row is counted from its moduli, so no phase is read
    handed = []
    write = sampling._polar_values

    def spy(moduli, u_phase, out):
        handed.append(len(moduli))
        write(moduli, u_phase, out)

    monkeypatch.setattr(sampling, "_polar_values", spy)
    assert omega_conditioned_sample(gef, 12.0, 600, 3, workers=1) == 1.0
    assert sum(handed) == 0
    hole_mc(gef, 1.0, 200, 3, workers=1)  # the rows a hole job leaves do reach the writer
    assert sum(handed) > 0


@pytest.mark.parametrize("case", _ROUTE_CASES)
def test_job_counts_are_the_same_with_the_pass_off(gef, monkeypatch, case):
    estimator, r, samples = _ROUTE_CASES[case]
    with_pass = _count_blocks(monkeypatch, estimator, gef, r, samples)
    _pass_off(monkeypatch)
    without = _count_blocks(monkeypatch, estimator, gef, r, samples)
    formed = [sum(len(idx) for idx, _ in run[2]) for run in (with_pass, without)]
    assert formed[0] < formed[1] == samples  # the pass counted rows of its own
    assert with_pass[:2] == without[:2]


def test_jobs_hold_2048_rows_at_r1_and_bounded_values_at_conditioned_r12(gef, monkeypatch):
    calls = []

    def spy(fn, payloads, workers=None):
        calls.append((fn, payloads))
        return run_chunked(fn, payloads, workers)

    monkeypatch.setattr(hole_estimators, "run_chunked", spy)
    # the fewest jobs of at most 2048 rows (at r = 1) and 543 rows (about
    # 2^18 values at the conditioned degree for r = 12), of nearly equal size
    hole_mc(gef, 1.0, 5000, 7, workers=1)
    omega_conditioned_sample(gef, 12.0, 1200, 1, workers=1)
    (_, hole_jobs), (conditioned_job, conditioned_jobs) = calls
    assert hole_jobs == [range(0, 1667), range(1667, 3334), range(3334, 5000)]
    degree = len(conditioned_job.args[1]) - 1
    assert degree == conditioned_degree(12.0)
    assert hole_estimators._job_rows(degree) == 543
    assert conditioned_jobs == [range(0, 400), range(400, 800), range(800, 1200)]
    assert all(len(job) * (degree + 1) <= 2**18 for job in conditioned_jobs)


def test_uncertified_hole_row_raises_naming_its_sample(gef, refuse_row):
    # the kernel refuses sample 2100, in the second 2048-row job: the estimate
    # must not quietly drop it from its denominator; forked workers inherit the patch
    degree = truncation_degree(gef, 1.0, TAIL_EPS, 1e-6 / 3000)
    row = draw_rows(Distribution.COMPLEX_GAUSSIAN, 5, 2100, 2101, degree + 1)[0]
    refuse_row(row, 1.0, gef.log_coeffs(degree))
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


def _gef_pair_moment(r):
    """E C(N, 2) for the GEF zeros in |z| < r, by quadrature at 30 digits.

    The pair correlation of the zeros is k(|z - w|^2 / 2) / pi^2, with
    k(t) = ((sinh^2 t + t^2) cosh t - 2 t sinh t) / sinh^3 t (Hough,
    Krishnapur, Peres & Virag, Zeros of Gaussian Analytic Functions and
    Determinantal Point Processes, AMS 2009).  Over pairs in the disk it
    integrates over the distance d, weighted by 2 pi d times the area A(d)
    where two disks of radius r at distance d overlap.
    """
    with mp.workdps(30):
        def k(t):
            return ((mp.sinh(t) ** 2 + t * t) * mp.cosh(t) - 2 * t * mp.sinh(t)) / mp.sinh(t) ** 3

        def overlap(d):
            return 2 * r * r * mp.acos(d / (2 * r)) - d / 2 * mp.sqrt(4 * r * r - d * d)

        pairs = mp.quad(lambda d: k(d * d / 2) * 2 * mp.pi * d * overlap(d), [0, 2 * r])
        return float(pairs / (2 * mp.pi ** 2))


@pytest.mark.parametrize("r, pairs", [(0.4, 0.00101894), (0.6, 0.01138152)])
def test_gef_hole_probability_lies_in_its_bonferroni_bracket(gef, r, pairs):
    # Bonferroni: 1 - E N <= P(N = 0) <= 1 - E N + E C(N, 2), with E N = r^2
    # for the GEF.  The Wilson interval of the estimate must meet the bracket;
    # with the count radius planted 1% too large at r = 0.4 it reads
    # [0.83528, 0.83852] and misses [0.84, 0.84102].
    assert _gef_pair_moment(r) == pytest.approx(pairs, abs=5e-9)  # pairs to 8 decimals
    est = hole_mc(gef, r, 200_000, 3)
    assert est.ci_low <= 1 - r * r + pairs and 1 - r * r <= est.ci_high


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
