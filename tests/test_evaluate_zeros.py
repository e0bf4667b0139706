import math
import warnings

import numpy as np
import pytest

from holelab import (
    Distribution,
    TruncatedSeries,
    ZeroCountError,
    count_zeros_disk,
    draw_coeffs,
    draw_rows,
    eval_series,
    max_modulus,
    min_zero_modulus,
    roots_truncated,
    sample_seed,
    truncation_degree,
)
from holelab import evaluate_zeros
from holelab.evaluate_zeros import (
    RootResidualError,
    count_for_coeffs,
    min_zero_moduli,
    roots_rows,
    rotate_draw,
    verify_count,
    verify_counts,
    winding_counts_batch,
)
from holelab.hermite_asymptotics import all_ones_draw

# frozen: companion-matrix roots of sum_{n<=200} z^n/sqrt(n!), all phi_n = 1
ALL_ONES_200_MIN_MODULUS = 3.6140172786532405


def _manual_draw(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128)


def eval_series_pairwise(ts: TruncatedSeries, z: complex) -> complex:
    """Independent summation order (explicit powers, pairwise sum)."""
    c = ts.coeffs()
    powers = np.power(np.complex128(z), np.arange(len(c)))
    return complex(np.sum(c * powers))


def test_eval_constant_and_linear(gef):
    const = TruncatedSeries(_manual_draw([1.0]), gef)
    assert eval_series(const, 2.7 - 1.2j) == 1.0 + 0.0j
    lin = TruncatedSeries(_manual_draw([0.0, 1.0]), gef)  # a_1 = 1 so f(z) = z
    assert eval_series(lin, 0.25 + 0.5j) == 0.25 + 0.5j


def test_dual_evaluation_agreement(gef):
    z = 0.3 + 0.4j
    for i in range(50):
        draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 40, sample_seed(314, i))
        ts = TruncatedSeries(draw, gef)
        horner = eval_series(ts, z)
        pairwise = eval_series_pairwise(ts, z)
        assert abs(horner - pairwise) <= 1e-11 * max(1.0, abs(horner))


def test_max_modulus_trivial(gef):
    assert max_modulus(TruncatedSeries(_manual_draw([1.0]), gef), 3.0) == 1.0
    assert max_modulus(TruncatedSeries(_manual_draw([0.0, 1.0]), gef), 2.0) == pytest.approx(2.0, rel=1e-9)


def test_max_modulus_grid_size_validation(gef):
    with pytest.raises(ValueError):
        max_modulus(TruncatedSeries(_manual_draw([1.0]), gef), 1.0, grid_size=32)


def test_cauchy_coefficient_estimate(gef):
    # |phi_n| a_n r^n <= M(r), up to the boundary-grid slack
    r = 1.0
    for i in range(20):
        draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 30, sample_seed(218, i))
        ts = TruncatedSeries(draw, gef)
        m = max_modulus(ts, r)
        terms = np.abs(draw) * np.exp(gef.log_coeffs(29)) * r ** np.arange(30)
        assert np.all(terms <= m * (1.0 + 1e-9))


def test_count_zeros_trivial_cases(gef):
    cubic = TruncatedSeries(_manual_draw([0.0, 0.0, 0.0, 1.5 + 0.5j]), gef)
    assert count_zeros_disk(cubic, 1.0, verify=True).count == 3
    one_plus_z = TruncatedSeries(_manual_draw([1.0, 1.0]), gef)
    assert count_zeros_disk(one_plus_z, 0.5, verify=True).count == 0
    assert count_zeros_disk(one_plus_z, 2.0, verify=True).count == 1


def test_count_matches_oracle_random_draws(gef):
    for r in (0.5, 1.0, 1.5, 2.0):
        degree = 40
        for i in range(40):
            draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, degree + 1, sample_seed(4096, i))
            res = count_zeros_disk(TruncatedSeries(draw, gef), r, verify=True)
            assert res.verified_by_oracle


def test_count_monotone_in_radius(gef):
    for i in range(15):
        draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 35, sample_seed(65, i))
        ts = TruncatedSeries(draw, gef)
        counts = [count_zeros_disk(ts, r).count for r in (0.5, 1.0, 1.5, 2.0)]
        assert counts == sorted(counts)


def test_rotation_invariance_of_counts(gef):
    theta = 0.7
    for i in range(15):
        draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 30, sample_seed(91, i))
        base = count_zeros_disk(TruncatedSeries(draw, gef), 1.0).count
        rotated = count_zeros_disk(TruncatedSeries(rotate_draw(draw, theta), gef), 1.0).count
        assert base == rotated


def test_rotate_draw_rows_and_blocks(gef):
    block = draw_rows(Distribution.COMPLEX_GAUSSIAN, 5, 0, 3, 12)
    rotated = rotate_draw(block, 0.7)
    z = 0.6 - 0.3j
    for k in range(3):
        assert np.array_equal(rotated[k], rotate_draw(block[k], 0.7))
        # the rotated series evaluates f(z e^(i theta))
        want = eval_series(TruncatedSeries(block[k], gef), z * np.exp(0.7j))
        assert eval_series(TruncatedSeries(rotated[k], gef), z) == pytest.approx(want, rel=1e-12)


def test_boundary_zero_is_diagnosed(gef):
    # f(z) = z - 1 has its only zero exactly on |z| = 1: the nudged retries
    # straddle it and must disagree.  A zero 1.2e-16 off the circle, between
    # grid points, is closer than midpoint refinement can resolve.
    for c0 in (-1.0, -1.0 + 1.2e-16j):
        ts = TruncatedSeries(_manual_draw([c0, 1.0]), gef)
        with pytest.raises(ZeroCountError):
            count_zeros_disk(ts, 1.0)


def test_verify_count_rejects_a_wrong_count(gef):
    one_plus_z = TruncatedSeries(_manual_draw([1.0, 1.0]), gef)
    verify_count(one_plus_z, 2.0, 1)
    with pytest.raises(ZeroCountError, match="root oracle"):
        verify_count(one_plus_z, 2.0, 0)


def test_batch_counts_equal_single_counts(gef):
    # count_for_coeffs, per-row Horner on linear coefficients, is the oracle
    degree = 25
    a = np.exp(gef.log_coeffs(degree))
    rows = np.array([
        draw_coeffs(Distribution.COMPLEX_GAUSSIAN, degree + 1, sample_seed(50, i)) * a
        for i in range(200)
    ])
    batch = winding_counts_batch(rows, 1.25)
    for i in range(200):
        assert batch[i] == count_for_coeffs(rows[i], 1.25)


def test_roots_simple_polynomials(gef):
    one_plus_z = TruncatedSeries(_manual_draw([1.0, 1.0]), gef)
    roots = roots_truncated(one_plus_z)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(-1.0, abs=1e-12)

    a = np.exp(gef.log_coeffs(2))
    quad = TruncatedSeries(_manual_draw(np.array([2.0, -3.0, 1.0]) / a), gef)
    got = sorted(roots_truncated(quad).real)
    assert got == pytest.approx([1.0, 2.0], abs=1e-10)


def test_roots_residuals_random_degree_30(gef):
    for i in range(25):
        draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 31, sample_seed(1337, i))
        roots_truncated(TruncatedSeries(draw, gef))  # residual check is internal


def test_roots_degenerate_rejected(gef):
    with pytest.raises(ValueError):
        TruncatedSeries(_manual_draw([0.0, 0.0]), gef).coeffs()


def test_min_zero_modulus_examples(gef):
    assert min_zero_modulus(TruncatedSeries(_manual_draw([1.0, 1.0]), gef)) == pytest.approx(1.0, abs=1e-12)
    assert min_zero_modulus(TruncatedSeries(_manual_draw([0.0, 1.0]), gef)) == 0.0
    assert min_zero_modulus(TruncatedSeries(_manual_draw([3.0]), gef)) == math.inf


def test_min_zero_modulus_all_ones_regression(gef):
    ts = TruncatedSeries(all_ones_draw(200), gef)
    assert min_zero_modulus(ts) == pytest.approx(ALL_ONES_200_MIN_MODULUS, rel=1e-9)


def test_expected_zero_count_small_sample(gef):
    # quick version of the first-intensity law E n(1) = 1; the acceptance
    # suite runs the full 10^4-draw check
    degree = 25
    a = np.exp(gef.log_coeffs(degree))
    rows = np.array([
        draw_coeffs(Distribution.COMPLEX_GAUSSIAN, degree + 1, sample_seed(606, i)) * a
        for i in range(2000)
    ])
    counts = winding_counts_batch(rows, 1.0)
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(mean - 1.0) <= 4.0 * se


class _UnitModel:
    """log a_n = 0: the draw values are the polynomial's coefficients."""

    def log_coeffs(self, n_max):
        return np.zeros(n_max + 1)


def _gaussian_rows(degree, seed, count):
    return draw_rows(Distribution.COMPLEX_GAUSSIAN, seed, 0, count, degree + 1)


@pytest.mark.parametrize("r, count", [(1.0, 40), (2.0, 30), (6.0, 10), (12.0, 4)])
def test_batch_counts_match_root_oracle(gef, r, count):
    # certified truncation degrees: 21, 36, 134, 445; 12^445 overflows doubles
    degree = truncation_degree(gef, r, 1e-9, 1e-6 / 2000)
    phi = _gaussian_rows(degree, 2718, count)
    batch = winding_counts_batch(phi, r, log_coeffs=gef.log_coeffs(degree))
    for i in range(count):
        if r < 12.0:
            oracle = count_zeros_disk(TruncatedSeries(_manual_draw(phi[i]), gef), r, verify=True)
        else:
            # TruncatedSeries forms a_n linearly, and a_n underflows for
            # n >= 314, so the oracle counts q(w) = p(r w) / max_n a_n r^n on
            # |w| < 1 instead
            t = gef.log_coeffs(degree) + np.arange(degree + 1) * math.log(r)
            q = TruncatedSeries(_manual_draw(phi[i] * np.exp(t - t.max())), _UnitModel())
            oracle = count_zeros_disk(q, 1.0, verify=True)
        assert batch[i] == oracle.count


def test_zero_just_off_the_circle_reaches_fallback(gef, monkeypatch):
    degree = 30
    a = np.exp(gef.log_coeffs(degree + 1))
    rows = _gaussian_rows(degree, 99, 20)
    rows = np.hstack([rows, np.zeros((20, 1))]) * a
    # zeros at |z| = 1 -+ 1e-7 are far below any batched grid spacing
    for i, rho in ((3, 1.0 - 1e-7), (11, 1.0 + 1e-7)):
        rows[i] = np.convolve(rows[i, :-1], [-rho * np.exp(0.4j), 1.0])
    fallback_calls = []

    def spy(c, r, base_points=None):
        fallback_calls.append(r)
        return count_for_coeffs(c, r, base_points)

    monkeypatch.setattr(evaluate_zeros, "count_for_coeffs", spy)
    batch = winding_counts_batch(rows, 1.0)
    assert len(fallback_calls) >= 2
    for i in range(20):
        ts = TruncatedSeries(_manual_draw(rows[i] / a), gef)
        assert batch[i] == count_zeros_disk(ts, 1.0, verify=True).count


def test_batch_counts_terms_whose_coefficient_underflows(gef):
    # p(z) = 1e-4 + a_400 z^400 at r = 12: a_400 ~ e^-1000 underflows, but
    # |a_400 12^400| ~ 1.8e-3 dominates, so all 400 zeros lie inside
    phi = np.zeros((1, 401), dtype=np.complex128)
    phi[0, 0], phi[0, 400] = 1e-4, 1.0
    assert winding_counts_batch(phi, 12.0, log_coeffs=gef.log_coeffs(400))[0] == 400
    # count_zeros_disk runs on the same kernel, so it keeps that term too
    assert count_zeros_disk(TruncatedSeries(phi[0], gef), 12.0).count == 400


def test_batch_at_r12_emits_no_runtime_warning(gef):
    degree = truncation_degree(gef, 12.0, 1e-9, 1e-6 / 2000)
    phi = _gaussian_rows(degree, 12, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = winding_counts_batch(phi, 12.0, log_coeffs=gef.log_coeffs(degree))
        # the linear convention too: a_n r^n is never formed
        linear = winding_counts_batch(phi * np.exp(gef.log_coeffs(degree)), 12.0)
    assert np.all(scaled > 100) and np.all(linear > 100)


def test_uncertified_rows_raise_or_count_minus_one(gef):
    # z - 1 has its zero on |z| = 1, so no retry can certify that row
    rows = np.array([[-1.0, 1.0], [0.5, 1.0], [2.0, 1.0]], dtype=np.complex128)
    with pytest.raises(ZeroCountError):
        winding_counts_batch(rows, 1.0)
    assert list(winding_counts_batch(rows, 1.0, strict=False)) == [-1, 1, 0]


def test_residual_check_rejects_overflowed_horner():
    # z^2 + 1 at z = 1e200 overflows to inf on the root and on its circle;
    # inf > 1e-8 * inf is False, so only an explicit finiteness test fails it
    with pytest.raises(evaluate_zeros.RootResidualError):
        evaluate_zeros._check_residuals(np.array([1, 0, 1], complex), np.array([1e200 + 0j]))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _polish_one(c, roots, iters=60):
    """Damped Newton on one row, the per-row polish the stacked oracle replaced."""
    dc = c[1:] * np.arange(1, len(c))
    p = evaluate_zeros._horner(c, roots)
    for _ in range(iters):
        dp = evaluate_zeros._horner(dc, roots)
        step = np.where(np.abs(dp) > 0, p / dp, 0.0)
        step = np.where(np.isfinite(step), step, 0.0)
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(roots))):
            break
        advanced = np.zeros(len(roots), dtype=bool)
        for damp in (1.0, 0.5, 0.25):
            todo = ~advanced & (np.abs(step) > 0)
            if not todo.any():
                break
            cand = roots - damp * step
            p_cand = evaluate_zeros._horner(c, cand)
            improve = todo & (np.abs(p_cand) < np.abs(p))
            roots = np.where(improve, cand, roots)
            p = np.where(improve, p_cand, p)
            advanced |= improve
        if not advanced.any():
            break
    return roots


def _per_row_roots(c):
    c = evaluate_zeros._strip_trailing(c)
    return _polish_one(c, np.roots(c[::-1])) if len(c) > 1 else np.empty(0)


def _assert_stack_matches_rows(c_rows):
    stacked = roots_rows(c_rows)
    assert len(stacked) == len(c_rows)
    for c, got in zip(c_rows, stacked):
        assert np.array_equal(got, _per_row_roots(c))


@pytest.mark.parametrize("r", [1.0, 3.0])
def test_stacked_roots_equal_per_row_roots_gef(gef, r):
    degree = truncation_degree(gef, r, 1e-9, 1e-9)  # 21 and 54, as `zeros` uses
    phi = _gaussian_rows(degree, 1, 100)
    _assert_stack_matches_rows(phi * np.exp(gef.log_coeffs(degree)))


@pytest.mark.parametrize("dist, theta", [(Distribution.RADEMACHER, 0.3),
                                         (Distribution.STEINHAUS, 0.7)])
def test_stacked_roots_equal_per_row_roots_unimodular(gef, dist, theta):
    phi = rotate_draw(draw_rows(dist, 5, 0, 8, 201), theta)
    _assert_stack_matches_rows(phi * np.exp(gef.log_coeffs(200)))


def test_stacked_roots_zero_constant_terms_and_mixed_lengths(gef):
    assert np.array_equal(roots_rows(np.array([[0.0, 1.0]], complex))[0], [0.0])
    assert min_zero_moduli(np.array([[0.0, 1.0], [3.0, 0.0]], complex), gef).tolist() == [0.0, math.inf]
    rows = _gaussian_rows(29, 3, 12) * np.exp(gef.log_coeffs(29))
    rows[2, 25:] = 0  # shorter rows, rows with zero constant terms, and both
    rows[5, 20:] = 0
    rows[7, :2] = 0
    rows[9, 0] = 0
    rows[9, 26:] = 0
    _assert_stack_matches_rows(rows)
    assert np.count_nonzero(roots_rows(rows)[7] == 0) == 2


def test_verify_counts_names_the_failing_sample(gef):
    degree = 21
    phi = _gaussian_rows(degree, 4, 30)
    counts = winding_counts_batch(phi, 1.0, log_coeffs=gef.log_coeffs(degree))
    verify_counts(phi, gef, 1.0, counts, first_index=500)
    counts[17] += 1
    with pytest.raises(ZeroCountError, match=r"^sample 517: .*root oracle"):
        verify_counts(phi, gef, 1.0, counts, first_index=500)


def test_residual_failure_names_the_sample():
    c = np.array([[1, 0, 1], [1, 0, 1]], complex)
    roots = np.array([[1j, -1j], [1j, 1e200 + 0j]])
    with pytest.raises(RootResidualError, match=r"^sample 41: "):
        evaluate_zeros._check_residuals(c, roots, [40, 41])


@pytest.mark.parametrize("block", [2**12, 2**20])
def test_unit_circle_pass_is_independent_of_the_block_size(gef, monkeypatch, block):
    degree = truncation_degree(gef, 2.0, 1e-9, 1e-9)
    phi = _gaussian_rows(degree, 8, 600)
    D = evaluate_zeros._unit_circle_rows(phi, 2.0, gef.log_coeffs(degree))
    want = [evaluate_zeros._unit_circle_pass(D, points) for points in (32, 256, 2**13)]
    monkeypatch.setattr(evaluate_zeros, "_BLOCK_VALUES", block)
    for points, (resolved, counts) in zip((32, 256, 2**13), want):
        got_resolved, got_counts = evaluate_zeros._unit_circle_pass(D, points)
        assert np.array_equal(got_resolved, resolved)
        assert np.array_equal(got_counts, counts)
    assert 0 < np.count_nonzero(want[0][0]) < len(D)  # 32 points leave some rows unresolved
