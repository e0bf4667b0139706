import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from holelab import (
    Distribution,
    TruncatedSeries,
    ZeroCountError,
    count_zeros_disk,
    draw_coeffs,
    draw_rows,
    hole_mc,
    min_zero_modulus,
    roots_truncated,
    sample_seed,
    truncation_degree,
)
from holelab import evaluate_zeros, hole_estimators, sampling
from holelab.evaluate_zeros import (
    RootResidualError,
    count_for_coeffs,
    min_zero_moduli,
    roots_rows,
    rotate_draw,
    verify_counts,
    winding_counts_batch,
)
from holelab.hermite_asymptotics import all_ones_draw
from holelab.hole_estimators import TAIL_EPS, conditioned_degree
from holelab.sampling import (
    gaussian_moduli,
    polar_keyed,
    sample_seeds,
    truncated_exp_from_uniform,
)

# frozen: smallest modulus of the roots of sum_{n<=200} z^n/sqrt(n!), all
# phi_n = 1, from companion-matrix eigenvalues; the root oracle is checked
# against it to rel 1e-9
ALL_ONES_200_MIN_MODULUS = 3.6140172786532405


def _manual_draw(values) -> np.ndarray:
    return np.asarray(values, dtype=np.complex128)


def _linear(phi, model) -> np.ndarray:
    """phi_n a_n, the coefficients of the truncated series."""
    return phi * np.exp(model.log_coeffs(len(phi) - 1))


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n c[..., n] z^n; each row of a 2-D c pairs with the same row of z."""
    col = c.shape[:-1] + (1,) * (np.ndim(z) - c.ndim + 1)
    acc = np.empty(np.shape(z), dtype=np.complex128)
    acc[...] = c[..., -1].reshape(col)
    for k in range(c.shape[-1] - 2, -1, -1):
        acc *= z
        acc += c[..., k].reshape(col)
    return acc


def _strip_trailing(c: np.ndarray, sample: int) -> np.ndarray:
    """One row c without its trailing coefficients: the one-row case of `_stripped_lengths`."""
    return c[: evaluate_zeros._stripped_lengths(c[None, :], sample)[0]]


def eval_series_horner(phi, model, z) -> complex:
    """Horner evaluation (`_horner`) of sum phi_n a_n z^n at one z."""
    return complex(_horner(_linear(phi, model), np.complex128(z)))


def eval_series_pairwise(phi, model, z: complex) -> complex:
    """Independent summation order (explicit powers, pairwise sum)."""
    c = _linear(phi, model)
    powers = np.power(np.complex128(z), np.arange(len(c)))
    return complex(np.sum(c * powers))


def test_eval_constant_and_linear(gef):
    assert eval_series_horner(_manual_draw([1.0]), gef, 2.7 - 1.2j) == 1.0 + 0.0j
    # a_1 = 1 so f(z) = z
    assert eval_series_horner(_manual_draw([0.0, 1.0]), gef, 0.25 + 0.5j) == 0.25 + 0.5j


def test_dual_evaluation_agreement(gef):
    z = 0.3 + 0.4j
    for i in range(50):
        draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 40, sample_seed(314, i))
        horner = eval_series_horner(draw, gef, z)
        pairwise = eval_series_pairwise(draw, gef, z)
        assert abs(horner - pairwise) <= 1e-11 * max(1.0, abs(horner))


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
        want = eval_series_horner(block[k], gef, z * np.exp(0.7j))
        assert eval_series_horner(rotated[k], gef, z) == pytest.approx(want, rel=1e-12)


def test_boundary_zero_is_diagnosed(gef):
    # f(z) = z - 1 has its only zero exactly on |z| = 1, and a zero 1.2e-16
    # off the circle, between grid points, lies within the rounding bound:
    # no arc next to either can be certified.
    for c0 in (-1.0, -1.0 + 1.2e-16j):
        ts = TruncatedSeries(_manual_draw([c0, 1.0]), gef)
        with pytest.raises(ZeroCountError):
            count_zeros_disk(ts, 1.0)


def test_verify_count_rejects_a_wrong_count(gef):
    one_plus_z = _manual_draw([[1.0, 1.0]])
    verify_counts(one_plus_z, gef, 2.0, [1])
    with pytest.raises(ZeroCountError, match="root oracle"):
        verify_counts(one_plus_z, gef, 2.0, [0])


class _BoundarySuspicion(Exception):
    pass


def _winding_by_midpoints(c, r, base_points):
    """Winding number of p along |z| = r by argument tracking on Horner values.

    Midpoints are inserted wherever a sampled argument step reaches pi/2: a
    heuristic, independent of the certified kernel's FFT, bounds and arcs.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, base_points, endpoint=False)
    f = _horner(c, r * np.exp(1j * theta))
    while True:
        scale = float(np.max(np.abs(f)))
        if scale == 0.0 or float(np.min(np.abs(f))) < 1e-290 * scale:
            raise _BoundarySuspicion
        inc = np.angle(np.roll(f, -1) * np.conj(f))
        bad = np.abs(inc) >= np.pi / 2
        if not bad.any():
            break
        if len(theta) >= 2**20:
            raise _BoundarySuspicion
        nxt = np.append(theta[1:], theta[0] + 2.0 * np.pi)
        mids = 0.5 * (theta[bad] + nxt[bad])
        if np.any((mids == theta[bad]) | (mids == nxt[bad])):
            raise _BoundarySuspicion
        order = np.argsort(np.concatenate([theta, mids]), kind="stable")
        theta = np.concatenate([theta, mids])[order]
        f = np.concatenate([f, _horner(c, r * np.exp(1j * mids))])[order]
    w_float = float(np.sum(inc)) / (2.0 * np.pi)
    w = int(round(w_float))
    assert abs(w_float - w) <= 1e-3
    return w


def _reference_count(c, r):
    """Midpoint counter on >= 256 points; on suspicion, circles nudged by -+1e-9 must agree."""
    base_points = 256
    while base_points < 4 * len(c):
        base_points *= 2
    try:
        return _winding_by_midpoints(c, r, base_points)
    except _BoundarySuspicion:
        counts = {_winding_by_midpoints(c, r * fac, base_points) for fac in (1 + 1e-9, 1 - 1e-9)}
        assert len(counts) == 1
        return counts.pop()


def test_batch_counts_equal_single_counts(gef):
    # the Horner midpoint counter the certified kernel replaced is the reference
    degree = 25
    a = np.exp(gef.log_coeffs(degree))
    rows = np.array([
        draw_coeffs(Distribution.COMPLEX_GAUSSIAN, degree + 1, sample_seed(50, i)) * a
        for i in range(200)
    ])
    batch = winding_counts_batch(rows, 1.25)
    for i in range(200):
        assert batch[i] == _reference_count(rows[i], 1.25)
        assert count_for_coeffs(rows[i], 1.25) == batch[i]


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
        roots_truncated(TruncatedSeries(_manual_draw([0.0, 0.0]), gef))


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
            # a_n underflows for n >= 314; the oracle counts q(w) = p(r w) /
            # max_n a_n r^n on |w| < 1, a row formed here from t_n directly
            # rather than by the module's log-scale rows
            t = gef.log_coeffs(degree) + np.arange(degree + 1) * math.log(r)
            q = TruncatedSeries(_manual_draw(phi[i] * np.exp(t - t.max())), _UnitModel())
            oracle = count_zeros_disk(q, 1.0, verify=True)
        assert batch[i] == oracle.count


def _spy_on_paths(monkeypatch):
    """Record each grid pass's size and rows, and the rows that bisected arcs.

    Rows are named by their index among the caller's rows: the grid route
    counts only the rows formed for it, and a grid pass or the bisection
    names a row by its place among those.
    """
    seen = {"grids": [], "gridded": set(), "bisected": set()}
    polar, grid_pass, bisect = (evaluate_zeros.winding_counts_polar, evaluate_zeros._grid_pass,
                                evaluate_zeros._bisect)
    formed = []  # the caller's indices of the rows formed, one array per call

    def polar_spy(log_moduli, form_rows, r, **kwargs):
        def form(idx, moduli):
            formed.append(idx)
            return form_rows(idx, moduli)

        return polar(log_moduli, form, r, **kwargs)

    def grid_spy(D, K, idx, points, turn):
        seen["grids"].append(points)
        seen["gridded"].update(formed[-1][idx].tolist())
        return grid_pass(D, K, idx, points, turn)

    def bisect_spy(D, K, bits, arcs, turn):
        seen["bisected"].update(formed[-1][arcs.row].tolist())
        return bisect(D, K, bits, arcs, turn)

    for module in (evaluate_zeros, hole_estimators):  # the complex and the job entry
        monkeypatch.setattr(module, "winding_counts_polar", polar_spy)
    monkeypatch.setattr(evaluate_zeros, "_grid_pass", grid_spy)
    monkeypatch.setattr(evaluate_zeros, "_bisect", bisect_spy)
    return seen


def test_zero_just_off_the_circle_reaches_fallback(gef, monkeypatch):
    degree = 30
    a = np.exp(gef.log_coeffs(degree + 1))
    rows = _gaussian_rows(degree, 99, 20)
    rows = np.hstack([rows, np.zeros((20, 1))]) * a
    without = winding_counts_batch(rows[[3, 11]], 1.0)
    # zeros at |z| = 1 -+ 1e-7 are far below the first grid's spacing
    for i, rho in ((3, 1.0 - 1e-7), (11, 1.0 + 1e-7)):
        rows[i] = np.convolve(rows[i, :-1], [-rho * np.exp(0.4j), 1.0])
    seen = _spy_on_paths(monkeypatch)
    batch = winding_counts_batch(rows, 1.0)
    assert {3, 11} <= seen["bisected"]
    for i in range(20):
        ts = TruncatedSeries(_manual_draw(rows[i] / a), gef)
        assert batch[i] == count_zeros_disk(ts, 1.0, verify=True).count
    # the zero inside adds one to row 3's count, the one outside none to row 11's
    assert list(batch[[3, 11]]) == [without[0] + 1, without[1]]


def test_batch_counts_terms_whose_coefficient_underflows(gef):
    # p(z) = 1e-4 + a_400 z^400 at r = 12: a_400 ~ e^-1000 underflows, but
    # |a_400 12^400| ~ 1.8e-3 dominates, so all 400 zeros lie inside
    phi = np.zeros((1, 401), dtype=np.complex128)
    phi[0, 0], phi[0, 400] = 1e-4, 1.0
    assert winding_counts_batch(phi, 12.0, log_coeffs=gef.log_coeffs(400))[0] == 400
    # count_zeros_disk runs on the same kernel, so it keeps that term too
    assert count_zeros_disk(TruncatedSeries(phi[0], gef), 12.0).count == 400


def test_rows_whose_largest_term_is_subnormal():
    # 8w^3 - 26w^2 + 5w + 3 = (w - 1/2)(w + 1/4)(w - 3) times 77 smallest
    # subnormals: integer multiples of 2^-1074 are exact, the largest term is
    # 1e-320, and exp(t_0 - M) = e^736 alone would overflow
    poly = np.array([3.0, 5.0, -26.0, 8.0])
    rows = np.zeros((4, 41), dtype=np.complex128)
    rows[0, :4] = poly * 77 * 2.0**-1074
    rows[1] = 1j * rows[0]
    rows[2, :4] = poly  # the same zeros at normal scale
    rows[3, 5] = 2.0**-1074  # w^5 times the smallest subnormal
    for r, count in ((0.3, 1), (1.0, 2), (4.0, 3)):
        assert list(winding_counts_batch(rows, r)) == [count, count, count, 5]


def test_rows_whose_terms_span_more_than_600_decades(gef):
    # at r = 60 the terms a_n r^n rise from 1 at n = 0 to e^1800 (782 decades)
    # at the peak n = 3599 or 3600 (a tie up to rounding) and fall to e^-111
    # at n = 10^4.  A row keeping the peak counts its zeros; a row without it
    # counts none, although its zero entries sit up to 1800 nats above its
    # largest term
    r, degree = 60.0, 10_000
    t = gef.log_coeffs(degree) + np.arange(degree + 1) * math.log(r)
    peak = int(np.argmax(t))
    assert peak in (3599, 3600) and t[peak] > 600 * math.log(10) and t[-1] < 0
    rows = np.zeros((2, degree + 1), dtype=np.complex128)
    rows[:, 0] = 1.0
    rows[:, -1] = 1j
    rows[0, peak] = -1.0
    counts = winding_counts_batch(rows, r, log_coeffs=gef.log_coeffs(degree))
    assert list(counts) == [peak, 0]


def test_batch_at_r12_emits_no_runtime_warning(gef):
    degree = truncation_degree(gef, 12.0, 1e-9, 1e-6 / 2000)
    phi = _gaussian_rows(degree, 12, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = winding_counts_batch(phi, 12.0, log_coeffs=gef.log_coeffs(degree))
        # the linear convention too: a_n r^n is never formed
        linear = winding_counts_batch(phi * np.exp(gef.log_coeffs(degree)), 12.0)
    assert np.all(scaled > 100) and np.all(linear > 100)


def test_uncertified_row_raises_naming_its_sample(gef):
    # z - 1 has its zero on |z| = 1, so no retry can certify that row
    rows = np.array([[-1.0, 1.0], [0.5, 1.0], [2.0, 1.0]], dtype=np.complex128)
    with pytest.raises(ZeroCountError, match=r"^sample 0 at r=1\.0: no certified winding"):
        winding_counts_batch(rows, 1.0)
    with pytest.raises(ZeroCountError, match=r"^sample 12 at r=1\.0: no certified winding"):
        winding_counts_batch(rows[[1, 2, 0]], 1.0, first_index=10)
    assert list(winding_counts_batch(rows[1:], 1.0)) == [1, 0]


@pytest.mark.parametrize("cap", [64, 128])
def test_rows_the_last_grid_leaves_are_bisected(gef, monkeypatch, cap):
    # with the grid capped at 64 or 128 points, rows that would double are
    # bisected from the last grid instead, every arc with q at both ends
    # (theta and half in turns), and count as on the full grids
    degree = truncation_degree(gef, 3.0, TAIL_EPS, 1e-9)
    assert degree == 54
    block = polar_keyed(gaussian_moduli, sample_seeds(1, 0, 200), degree + 1)

    def counts():
        return evaluate_zeros.winding_counts_polar(block.log_moduli(), block.phased, 3.0,
                                                   log_coeffs=gef.log_coeffs(degree),
                                                   tail_eps=TAIL_EPS)

    want = counts()
    bisect, handed = evaluate_zeros._bisect, []

    def spy(D, K, bits, arcs, turn):
        handed.append(len(arcs.row))
        L = np.abs(D[arcs.row]) @ np.arange(D.shape[1])
        for theta, f in ((arcs.theta, arcs.fa), (arcs.theta + 2 * arcs.half, arcs.fb)):
            F = evaluate_zeros._values_at(D, arcs.row, np.exp(2j * np.pi * theta))
            assert np.all(np.abs(f - F) <= 1e-9 * L)
        return bisect(D, K, bits, arcs, turn)

    monkeypatch.setattr(evaluate_zeros, "_MAX_GRID_POINTS", cap)
    monkeypatch.setattr(evaluate_zeros, "_bisect", spy)
    got = counts()
    assert handed[0] > 0
    assert got.tolist() == want.tolist()
    verify_counts(block.rows(), gef, 3.0, got)


def _dominant_rows(rows, r, log_coeffs=None, tail_eps=0.0):
    log_coeffs = np.zeros(rows.shape[1]) if log_coeffs is None else log_coeffs
    with np.errstate(divide="ignore"):
        log_moduli = np.log(np.abs(rows))
    size, log_scale = evaluate_zeros._unit_circle_scale(log_moduli, r, log_coeffs)
    K = evaluate_zeros._row_bounds(size, log_scale, tail_eps)
    return evaluate_zeros._dominant_terms(K, math.log2(evaluate_zeros._first_grid(size.shape[1])))


def test_dominant_term_edge_rows(monkeypatch):
    # 2 + z and 1 + 2z are counted by their dominant term (k = 0, k = 1);
    # 1 + z has its zero on |z| = 1, no term dominates, and the grid refuses it
    rows = np.array([[2.0, 1.0], [1.0, 2.0], [1.0, 1.0]], dtype=np.complex128)
    assert list(_dominant_rows(rows, 1.0)) == [0, 1, -1]
    seen = _spy_on_paths(monkeypatch)["gridded"]
    assert list(winding_counts_batch(rows[:2], 1.0)) == [0, 1]
    assert seen == set()
    with pytest.raises(ZeroCountError, match=r"^sample 2 at r=1\.0: no certified winding"):
        winding_counts_batch(rows, 1.0)
    assert seen == {2}


_PASS_CASES = {"conditioned-r12": (12.0, 1.0), "gef-r0.5": (0.5, 0.6), "gef-r1": (1.0, 0.04)}


def _pass_case(gef, case):
    """Rows in polar form, r, log a_n and the least fraction of rows the pass counts."""
    r, least = _PASS_CASES[case]
    if case == "conditioned-r12":
        degree = conditioned_degree(r)
        law, seed, count = hole_estimators._row_law(r, degree, True), 4, 300
    else:
        degree = truncation_degree(gef, r, 1e-9, 1e-6 / 2000)
        law, seed, count = gaussian_moduli, 31, 2000
    block = polar_keyed(law, sample_seeds(seed, 0, count), degree + 1)
    return block, r, gef.log_coeffs(degree), least


@pytest.mark.parametrize("case", _PASS_CASES)
def test_dominant_term_pass_changes_no_count(gef, monkeypatch, case):
    # the grid route counts the same rows to the same counts with the pass
    # dominating nothing; no conditioned r = 12 row reaches a grid
    block, r, log_coeffs, least = _pass_case(gef, case)
    rows = block.rows()
    dominated = _dominant_rows(rows, r, log_coeffs, 1e-9) >= 0
    assert dominated.mean() >= least
    seen = _spy_on_paths(monkeypatch)["gridded"]
    with_pass = winding_counts_batch(rows, r, log_coeffs=log_coeffs, tail_eps=1e-9)
    assert seen == set(np.flatnonzero(~dominated).tolist())
    monkeypatch.setattr(evaluate_zeros, "_dominant_terms", lambda K, bits: np.full(len(K), -1))
    seen.clear()
    without = winding_counts_batch(rows, r, log_coeffs=log_coeffs, tail_eps=1e-9)
    assert seen == set(range(len(rows)))
    assert with_pass.tolist() == without.tolist()


@pytest.mark.parametrize("case", _PASS_CASES)
def test_rho_covers_the_rounding_of_the_dominance_test(gef, case):
    # the pass reads a_n = exp(x_n - M), x_n = log|phi_n| + t_n, and the grid
    # would form d_n = a_n e^(i theta_n) from the same a_n.  The test
    # |d_k| - sum_{n != k} |d_n| > rho + tau, computed from the a_n with l1
    # by np.sum, against the same difference of the |d_n| taken in extended
    # precision and summed exactly: rho must cover the error.  The gap
    # | |d_n| - a_n | / a_n is the one the module docstring bounds by 3u
    block, r, log_coeffs, _ = _pass_case(gef, case)
    size, log_scale = evaluate_zeros._unit_circle_scale(block.log_moduli(), r, log_coeffs)
    K = evaluate_zeros._row_bounds(size, log_scale, 0.0)
    rho = evaluate_zeros._margins(K, math.log2(evaluate_zeros._first_grid(size.shape[1])))[1]
    D = block.phased(slice(None), size)  # as the kernel forms a row the pass leaves
    u = np.finfo(float).eps / 2
    d = np.abs(D.astype(np.clongdouble))
    kept = size > 0
    gap = np.abs(d[kept] - size[kept]) / size[kept] / u
    # 2 |d_k| - sum |d_n|, each |d_n| a float64 pair so that math.fsum sums
    # the extended values exactly
    hi = d.astype(np.float64)
    lo = (d - hi).astype(np.float64)
    k = K[:, 5].astype(np.intp)
    exact = np.array([math.fsum(np.concatenate([2.0 * h[[j]], 2.0 * l[[j]], -h, -l]))
                      for h, l, j in zip(hi, lo, k)])
    error = np.abs((K[:, 4] - (K[:, 3] - K[:, 4])) - exact)
    assert np.all(K[:, 4] == size.max(axis=1))
    print(f"largest gap {gap.max():.3g} u; largest rounding / rho: {np.max(error / rho):.3g}")
    assert gap.max() <= 3.0
    assert np.all(2.0 * error < rho)


# (r, law): GEF rows at the truncation degree of `zeros`, conditioned rows at theirs
_T_N_CASES = {"gef-r1": (1.0, "gef"), "gef-r12": (12.0, "gef"), "gef-r60": (60.0, "gef"),
              "conditioned-r12": (12.0, "conditioned")}


@pytest.mark.parametrize("case", _T_N_CASES)
def test_rho_covers_the_rounding_of_t_n(gef, case):
    # the kernel scales entry n by exp(x_n - M), with the exponent x_n - M =
    # (1/2) log|phi_n|^2 + t_n - M, t_n = log a_n + n log r, formed in
    # double; against that exponent from mpmath at 40 digits (log a_n by
    # loggamma, the double |phi_n|^2 and M taken as exact) each |d_n| errs by
    # the factor e^|dx_n|, so the computed row lies within sum |d_n|
    # (e^|dx_n| - 1) of the exact one on the circle: rho must cover that
    # with room to spare for the rounding it was set for
    r, law = _T_N_CASES[case]
    if law == "gef":
        degree = truncation_degree(gef, r, 1e-9, 1e-9)
        moduli = gaussian_moduli
    else:
        degree = conditioned_degree(r)
        moduli = hole_estimators._row_law(r, degree, True)
    log_coeffs = gef.log_coeffs(degree)
    block = polar_keyed(moduli, sample_seeds(7, 0, 20), degree + 1)
    x = block.log_moduli()  # the exponent as `_unit_circle_scale` forms it
    x += np.arange(degree + 1) * math.log(r) + log_coeffs
    top = x.max(axis=1)
    x -= top[:, None]
    size, log_scale = evaluate_zeros._unit_circle_scale(block.log_moduli(), r, log_coeffs)
    assert size.tobytes() == np.exp(x).tobytes() and log_scale.tobytes() == top.tobytes()
    with mpmath.workdps(40):
        log_r = mpmath.log(r)
        t = [n * log_r - mpmath.loggamma(n + 1) / 2 for n in range(degree + 1)]
        dx = np.zeros_like(x)
        for i, row in enumerate(block.squares):
            for n in np.flatnonzero(row > 0):
                exact = mpmath.log(mpmath.mpf(float(row[n]))) / 2 + t[n] - mpmath.mpf(float(top[i]))
                dx[i, n] = float(mpmath.mpf(float(x[i, n])) - exact)
    K = evaluate_zeros._row_bounds(size, log_scale, 0.0)
    rho = evaluate_zeros._margins(K, math.log2(evaluate_zeros._first_grid(degree + 1)))[1]
    error = np.sum(size * np.expm1(np.abs(dx)), axis=1)
    print(f"degree {degree}: largest dx {np.abs(dx).max() / 2**-53:.0f} u; "
          f"largest error / rho: {np.max(error / rho):.3g}")
    assert np.all(error <= rho / 2)


# (r, law): GEF rows at the truncation degree of `zeros`; conditioned rows at
# theirs, which reach the grid only with the dominant-term pass off; Steinhaus
# rows (|phi_n| = 1) at the GEF degree
_KERNEL_VALUE_CASES = [pytest.param(r, "gef", id=str(r)) for r in (1.0, 12.0, 40.0, 60.0)] + [
    pytest.param(4.5, "conditioned", id="conditioned-4.5"),
    pytest.param(12.0, "conditioned", id="conditioned-12.0"),
    pytest.param(1.0, "steinhaus", id="steinhaus-1.0"),
]


@pytest.mark.parametrize("r, law", _KERNEL_VALUE_CASES)
def test_rho_covers_the_rounding_of_the_kernel_values(gef, r, law):
    # q(w) of scaled rows, by Horner at bisection points (`_values_at`) and
    # by FFT on the first grid (`_circle_values`), against Horner in mpmath
    # at 40 digits on the same entries: the errors must lie well inside rho,
    # the bound `_certified` adds for them on that grid, the smallest it uses
    if law == "conditioned":
        degree = conditioned_degree(r)
        moduli = hole_estimators._row_law(r, degree, True)
    else:
        degree = truncation_degree(gef, r, 1e-9, 1e-9)
        moduli = gaussian_moduli if law == "gef" else np.ones_like
    block = polar_keyed(moduli, sample_seeds(1, 0, 2), degree + 1)
    size, log_scale = evaluate_zeros._unit_circle_scale(block.log_moduli(), r,
                                                        gef.log_coeffs(degree))
    D = block.phased(slice(None), size)  # as the kernel forms a row: |d_n| e^(i theta_n)
    points = evaluate_zeros._first_grid(degree + 1)
    K = evaluate_zeros._row_bounds(np.abs(D), log_scale, 0.0)
    evaluate_zeros._set_slopes(K, np.abs(D))
    _, rho, _ = evaluate_zeros._margins(K, math.log2(points))
    rng = np.random.default_rng(5)
    row = np.repeat(np.arange(len(D)), 2)
    w = np.exp(2j * np.pi * rng.random(len(row)))
    k = rng.integers(points, size=len(row))
    worst = []
    with mpmath.workdps(40):
        for F, exact_points in [
                (evaluate_zeros._values_at(D, row, w), [mpmath.mpc(x) for x in w]),
                (evaluate_zeros._circle_values(D, points)[row, k],
                 [mpmath.expjpi(mpmath.mpf(2 * int(j)) / points) for j in k])]:
            for j, (i, x) in enumerate(zip(row, exact_points)):
                q = mpmath.polyval([mpmath.mpc(c) for c in D[i, ::-1]], x)
                worst.append(float(abs(F[j] - q)) / rho[i])
    print(f"{law} degree {degree}: largest |F - q| / rho {max(worst):.3g}")
    assert max(worst) <= 0.5


def _chord_distance(d, theta, length, points):
    """Largest distance of q(e^(i theta)) from its chord over `points` interior points of each arc.

    Row i of d holds d_0..d_N of arc i, which runs from theta[i] to
    theta[i] + length[i], in turns; q is evaluated by Horner in extended
    precision (np.clongdouble), and the chord is the straight line through
    q at the two ends.
    """
    d = np.asarray(d, dtype=np.clongdouble)
    t = np.linspace(0.0, 1.0, points + 2, dtype=np.longdouble)
    start, length = (np.asarray(x, np.longdouble)[:, None] for x in (theta, length))
    turns = start + length * t
    w = np.exp(2j * np.pi * turns.astype(np.clongdouble))
    q = np.broadcast_to(d[:, -1:], w.shape).copy()
    for c in d.T[-2::-1]:
        q *= w
        q += c[:, None]
    chord = q[:, :1] + (q[:, -1:] - q[:, :1]) * t
    return np.abs(q - chord)[:, 1:-1].max(axis=1).astype(np.float64)


@pytest.mark.parametrize("r", [1.0, 3.0])
def test_chord_gap_is_sharp_on_rows_of_nonnegative_terms(gef, r):
    # on the arc [0, h], h = 2 pi / P, of a row of nonnegative real d_n the
    # curve's second derivative at 0 is -sum n^2 d_n = -C2, so the largest
    # distance from its chord tends to the bound h^2 C2 / 8 as h shrinks:
    # against mpmath at 30 digits over 65 interior points (the midpoint
    # among them) it must lie between 0.9 and 1 times `_chord_gap`, for
    # P = 64, 256 and 4096, at degree 21 (r = 1) and 54 (r = 3).  The half
    # arc length in place of the arc length gives a quarter of the bound
    degree = truncation_degree(gef, r, TAIL_EPS, 1e-9)
    t = gef.log_coeffs(degree) + np.arange(degree + 1) * math.log(r)
    size = np.exp(t - t.max())[None, :]
    C2 = evaluate_zeros._set_slopes(evaluate_zeros._row_bounds(size, t.max(), 0.0), size)[0, 0]
    ratios = []
    with mpmath.workdps(30):
        coeffs = [mpmath.mpf(float(x)) for x in size[0, ::-1]]
        for points in (64, 256, 4096):
            h = 2 * mpmath.pi / points
            a, b = mpmath.polyval(coeffs, 1), mpmath.polyval(coeffs, mpmath.expj(h))
            gap = max(abs(mpmath.polyval(coeffs, mpmath.expj(h * j / 66)) - (a + (b - a) * j / 66))
                      for j in range(1, 66))
            ratios.append(float(gap) / evaluate_zeros._chord_gap(1.0 / points, C2))
    print(f"degree {degree}: distance / bound {[f'{x:.4f}' for x in ratios]}")
    assert all(0.9 <= x <= 1.0 for x in ratios)


@pytest.mark.parametrize("r, law", _KERNEL_VALUE_CASES)
def test_chord_gap_bounds_random_arcs(gef, r, law):
    # on 50 arcs at random places, of the first grid's length halved 0 to 4
    # times, the curve of each row stays within `_chord_gap` of its chord
    # (extended-precision Horner over 31 interior points)
    if law == "conditioned":
        degree = conditioned_degree(r)
        moduli = hole_estimators._row_law(r, degree, True)
    else:
        degree = truncation_degree(gef, r, 1e-9, 1e-9)
        moduli = gaussian_moduli if law == "gef" else np.ones_like
    block = polar_keyed(moduli, sample_seeds(1, 0, 2), degree + 1)
    size, log_scale = evaluate_zeros._unit_circle_scale(block.log_moduli(), r,
                                                        gef.log_coeffs(degree))
    D = block.phased(slice(None), size)
    K = evaluate_zeros._set_slopes(evaluate_zeros._row_bounds(np.abs(D), log_scale, 0.0),
                                   np.abs(D))
    rng = np.random.default_rng(3)
    row = rng.integers(len(D), size=50)
    length = 0.5 ** rng.integers(5, size=50) / evaluate_zeros._first_grid(degree + 1)
    gap = _chord_distance(D[row], rng.random(50), length, 31)
    ratio = gap / evaluate_zeros._chord_gap(length, K[row, 0])
    print(f"{law} degree {degree}: largest distance / bound {ratio.max():.3g}")
    assert np.all(ratio <= 1.0)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
def test_bad_rows_name_their_sample_on_both_routes(gef, bad):
    # row 1 (sample 41) is all zero or holds a NaN or inf entry: the kernel and
    # the oracle each refuse it by name, before any arithmetic that would warn
    degree = 21
    phi = _gaussian_rows(degree, 4, 3)
    c = phi * np.exp(gef.log_coeffs(degree))
    for rows in (phi, c):
        if bad == 0.0:
            rows[1] = 0.0
        else:
            rows[1, 5] = bad
    calls = [
        lambda: winding_counts_batch(phi, 1.0, log_coeffs=gef.log_coeffs(degree), first_index=40),
        lambda: winding_counts_batch(c, 1.0, first_index=40),
        lambda: roots_rows(c, first_index=40),
        lambda: verify_counts(phi, gef, 1.0, [1, 1, 1], first_index=40),
        lambda: min_zero_moduli(phi, gef, first_index=40),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in calls:
            with pytest.raises(ValueError, match=r"^sample 41: no usable coefficients"):
                call()


@pytest.mark.parametrize("r, degree", [(0.5, 45), (0.7, 88), (0.8, 142)])
def test_hyperbolic_gaf_hole_law(r, degree):
    # Peres & Virag, Acta Math. 194 (2005): the zeros of sum phi_n z^n with
    # i.i.d. complex Gaussian phi_n form a determinantal process, and their
    # count in |z| < r has the law of a sum of independent Bernoulli(r^(2k)),
    # k >= 1.  So P(no zero) = prod (1 - r^(2k)) and E N = r^2 / (1 - r^2),
    # and a chi-square test compares the whole count law with it.
    # The rows stop at the first N with r^N / (1 - r) <= 1e-13, far below
    # |f| on |z| = r except on an event too rare to show in 40 000 rows.
    assert degree == math.ceil(math.log(1e-13 * (1 - r)) / math.log(r))
    n = 40_000
    phi = draw_rows(Distribution.COMPLEX_GAUSSIAN, 11, 0, n, degree + 1)
    counts = winding_counts_batch(phi, r, log_coeffs=np.zeros(degree + 1))
    hole = math.prod(1.0 - r ** (2 * k) for k in range(1, degree + 1))
    p, z = np.mean(counts == 0), 1.96  # Wilson 95% interval of the hole fraction
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    assert centre - half <= hole <= centre + half
    mean = r * r / (1 - r * r)
    assert abs(counts.mean() - mean) <= 4 * counts.std(ddof=1) / math.sqrt(n)
    law = np.array([1.0])  # the Bernoulli sum's law, k = 1..degree
    for k in range(1, degree + 1):
        law = np.convolve(law, [1.0 - r ** (2 * k), r ** (2 * k)])
    # bins 0..K-1 and a pooled bin for counts >= K, K the largest count expected >= 5 times
    K = int(np.flatnonzero(n * law >= 5.0)[-1])
    expected = n * np.append(law[:K], law[K:].sum())
    observed = np.bincount(np.minimum(counts, K), minlength=K + 1)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < scipy.stats.chi2.isf(1e-6, K), f"chi-square {chi2:.4g} on {K} df"


def test_two_zeros_in_one_grid_cell_are_both_counted():
    # (w - a1)(w - a2) padded to degree 32, both zeros 1e-3 inside |w| = 1 and
    # 2e-3 apart in angle around the midpoint of grid points 10 and 11 of 256:
    # every sampled argument step is small, yet the arc between turns by 2 pi
    mid = 2.0 * np.pi * 10.5 / 256
    zeros = (1.0 - 1e-3) * np.exp(1j * (mid + np.array([1e-3, -1e-3])))
    c = np.zeros(33, dtype=np.complex128)
    c[:3] = np.poly(zeros)[::-1]
    assert winding_counts_batch(c[None, :], 1.0)[0] == 2
    assert count_for_coeffs(c, 1.0) == 2


def _true_count(c):
    """Zeros of sum c_n w^n in |w| < 1: mpmath roots of the exact double coefficients."""
    c = np.trim_zeros(c, "b")
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpc(complex(x)) for x in c[::-1]],
                                 maxsteps=500, extraprec=300) if len(c) > 1 else []
        return sum(1 for z in roots if abs(z) < 1)


_FIRST_CELL = 2.0 * np.pi / 64  # spacing of the first grid below degree 128


@st.composite
def _hard_roots(draw):
    """Roots anywhere, roots 1e-6..1e-3 off |w| = 1, and pairs of those inside one grid cell."""
    angle = st.floats(0.0, 2.0 * np.pi)

    def near_circle():
        return 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, -3.0))

    roots = [draw(st.floats(0.2, 2.0)) * np.exp(1j * draw(angle))
             for _ in range(draw(st.integers(0, 4)))]
    roots += [near_circle() * np.exp(1j * draw(angle)) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        theta, gap = draw(angle), 10.0 ** draw(st.floats(-6.0, math.log10(_FIRST_CELL)))
        roots += [near_circle() * np.exp(1j * (theta + side * gap / 2)) for side in (-1, 1)]
    return roots


@given(_hard_roots(), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_kernel_never_returns_a_wrong_count(roots, degree):
    c = np.zeros(max(len(roots), degree) + 1, dtype=np.complex128)
    c[: len(roots) + 1] = np.poly(roots)[::-1] if roots else 1.0
    try:
        got = winding_counts_batch(c[None, :], 1.0)[0]
    except ZeroCountError:
        return  # a refusal, never a wrong count
    assert got == _true_count(c)


def _padded_circle_values(D, points):
    """`_circle_values` with the fold it replaced: zero-pad, reshape, sum(axis=1)."""
    if D.shape[1] > points:
        D = np.pad(D, ((0, 0), (0, -D.shape[1] % points)))
        D = D.reshape(len(D), -1, points).sum(axis=1)
    return np.fft.ifft(D, n=points, axis=1, norm="forward")


def _replaced_truncated_exp(u, lower=0.0, upper=None):
    """`truncated_exp_from_uniform` as it was, with a temporary for each step."""
    u = np.asarray(u, dtype=np.float64)
    if upper is None:
        return lower - np.log1p(-u)
    q = -np.expm1(-(np.asarray(upper, dtype=np.float64) - lower))
    return lower - np.log1p(-u * q)


def _replaced_conditioned_moduli(r, caps_sq, u_mag):
    """`hole_estimators._conditioned_moduli` as it was: each clause formed, then copied in."""
    e_sq = np.empty(u_mag.shape)
    e_sq[..., 0] = _replaced_truncated_exp(u_mag[..., 0], lower=4.0 * r * r)
    e_sq[..., 1:] = _replaced_truncated_exp(u_mag[..., 1:], upper=caps_sq)
    return e_sq


def _replaced_unit_circle_scale(moduli, r, log_coeffs):
    """`_unit_circle_scale` as it was: h_n, M and the scaled moduli through temporaries."""
    t = np.arange(moduli.shape[1]) * math.log(r) + log_coeffs
    with np.errstate(divide="ignore"):
        top = np.max(np.log(moduli) + t, axis=1, keepdims=True)
    half = np.exp(0.5 * np.minimum(t - top, 745.0))
    size = moduli * half
    size *= half
    return half, top[:, 0], size


def _replaced_counts(moduli, form_rows, r, log_coeffs, tail_eps):
    """The kernel's counts on rows scaled as they were, from |phi_n| and form_rows(idx) = phi.

    The pass reads (m_n h_n) h_n of `_replaced_unit_circle_scale`, and the
    rows it leaves are formed as (phi_n h_n) h_n; the pass and the grid
    are the kernel's own.  A row either route refuses fails the test.
    """
    half, log_scale, size = _replaced_unit_circle_scale(moduli, r, log_coeffs)
    K = evaluate_zeros._set_slopes(evaluate_zeros._row_bounds(size, log_scale, tail_eps), size)
    points = evaluate_zeros._first_grid(size.shape[1])
    k = evaluate_zeros._dominant_terms(K, math.log2(points))
    turn = 2.0 * np.pi * k
    refused = np.zeros(len(k), dtype=bool)
    left = np.flatnonzero(k < 0)
    if len(left):
        D = form_rows(left) * half[left]
        D *= half[left]
        turn[left], refused[left] = evaluate_zeros._grid_turns(D, K[left], points)
    counts = np.rint(turn / (2.0 * np.pi))
    assert not refused.any() and np.all(np.abs(turn / (2.0 * np.pi) - counts) <= 1e-3)
    return counts.astype(np.int64)


@pytest.mark.parametrize("r, rows", [(1.0, 2000), (4.5, 300), (12.0, 300), (30.0, 20)],
                         ids=["gef-r1", "conditioned-r4.5", "conditioned-r12", "conditioned-r30"])
def test_in_place_moduli_and_scaling_keep_their_bits(gef, r, rows):
    # the squared moduli written in place over the uniforms equal those of
    # the inverse CDF they replaced bit for bit, and the rows formed from
    # them equal the draws sqrt(E) e^(2 pi i u) of the moduli they replaced;
    # at r = 30 the caps of the indices near the peak underflow to 0.  The
    # scaling is checked by its counts (`test_counts_equal_those_of_the_replaced_scaling`)
    if r == 1.0:
        degree = truncation_degree(gef, r, TAIL_EPS, 1e-6 / rows)
        law, replaced = gaussian_moduli, lambda u: -np.log1p(-u)
    else:
        degree = conditioned_degree(r)
        law = hole_estimators._row_law(r, degree, True)
        caps_sq = np.exp(hole_estimators._conditioned_caps_sq_log(r, degree))
        replaced = lambda u: _replaced_conditioned_moduli(r, caps_sq, u)  # noqa: E731
        assert (caps_sq == 0.0).any() == (r == 30.0)
    words = sampling._philox_words(sampling.sample_seeds(3, 0, rows), degree + 1)
    want = replaced(sampling.unit_floats(words[:, 0::2]))
    block = sampling.polar_keyed(law, sampling.sample_seeds(3, 0, rows), degree + 1)
    assert block.squares.tobytes() == want.tobytes()
    angle = sampling.unit_floats(words[:, 1::2]) * (2.0 * np.pi)
    phi = np.empty(want.shape, dtype=np.complex128)
    phi.real, phi.imag = np.sqrt(want) * np.cos(angle), np.sqrt(want) * np.sin(angle)
    assert block.rows().tobytes() == phi.tobytes()


def _complex_edge_rows(gef):
    """(rows, r, log_coeffs): the rows of the subnormal and 600-decade tests, at their radii."""
    poly = np.array([3.0, 5.0, -26.0, 8.0])
    tiny = np.zeros((4, 41), dtype=np.complex128)
    tiny[0, :4] = poly * 77 * 2.0**-1074
    tiny[1] = 1j * tiny[0]
    tiny[2, :4] = poly
    tiny[3, 5] = 2.0**-1074
    degree = 10_000
    t = gef.log_coeffs(degree) + np.arange(degree + 1) * math.log(60.0)
    wide = np.zeros((2, degree + 1), dtype=np.complex128)
    wide[:, 0], wide[:, -1], wide[0, int(np.argmax(t))] = 1.0, 1j, -1.0
    return ([(tiny, r, np.zeros(41)) for r in (0.3, 1.0, 4.0)]
            + [(wide, 60.0, gef.log_coeffs(degree))])


# (law, r, rows): GEF rows at the `zeros` degree, seed 11; conditioned rows at
# theirs; Steinhaus rows at the GEF degree
_SCALING_CASES = {f"gef-r{r:g}": ("gef", r, rows) for r, rows in
                  [(0.5, 20_000), (1.0, 5000), (2.0, 5000), (3.0, 2000), (6.0, 500),
                   (12.0, 200), (40.0, 20), (60.0, 4)]}
_SCALING_CASES.update({f"conditioned-r{r:g}": ("conditioned", r, rows)
                       for r, rows in [(4.5, 2000), (12.0, 300), (30.0, 20)]})
_SCALING_CASES["steinhaus-r1"] = ("steinhaus", 1.0, 2000)


@pytest.mark.parametrize("case", [*_SCALING_CASES, "complex-edge-rows"])
def test_counts_equal_those_of_the_replaced_scaling(gef, case):
    # one exponent per entry, exp(log|phi_n| + t_n - M), and rows formed
    # once at those moduli give every count of the replaced route: half
    # factors h_n, (m_n h_n) h_n for the pass and (phi_n h_n) h_n for the grid
    if case == "complex-edge-rows":
        for rows, r, log_coeffs in _complex_edge_rows(gef):
            got = winding_counts_batch(rows, r, log_coeffs=log_coeffs)
            want = _replaced_counts(np.abs(rows), rows.__getitem__, r, log_coeffs, 0.0)
            assert got.tolist() == want.tolist()
        return
    law, r, rows = _SCALING_CASES[case]
    if law == "conditioned":
        degree = conditioned_degree(r)
        moduli = hole_estimators._row_law(r, degree, True)
    else:
        degree = truncation_degree(gef, r, TAIL_EPS, 1e-9)
        moduli = gaussian_moduli if law == "gef" else np.ones_like
    log_coeffs = gef.log_coeffs(degree)
    block = polar_keyed(moduli, sample_seeds(11, 0, rows), degree + 1)
    got = evaluate_zeros.winding_counts_polar(block.log_moduli(), block.phased, r,
                                              log_coeffs=log_coeffs, tail_eps=TAIL_EPS)
    want = _replaced_counts(np.sqrt(block.squares), block.rows, r, log_coeffs, TAIL_EPS)
    assert got.tolist() == want.tolist()


def test_the_inverse_cdf_keeps_the_bits_of_the_replaced_formula():
    # edge uniforms, a signed zero among them, and caps from an underflowed 0
    # up, with and without `out`: every value equals the replaced formula's,
    # sign of zero included (-0.0 * -1 is +0.0, whose log1p 0.0 - +0.0 keeps)
    u = np.array([-0.0, 0.0, 2.0**-53, 0.25, 0.5, 1.0 - 2.0**-53])[:, None]
    caps = np.array([0.0, 5e-324, 1e-300, 1e-8, 1.0, 36.0, 700.0])
    for lower, upper in [(0.0, None), (0.0, caps), (16.0, None), (4.5, 4.5 + caps)]:
        want = _replaced_truncated_exp(u, lower=lower, upper=upper)
        got = truncated_exp_from_uniform(u, lower=lower, upper=upper)
        out = np.empty(np.broadcast(u, caps if upper is not None else 0.0).shape)
        into = truncated_exp_from_uniform(u, lower=lower, upper=upper, out=out)
        assert into is out
        assert got.tobytes() == want.tobytes() == out.tobytes()


@pytest.mark.parametrize("n, points", [(40, 64), (64, 64), (100, 64), (128, 64), (200, 64),
                                       (482, 256)])
@pytest.mark.parametrize("zeros", [False, True])
def test_column_fold_equals_the_padded_fold(n, points, zeros):
    rng = np.random.default_rng(n + points)
    D = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
    if zeros:
        # exact zeros of both signs, scattered and in whole columns, and a zero row
        D[rng.random(D.shape) < 0.3] = 0.0
        D[rng.random(D.shape) < 0.3] = complex(-0.0, -0.0)
        D[:, ::points // 4] = complex(-0.0, 0.0)
        D[:, 1::points // 4] = complex(0.0, -0.0)
        D[4] = complex(-0.0, -0.0)
    got = evaluate_zeros._circle_values(D, points)
    assert got.tobytes() == _padded_circle_values(D, points).tobytes()


def test_residual_check_rejects_overflowed_horner():
    # z^2 + 1 at z = 1e200 overflows to inf on the root and on its circle;
    # inf > 1e-8 * inf is False, so only an explicit finiteness test fails it
    with pytest.raises(evaluate_zeros.RootResidualError):
        evaluate_zeros._check_residuals(np.array([1, 0, 1], complex), np.array([1e200 + 0j]))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _polish_one(c, roots, iters=60):
    """Damped Newton on one row, the per-row polish the stacked oracle replaced."""
    dc = c[1:] * np.arange(1, len(c))
    p = _horner(c, roots)
    for _ in range(iters):
        dp = _horner(dc, roots)
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
            p_cand = _horner(c, cand)
            improve = todo & (np.abs(p_cand) < np.abs(p))
            roots = np.where(improve, cand, roots)
            p = np.where(improve, p_cand, p)
            advanced |= improve
        if not advanced.any():
            break
    return roots


def _per_row_roots(c):
    c = _strip_trailing(c, 0)
    return _polish_one(c, np.roots(c[::-1])) if len(c) > 1 else np.empty(0)


# Aberth roots against companion eigenvalues with a Newton polish, root by
# root; the four STACKS agree to within 6e-16
ROOT_REL = 1e-13


def _assert_same_roots(got, want):
    """got and want are one multiset: as many 0s, the rest paired one to one within ROOT_REL."""
    assert len(got) == len(want)
    assert np.count_nonzero(got == 0) == np.count_nonzero(want == 0)
    got, want = got[got != 0], want[want != 0]
    if not len(want):
        return
    gap = np.abs(got[:, None] - want[None, :])
    nearest = np.argmin(gap, axis=1)
    assert sorted(nearest.tolist()) == list(range(len(want)))
    assert np.all(gap[np.arange(len(got)), nearest] <= ROOT_REL * np.abs(want[nearest]))


def _assert_stack_matches_rows(c_rows):
    stacked = roots_rows(c_rows)
    assert len(stacked) == len(c_rows)
    for c, got in zip(c_rows, stacked):
        _assert_same_roots(got, _per_row_roots(c))


def _gef_stack(gef, r):
    degree = truncation_degree(gef, r, 1e-9, 1e-9)  # 21 and 54, as `zeros` uses
    return _gaussian_rows(degree, 1, 100) * np.exp(gef.log_coeffs(degree))


def _unimodular_stack(gef, dist, theta):
    return rotate_draw(draw_rows(dist, 5, 0, 8, 201), theta) * np.exp(gef.log_coeffs(200))


STACKS = [
    pytest.param(lambda gef: _gef_stack(gef, 1.0), id="gef-r1"),
    pytest.param(lambda gef: _gef_stack(gef, 3.0), id="gef-r3"),
    pytest.param(lambda gef: _unimodular_stack(gef, Distribution.RADEMACHER, 0.3),
                 id="rademacher-d200"),
    pytest.param(lambda gef: _unimodular_stack(gef, Distribution.STEINHAUS, 0.7),
                 id="steinhaus-d200"),
]


@pytest.mark.parametrize("r", [1.0, 3.0])
def test_stacked_roots_equal_per_row_roots_gef(gef, r):
    _assert_stack_matches_rows(_gef_stack(gef, r))


@pytest.mark.parametrize("dist, theta", [(Distribution.RADEMACHER, 0.3),
                                         (Distribution.STEINHAUS, 0.7)])
def test_stacked_roots_equal_per_row_roots_unimodular(gef, dist, theta):
    _assert_stack_matches_rows(_unimodular_stack(gef, dist, theta))


@pytest.mark.parametrize("stack", STACKS)
def test_pair_blocks_equal_the_whole_stack(gef, monkeypatch, stack):
    rows = stack(gef)
    whole = roots_rows(rows)
    for entries in (1, 3 * rows.shape[1] ** 2):  # one row per block, then three
        monkeypatch.setattr(evaluate_zeros, "_PAIR_ENTRIES", entries)
        for got, want in zip(roots_rows(rows), whole, strict=True):
            assert got.tobytes() == want.tobytes()


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _full_row_steps(P, R, Z):
    """Aberth steps of every approximation of rows Z, Horner broadcasting row coefficients."""
    m = Z.shape[1]
    inner = np.abs(Z) <= 1.0
    w = np.where(inner, Z, 1.0 / Z)
    size = np.abs(w)
    v = np.where(inner, P[:, m, None], R[:, m, None])
    dv = np.zeros_like(v)
    bound = np.abs(v)
    for k in range(m - 1, -1, -1):
        dv = dv * w + v
        v = v * w + np.where(inner, P[:, k, None], R[:, k, None])
        bound = bound * size + np.where(inner, np.abs(P[:, k, None]), np.abs(R[:, k, None]))
    ratio = dv / v
    sums = evaluate_zeros._pair_sums(Z, Z.real, Z.imag, np.broadcast_to(np.arange(m), Z.shape))
    step = 1.0 / (np.where(inner, ratio, w * (m - w * ratio)) - sums)
    step[v == 0] = 0
    return step, np.abs(v) <= evaluate_zeros._NOISE_ULPS * np.finfo(float).eps * bound


def _full_row_sweeps(P):
    """The Aberth iteration that steps every approximation of an active row and
    zeroes the steps of stopped ones; also the largest moving count of each sweep."""
    Z = evaluate_zeros._newton_polygon_starts(P)
    P, R = evaluate_zeros._unit_end(P), evaluate_zeros._unit_end(P[:, ::-1])
    last = np.full(Z.shape, np.inf)
    moving = np.ones(Z.shape, dtype=bool)
    active = np.arange(len(P))
    widths = []
    for _ in range(evaluate_zeros._ABERTH_SWEEPS):
        z, still = Z[active], moving[active]
        widths.append(int(still.sum(axis=1).max()))
        step, noisy = _full_row_steps(P[active], R[active], z)
        step[~still] = 0
        Z[active] = z - step
        length, before = np.abs(step), last[active]
        last[active] = np.where(still, length, before)
        stalled = noisy & (length > 0.5 * before)
        still &= ~(stalled | (length <= evaluate_zeros._STEP_REL * np.abs(z)))
        moving[active] = still
        active = active[still.any(axis=1)]
        if not len(active):
            break
    assert not len(active)
    return Z, widths


@pytest.mark.parametrize("stack", STACKS)
def test_moving_first_sweep_equals_the_full_row_sweep(gef, monkeypatch, stack):
    P = np.array([_strip_trailing(c, 0) for c in stack(gef)])
    assert np.all(P[:, 0] != 0)
    want, widths = _full_row_sweeps(P)
    seen = []
    steps = evaluate_zeros._aberth_steps

    def spy(table, moduli, active, z, X, Y, cols):
        seen.append(cols.shape[1])
        return steps(table, moduli, active, z, X, Y, cols)

    monkeypatch.setattr(evaluate_zeros, "_aberth_steps", spy)
    got = evaluate_zeros._aberth_roots(P, range(len(P)))
    assert got.tobytes() == want.tobytes()
    assert seen == widths  # each sweep is as wide as its most-moving active row
    assert min(widths) < P.shape[1] - 1


def test_pair_sums_keep_the_range_of_complex_reciprocals():
    # near 1e-160 |d|^2 underflows and near 1e160 it overflows; the sums still
    # agree with the complex 1/(z_i - z_j) to a few ulps of sum |1/(z_i - z_j)|
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9))
    Z[0] *= 1e-160
    Z[1] *= 1e160
    Z[2, :4] *= 1e-160  # both ends in one row
    Z[2, 4:] *= 1e160
    Z[3, 6] = Z[3, 2]  # exactly equal approximations: their pair is left out
    Z[4, 1] = Z[4, 7] = Z[4, 5] = Z[4, 5] * 1e-160
    with np.errstate(divide="ignore", invalid="ignore"):
        d = Z[:, :, None] - Z[:, None, :]
        terms = np.where(d == 0, 0, 1 / d)
    want = terms.sum(axis=2)
    for cols in (np.broadcast_to(np.arange(9), Z.shape), np.array([[8, 0, 3]] * 5)):
        got = evaluate_zeros._pair_sums(np.take_along_axis(Z, cols, 1), Z.real, Z.imag, cols)
        pick = np.take_along_axis(want, cols, 1)
        scale = np.take_along_axis(np.abs(terms).sum(axis=2), cols, 1)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - pick) <= 4 * np.finfo(float).eps * scale)
    for size in (1e-160, 1e160):  # coincidence is still judged in ulps of the modulus
        a = np.complex128(size * (1 + 1j))
        near = np.array([[a, 2 * a, np.nextafter(a.real, 0) + 1j * a.imag]])
        with pytest.raises(RootResidualError, match="coincide"):
            evaluate_zeros._check_distinct(near, [0])


@pytest.mark.parametrize("stack", STACKS)
def test_largest_term_bounds_the_circle_max_and_every_residual(gef, stack):
    C = stack(gef)
    roots = np.array(roots_rows(C))
    rho = np.abs(roots)
    circle = rho[..., None] * np.exp(2j * np.pi * np.arange(64) / 64)
    horner = np.max(np.abs(_horner(C, circle)), axis=-1)
    s = _per_root_log_largest_terms(C, roots)
    # Cauchy: every term |c_n| rho^n, so the largest, is at most max |p| on |z| = rho
    assert np.all(np.exp(s) <= horner)
    assert np.max(np.abs(_horner(C, roots)) / np.exp(s)) < 1e-11  # slack under 1e-8
    # the sum of the terms bounds max |p| from above, and the check above sees it
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.abs(C)[:, None, :] * rho[..., None] ** np.arange(C.shape[1]),
                              axis=-1))
    assert not np.all(np.exp(total) <= horner)


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


def test_unconverged_row_names_its_sample(gef, monkeypatch):
    # one sweep converges no row of this stack; the first row of the stack is refused
    rows = _gef_stack(gef, 1.0)[:5]
    monkeypatch.setattr(evaluate_zeros, "_ABERTH_SWEEPS", 1)
    with pytest.raises(RootResidualError, match=r"^sample 300: the Aberth iteration did not"):
        roots_rows(rows, first_index=300)
    rows[0] = 0
    rows[0, 0] = 3.0  # a constant has no roots to iterate on, so row 1 is refused
    with pytest.raises(RootResidualError, match=r"^sample 301: the Aberth iteration did not"):
        roots_rows(rows, first_index=300)


def test_coinciding_approximations_name_their_sample():
    z = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 2.0 * (1 + 2**-52)]], dtype=np.complex128)
    evaluate_zeros._check_distinct(z[:1], [40])
    with pytest.raises(RootResidualError, match=r"^sample 41: approximations .* coincide"):
        evaluate_zeros._check_distinct(z, [40, 41])


def test_duplicated_start_names_its_sample(gef, monkeypatch):
    # two equal starting points move alike and settle on one root together
    starts = evaluate_zeros._newton_polygon_starts

    def duplicate(P):
        Z = starts(P)
        Z[1, 4] = Z[1, 3]
        return Z

    monkeypatch.setattr(evaluate_zeros, "_newton_polygon_starts", duplicate)
    with pytest.raises(RootResidualError, match=r"^sample 71: approximations .* coincide"):
        roots_rows(_gef_stack(gef, 1.0)[:3], first_index=70)


@pytest.mark.parametrize("seed, sample", [(1, 0), (6, 3)])
def test_starts_lie_on_newton_polygon_circles(seed, sample):
    # edge a..b of the upper hull of (k, log|p_k|) gives b - a starts of modulus
    # (|p_a| / |p_b|)^(1/(b - a)); checked against a hull from scratch
    p = _gaussian_rows(40, seed, sample + 1)[sample] * np.exp(-0.5 * np.arange(41))
    p[[7, 19]] = 0
    y = np.log(np.abs(p), where=p != 0, out=np.full(41, -np.inf))
    hull = [0]
    for k in np.flatnonzero(p != 0)[1:]:
        while len(hull) > 1 and ((y[hull[-1]] - y[hull[-2]]) * (k - hull[-2])
                                 <= (y[k] - y[hull[-2]]) * (hull[-1] - hull[-2])):
            hull.pop()
        hull.append(k)
    want = np.concatenate([np.full(b - a, math.exp((y[a] - y[b]) / (b - a)))
                           for a, b in zip(hull, hull[1:])])
    got = np.abs(evaluate_zeros._newton_polygon_starts(p[None, :])[0])
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_verify_counts_names_the_failing_sample(gef):
    degree = 21
    phi = _gaussian_rows(degree, 4, 30)
    counts = winding_counts_batch(phi, 1.0, log_coeffs=gef.log_coeffs(degree))
    verify_counts(phi, gef, 1.0, counts, first_index=500)
    counts[17] += 1
    with pytest.raises(ZeroCountError, match=r"^sample 517: .*root oracle"):
        verify_counts(phi, gef, 1.0, counts, first_index=500)


def test_verify_counts_drops_a_constant_term_below_the_band_floor(gef):
    # p(w) = c + w^2 at r = 1 (phi_2 = sqrt 2 against a_2 = 2^-1/2): c =
    # 8.99 2^-1022 was refused by name, below (N+1)^2 2^-1022.  It lies below
    # e^-60 of the largest term, so the oracle drops it, and the roots +-i
    # sqrt(c), of modulus about 1e-154, count as two roots at 0.  So does
    # the root near -c of c + w + w^2 / sqrt 2 with c = 10 2^-1022, on which
    # the iteration overflowed: its first step was already NaN
    tiny = np.finfo(float).tiny
    rows = np.array([[1.0, 0.0, 1.0], [8.99 * tiny, 0.0, math.sqrt(2.0)],
                     [10 * tiny, 1.0, 1.0]], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verify_counts(rows, gef, 1.0, [0, 2, 1])
    with pytest.raises(ZeroCountError, match=r"^sample 8: argument principle \(1\) disagrees "
                       r"with root oracle \(2\)"):
        verify_counts(rows, gef, 1.0, [0, 1, 1], first_index=7)


def _oracle_rows(monkeypatch, phi, model, r):
    """The rows `verify_counts` hands to the root oracle, which a stub stands in for."""
    solved = []

    def stacks(rows, first_index=0):
        solved.append(rows.copy())
        return [(np.arange(len(rows)), np.full((len(rows), 1), 2.0 + 0j))]

    monkeypatch.setattr(evaluate_zeros, "_root_stacks", stacks)
    verify_counts(phi, model, r, np.zeros(len(phi), dtype=np.int64))
    return solved[0]


def test_verify_counts_hands_the_band_of_the_rows_at_r36_to_the_oracle(gef, monkeypatch):
    # at the `zeros` degree 3768 for r = 36 the constant terms of p(r w)
    # e^(-M) are near 1e-281: the oracle keeps only zeros and entries within
    # e^60 of the largest, 1, and each row starts with dropped terms, which
    # become roots at 0; the stub stands in for the roots
    phi = draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 0, 2, 3769)
    rows = _oracle_rows(monkeypatch, phi, gef, 36.0)
    size = np.abs(rows)
    assert np.all((size == 0) | (size >= math.exp(-60.0)))
    assert np.all(size[:, 0] == 0)
    np.testing.assert_allclose(np.max(size, axis=1), 1.0, rtol=1e-12)
    kept = size > 0
    assert np.array_equal(rows[kept], evaluate_zeros._disk_rows(phi, gef, 36.0)[kept])


@pytest.mark.parametrize("r", [0.5, 1.0, 3.0, 6.0])
def test_verify_counts_drops_no_entry_at_small_radii(gef, monkeypatch, r):
    # 2000 rows at the `zeros` degree: their smallest entries lie near e^-26
    # at r = 0.5 to e^-44 at r = 6, so the oracle solves the rows whole
    # (GEF rows first lose entries at r = 9)
    degree = truncation_degree(gef, r, TAIL_EPS, 1e-6 / 2000)
    phi = draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 0, 2000, degree + 1)
    rows = _oracle_rows(monkeypatch, phi, gef, r)
    assert np.array_equal(rows, evaluate_zeros._disk_rows(phi, gef, r))
    assert np.all(rows != 0)


def test_residual_failure_names_the_sample():
    c = np.array([[1, 0, 1], [1, 0, 1]], complex)
    roots = np.array([[1j, -1j], [1j, 1e200 + 0j]])
    with pytest.raises(RootResidualError, match=r"^sample 41: "):
        evaluate_zeros._check_residuals(c, roots, [40, 41])


def test_far_roots_of_a_high_degree_row_verify(gef):
    # sample 4 of `zeros --r 12 --degree 280 --seed 1`: Horner in z overflowed
    # at its root 174.5+57.6j, which is now checked in 1/z
    degree = 280
    phi = draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 4, 5, degree + 1)
    counts = winding_counts_batch(phi, 12.0, log_coeffs=gef.log_coeffs(degree), tail_eps=0.0,
                                  first_index=4)
    verify_counts(phi, gef, 12.0, counts, first_index=4)
    C = _strip_trailing(evaluate_zeros._disk_rows(phi, gef, 1.0)[0], 4)
    roots = roots_rows(C[None, :])[0]
    far = int(np.argmax(np.abs(roots)))
    assert abs(roots[far]) > 150.0
    roots[far] *= 1 + 1e-6  # a planted bad far root is still refused
    with pytest.raises(RootResidualError, match=r"^sample 4: root .*of its largest term on its route"):
        evaluate_zeros._check_residuals(C, roots, [4])


def test_counts_at_r_16_verify(gef):
    # sample 0 of `zeros --r 16 --seed 1`: rows formed from a_n in linear scale
    # lost every term past n ~ 294, some within e^-1.4 of the largest, and the
    # oracle found 256 zeros; rows of p(16 w) in log scale keep all 769 terms
    degree = 768
    phi = draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 0, 1, degree + 1)
    counts = winding_counts_batch(phi, 16.0, log_coeffs=gef.log_coeffs(degree), tail_eps=1e-9)
    assert counts.tolist() == [257]
    verify_counts(phi, gef, 16.0, counts)


@pytest.mark.parametrize("block", [2**12, 2**20])
def test_unit_circle_pass_is_independent_of_the_block_size(gef, monkeypatch, block):
    # the whole kernel: first and doubled grids, arc bisection, chunks, workers
    degree = truncation_degree(gef, 2.0, 1e-9, 1e-9)
    phi = _gaussian_rows(degree, 8, 600)

    def kernel(rows):
        return winding_counts_batch(rows, 2.0, log_coeffs=gef.log_coeffs(degree), tail_eps=1e-9)

    want = kernel(phi)
    hole = hole_mc(gef, 2.0, 4500, 8, workers=1)
    seen = _spy_on_paths(monkeypatch)
    monkeypatch.setattr(evaluate_zeros, "_BLOCK_VALUES", block)
    assert np.array_equal(kernel(phi), want)
    assert max(seen["grids"]) > min(seen["grids"])  # some rows took a doubled grid
    assert 0 < len(seen["bisected"]) < len(phi)  # and some bisected arcs
    chunks = np.concatenate([kernel(phi[lo: lo + 37]) for lo in range(0, len(phi), 37)])
    assert np.array_equal(chunks, want)
    assert hole_mc(gef, 2.0, 4500, 8, workers=2) == hole


# ---------------------------------------------------------------------------
# the root oracle against the arithmetic it replaced, bit for bit: a
# monotone-chain hull, a bound summed for every approximation in the Horner
# loop, pair sums read from strided complex planes, per-row stripping and
# grouping, and one circle maximum per gathered coefficient row


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _chain_starts(P):
    """Newton-polygon starts and each row's vertex mask, the hull built by a
    monotone chain one column at a time."""
    rows, n = P.shape
    y = np.log(np.abs(P))
    every = np.arange(rows)
    hull = np.zeros((rows, n), dtype=np.intp)
    top = np.zeros(rows, dtype=np.intp)
    for k in range(1, n):
        live = np.isfinite(y[:, k])
        while True:  # drop the last vertex b while it lies on or below the chord from a to k
            b = hull[every, top]
            a = hull[every, np.maximum(top - 1, 0)]
            ya = y[every, a]
            pop = live & (top > 0) & ((y[every, b] - ya) * (k - a) <= (y[:, k] - ya) * (b - a))
            if not pop.any():
                break
            top -= pop
        top += live
        hull[every[live], top[live]] = k
    col = np.arange(n)
    vertex = np.zeros((rows, n), dtype=bool)
    vertex[every.repeat(top + 1), hull[col <= top[:, None]]] = True
    a = np.maximum.accumulate(np.where(vertex, col, 0), axis=1)[:, :-1]
    b = np.minimum.accumulate(np.where(vertex, col, n)[:, ::-1], axis=1)[:, -2::-1]
    radius = np.exp((np.take_along_axis(y, a, 1) - np.take_along_axis(y, b, 1)) / (b - a))
    angle = 2.0 * math.pi * (col[:-1] - a + 0.5) / (b - a) + evaluate_zeros._GOLDEN_ANGLE * a
    return radius * np.exp(1j * angle), vertex


@np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore")
def _strided_pair_sums(Z, cols):
    """sum_j 1/(z_i - z_j) from the real and imaginary views of complex Z, every
    block checked for |d|^2 out of the normal range at both ends."""
    S = np.empty(cols.shape, dtype=np.complex128)
    step = max(1, evaluate_zeros._PAIR_ENTRIES // (cols.shape[1] * Z.shape[1]))
    tiny = np.finfo(float).tiny
    for lo in range(0, len(Z), step):
        row, k = Z[lo: lo + step], cols[lo: lo + step]
        z = np.take_along_axis(row, k, 1)[:, :, None]
        row = row[:, None, :]
        dx = z.real - row.real
        dy = z.imag - row.imag
        q = dx * dx + dy * dy
        np.put_along_axis(q, k[:, :, None], 1.0, 2)
        if not q.min() >= tiny or q.max() == np.inf:
            odd = ~(q >= tiny) | (q == np.inf)
            d = dx[odd].astype(np.complex128)
            d.imag = dy[odd]
            d[d == 0] = np.inf
            d = 1.0 / d
            dx[odd], dy[odd], q[odd] = d.real, -d.imag, 1.0
        S.real[lo: lo + step] = (dx / q).sum(axis=2)
        S.imag[lo: lo + step] = -(dy / q).sum(axis=2)
    return S


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _eager_steps(P, R, Z, cols):
    """Aberth steps with the rounding bound summed for every approximation in
    the Horner loop, and whether each value is at the rounding level."""
    m = Z.shape[1]
    z = np.take_along_axis(Z, cols, 1)
    inner = np.abs(z) <= 1.0
    w = np.where(inner, z, 1.0 / z)
    size = np.abs(w)
    coeffs = np.empty((m + 1, len(P), 2), dtype=np.complex128)
    coeffs[:, :, 0], coeffs[:, :, 1] = R.T, P.T
    coeffs = coeffs.reshape(m + 1, -1)
    sizes = np.abs(coeffs)
    pick = 2 * np.arange(len(z))[:, None] + inner
    v = coeffs[m].take(pick)
    dv = np.zeros_like(v)
    bound = sizes[m].take(pick)
    for k in range(m - 1, -1, -1):  # in place: numpy may round a complex product
        dv *= w                      # written to a new array differently
        dv += v
        v *= w
        v += coeffs[k].take(pick)
        bound *= size
        bound += sizes[k].take(pick)
    ratio = dv / v
    step = 1.0 / (np.where(inner, ratio, w * (m - w * ratio)) - _strided_pair_sums(Z, cols))
    step[v == 0] = 0
    return step, np.abs(v) <= evaluate_zeros._NOISE_ULPS * np.finfo(float).eps * bound


def _reference_aberth(P):
    """The Aberth iteration on chain starts and eager steps; also which
    approximations stopped by the noise test."""
    Z = _chain_starts(P)[0]
    P, R = evaluate_zeros._unit_end(P), evaluate_zeros._unit_end(P[:, ::-1])
    last = np.full(Z.shape, np.inf)
    moving = np.ones(Z.shape, dtype=bool)
    noise = np.zeros(Z.shape, dtype=bool)
    active = np.arange(len(P))
    for _ in range(evaluate_zeros._ABERTH_SWEEPS):
        rows, flags = active[:, None], moving[active]
        cols = np.argsort(~flags, axis=1, kind="stable")[:, : int(flags.sum(axis=1).max())]
        z, still, before = Z[rows, cols], moving[rows, cols], last[rows, cols]
        step, noisy = _eager_steps(P[active], R[active], Z[active], cols)
        step[~still] = 0
        Z[rows, cols] = z - step
        length = np.abs(step)
        last[rows, cols] = np.where(still, length, before)
        stalled = noisy & (length > 0.5 * before)
        noise[rows, cols] |= stalled
        still &= ~(stalled | (length <= evaluate_zeros._STEP_REL * np.abs(z)))
        moving[rows, cols] = still
        active = active[still.any(axis=1)]
        if not len(active):
            break
    assert not len(active)
    return Z, noise


def _reference_stacks(C):
    """(rows, stripped length, nonzero part P) of each stack, rows stripped and
    grouped one by one."""
    stripped = []
    for c in C:
        keep = np.abs(c) >= evaluate_zeros._STRIP_REL * np.max(np.abs(c))
        stripped.append(c[: np.flatnonzero(keep)[-1] + 1])
    groups = {}
    for i, c in enumerate(stripped):
        groups.setdefault((len(c), int(np.flatnonzero(c)[0])), []).append(i)
    return [(idx, n, np.array([stripped[i][lead:] for i in idx]))
            for (n, lead), idx in groups.items()]


def _reference_roots_rows(C):
    out = [np.empty(0, dtype=np.complex128)] * len(C)
    for idx, n, P in _reference_stacks(C):
        roots = np.zeros((len(idx), n - 1), dtype=np.complex128)
        if P.shape[1] > 1:
            roots[:, : P.shape[1] - 1] = _reference_aberth(P)[0]
        for k, i in enumerate(idx):
            out[i] = roots[k]
    return out


def _same_bits(got, want):
    return len(got) == len(want) and all(
        a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))
        for a, b in zip(got, want))


def _zero_coefficient_rows(gef):
    rows = _gaussian_rows(29, 3, 12) * np.exp(gef.log_coeffs(29))
    rows[2, 25:] = 0  # shorter rows, zero constant terms, both, and interior zeros
    rows[5, 20:] = 0
    rows[7, :2] = 0
    rows[9, 0] = 0
    rows[9, 26:] = 0
    rows[3, [4, 11, 12]] = 0
    rows[10, 1:28] = 0
    return rows


def _collinear_rows():
    return (draw_rows(Distribution.RADEMACHER, 9, 0, 4, 61)
            * np.array([1, 1j, -1, -1j])[np.arange(61) % 4])


def _all_ones_stack(gef):
    rows = _unimodular_stack(gef, Distribution.RADEMACHER, 0.3)
    rows[3] = all_ones_draw(200) * np.exp(gef.log_coeffs(200))
    return rows


EQUIVALENCE_STACKS = [
    pytest.param(lambda gef: _gef_stack(gef, 1.0), id="gef-r1"),
    pytest.param(lambda gef: _gef_stack(gef, 3.0), id="gef-r3"),
    pytest.param(lambda gef: _gef_stack(gef, 12.0), id="gef-r12"),
    pytest.param(_all_ones_stack, id="rademacher-d200-all-ones"),
    pytest.param(_zero_coefficient_rows, id="zero-coefficients"),
    # |p_k| = 1 exactly for every k: all hull points collinear, one circle of 60 starts
    pytest.param(lambda gef: _collinear_rows(), id="collinear"),
]


@pytest.mark.parametrize("split", [False, True])  # the default blocks, then 3 points of a row per block
@pytest.mark.parametrize("stack", EQUIVALENCE_STACKS)
def test_hull_vertices_and_starts_equal_the_monotone_chain(gef, monkeypatch, stack, split):
    for _, _, P in _reference_stacks(stack(gef)):
        if P.shape[1] < 2:
            continue
        if split:
            monkeypatch.setattr(evaluate_zeros, "_BLOCK_VALUES", 3 * P.shape[1])
        for part in (P, P[:1]):  # the stack, and its first row alone
            want, vertex = _chain_starts(part)
            with np.errstate(divide="ignore"):
                assert np.array_equal(evaluate_zeros._hull_vertices(np.log(np.abs(part))), vertex)
            assert _same_bits([evaluate_zeros._newton_polygon_starts(part)], [want])


def test_collinear_points_are_not_vertices():
    rows = _collinear_rows()
    assert np.all(np.abs(rows) == 1)
    assert _chain_starts(rows)[1].sum(axis=1).tolist() == [2] * 4  # only the two ends
    with np.errstate(divide="ignore"):
        assert evaluate_zeros._hull_vertices(np.log(np.abs(rows))).sum(axis=1).tolist() == [2] * 4


@pytest.mark.parametrize("stack", EQUIVALENCE_STACKS)
def test_roots_equal_the_replaced_iteration(gef, stack):
    C = stack(gef)
    assert _same_bits(roots_rows(C), _reference_roots_rows(C))
    for i in range(2):  # 1-row stacks
        assert _same_bits(roots_rows(C[i: i + 1]), _reference_roots_rows(C[i: i + 1]))


def test_all_ones_outer_roots_still_stop_by_the_noise_test(gef, monkeypatch):
    P = (all_ones_draw(200) * np.exp(gef.log_coeffs(200)))[None, :]
    want, noise = _reference_aberth(P)
    outer = np.abs(want[0]) > np.median(np.abs(want[0]))
    assert noise[0, outer].mean() > 0.9  # 96 of the 100 outer roots, and 100 of the inner
    stops = []
    level = evaluate_zeros._Values.at_rounding_level

    def spy(self, which):
        stopped = level(self, which)
        stops.append(int(stopped.sum()))
        return stopped

    monkeypatch.setattr(evaluate_zeros._Values, "at_rounding_level", spy)
    assert _same_bits(evaluate_zeros._aberth_roots(P, [0]), want)
    assert sum(stops) == noise.sum()  # each stops by the noise test where it did


def test_a_root_planted_at_zero_is_refused():
    # the term n = 0 is |c_0| at a root at 0, so a tiny c_0 cannot pass 0 off as a root
    C, roots = np.array([[1e-9, 1.0]], complex), np.array([[0j]])
    assert evaluate_zeros._residuals(C, roots)[0, 0] == 1.0  # |c_0| / L: so L = |c_0|
    with pytest.raises(RootResidualError, match=r"^sample 0: root .*residual 1\.000e\+00"):
        evaluate_zeros._check_residuals(C, roots)


def test_a_root_where_the_log_derivative_overflows_converges():
    # p(w) = c + w + w^2 / sqrt 2 with c = 10 2^-1022, its roots near -c and
    # -sqrt 2: scaled by `_unit_end`, p'/p overflows at the root near -c, so
    # the first step was NaN and the row was refused after 200 sweeps; the
    # step is now p/p', the limit of the Aberth step, there
    c = 10 * 2.0**-1022
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (roots,) = roots_rows(np.array([[c, 1.0, 2.0**-0.5]], dtype=np.complex128))
    small, large = sorted(roots, key=abs)
    assert abs(small + c) <= 1e-15 * c
    assert abs(large + math.sqrt(2.0)) <= 1e-15 * math.sqrt(2.0)


def _per_root_log_largest_terms(C, roots):
    """The log of each root's largest term, with its row's coefficients gathered on their own."""
    row = np.repeat(np.arange(len(C)), roots.shape[1])
    log_c = np.log(np.abs(C[row]))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = log_c + np.arange(C.shape[1]) * np.log(np.abs(roots)).reshape(-1, 1)
    t[:, 0] = log_c[:, 0]
    s = np.max(t, axis=1)
    s[~np.isfinite(s)] = 0.0
    return s.reshape(roots.shape)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _log_scale_residuals(C, roots, far):
    """The residuals as the check formed them in log scale: Horner in z on C
    for roots not `far`, else in 1/z on the reversed row scaled by `_unit_end`,
    moved back to z by that scale's exponent and m log|z*|, in units of e^s."""
    e = np.frexp(np.abs(C[:, -1:]))[1]  # the reversed row was scaled by 2^-e
    table = evaluate_zeros._route_table(C, evaluate_zeros._unit_end(C[:, ::-1]))
    pick = 2 * np.arange(len(C))[:, None] + ~far
    v, _ = evaluate_zeros._gathered_horner(table, pick, np.where(far, 1.0 / roots, roots))
    log_v = np.log(np.abs(v))
    log_p = np.where(far, (C.shape[1] - 1) * np.log(np.abs(roots)) + e * math.log(2.0) + log_v,
                     log_v)
    return np.exp(log_p - _per_root_log_largest_terms(C, roots))


def _banded_r40_rows(gef):
    """Four `zeros --r 40` rows cut to the band that `verify_counts` hands the oracle."""
    degree = truncation_degree(gef, 40.0, TAIL_EPS, 1e-6 / 4)
    rows = evaluate_zeros._disk_rows(draw_rows(Distribution.COMPLEX_GAUSSIAN, 1, 0, 4, degree + 1),
                                     gef, 40.0)
    rows[np.abs(rows) < evaluate_zeros._BAND_FLOOR] = 0.0
    return rows


def _flipped_routes(z, rows):
    """`_route_points` with the roots z* of 0.5 < |z*| < 2 on the other route,
    where |z*|^m stays within 2^+-512 (m roots a row), so no term overflows."""
    size = np.abs(z)
    flip = (0.5 < size) & (size < 2.0) & (z.shape[1] * np.abs(np.log2(size)) < 512)
    inner = (size <= 1.0) ^ flip
    return inner, np.where(inner, z, 1.0 / z), 2 * rows[:, None] + inner


@pytest.mark.parametrize("flip", [False, True], ids=["own-route", "other-route"])
@pytest.mark.parametrize("stack", [*STACKS, pytest.param(_banded_r40_rows, id="gef-r40-banded")])
def test_residuals_equal_the_log_scale_formula(gef, monkeypatch, stack, flip):
    # |v| / L in the route variable is |p(z*)| over p's largest term at |z*|,
    # as the log-scale formula had it, on either route: with `flip`, roots
    # of 0.5 < |z*| < 2 take the other route in both
    checked = []
    check = evaluate_zeros._check_residuals

    def spy(C, roots, samples=None):
        checked.append((C, roots))
        check(C, roots, samples)

    monkeypatch.setattr(evaluate_zeros, "_check_residuals", spy)
    roots_rows(stack(gef))
    route = _flipped_routes if flip else evaluate_zeros._route_points
    monkeypatch.setattr(evaluate_zeros, "_route_points", route)
    flips = 0
    for C, roots in checked:
        inner = route(roots, np.arange(len(C)))[0]
        flips += np.count_nonzero(inner != (np.abs(roots) <= 1.0))
        got, want = evaluate_zeros._residuals(C, roots), _log_scale_residuals(C, roots, ~inner)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.array_equal(got <= evaluate_zeros._RESIDUAL_REL,
                              want <= evaluate_zeros._RESIDUAL_REL)
    assert checked and (flips > 0) == flip
