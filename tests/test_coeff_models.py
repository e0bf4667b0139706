import math

import mpmath as mp
import numpy as np
import pytest

from holelab import CoefficientModel, peak_index_range, s_asymptotic, s_of_r, s_of_r_detail
from holelab import coeff_models
from holelab.coeff_models import QUARTIC_LAW_CONST, ModelKind, expected_zero_count, log_gamma

mp.mp.dps = 30

# frozen via arbitrary-precision direct summation over n = 0..8
S_AT_2 = 13.74712930157730483


def _brute_force_s(r, log_a):
    """Independent oracle: scan and sum in mpmath precision."""
    total = mp.mpf(0)
    n = 0
    prev = None
    while True:
        t = n * mp.log(r) + log_a(n)
        if t >= 0:
            total += t
        if prev is not None and t < prev and t < -5:
            return 2 * total
        prev = t
        n += 1


def test_log_coeff_examples(gef, ml1):
    assert gef.log_coeffs(0)[0] == 0.0
    assert gef.log_coeffs(2)[2] == pytest.approx(-0.5 * math.log(2), abs=1e-15)
    assert ml1.log_coeffs(3)[3] == pytest.approx(-math.log(6), rel=1e-14)


def test_log_coeff_matches_loggamma_high_precision(gef):
    for n in (1, 7, 10, 100, 5000):
        exact = float(-mp.mpf(0.5) * mp.loggamma(n + 1))
        assert gef.log_coeffs(n)[n] == pytest.approx(exact, rel=1e-13)


def _max_scaled_error(values, exact) -> float:
    """Largest |value - exact| / max(1, |exact|)."""
    exact = np.array([float(x) for x in exact])
    return float(np.max(np.abs(values - exact) / np.maximum(1.0, np.abs(exact))))


def test_log_gamma_helper_matches_mpmath():
    # every n up to 300, then a geometric sample of indices out to 2e5
    n = np.unique(np.concatenate([np.arange(301), np.geomspace(301, 2e5, 400).astype(int)]))
    gef = CoefficientModel.gef().log_coeffs(int(n[-1]))[n]
    assert _max_scaled_error(gef, [-mp.loggamma(int(k) + 1) / 2 for k in n]) <= 1e-14
    half = CoefficientModel.mittag_leffler(0.5).log_coeffs(int(n[-1]))[n]
    assert _max_scaled_error(half, [-mp.loggamma(mp.mpf(int(k)) / 2 + 1) for k in n]) <= 1e-14
    x = np.array([[0.5, 1.0, 1.5], [2.0, 10.25, 1e5]])
    assert log_gamma(x).shape == x.shape
    assert _max_scaled_error(log_gamma(x).ravel(), [mp.loggamma(v) for v in x.ravel()]) <= 1e-14


def test_cache_append_only(ml1):
    model = CoefficientModel.mittag_leffler(0.7)
    first = model.log_coeffs(10).copy()
    model.log_coeffs(5000)
    assert np.array_equal(model.log_coeffs(10), first)


def _fresh_table(log_a: np.ndarray) -> bytes:
    """log a_n computed directly, with log a_0 stored as +0.0 as the table does."""
    log_a = log_a.copy()
    log_a[0] = 0.0  # -0.5 * lgamma(1.0) is -0.0
    return log_a.tobytes()


def test_second_gef_reads_the_shared_table(monkeypatch):
    n = 5000
    CoefficientModel.gef().log_coeffs(n)
    calls = []

    def spy(x):
        calls.append(x)
        return log_gamma(x)

    monkeypatch.setattr(coeff_models, "log_gamma", spy)
    again = CoefficientModel.gef().log_coeffs(n)
    assert calls == []
    assert again.tobytes() == _fresh_table(-0.5 * log_gamma(np.arange(n + 1) + 1.0))


def test_mittag_leffler_tables_stay_apart():
    n = np.arange(301.0)
    half = CoefficientModel.mittag_leffler(0.5).log_coeffs(300)
    seven = CoefficientModel.mittag_leffler(0.7).log_coeffs(300)
    assert half.tobytes() == _fresh_table(-log_gamma(0.5 * n + 1.0))
    assert seven.tobytes() == _fresh_table(-log_gamma(0.7 * n + 1.0))


def test_view_survives_another_instance_extending_the_table():
    view = CoefficientModel.mittag_leffler(0.3).log_coeffs(10)
    before = view.tobytes()
    longer = CoefficientModel.mittag_leffler(0.3).log_coeffs(20_000)
    assert view.tobytes() == before
    assert longer[:11].tobytes() == before


def test_cache_view_is_read_only(gef):
    view = gef.log_coeffs(10)
    with pytest.raises(ValueError):
        view[0] = 1.0


def test_invalid_alpha_rejected():
    with pytest.raises(ValueError):
        CoefficientModel.mittag_leffler(0.0)


def test_s_of_r_trivial_and_frozen(gef):
    assert s_of_r(gef, 1.0) == 0.0
    detail = s_of_r_detail(gef, 1.0)
    assert (detail.last_index, detail.term_count) == (1, 2)
    assert s_of_r(gef, 2.0) == pytest.approx(S_AT_2, rel=1e-12)
    assert s_of_r_detail(gef, 2.0).last_index == 8


def test_s_of_r_against_brute_force(gef, ml1):
    for r in (0.5, 1.3, 2.0, 5.0, 10.0):
        oracle = float(_brute_force_s(r, lambda n: -mp.mpf(0.5) * mp.loggamma(n + 1)))
        got = s_of_r(gef, r)
        assert got == pytest.approx(oracle, rel=1e-10, abs=1e-12)
    for r in (1.5, 4.0):
        oracle = float(_brute_force_s(r, lambda n: -mp.loggamma(n + 1)))
        assert s_of_r(ml1, r) == pytest.approx(oracle, rel=1e-10)


def test_s_asymptotic_values(gef, ml1):
    assert s_asymptotic(gef, 1.0) == pytest.approx(QUARTIC_LAW_CONST, rel=1e-15)
    assert QUARTIC_LAW_CONST == pytest.approx(0.75 * math.e**2, abs=0.0)
    assert s_asymptotic(ml1, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert s_asymptotic(gef, 10.0) == pytest.approx(QUARTIC_LAW_CONST * 1e4, rel=1e-15)


def test_error_ratio_reported_and_monotone(gef):
    # |S/S_asymptotic - 1| must decrease across r = 20, 40, 80; the fitted
    # K = err * r^2 / log r is reported for the record's sake
    errs = []
    for r in (20.0, 40.0, 80.0):
        err = abs(s_of_r(gef, r) / s_asymptotic(gef, r) - 1.0)
        errs.append(err)
        print(f"r={r}: err={err:.6f} K={err * r * r / math.log(r):.3f}")
    assert errs[0] > errs[1] > errs[2]


def test_unimodality_on_grid(gef):
    for r in np.arange(1.0, 20.01, 0.1):
        lo, hi = peak_index_range(gef, float(r))
        n_max = int(math.e * r * r) + 16
        t = gef.log_coeffs(n_max) + np.arange(n_max + 1) * math.log(r)
        before = t[: lo + 1]
        after = t[hi:]
        assert np.all(np.diff(before) >= -1e-12)
        assert np.all(np.diff(after) <= 1e-12)


def test_stirling_sandwich(gef):
    n = np.arange(1, 10_001, dtype=np.float64)
    log_a = np.asarray(gef.log_coeffs(10_000))[1:]
    upper = 0.5 * n * (1.0 - np.log(n))
    lower = upper - 0.5 * np.log(3.0 * n)
    assert np.all(log_a <= upper + 1e-12)
    assert np.all(log_a >= lower - 1e-12)


def test_mid_range_bound(gef):
    for r in range(2, 11):
        m = int(math.floor(math.e * r * r))
        n = np.arange(1, m + 1, dtype=np.float64)
        t = np.asarray(gef.log_coeffs(m))[1:] + n * math.log(r)
        assert np.all(t >= -math.log(3.0 * r) - 1e-12)


def test_peak_index_range_examples(gef):
    assert peak_index_range(gef, 2.0) == (3, 4)
    assert peak_index_range(gef, 1.0) == (0, 1)
    assert peak_index_range(gef, 2.5) == (6, 6)


def test_peak_range_brackets_scan_argmax(gef):
    for r in (1.7, 3.3, 6.1):
        lo, hi = peak_index_range(gef, r)
        n_max = int(math.e * r * r) + 16
        t = gef.log_coeffs(n_max) + np.arange(n_max + 1) * math.log(r)
        assert lo <= int(np.argmax(t)) <= hi


def test_peak_index_range_mittag_leffler_scan(ml1):
    lo, hi = peak_index_range(ml1, 4.0)
    # a_n r^n = r^n / n! peaks around n ~ r
    assert {3, 4} & set(range(lo, hi + 1))


def test_tail_log_bound_examples(gef):
    # -(n - e r^2)/2 bounds log(a_n r^n) for n >= e r^2
    assert gef.log_coeffs(3)[3] <= -(3 - math.e) / 2
    t22 = gef.log_coeffs(22)[22] + 22 * math.log(2.0)
    assert t22 <= -(22 - 4 * math.e) / 2


def test_tail_log_bound_dominates(gef):
    for r in (1.0, 2.0, 3.0):
        start = int(math.ceil(math.e * r * r))
        for n in range(start, start + 200):
            t = gef.log_coeffs(n)[n] + n * math.log(r)
            assert t <= -(n - math.e * r * r) / 2 + 1e-12


@pytest.mark.parametrize("alpha, r", [(0.5, 2.0), (2.0, 2.0), (1.0, 3.0), (0.25, 1.5), (3.0, 0.1)])
def test_expected_zero_count_matches_mpmath_sum(alpha, r):
    # E N(r) = sum n a_n^2 r^(2n) / sum a_n^2 r^(2n), a_n = 1/Gamma(alpha n + 1)
    weight = lambda n: mp.mpf(r) ** (2 * n) / mp.gamma(alpha * n + 1) ** 2
    exact = mp.nsum(lambda n: n * weight(n), [0, mp.inf]) / mp.nsum(weight, [0, mp.inf])
    model = CoefficientModel.mittag_leffler(alpha)
    assert expected_zero_count(model, r) == pytest.approx(float(exact), rel=1e-12)


def test_expected_zero_count_gef_is_r_squared(gef):
    for r in (0.3, 1.0, 3.0, 12.0):
        assert expected_zero_count(gef, r) == r ** 2
    with pytest.raises(ValueError):
        expected_zero_count(gef, 0.0)


def test_s_of_r_rejects_nonpositive_radius(gef):
    with pytest.raises(ValueError):
        s_of_r(gef, 0.0)
    with pytest.raises(ValueError):
        s_of_r(gef, -1.0)


def test_peak_range_requires_r_at_least_one(gef):
    with pytest.raises(ValueError):
        peak_index_range(gef, 0.5)
