import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.stats
from scipy.special import gammaln

from holelab import (
    Distribution,
    annulus_escape,
    forced_zero_experiment,
    hermite_coeffs,
    saddle_point_log_approx,
)
from holelab.evaluate_zeros import RootResidualError
from holelab.hermite_asymptotics import all_ones_draw, log_g, saddle_deviation

mp.mp.dps = 30


def _convolution_g(beta, nmax):
    """Oracle: Cauchy product of the exp(z^2/2) and exp(beta z) series."""
    beta = mp.mpc(beta)
    out = []
    for n in range(nmax + 1):
        acc = mp.mpc(0)
        for m in range(n // 2 + 1):
            acc += beta ** (n - 2 * m) / (2**m * mp.factorial(m) * mp.factorial(n - 2 * m))
        out.append(complex(acc))
    return out


def test_first_coefficients():
    series = hermite_coeffs(1.3 + 0.4j, 4)
    beta = 1.3 + 0.4j
    assert series.scaled[0] == 1.0
    assert series.scaled[1] == beta
    assert series.scaled[2] == pytest.approx((beta**2 + 1) / math.sqrt(2), rel=1e-14)
    # g_2 = (beta^2 + 1)/2
    assert cmath.exp(log_g(series, 2)) == pytest.approx((beta**2 + 1) / 2, rel=1e-13)


def test_recurrence_step_identity():
    # h_{n+1} = beta h_n / sqrt(n+1) + h_{n-1} sqrt(n/(n+1)) at every step
    beta = 0.8 - 1.1j
    h = hermite_coeffs(beta, 400).scaled
    for n in range(1, 400):
        lhs = h[n + 1]
        rhs = beta * h[n] / math.sqrt(n + 1) + h[n - 1] * math.sqrt(n / (n + 1))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_recurrence_matches_convolution_oracle():
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 20:
        beta = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(beta) > 3 or beta == 0:
            continue
        series = hermite_coeffs(beta, 50)
        oracle = _convolution_g(beta, 50)
        for n in range(51):
            g_n = series.scaled[n] * math.exp(-0.5 * float(gammaln(n + 1)))
            assert abs(g_n - oracle[n]) <= 1e-10 * max(1e-30, abs(oracle[n]))
        checked += 1


def test_nmax_validation():
    with pytest.raises(ValueError):
        hermite_coeffs(1.0, 1)


def test_stirling_identity_trend():
    # log sqrt(n!) - [1/4 log(2 pi n) + (n/2) log(n/e)] decays like 1/n
    def gap(n):
        return float(0.5 * gammaln(n + 1.0)) - (0.25 * math.log(2 * math.pi * n) + 0.5 * n * (math.log(n) - 1))

    assert gap(10**4) <= 1e-5
    assert gap(10**4) / gap(2 * 10**4) == pytest.approx(2.0, rel=0.01)


def test_saddle_symmetry_even_n():
    for n in (100, 1000):
        plus = saddle_point_log_approx(2.0, n)
        minus = saddle_point_log_approx(-2.0, n)
        assert cmath.exp(plus - minus) == pytest.approx(1.0, rel=1e-12)


def test_saddle_point_linear_value_small_n():
    # at n small enough to stay in double range the linear value matches mpmath
    beta = 1.0
    n = 40
    direct = complex(
        mp.sqrt(1 / (4 * mp.pi)) * mp.exp(mp.mpf(n) / 2 - mp.mpf(beta) ** 2 / 4)
        / mp.mpf(n) ** (mp.mpf(n) / 2)
        * (mp.exp(beta * mp.sqrt(n)) + (-1) ** n * mp.exp(-beta * mp.sqrt(n)))
    )
    assert cmath.exp(saddle_point_log_approx(beta, n)) == pytest.approx(direct, rel=1e-12)


def test_saddle_validation():
    with pytest.raises(ValueError):
        saddle_point_log_approx(0.0, 100)
    with pytest.raises(ValueError):
        saddle_point_log_approx(1.0, 8)


def test_saddle_deviation_decays():
    series = hermite_coeffs(1.0, 4 * 10**4)
    d1 = saddle_deviation(1.0, 10**4, series)
    d4 = saddle_deviation(1.0, 4 * 10**4, series)
    assert d1 <= 0.05
    assert d4 <= 0.6 * d1


def test_growth_law_scaled_ratio():
    # |h_n| * n^(1/4) / e^(sqrt n) converges for beta = 1 (the saddle constant
    # times (2 pi)^(1/4)); relative variation over [1e4, 4e4] stays below 10%
    series = hermite_coeffs(1.0, 4 * 10**4)
    ns = np.arange(10**4, 4 * 10**4 + 1, 1000)
    ratios = np.abs(series.scaled[ns]) * ns**0.25 / np.exp(np.sqrt(ns))
    assert (ratios.max() - ratios.min()) / ratios.mean() <= 0.10
    expect = (2 * math.pi) ** 0.25 / math.sqrt(4 * math.pi) * math.exp(-0.25)
    assert ratios.mean() == pytest.approx(expect, rel=0.05)


def test_annulus_escape_examples():
    assert annulus_escape(0.0, 0.5, 2.0, 100) == 1  # h_1 = 0 < c1
    esc = annulus_escape(1.0, 0.5, 2.0, 10**5)
    assert esc is not None and esc == 4  # h_4 = 0.8165 + 1.2247 > 2
    assert annulus_escape(1.0, 1e-6, 1e12, 50) is None


def _hermite_reference(beta, nmax):
    """The recurrence as one loop over whole-range coefficient arrays."""
    h = np.empty(nmax + 1, dtype=np.complex128)
    h[0], h[1] = 1.0, beta
    inv_sqrt = 1.0 / np.sqrt(np.arange(1.0, nmax + 1.0))
    ratio = np.sqrt(np.arange(1.0, nmax + 1.0) / np.arange(2.0, nmax + 2.0))
    for n in range(1, nmax):
        h[n + 1] = beta * h[n] * inv_sqrt[n] + h[n - 1] * ratio[n - 1]
    return h


@pytest.mark.parametrize("beta", [1.0, 0.3 + 0.7j, -2.0])
def test_hermite_coeffs_equal_the_one_loop_recurrence_bit_for_bit(beta):
    assert np.array_equal(hermite_coeffs(beta, 5000).scaled, _hermite_reference(complex(beta), 5000))


def _escape_by_full_scan(beta, c1, c2, nmax):
    """Reference: the first index of the whole series h_0..h_nmax outside [c1, c2]."""
    mags = np.abs(_hermite_reference(complex(beta), max(nmax, 2))[: nmax + 1])
    outside = np.flatnonzero((mags < c1) | (mags > c2))
    return int(outside[0]) if outside.size else None


def test_annulus_escape_stops_early_with_the_full_scan_answer():
    # an early escape, inside the first block of the recurrence
    assert annulus_escape(1.0, 0.5, 2.0, 10**5) == _escape_by_full_scan(1.0, 0.5, 2.0, 10**5) == 4
    # no escape: every block is run and checked
    assert _escape_by_full_scan(1.0, 1e-6, 1e40, 5000) is None
    assert annulus_escape(1.0, 1e-6, 1e40, 5000) is None
    # the first escape lies past the first block; nmax on it finds it, one less does not
    first = _escape_by_full_scan(1.0, 0.5, 1e20, 10**4)
    assert first is not None and first > 2048  # third block
    assert annulus_escape(1.0, 0.5, 1e20, first) == first
    assert annulus_escape(1.0, 0.5, 1e20, first - 1) is None
    for nmax in (0, 1, 2, 3):
        assert annulus_escape(0.3, 0.5, 2.0, nmax) == _escape_by_full_scan(0.3, 0.5, 2.0, nmax)


def test_annulus_escape_monotone_in_band():
    wide = annulus_escape(1.0, 0.5, 4.0, 10**4)
    narrow = annulus_escape(1.0, 0.5, 2.0, 10**4)
    assert narrow <= wide


def test_annulus_escape_validation():
    with pytest.raises(ValueError):
        annulus_escape(1.0, 0.0, 1.0, 10)
    with pytest.raises(ValueError):
        annulus_escape(1.0, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        annulus_escape(1.0, 0.5, 2.0, -1)


def test_forced_zero_record_and_all_ones_sample(gef):
    rec = forced_zero_experiment(Distribution.RADEMACHER, 30, 200, 3)
    assert rec["all_finite"]
    assert rec["max"] >= rec["q90"] >= rec["q75"] >= rec["q50"] >= rec["q25"] >= rec["min"] > 0
    assert rec["samples"] == 30 and rec["degree"] == 200
    # sample 0 is the all-ones draw with its frozen minimum modulus
    from holelab import TruncatedSeries, min_zero_modulus
    assert rec["max"] >= min_zero_modulus(TruncatedSeries(all_ones_draw(200), gef)) - 1e-9


def test_forced_zero_rotation_invariance_ks():
    # Steinhaus min-modulus law is rotation invariant: a rotated independent
    # rerun must pass a two-sample KS test at the 99% level
    # the raw samples of both runs for the KS statistic
    from holelab.hermite_asymptotics import _forced_zero_job
    xs = _forced_zero_job(Distribution.STEINHAUS, 80, 21, 0.0, range(0, 60))
    ys = _forced_zero_job(Distribution.STEINHAUS, 80, 22, 0.7, range(0, 60))
    assert scipy.stats.ks_2samp(xs, ys).pvalue > 0.01


def test_forced_zero_rotated_record_frozen():
    # two jobs of 35 rows (at most 64 each, nearly equal) cover the all-ones
    # row 0 and whole rotated blocks; frozen values of rows built and
    # rotated one at a time, from companion-matrix eigenvalues, with a
    # tolerance only for the last bits in which the Aberth roots differ
    # from those
    rec = forced_zero_experiment(Distribution.STEINHAUS, 70, 80, 22, rotate=0.7)
    assert rec == pytest.approx({
        "dist": "steinhaus", "samples": 70, "degree": 80, "seed": 22,
        "min": 0.6202516739146962, "max": 3.6140172786517826,
        "mean": 0.8224494176297401, "q25": 0.6856071204350134,
        "q50": 0.7658248707518095, "q75": 0.8736675783543391,
        "q90": 0.9385673241579926, "all_finite": True,
    }, rel=1e-12)


def test_forced_zero_oracle_failure_names_the_sample(monkeypatch):
    # sample 57's roots are spoiled before the residual check, which refuses
    # them and says which sample it was
    from holelab import evaluate_zeros

    check = evaluate_zeros._check_residuals

    def spoil_57(C, roots, samples):
        roots = roots.copy()
        roots[samples.index(57), 0] += 0.5
        check(C, roots, samples)

    monkeypatch.setattr(evaluate_zeros, "_check_residuals", spoil_57)
    with pytest.raises(RootResidualError, match=r"^sample 57: "):
        forced_zero_experiment(Distribution.RADEMACHER, 58, 200, 6)


@pytest.mark.parametrize("seed", [4, 6])
def test_forced_zero_seeds_the_companion_oracle_refused(seed):
    # the companion-matrix oracle refused sample 45 of seed 4 and sample 57 of seed 6
    rec = forced_zero_experiment(Distribution.RADEMACHER, 100, 200, seed)
    quantiles = [rec[k] for k in ("min", "q25", "q50", "q75", "q90", "max")]
    assert all(math.isfinite(q) for q in quantiles)
    assert quantiles == sorted(quantiles) and quantiles[0] > 0


def test_forced_zero_validation():
    with pytest.raises(ValueError):
        forced_zero_experiment(Distribution.COMPLEX_GAUSSIAN, 10, 200, 1)
    with pytest.raises(ValueError):
        forced_zero_experiment(Distribution.RADEMACHER, 10, 30, 1)
