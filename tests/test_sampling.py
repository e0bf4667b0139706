import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from holelab import (
    CoefficientModel,
    Distribution,
    draw_coeffs,
    draw_rows,
    sample_seed,
    sample_seeds,
    truncation_degree,
    truncation_tail_bound,
)
from holelab import sampling
from holelab.sampling import truncated_exp_from_uniform, uniform_pairs


def test_rademacher_support():
    draw = draw_coeffs(Distribution.RADEMACHER, 8, 1234)
    assert set(draw.real.tolist()) <= {-1.0, 1.0}
    assert np.all(draw.imag == 0.0)


def test_steinhaus_unit_modulus():
    draw = draw_coeffs(Distribution.STEINHAUS, 1000, 99)
    assert np.max(np.abs(np.abs(draw) - 1.0)) <= 1e-15


def test_gaussian_second_moment():
    draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 10**5, 2024)
    m2 = float(np.mean(np.abs(draw) ** 2))
    assert abs(m2 - 1.0) <= 3.0 / math.sqrt(10**5)


def test_gaussian_tail_identity():
    # P(|phi| >= 1) = exp(-1) for the unit complex Gaussian
    draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 10**5, 31)
    p_hat = float(np.mean(np.abs(draw) >= 1.0))
    p = math.exp(-1.0)
    sigma = math.sqrt(p * (1.0 - p) / 10**5)
    assert abs(p_hat - p) <= 3.0 * sigma


def test_gaussian_modulus_squared_is_exponential():
    draw = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 10**5, 7)
    stat = scipy.stats.kstest(np.abs(draw) ** 2, "expon").statistic
    crit_99 = 1.6276 / math.sqrt(10**5)
    assert stat < crit_99


def test_steinhaus_phase_uniform():
    draw = draw_coeffs(Distribution.STEINHAUS, 10**5, 5150)
    assert abs(np.mean(draw)) <= 3.0 / math.sqrt(10**5) * (1 / math.sqrt(2)) * 2


def test_regeneration_bit_identical():
    for dist in Distribution:
        a = draw_coeffs(dist, 64, 8675309)
        b = draw_coeffs(dist, 64, 8675309)
        assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_extension_property(seed, short):
    for dist in Distribution:
        long = draw_coeffs(dist, short + 25, seed)
        assert np.array_equal(long[:short], draw_coeffs(dist, short, seed))


def test_distinct_seeds_distinct_streams():
    a = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 16, 1)
    b = draw_coeffs(Distribution.COMPLEX_GAUSSIAN, 16, 2)
    assert not np.array_equal(a, b)


def test_sample_seed_deterministic_and_spread():
    assert sample_seed(5, 17) == sample_seed(5, 17)
    seeds = {sample_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_uniform_pairs_range():
    u0, u1 = uniform_pairs(99, 10_000)
    for u in (u0, u1):
        assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_unit_floats_equal_the_uint64_route():
    # 0, 2^64 - 1 and the words around 2^63 and the 53-bit boundary, then 10^6 random words
    edges = np.array([0, 1, 2**11 - 1, 2**11, 2**53, 2**63 - 1, 2**63, 2**64 - 2**11,
                      2**64 - 1], dtype=np.uint64)
    words = np.concatenate([edges, np.random.Philox(key=5).random_raw(10**6)])
    got = sampling.unit_floats(words)
    want = (words >> np.uint64(11)) * 2.0**-53
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    assert got[0] == 0.0 and got[8] == 1.0 - 2.0**-53


def test_count_validation():
    with pytest.raises(ValueError):
        draw_coeffs(Distribution.RADEMACHER, 0, 1)


# ---------------------------------------------------------------------------
# batched rows against per-sample numpy objects (the oracle)

ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -12345]


def _oracle_seed(master_seed, i):
    ss = np.random.SeedSequence((master_seed & (2**64 - 1), i))
    return int(ss.generate_state(1, np.uint64)[0])


def _oracle_pairs(key, count):
    words = np.random.Philox(key=key).random_raw(2 * count)
    u = (words >> np.uint64(11)) * 2.0**-53
    return u[0::2], u[1::2]


def _oracle_values(dist, key, count):
    u_mag, u_phase = _oracle_pairs(key, count)
    if dist is Distribution.COMPLEX_GAUSSIAN:
        return np.sqrt(-np.log1p(-u_mag)) * np.exp(2j * np.pi * u_phase)
    if dist is Distribution.RADEMACHER:
        return np.where(u_mag < 0.5, 1.0, -1.0).astype(np.complex128)
    return np.exp(2j * np.pi * u_phase)


def _uniform_rows(master_seed, start, stop, count):
    """(u_mag, u_phase) of samples start..stop-1: the identity law's moduli and phase uniforms."""
    block = sampling.polar_keyed(np.asarray, sample_seeds(master_seed, start, stop), count)
    return block.squares, sampling.unit_floats(block.phase_words)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("master_seed", ORACLE_SEEDS)
@pytest.mark.parametrize("start, stop", [(0, 40), (1000, 1037), (2**32 - 3, 2**32)])
def test_sample_seeds_match_seed_sequence(master_seed, start, stop):
    got = sample_seeds(master_seed, start, stop)
    assert got.dtype == np.uint64
    expected = [_oracle_seed(master_seed, i) for i in range(start, stop)]
    assert got.tolist() == expected
    assert [sample_seed(master_seed, i) for i in range(start, stop)] == expected


@given(st.integers(min_value=-(2**63), max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_seed_hash_property(master_seed, i):
    expected = _oracle_seed(master_seed, i)
    assert sample_seed(master_seed, i) == expected
    assert int(sample_seeds(master_seed, i, i + 1)[0]) == expected
    u_mag, u_phase = _uniform_rows(master_seed, i, i + 1, 3)
    o_mag, o_phase = _oracle_pairs(expected, 3)
    assert _same_bits(u_mag[0], o_mag) and _same_bits(u_phase[0], o_phase)


@pytest.mark.parametrize("master_seed", ORACLE_SEEDS)
@pytest.mark.parametrize("start, count", [(0, 1), (0, 22), (517, 1), (517, 300)])
def test_uniform_and_draw_rows_match_per_sample_objects(master_seed, start, count):
    stop = start + 6
    u_mag, u_phase = _uniform_rows(master_seed, start, stop, count)
    assert u_mag.shape == u_phase.shape == (6, count)
    rows = {dist: draw_rows(dist, master_seed, start, stop, count) for dist in Distribution}
    for k in range(6):
        key = _oracle_seed(master_seed, start + k)
        o_mag, o_phase = _oracle_pairs(key, count)
        assert _same_bits(np.ascontiguousarray(u_mag[k]), o_mag)
        assert _same_bits(np.ascontiguousarray(u_phase[k]), o_phase)
        for dist in Distribution:
            expected = _oracle_values(dist, key, count)
            assert _same_bits(rows[dist][k], expected)
            assert _same_bits(draw_coeffs(dist, count, key), expected)


def test_rows_straddling_a_generation_block_concatenate():
    count = 1000
    per_block = 2**16 // count  # rows in 2^16 values, the block size of a Monte Carlo job
    split = per_block + 3
    for dist in Distribution:
        whole = draw_rows(dist, 77, 5, 5 + 2 * per_block + 1, count)
        parts = np.concatenate([draw_rows(dist, 77, 5, 5 + split, count),
                                draw_rows(dist, 77, 5 + split, 5 + 2 * per_block + 1, count)])
        assert _same_bits(whole, parts)
        for k in (per_block - 1, per_block, 2 * per_block):
            assert _same_bits(whole[k], _oracle_values(dist, _oracle_seed(77, 5 + k), count))


def test_row_ranges_are_validated():
    with pytest.raises(ValueError):
        sample_seeds(1, 2**32 - 1, 2**32 + 1)
    with pytest.raises(ValueError):
        sample_seed(1, 2**32)
    with pytest.raises(ValueError):
        draw_rows(Distribution.STEINHAUS, 1, 2**32, 2**32 + 2, 4)
    with pytest.raises(ValueError):
        draw_rows(Distribution.STEINHAUS, 1, 5, 3, 4)
    with pytest.raises(ValueError):
        draw_rows(Distribution.STEINHAUS, 1, 0, 3, 0)
    assert draw_rows(Distribution.STEINHAUS, 1, 2**32, 2**32, 4).shape == (0, 4)


# ---------------------------------------------------------------------------
# truncated exponential inverse CDF


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.floats(min_value=1e-300, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_truncated_exp_upper_bound_respected(u, cap):
    val = float(truncated_exp_from_uniform(u, upper=cap))
    assert 0.0 <= val <= cap


@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_truncated_exp_lower_bound_respected(u, lower):
    assert float(truncated_exp_from_uniform(u, lower=lower)) >= lower


def test_truncated_exp_matches_conditional_law():
    # empirical CDF of draws conditioned to [0, 1] vs the exact conditional CDF
    u = uniform_pairs(4242, 10**5)[0]
    vals = truncated_exp_from_uniform(u, upper=1.0)
    q = -math.expm1(-1.0)
    cdf = lambda x: -np.expm1(-x) / q
    stat = scipy.stats.kstest(vals, cdf).statistic
    assert stat < 1.6276 / math.sqrt(10**5)


# ---------------------------------------------------------------------------
# truncation degree


def test_truncation_degree_monotone_in_radius(gef):
    n2 = truncation_degree(gef, 2.0, 1e-9, 1e-9)
    n3 = truncation_degree(gef, 3.0, 1e-9, 1e-9)
    assert n2 <= n3


def test_truncation_degree_floor(gef):
    for r in (0.05, 1.0, 2.0):
        n = truncation_degree(gef, r, 1e-6, 1e-6)
        assert n >= math.floor(math.e * r * r) + 1


def test_truncation_certificate_verified(gef):
    degree = truncation_degree(gef, 1.0, 1e-9, 1e-9)
    assert degree >= 3
    assert truncation_tail_bound(gef, 1.0, 1e-9, degree) <= 1e-9


def test_truncation_degree_minimal(gef):
    degree = truncation_degree(gef, 1.5, 1e-9, 1e-9)
    floor = math.floor(math.e * 1.5**2) + 1
    if degree > floor:
        assert truncation_tail_bound(gef, 1.5, 1e-9, degree - 1) > 1e-9


def _linear_truncation_degree(model, r, eps, fail_prob):
    """The scan by ones the doubling search replaced: the reference it must match."""
    degree = math.floor(math.e * r * r) + 1
    while truncation_tail_bound(model, r, eps, degree) > fail_prob:
        degree += 1
    return degree


@pytest.mark.parametrize("alpha", [None, 0.5, 1.5])  # None: the GEF
def test_truncation_degree_search_equals_the_linear_scan(gef, alpha):
    # 3 models x 5 radii x 4 (eps, fail_prob): the scan takes up to 467 calls
    # (alpha 0.5, r = 12), the search about 2 log2 of that
    model = gef if alpha is None else CoefficientModel.mittag_leffler(alpha)
    for r in (0.5, 1.0, 3.0, 6.0, 12.0):
        for eps, fail_prob in ((1e-9, 1e-9), (1e-6, 1e-6), (1e-9, 1e-6 / 2000), (1e-3, 1e-2)):
            want = _linear_truncation_degree(model, r, eps, fail_prob)
            assert truncation_degree(model, r, eps, fail_prob) == want, (alpha, r, eps, fail_prob)


def test_truncation_degree_validation(gef):
    with pytest.raises(ValueError):
        truncation_degree(gef, 1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        truncation_degree(gef, 1.0, 0.5, 1.5)
