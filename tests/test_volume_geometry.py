import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from holelab import VolumeQuery, volume_exact, volume_mc
from holelab import volume_geometry
from holelab.volume_geometry import log_integral_annotation, volume_exact_log, volume_upper_bound_log

# frozen oracle values (hit-or-miss MC at 1e7 points and mpmath closed form)
V_2_2_1 = 2.386294361119891   # = 1 + ln 4
V_3_E2_1 = 25.0               # = 1 + 6 + 18
V_4_2_HALF = 8.704706079939971


def test_exact_branch_examples():
    assert volume_exact(VolumeQuery(1, 2.0, 5.0)) == pytest.approx(2.0, rel=1e-14)
    assert volume_exact(VolumeQuery(1, 2.0, 1.0)) == pytest.approx(1.0, rel=1e-14)
    assert volume_exact(VolumeQuery(2, 2.0, 1.0)) == pytest.approx(V_2_2_1, rel=1e-12)
    assert volume_exact(VolumeQuery(3, math.e**2, 1.0)) == pytest.approx(V_3_E2_1, rel=1e-12)
    assert volume_exact(VolumeQuery(4, 2.0, 0.5)) == pytest.approx(V_4_2_HALF, rel=1e-12)


def test_upper_bound_example_and_hypothesis():
    q = VolumeQuery(3, math.e**2, 1.0)
    assert math.exp(volume_upper_bound_log(q)) == pytest.approx(108.0, rel=1e-12)
    assert volume_exact(q) <= math.exp(volume_upper_bound_log(q))
    with pytest.raises(ValueError):
        math.exp(volume_upper_bound_log(VolumeQuery(2, 2.0, 3.0)))  # log(4/3) < 2


def test_exact_below_bound_wherever_hypothesis_holds():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 50:
        k = int(rng.integers(1, 12))
        t = float(rng.uniform(0.5, 20.0))
        s = float(rng.uniform(1e-6, 5.0))
        q = VolumeQuery(k, t, s)
        if k * math.log(t) - math.log(s) < k:
            continue
        assert volume_exact_log(q) <= volume_upper_bound_log(q) + 1e-12
        checked += 1


def test_recurrence_consistency_via_quadrature():
    # V_k(t,s) = s + integral_{s/t^(k-1)}^{t} V_{k-1}(t, s/x) dx for s < t^k
    for k, t, s in [(2, 2.0, 1.0), (3, 2.0, 1.0), (4, 1.5, 0.7), (4, 3.0, 2.5)]:
        inner = lambda x: volume_exact(VolumeQuery(k - 1, t, s / x))
        integral, err = scipy.integrate.quad(inner, s / t ** (k - 1), t, limit=200)
        direct = volume_exact(VolumeQuery(k, t, s))
        assert direct == pytest.approx(s + integral, rel=1e-6)


def test_log_scale_survives_large_dimension():
    # k ~ floor(e r^2) at r = 20; the linear volume overflows but its log is fine
    q = VolumeQuery(1087, math.e**2, 1.0)
    log_v = volume_exact_log(q)
    assert math.isfinite(log_v)
    # s <= V <= t^k for s <= t^k
    assert 0.0 <= log_v <= 1087 * 2.0
    assert log_v >= volume_exact_log(VolumeQuery(1087, math.e**2, 0.5))


@given(st.integers(1, 6),
       st.floats(0.2, 8.0),
       st.floats(0.01, 10.0),
       st.floats(1.01, 2.0))
@settings(max_examples=120, deadline=None)
def test_monotone_in_s_and_t(k, t, s, factor):
    base = volume_exact_log(VolumeQuery(k, t, s))
    assert volume_exact_log(VolumeQuery(k, t, s * factor)) >= base - 1e-12
    assert volume_exact_log(VolumeQuery(k, t * factor, s)) >= base - 1e-12


def test_mc_whole_cube_when_s_exceeds_box():
    res = volume_mc(VolumeQuery(3, 1.5, 4.0), 2000, 17)
    assert res.hits == 2000
    assert res.estimate == pytest.approx(1.5**3, rel=1e-14)


def test_mc_agrees_with_exact():
    cases = [(2, 2.0, 1.0), (4, 2.0, 0.5), (3, 1.2, 0.3), (5, 1.5, 2.0)]
    for k, t, s in cases:
        q = VolumeQuery(k, t, s)
        res = volume_mc(q, 200_000, 11)
        assert abs(res.estimate - volume_exact(q)) <= 3.5 * res.stderr


def test_mc_reproducible_and_chunk_invariant():
    q = VolumeQuery(3, 2.0, 1.0)
    a = volume_mc(q, 300_000, 23)
    b = volume_mc(q, 300_000, 23)
    assert a == b


def _hits_one_draw_per_chunk(q, samples, seed):
    """volume_mc's tally with each chunk's words drawn at once.

    Chunk k holds samples k 2^18 .. (k+1) 2^18 - 1 (fewer in the last) and
    keys its stream with (seed, k), written out here rather than taken from
    the module, so a change to the keying shows.
    """
    ratio = q.s * q.t ** (-q.k)
    hits = 0
    for index, lo in enumerate(range(0, samples, 1 << 18)):
        size = min(1 << 18, samples - lo)
        bits = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
        words = bits.random_raw(size * q.k)
        u = ((words >> np.uint64(11)) * 2.0**-53).reshape(size, q.k)
        hits += int(np.count_nonzero(np.prod(u, axis=1) <= ratio))
    return hits


def test_mc_hits_of_four_keyed_chunks_are_frozen():
    # 10^6 samples: three full 2^18-sample chunks and one of 213 568, whose
    # streams are keyed by (seed, chunk index); the record of `volume --k 2
    # --t 2 --s 1 --mc-samples 1000000 --seed 3`
    q = VolumeQuery(2, 2.0, 1.0)
    assert volume_mc(q, 10**6, 3).hits == _hits_one_draw_per_chunk(q, 10**6, 3) == 596356


@pytest.mark.parametrize("block", [1000, 12345, 1 << 20])
def test_mc_hits_do_not_depend_on_the_block_size(monkeypatch, block):
    # 300 000 samples span two chunks; blocks of 1000 and 12345 split each one unevenly
    q = VolumeQuery(3, 2.0, 1.0)
    want = _hits_one_draw_per_chunk(q, 300_000, 23)
    assert volume_mc(q, 300_000, 23).hits == want
    monkeypatch.setattr(volume_geometry, "_MC_BLOCK", block)
    assert volume_mc(q, 300_000, 23).hits == want


@pytest.mark.parametrize("k", range(1, 9))
def test_mc_products_equal_np_prod(k):
    # the running product multiplies left to right, as np.prod does; each s is one
    # of the products itself (t = 1), so a product one ulp off changes the hits
    samples = 40_000  # one chunk, several blocks
    words = np.random.Philox(key=np.array([5, 0], dtype=np.uint64)).random_raw(samples * k)
    prods = np.prod(((words >> np.uint64(11)) * 2.0**-53).reshape(samples, k), axis=1)
    for s in np.sort(prods)[samples // 16:: samples // 8]:
        q = VolumeQuery(k, 1.0, float(s))
        assert volume_mc(q, samples, 5).hits == np.count_nonzero(prods <= s)


def test_mc_dimension_limit():
    with pytest.raises(ValueError):
        volume_mc(VolumeQuery(9, 1.0, 0.5), 100, 1)


def test_query_validation():
    with pytest.raises(ValueError):
        VolumeQuery(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        VolumeQuery(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        VolumeQuery(2, 1.0, 0.0)


def test_annotation_record():
    rec = log_integral_annotation(20.0)
    assert rec["n_points"] == 1087
    assert rec["delta"] == pytest.approx(20.0 ** -0.8, rel=1e-15)
    assert rec["hypothesis_ok"]
    assert rec["log_integral_bound"] > rec["log_s"]
    # the bound scales like the reference once divided by a (log r + 1/delta^2) r^2 unit
    assert rec["log_integral_bound"] / rec["reference_scale"] < 10.0


def test_annotation_against_mp_reference():
    rec = log_integral_annotation(10.0, big_c=1.0)
    n = rec["n_points"]
    L = n * rec["log_t"] - rec["log_s"]
    expect = rec["log_s"] - float(mp.loggamma(n)) + n * math.log(L)
    assert rec["log_volume_bound"] == pytest.approx(expect, rel=1e-12)
