"""Certified zero counting of truncated series in disks.

A draw is a plain complex array phi_0..phi_N; `TruncatedSeries` pairs it
with a coefficient model.  Counting uses two fully independent routes which
cross-verify each other:

  * the argument principle, certified arc by arc.  Every count, one series
    (`count_zeros_disk`, `count_for_coeffs`) or a batch of rows, goes
    through `winding_counts_polar`: every Monte Carlo job (`hole`,
    `conditioned`, `zeros`) calls it on rows in polar form, and
    `winding_counts_batch`, for the one-row functions, on complex rows.
    Each row is rescaled to
    q(w) = sum d_n w^n = p(r w) e^(-M) and evaluated by FFT on the unit
    circle.  A grid point w certifies the two half arcs of length s next
    to it when

        |q(w)| > min(L s, |w q'(w)| s + M2 s^2 / 2) + rho + tau,

    with L = sum n |d_n| and M2 = sum n (n-1) |d_n| bounding |q'| and |q''|
    on the closed disk, rho the rounding bound of the computed values and
    tau the truncation tail in the row's scaled units.  On an arc
    certified from both ends |q| > tau, and each half turns the argument
    by less than pi/2, so the principal angle of q(w_b) / q(w_a) is the
    arc's exact increment.  Since the discarded tail is below tau there,
    Rouche's theorem makes the count one of f itself, holding with the
    probability the truncation certificate gives (the caller's tail_eps;
    0 counts the polynomial).  Before any circle is evaluated, a
    dominant-term pass counts the rows in which one term outweighs all
    the others: when

        |d_k| > sum_{n != k} |d_n| + rho + tau,

    then on |w| = 1, |q(w) - d_k w^k| <= sum_{n != k} |d_n| < |d_k| - tau,
    so q plus any tail below tau has no zero on the circle and, by
    Rouche's theorem, exactly the k zeros of d_k w^k inside it (Pellet's
    test in its simplest form).  The test is about moduli alone, true for
    every choice of phases, so the pass reads nothing else.  A row comes
    as its moduli m_n = |phi_n| and, on request, its complex entries
    (`winding_counts_polar`).  M and the factors h_n come from the moduli
    once (`_unit_circle_scale`); the pass reads a_n = (m_n h_n) h_n, the
    largest a_k, its index k and l1 = sum a_n from `_row_bounds`, and
    tests a_k > (l1 - a_k) + rho + tau, rho and tau those of the first
    grid.  Only the rows it leaves are formed, as d_n = (phi_n h_n) h_n
    with the same h_n, and go on to the grid.  rho covers the rounding of
    that test, in units of u = 2^-53.  The m_n need not be the moduli of
    the entries formed: a sampler forms phi_n = (m_n cos x_n, m_n sin x_n),
    and with cos and sin within one ulp (2u) |phi_n| = m_n (1 +- 3u);
    `winding_counts_batch` takes m_n = |phi_n| rounded, within 2u.  a_n
    (two rounded products) lies within 2u of m_n h_n^2, and |d_n| (two
    products, each part rounded) within 2u of |phi_n| h_n^2, so a_n errs
    from |d_n| by at most 7u of itself.  a_k enters both sides of the
    test, so these errors move a_k - (l1 - a_k) by at most 7u l1.  np.sum
    adds a row by numpy's pairwise summation (8 accumulators of at most
    16 terms, at most 7 terms more, one addition per halving past 128
    terms), so each term meets at most 26 + log2(N+1) roundings; where the
    test can pass, a_k >= l1 / 2, so l1 - a_k is exact (Sterbenz); the two
    additions add 2u.  In all the test errs by less than (35 + log2(N+1))
    u l1, and rho = 1e-15 log2(P) S, with P >= 64 and P >= (N+1)/2 the
    first grid's points and S >= l1, is at least 9 max(6, log2(N+1) - 1)
    u l1, more than that for every N.  On the rows the tests sample, the
    gap | |phi_n| - m_n | stays below 1.5u m_n and the whole error below
    0.07 rho.  rho also covers the scaling itself: t_n = log a_n + n log r
    is formed in double, so |d_n| errs by a factor e^|dt_n| and the row
    by sum |d_n| (e^|dt_n| - 1) on the circle.  Against mpmath, dt_n
    reaches 10u at r = 1, 2420u at r = 12 and 146 381u at r = 60 (degree
    10 416), and that sum at most 3.1% of rho on the rows the tests
    sample.  For k = 0 the dominance test is the triangle inequality
    behind the paper's lower bound: on Omega_r, |phi_0| outweighs all the
    other terms on the whole disk, so every conditioned row at a certified
    radius passes (all of 2000 rows at r = 4.5 and at r = 12), and its
    phases are never computed; of 20 000 GEF rows, 74% pass at r = 0.5
    (k = 0, 1 or 2), 8.9% at r = 1 and none at r = 2.  A passing row
    takes no grid, doubling or bisection; a certified count is the same
    by either route, so no record changes.  The other rows go on to the
    first grid, with the smallest power of two >= 64 and >= (N+1)/2
    points.  Rows with many failing arcs are evaluated again on a doubled
    grid, up to 2^16 points; every failing arc a grid leaves is bisected,
    with q and q' by Horner at the midpoints, one pass over the N+1
    columns for all of a level's midpoints.  A row raises, naming its
    sample, and is never guessed, only with more than 2^16 failing arcs at
    a level, arcs failing after 48 halvings, or a winding that is not a
    whole number >= 0.  On a 2-vCPU x86-64 host the kernel counts 20 GEF
    rows at r = 40 in 0.17 s, 4 at r = 50 in 0.15 s and 2 at r = 60 in
    0.42 s;
  * a root oracle by the Aberth-Ehrlich iteration.  `roots_rows` is the
    one implementation: rows are stripped and grouped with array
    operations, rows of equal stripped length form one stack, and all of
    a stack's moving approximations move at once, each by
    1 / (p'/p - sum_j 1/(z - z_j)), with p'/p by Horner in z inside the
    unit circle and in 1/z outside it, so that no value overflows (where
    p'/p itself overflows, by its limit p/p').  They
    start on the circles of each row's Newton polygon, whose vertices are
    marked for all rows at once from a table of slopes.  Each sweep puts
    the approximations still moving first in their rows and steps only as
    many columns as the row with the most of them needs; the sum over j
    runs over every approximation of the row, in real arithmetic on
    contiguous real and imaginary planes.  An approximation stops at a
    relative step of 1e-15, or once its steps stop shrinking while |p| is
    at the rounding level of its evaluation (a bound summed only for
    those whose steps stopped shrinking), and a row is done when all of
    its approximations have stopped.  The oracle refuses a row still
    moving after a fixed number of sweeps and a row in which two
    approximations coincide to a few ulps (one root found twice, so
    another is missed).  Every root's residual |v|, Horner's value in the
    route variable x (z or 1/z) on the table the iteration ran on, is
    then divided by the largest term max |c_n| |x|^n there, with no log
    scale: the ratio is |p(z*)| over p's largest term at |z*|, at most
    max |p| on its circle (Cauchy), so the check is stricter than that
    max; residuals stay below 2e-13 of it on the records' rows, and 5e-11
    at outer roots of the all-ones row.  A failing root is refused too.  The check proves only that each
    returned z is a root of a polynomial close to p in that sense; it
    cannot place an ill-conditioned root within its neighbourhood, which
    is why a count stands only when the roots and the kernel agree.  The oracle forms its
    rows one way, in log scale (`_disk_rows`): p(r w) e^(-M) for
    `verify_counts`, which counts the roots with |w| < 1, and p(z) e^(-M)
    for `min_zero_moduli` and `roots_truncated`.  `verify_counts` solves
    only each row's band, the entries within e^60 of its largest: the
    dropped ones sum to far less than the rounding bound rho that a
    certified row clears on the circle, so by Rouche's theorem they move
    no root across it, and no kept entry underflows at any r.

Each route checks its rows once: a row that is all zero or holds a NaN or
inf raises ValueError naming its sample, in `_unit_circle_scale` before it
is scaled and in `roots_rows` before it is solved (log scaling keeps such
a row bad).  `count_zeros_disk`, `count_for_coeffs`, `roots_truncated` and
`min_zero_modulus` are the one-row case of the batch functions; they, with
`TruncatedSeries` and `ZeroCountResult`, stay only because the benchmark's
per-layer metrics and some tests name them.

A hole estimate hinges on "count == 0", so a silent undercount anywhere
would poison every downstream number; mismatches raise instead of warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._parallel import _BLOCK_VALUES
from .coeff_models import CoefficientModel

_FIRST_GRID = 64  # fewest points of the first grid
_MAX_GRID_POINTS = 2**16  # whole-grid doubling stops here
_BISECT_LEVELS = 48  # an arc of the first grid halved this often is below the angle resolution
_ROUNDING_REL = 1e-15  # rounding bound per log2(points), times sum (1+n)|d_n|
_STRIP_REL = 1e-300  # trailing coefficients below this times max|c| are dropped
_MAX_LOG_RATIO = 745.0  # t_n - M of a nonzero entry is at most -log(2^-1074) = 744.4
_RESIDUAL_REL = 1e-8
_PAIR_ENTRIES = 2**15  # pairs per block of the Aberth sums (256 KB per float64 array, cache-sized)
_ABERTH_SWEEPS = 200  # sweeps of the Aberth iteration before a row is refused
_STEP_REL = 1e-15  # an approximation stops once its step is at most this times its modulus
_COINCIDE_ULPS = 4  # approximations closer than this many ulps of their modulus coincide
_NOISE_ULPS = 4  # |p(z)| below this many ulps of sum |c_k| |z|^k is rounding noise
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))  # turn between neighbouring start circles
_BAND_FLOOR = math.exp(-60.0)  # the root oracle drops entries below this of a row's largest


class ZeroCountError(ArithmeticError):
    """Raised when zero counting cannot be certified."""


class RootResidualError(ArithmeticError):
    """Raised when a polished root fails its residual check."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Draws phi_0..phi_N paired with a coefficient model: p(z) = sum phi_n a_n z^n."""

    phi: np.ndarray
    model: CoefficientModel


@dataclass(frozen=True)
class ZeroCountResult:
    count: int
    radius: float
    verified_by_oracle: bool


def count_for_coeffs(c: np.ndarray, r: float) -> int:
    """Zeros of sum_n c_n z^n in |z| < r: the one-row case of `winding_counts_batch`."""
    return int(winding_counts_batch(np.asarray(c)[None, :], r)[0])


def count_zeros_disk(ts: TruncatedSeries, r: float, *, verify: bool = False) -> ZeroCountResult:
    """Number of zeros of the truncated series in |z| < r.

    The one-row case of `winding_counts_batch` on phi with log a_n kept in
    log scale, so no term is lost to an underflowing a_n.  With
    `verify=True`, `verify_counts` recounts the zeros by the root oracle.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    phi = np.asarray(ts.phi)[None, :]
    w = int(winding_counts_batch(phi, r, log_coeffs=ts.model.log_coeffs(phi.shape[1] - 1))[0])
    if verify:
        verify_counts(phi, ts.model, r, [w])
    return ZeroCountResult(count=w, radius=r, verified_by_oracle=verify)


def verify_counts(phi_rows: np.ndarray, model: CoefficientModel, r: float,
                  counts, *, first_index: int = 0) -> None:
    """Raise ZeroCountError unless the root oracle finds counts[i] zeros of row i in |z| < r.

    Rows hold phi_0..phi_N of samples first_index, first_index + 1, ...;
    the root oracle (`_root_stacks`) solves the rows of q(w) = p(r w) e^(-M)
    formed by `_disk_rows`, cut to their band: entries below e^-60 of the
    largest (1 up to rounding) are set to zero, so dropped leading terms
    become exact roots at 0, dropped trailing ones are stripped, and no kept
    entry underflows at any r.  The zeros in |z| < r are the roots with
    |w| < 1.  The band cannot move a certified count: on |w| <= 1 the
    dropped terms sum to at most (N+1) e^-60 < 2.4e-21 (N + 1 <= 2^18, as
    on every command's rows), while a certified row's computed |q| clears
    the rounding bound rho >= 6e-15 all round the circle, and the rounding
    rho covers stays far below it; so q and its band have the same zeros
    inside it (Rouche).  The Aberth roots share no code with the winding
    count.  The error names the first disagreeing sample.
    """
    rows = _disk_rows(phi_rows, model, r)
    rows[np.abs(rows) < _BAND_FLOOR] = 0.0
    oracle = np.zeros(len(phi_rows), dtype=np.int64)
    for idx, roots in _root_stacks(rows, first_index):
        oracle[idx] = np.count_nonzero(np.abs(roots) < 1.0, axis=1)
    wrong = np.flatnonzero(oracle != np.asarray(counts))
    if len(wrong):
        i = int(wrong[0])
        raise ZeroCountError(
            f"sample {first_index + i}: argument principle ({counts[i]}) disagrees "
            f"with root oracle ({oracle[i]}) at r={r!r}")


def _unit_circle_scale(moduli: np.ndarray, r: float, log_coeffs: np.ndarray,
                       first_index: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factors h_n that rescale rows so that |z| = r becomes the unit circle, M, and |d_n|.

    `moduli` holds |phi_n| of each row.  Entry n of a row becomes d_n =
    (phi_n h_n) h_n with h_n = exp((t_n - M)/2), t_n = log a_n + n log r
    and M the row's largest log|phi_n| + t_n: the row then evaluates
    p(r w) e^(-M), which winds exactly as p does along |z| = r.  No a_n or
    r^n is ever formed in linear scale, so no term underflows or overflows
    on its own.  The factor is split in two halves because exp(t_n - M)
    alone overflows when the largest term is subnormal (t_n - M up to
    744.4); |phi_n| h_n stays finite, and so does its product with h_n,
    which is at most 1.  Past 745 the entry is zero, and the clip keeps h_n
    finite so that it stays zero.  Returns the h_n (one row per row), M and
    the scaled moduli (|phi_n| h_n) h_n.  M is not finite exactly when the
    row is all zero or holds a NaN or inf; such a row raises ValueError
    naming its sample, row i being sample first_index + i.
    """
    t = np.arange(moduli.shape[1]) * math.log(r) + log_coeffs
    with np.errstate(divide="ignore"):
        half = np.log(moduli)  # log|phi_n| + t_n, then h_n, in this one buffer
    half += t
    top = np.max(half, axis=1, keepdims=True)
    bad = ~np.isfinite(top[:, 0])
    if bad.any():
        raise ValueError(f"sample {first_index + int(np.flatnonzero(bad)[0])}: "
                         f"no usable coefficients (all zero, or a NaN or inf entry)")
    np.subtract(t, top, out=half)
    np.minimum(half, _MAX_LOG_RATIO, out=half)
    half *= 0.5
    np.exp(half, out=half)
    size = moduli * half
    size *= half
    return half, top[:, 0], size


def _row_bounds(size: np.ndarray, log_scale: np.ndarray, tail_eps: float) -> np.ndarray:
    """Columns L, M2, S, tau, l1, top, k of rows with scaled moduli `size`.

    L = sum n|d_n| and M2 = sum n(n-1)|d_n| bound |q'| and |q''| on the
    closed unit disk; S = sum (1+n)|d_n| scales the rounding bound; tau is
    the truncation tail tail_eps in the row's units, tail_eps e^(-M).  For
    the dominant-term pass, l1 = sum |d_n| is summed on its own by np.sum
    along the row (numpy's pairwise summation), not formed as S - L, a
    difference of two sums; top is the largest |d_n| and k its first
    index, exact as a float.
    """
    n = np.arange(size.shape[1], dtype=np.float64)
    K = np.empty((len(size), 7))
    K[:, :3] = size @ np.stack([n, n * (n - 1), 1 + n], axis=1)
    np.sum(size, axis=1, out=K[:, 4])
    k = np.argmax(size, axis=1)
    K[:, 5] = size[np.arange(len(size)), k]
    K[:, 6] = k
    with np.errstate(over="ignore"):  # a row far below the tail cannot be certified
        K[:, 3] = np.exp(math.log(tail_eps) - log_scale) if tail_eps > 0 else 0.0
    return K


def _margins(K: np.ndarray, bits) -> tuple[np.ndarray, ...]:
    """L, M2, rho, rho_g, tau for rows with bounds K, last evaluated on 2**bits points.

    rho bounds the rounding in computed values of q, by FFT or by Horner
    (which errs by about 4e-16 (1+n) |d_n| per term); rho_g bounds it in
    w q'(w), whose terms are n d_n.
    """
    L, M2, S, tau = K.T[:4]
    return L, M2, _ROUNDING_REL * bits * S, _ROUNDING_REL * bits * (M2 + 2 * L), tau


def _dominant_terms(K: np.ndarray, bits: float) -> np.ndarray:
    """Each row's count by its dominant term, or -1 where no term dominates.

    Row i counts k zeros when its largest term d_k outweighs the others,
    |d_k| > (l1 - |d_k|) + rho + tau, with rho and tau from `_margins` at
    `bits`; the module docstring gives the argument.  No other term can
    dominate, since a term that outweighs all the others is the largest.
    """
    _, _, rho, _, tau = _margins(K, bits)
    l1, top, k = K.T[4:]
    return np.where(top > (l1 - top) + rho + tau, k, -1).astype(np.intp)


def _certified(absF, absG, s, L, M2, rho, rho_g, tau) -> np.ndarray:
    """True where |q| > tau on both arcs of length s next to a point w.

    absF and absG are the computed |q(w)| and |w q'(w)|.  Within arc length
    s of w, |q - q(w)| <= L s by the mean value bound on the chord, and
    <= |q'(w)| s + M2 s^2 / 2 by Taylor's theorem.
    """
    drift = np.minimum(L * s, (absG + rho_g) * s + 0.5 * M2 * s * s)
    return absF > drift + rho + tau


def _circle_values(D: np.ndarray, points: int) -> np.ndarray:
    """sum_n D_n w^n at w = exp(2 pi i k / points), k = 0..points-1.

    Coefficients past `points` are folded onto n mod points first: each
    run of `points` columns is added in turn into one copy of the first,
    taken as 0 + D_n so that a -0 comes out +0, as summing from zero gives.
    """
    n = D.shape[1]
    if n > points:
        folded = D[:, :points] + 0.0
        for lo in range(points, n, points):
            folded[:, : min(points, n - lo)] += D[:, lo: lo + points]
        D = folded
    return np.fft.ifft(D, n=points, axis=1, norm="forward")


def _values_at(D: np.ndarray, row: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q(w_j) and w_j q'(w_j) of rows D[row[j]]: Horner on D.T, _BLOCK_VALUES points a pass."""
    F, G = np.empty((2, len(row)), dtype=np.complex128)
    for lo in range(0, len(row), _BLOCK_VALUES):
        at, z = row[lo: lo + _BLOCK_VALUES], w[lo: lo + _BLOCK_VALUES]
        q = D[at, -1]
        dq = np.zeros_like(q)
        for c in D.T[-2::-1]:
            dq *= z
            dq += q
            q *= z
            q += c[at]
        F[lo: lo + _BLOCK_VALUES], G[lo: lo + _BLOCK_VALUES] = q, dq * z
    return F, G


class _Arcs(NamedTuple):
    """Arcs [theta, theta + 2 half] of the unit circle still to certify.

    fa, ga and fb, gb hold q and w q'(w) at the two ends; `row` names the
    kernel row each arc belongs to.
    """

    row: np.ndarray
    theta: np.ndarray
    half: np.ndarray
    fa: np.ndarray
    ga: np.ndarray
    fb: np.ndarray
    gb: np.ndarray

    def take(self, keep: np.ndarray) -> _Arcs:
        return _Arcs(*(a[keep] for a in self))


_NO_ARCS = _Arcs(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0),
                 *(np.zeros(0, dtype=np.complex128) for _ in range(4)))


def _concat_arcs(parts: list[_Arcs]) -> _Arcs:
    return _Arcs(*(np.concatenate(a) for a in zip(_NO_ARCS, *parts)))


def _first_grid(n_coeffs: int) -> int:
    """Smallest power of two >= _FIRST_GRID and >= n_coeffs / 2."""
    points = _FIRST_GRID
    while 2 * points < n_coeffs:
        points *= 2
    return points


def _neighbour_products(F: np.ndarray) -> np.ndarray:
    """q(w_(k+1)) conj(q(w_k)) for every grid point w_k of rows F, the last wrapping to w_0.

    Written into one array, conj(F) overwritten in place.
    """
    out = np.conj(F)
    np.multiply(F[:, 1:], out[:, :-1], out=out[:, :-1])
    np.multiply(F[:, 0], out[:, -1], out=out[:, -1])
    return out


def _grid_pass(D: np.ndarray, K: np.ndarray, idx: np.ndarray, points: int,
               turn: np.ndarray) -> tuple[np.ndarray, _Arcs]:
    """Certify rows D[idx] on `points` grid points, in blocks of about _BLOCK_VALUES values.

    Sets turn[i] to the summed increments of row i's certified arcs.  Returns
    the rows whose failing arcs cost more to bisect than a doubled grid
    (failing arcs times coefficients > 4 points; none from a grid of
    _MAX_GRID_POINTS or more) and the others' failing arcs, with q and
    w q'(w) at both ends.  w q'(w), a second FFT, is skipped for rows bound
    to double: |q(w)| > min(L s, M2 s^2 / 2) + rho + tau is necessary for
    w to certify, so a row failing that on too many arcs doubles at once.
    """
    n = D.shape[1]
    s = math.pi / points
    theta = 2.0 * math.pi / points * np.arange(points)
    cap = 4 * points if points < _MAX_GRID_POINTS else math.inf  # the last grid hands on every row
    again, arcs = [idx[:0]], []
    step = max(1, _BLOCK_VALUES // max(points, n))
    for lo in range(0, len(idx), step):
        rows = idx[lo: lo + step]
        block = D[rows]
        F = _circle_values(block, points)
        absF = np.abs(F)
        L, M2, rho, rho_g, tau = (m[:, None] for m in _margins(K[rows], math.log2(points)))
        ok = absF > L * s + rho + tau
        need = np.flatnonzero(~ok.all(axis=1))
        maybe = absF[need] > np.minimum(L[need] * s, 0.5 * M2[need] * s * s) + rho[need] + tau[need]
        need = need[np.count_nonzero(~(maybe & np.roll(maybe, -1, axis=1)), axis=1) * n <= cap]
        G = np.zeros_like(F)
        if len(need):
            G[need] = _circle_values(block[need] * np.arange(n), points)
            ok[need] = _certified(absF[need], np.abs(G[need]), s, L[need], M2[need],
                                  rho[need], rho_g[need], tau[need])
        arc_ok = ok & np.roll(ok, -1, axis=1)
        many = np.count_nonzero(~arc_ok, axis=1) * n > cap
        if many.any():
            again.append(rows[many])
            rows, F, G, arc_ok = rows[~many], F[~many], G[~many], arc_ok[~many]
        turn[rows] = np.sum(np.angle(_neighbour_products(F)), axis=1, where=arc_ok)
        i, k = np.nonzero(~arc_ok)
        k1 = (k + 1) % points
        arcs.append(_Arcs(rows[i], theta[k], np.full(len(k), s),
                          F[i, k], G[i, k], F[i, k1], G[i, k1]))
    return np.concatenate(again), _concat_arcs(arcs)


def _bisect(D: np.ndarray, K: np.ndarray, bits: np.ndarray, arcs: _Arcs,
            turn: np.ndarray) -> np.ndarray:
    """Halve failing arcs, one level for all rows at once, and certify the halves.

    Adds the increments of the halves that certify to `turn`.  Returns the
    rows the kernel refuses, its only refusals: those with more than
    _MAX_GRID_POINTS failing arcs at a level, and those with arcs still
    failing after _BISECT_LEVELS halvings.
    """
    refused = np.zeros(len(D), dtype=bool)
    for _ in range(_BISECT_LEVELS):
        if not len(arcs.row):
            return refused
        crowded = np.bincount(arcs.row, minlength=len(D)) > _MAX_GRID_POINTS
        if crowded.any():
            refused |= crowded
            arcs = arcs.take(~crowded[arcs.row])
        mid = arcs.theta + arcs.half
        fm, gm = _values_at(D, arcs.row, np.exp(1j * mid))
        s = 0.5 * arcs.half
        margins = _margins(K[arcs.row], bits[arcs.row])
        ok_a, ok_m, ok_b = (_certified(np.abs(f), np.abs(g), s, *margins)
                            for f, g in ((arcs.fa, arcs.ga), (fm, gm), (arcs.fb, arcs.gb)))
        left, right = ok_a & ok_m, ok_m & ok_b
        turn += np.bincount(arcs.row[left], weights=np.angle(fm[left] * np.conj(arcs.fa[left])),
                            minlength=len(D))
        turn += np.bincount(arcs.row[right], weights=np.angle(arcs.fb[right] * np.conj(fm[right])),
                            minlength=len(D))
        arcs = _concat_arcs([
            _Arcs(arcs.row, arcs.theta, s, arcs.fa, arcs.ga, fm, gm).take(~left),
            _Arcs(arcs.row, mid, s, fm, gm, arcs.fb, arcs.gb).take(~right)])
    refused[arcs.row] = True
    return refused


def winding_counts_batch(coeff_rows: np.ndarray, r: float, *,
                         log_coeffs: np.ndarray | None = None, tail_eps: float = 0.0,
                         first_index: int = 0) -> np.ndarray:
    """Certified winding numbers for many complex coefficient rows along the same circle.

    Row i holds c_n = phi_n a_n, or phi_n alone when `log_coeffs` gives
    log(a_n) (then no a_n is formed in linear scale, where it underflows);
    without it, zeros are passed, which change no bit of t_n that the
    scaling reads.  The rows' moduli |c_n| go to `winding_counts_polar`,
    and the rows it forms for its grid are copies of the caller's rows,
    which it never writes.  The other arguments and the errors are those
    of `winding_counts_polar`.
    """
    rows = np.asarray(coeff_rows, dtype=np.complex128)
    if log_coeffs is None:
        log_coeffs = np.zeros(rows.shape[1])
    return winding_counts_polar(np.abs(rows), rows.__getitem__, r, log_coeffs=log_coeffs,
                                tail_eps=tail_eps, first_index=first_index)


def winding_counts_polar(moduli: np.ndarray, form_rows, r: float, *, log_coeffs: np.ndarray,
                         tail_eps: float = 0.0, first_index: int = 0) -> np.ndarray:
    """Certified winding numbers along |z| = r of rows given in polar form.

    moduli[i] holds |phi_n| of row i and log_coeffs holds log a_n (zeros
    for rows of c_n themselves); form_rows(idx) returns a new complex
    array of the rows idx, which the kernel scales in place.  Every row's
    scale M and factors h_n come from its moduli (`_unit_circle_scale`),
    and the dominant-term pass (`_dominant_terms`) reads only the scaled
    moduli, so a row it counts is never formed.  The rows it leaves are
    formed, scaled by the same h_n, and certified arc by arc, as the
    module docstring states, with tau = tail_eps e^(-M): a bound on the
    truncation tail |f - p| on |z| = r makes the count one of f.  Row i
    is sample first_index + i.  A row that is all zero or holds a NaN or
    inf raises ValueError before any is counted.  A row nothing certifies, or one that winds a negative
    number of times (impossible for an analytic function), raises
    ZeroCountError naming the first such sample: no caller gets a count
    the kernel could not certify.
    """
    half, log_scale, size = _unit_circle_scale(moduli, r, log_coeffs, first_index)
    K = _row_bounds(size, log_scale, tail_eps)
    points = _first_grid(size.shape[1])
    k = _dominant_terms(K, math.log2(points))
    turn = 2.0 * np.pi * k
    uncertified = np.zeros(len(k), dtype=bool)
    left = np.flatnonzero(k < 0)
    if len(left):
        h = half[left]
        D = form_rows(left)
        D *= h
        D *= h
        turn[left], uncertified[left] = _grid_turns(D, K[left], points)
    w_float = turn / (2.0 * np.pi)
    counts = np.rint(w_float).astype(np.int64)
    uncertified |= np.abs(w_float - counts) > 1e-3
    bad = uncertified | (counts < 0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ZeroCountError(
            f"sample {first_index + i} at r={r!r}: " + (
                "no certified winding number (|f| on the circle is not bounded "
                "away from the rounding error and the truncation tail)"
                if uncertified[i] else
                f"negative winding {counts[i]} for an analytic function"))
    return counts


def _grid_turns(D: np.ndarray, K: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """Summed argument increments of scaled rows D with bounds K, and the rows `_bisect` refuses.

    The rows share the first grid of `points` points; rows with many
    failing arcs go together to doubled grids, up to 2^16 points, and
    every failing arc any grid leaves is bisected.
    """
    turn = np.zeros(len(D))
    bits = np.zeros(len(D))
    todo = np.arange(len(D))
    arcs = []
    while len(todo):
        bits[todo] = math.log2(points)
        todo, failing = _grid_pass(D, K, todo, points, turn)
        arcs.append(failing)
        points *= 2
    return turn, _bisect(D, K, bits, _concat_arcs(arcs), turn)


def _stripped_lengths(rows: np.ndarray, first_index: int = 0) -> np.ndarray:
    """Each row's length once its trailing coefficients below 1e-300 of its largest are dropped.

    A row that is all zero or holds a NaN or inf raises ValueError naming
    its sample, row i being sample first_index + i.
    """
    size = np.abs(rows)
    scale = np.max(size, axis=1)
    bad = ~((0.0 < scale) & (scale < math.inf))
    if bad.any():
        raise ValueError(f"sample {first_index + int(np.flatnonzero(bad)[0])}: "
                         f"no usable coefficients (all zero, or a NaN or inf entry)")
    keep = size >= _STRIP_REL * scale[:, None]
    return rows.shape[1] - np.argmax(keep[:, ::-1], axis=1)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _disk_rows(phi_rows: np.ndarray, model: CoefficientModel, r: float) -> np.ndarray:
    """Coefficients of p(r w) e^(-M), M the row's largest log(|phi_n| a_n r^n) (0 if not finite).

    With t_n = log a_n + n log r, entry n is (phi_n h_n) h_n with h_n =
    exp((t_n - M)/2), the exponent clipped at 745: no e^(t_n) is formed on
    its own, every entry has modulus at most 1, a term is lost only below
    1e-300 of the row's largest (which `roots_rows` strips anyway), a zero
    phi_n stays zero and a NaN or inf stays non-finite.
    """
    t = model.log_coeffs(phi_rows.shape[1] - 1) + np.arange(phi_rows.shape[1]) * math.log(r)
    h = np.log(np.abs(phi_rows)) + t
    M = np.max(h, axis=1, keepdims=True)
    M[~np.isfinite(M)] = 0.0
    np.subtract(t, M, out=h)
    np.minimum(h, _MAX_LOG_RATIO, out=h)
    h *= 0.5
    np.exp(h, out=h)
    return phi_rows * h * h


def roots_rows(coeff_rows: np.ndarray, *, first_index: int = 0) -> list[np.ndarray]:
    """All roots of each row's polynomial sum_n c_n z^n, solved in stacks.

    Each row drops its trailing coefficients below 1e-300 of its largest;
    a row that is all zero or holds a NaN or inf raises ValueError naming
    its sample, `first_index` plus its row, before any row is solved.
    Rows of equal stripped length and equal number of zero constant terms
    form one stack: exact roots at 0 for the zero constant terms, and the
    roots of the nonzero part g by one Aberth-Ehrlich iteration of the
    whole stack (`_aberth_roots`).  Each residual |g(z*)| (z^lo g(z*) can
    underflow) is checked against 1e-8 times g's largest term |g_n| |z*|^n,
    a lower bound for max |g| on |z| = |z*| (Cauchy), so the check only
    errs on the strict side.
    A row the iteration leaves unconverged, a row in which two
    approximations coincide, and a failing root raise RootResidualError
    naming the sample, `first_index` plus its row.  Row i of the result
    is row i's roots, from the stacks `_root_stacks` solves.
    """
    out: list[np.ndarray] = [np.empty(0, dtype=np.complex128)] * len(coeff_rows)
    for idx, roots in _root_stacks(coeff_rows, first_index):
        for i, z in zip(idx, roots):
            out[i] = z
    return out


def _root_stacks(coeff_rows: np.ndarray, first_index: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """(idx, roots) for each stack of `roots_rows`, in the order of its first row.

    idx lists the stack's rows in order and roots holds one row of roots
    per entry of idx.  Rows are stripped (`_stripped_lengths`) and grouped
    by stripped length and leading zero count with array operations; a
    stack's coefficients are one slice of its rows.  Every stack is solved
    before any is returned, so a failure anywhere raises before a caller
    reads a root.
    """
    rows = np.asarray(coeff_rows)
    length = _stripped_lengths(rows, first_index)
    lead = np.argmax(rows != 0, axis=1)  # zero constant terms; below the stripped length
    _, first, group = np.unique(length * rows.shape[1] + lead, return_index=True,
                                return_inverse=True)
    stacks = []
    for g in np.argsort(first):
        idx = np.flatnonzero(group == g)
        n, zeros = int(length[idx[0]]), int(lead[idx[0]])
        C = rows[idx, :n]
        samples = (first_index + idx).tolist()
        roots = np.zeros((len(idx), n - 1), dtype=np.complex128)
        if n - zeros > 1:  # roots at 0 are exact; the rest solve the nonzero part
            roots[:, : n - zeros - 1] = _aberth_roots(C[:, zeros:], samples)
            _check_residuals(C[:, zeros:], roots[:, : n - zeros - 1], samples)
        stacks.append((idx, roots))
    return stacks


def roots_truncated(ts: TruncatedSeries) -> np.ndarray:
    """All roots of the truncated polynomial: the one-row case of `roots_rows`."""
    return roots_rows(_disk_rows(np.asarray(ts.phi)[None, :], ts.model, 1.0))[0]


def _aberth_roots(P: np.ndarray, samples) -> np.ndarray:
    """Roots of rows P = p_0..p_m (p_0 and p_m nonzero) by the Aberth-Ehrlich iteration.

    Every moving approximation z of a row moves at once by 1 / (p'(z)/p(z)
    - sum_j 1/(z - z_j)) (Aberth, Math. Comp. 27, 1973), starting from the
    circles of the row's Newton polygon.  An approximation stops once its
    step is at most 1e-15 of its modulus, or once its step has stopped
    shrinking (it is more than half the one before) while the computed
    |p(z)| is below 4 ulps of sum |c_k| |z|^k, the scale of Horner's own
    rounding: up to that rounding, z then solves a polynomial whose
    coefficients differ from p's by 4 ulps each, and further steps follow
    rounding noise.  Well-conditioned roots pass the first test.  Of the
    200 roots of the all-ones row of degree 200, 196 never do: a change of
    that size in its coefficients moves the outer ones by up to about 5%,
    and they stop by the second test anywhere in that range.  The bound
    sum |c_k| |z|^k is summed only for approximations whose step stopped
    shrinking, the only ones the second test reads.  A stopped
    approximation keeps its place and keeps repelling the others.

    Each sweep steps only the approximations still moving.  A stable sort
    moves them to the front of each active row, and the sweep takes the
    first `width` columns, `width` the largest moving count among the
    active rows; the few stopped ones among them take no step.  The sum
    over j still runs over all m approximations of the row in their
    original order, so every approximation moves exactly as it would in a
    sweep of the whole row.  A row leaves the active set when all of its
    approximations have stopped, so every row takes the steps it would
    take alone.  A row still active after _ABERTH_SWEEPS sweeps, or one
    whose approximations coincide (`_check_distinct`), raises
    RootResidualError naming its entry of `samples`.
    """
    Z = _newton_polygon_starts(P)
    table = _route_table(_unit_end(P), _unit_end(P[:, ::-1]))
    moduli = np.abs(table)
    last = np.full(Z.shape, np.inf)  # each approximation's latest step length
    moving = np.ones(Z.shape, dtype=bool)
    active = np.arange(len(P))
    for _ in range(_ABERTH_SWEEPS):
        rows, flags = active[:, None], moving[active]
        width = int(flags.sum(axis=1).max())
        cols = np.argsort(~flags, axis=1, kind="stable")[:, :width]  # moving ones first
        z, still, before = Z[rows, cols], moving[rows, cols], last[rows, cols]
        step, values = _aberth_steps(table, moduli, active, z, Z.real[active], Z.imag[active],
                                     cols)
        step[~still] = 0
        Z[rows, cols] = z - step
        length = np.abs(step)
        last[rows, cols] = np.where(still, length, before)
        stalled = length > 0.5 * before  # a stopped approximation took no step
        if stalled.any():
            stalled[stalled] = values.at_rounding_level(stalled)
        still &= ~(stalled | (length <= _STEP_REL * np.abs(z)))  # a non-finite step never stops
        moving[rows, cols] = still
        active = active[still.any(axis=1)]
        if not len(active):
            break
    if len(active):
        raise RootResidualError(f"sample {samples[active[0]]}: the Aberth iteration did not "
                                f"converge in {_ABERTH_SWEEPS} sweeps")
    _check_distinct(Z, samples)
    return Z


def _unit_end(P: np.ndarray) -> np.ndarray:
    """Rows P scaled by the power of two that brings p_0 into [1/2, 1).

    A power of two moves no root and rounds nothing.  For |x| <= 1 the
    term p_0 then keeps the largest term of sum p_k x^k at 1/2 or more, so
    Horner's value never underflows, however many decades the
    coefficients span.
    """
    return P * np.exp2(-np.frexp(np.abs(P[:, :1]))[1])


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_polygon_starts(P: np.ndarray) -> np.ndarray:
    """Starting points of the Aberth iteration on the circles of each row's Newton polygon.

    An edge of the upper convex hull of the points (k, log|p_k|) from
    vertex a to vertex b has slope -log u; p then has about b - a roots of
    modulus near u (Bini, Numer. Algorithms 13, 1996).  They start evenly
    spaced on the circle |z| = u, at the angles 2 pi (j - a + 1/2) / (b - a),
    j = a..b-1, turned by a times the golden angle so that the points of
    neighbouring circles do not line up.  The vertices are marked by
    `_hull_vertices`, for all rows at once; zero coefficients (log 0 =
    -inf) are never vertices.
    """
    n = P.shape[1]
    y = np.log(np.abs(P))
    vertex = _hull_vertices(y)
    col = np.arange(n)
    a = np.maximum.accumulate(np.where(vertex, col, 0), axis=1)[:, :-1]
    b = np.minimum.accumulate(np.where(vertex, col, n)[:, ::-1], axis=1)[:, -2::-1]
    radius = np.exp((np.take_along_axis(y, a, 1) - np.take_along_axis(y, b, 1)) / (b - a))
    angle = 2.0 * math.pi * (col[:-1] - a + 0.5) / (b - a) + _GOLDEN_ANGLE * a
    return radius * np.exp(1j * angle)


@np.errstate(invalid="ignore")
def _hull_vertices(y: np.ndarray) -> np.ndarray:
    """Which points (k, y[i, k]) are vertices of the upper convex hull of row i.

    Point k is a vertex exactly when the largest slope (y_j - y_k) / (j -
    k) to a later point is below the smallest slope into k from an earlier
    one, so a point on a chord between two others is not a vertex, as in
    a monotone chain that pops on or below the chord.  A point with y =
    -inf is never a vertex, and a slope to or from one is -inf or +inf,
    which never decides.  The slopes from points k to every point j are
    formed for blocks of about _BLOCK_VALUES pairs (whole rows while n^2
    fits, else runs of one row's points).
    """
    rows, n = y.shape
    col = np.arange(n)
    vertex = np.isfinite(y)
    points = max(1, min(n, _BLOCK_VALUES // n))  # points k of one row per block
    step = max(1, _BLOCK_VALUES // (n * points))  # rows per block
    for lo in range(0, rows, step):
        block = y[lo: lo + step]
        for k in range(0, n, points):
            gap = col - col[k: k + points, None]
            slope = block[:, None, :] - block[:, k: k + points, None]
            slope /= gap  # slope[i, k, j] = (y_j - y_k) / (j - k)
            out_max = np.max(slope, axis=2, where=gap > 0, initial=-np.inf)
            in_min = np.min(slope, axis=2, where=gap < 0, initial=np.inf)
            vertex[lo: lo + step, k: k + points] &= out_max < in_min
    return vertex


def _route_table(P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Table whose row k holds coefficient k of every row's R and P, interleaved.

    Column 2 i holds row i of R and column 2 i + 1 row i of P, so the
    coefficients of a point on row i's route (P inside the unit circle, R
    outside) are one gather at 2 i + (route is P).
    """
    table = np.empty((P.shape[1], len(P), 2), dtype=np.complex128)
    table[:, :, 0], table[:, :, 1] = R.T, P.T
    return table.reshape(P.shape[1], -1)


def _gathered_horner(table: np.ndarray, pick: np.ndarray, x: np.ndarray,
                     derivative: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """sum_k table[k, pick] x^k by Horner (and d/dx), in place: the roots depend on those bits."""
    v, c = table[-1].take(pick), np.empty(pick.shape, dtype=table.dtype)
    dv = np.zeros_like(v) if derivative else None
    for row in table[-2::-1]:
        if derivative:
            dv *= x
            dv += v
        v *= x
        v += row.take(pick, out=c, mode="clip")  # "clip" writes to out unbuffered
    return v, dv


class _Values(NamedTuple):
    """The Horner values v at the points w of one sweep, and the moduli of their coefficients.

    Entry (i, k) ran Horner's rule on coefficients of moduli moduli[:, pick[i, k]].
    """

    moduli: np.ndarray
    pick: np.ndarray
    w: np.ndarray
    v: np.ndarray

    def at_rounding_level(self, which: np.ndarray) -> np.ndarray:
        """Whether |v| <= 4 eps sum_k |c_k| |w|^k at the entries the mask `which` selects.

        The bound is summed by Horner's rule on the moduli, in the order
        the values were, only for the selected entries.
        """
        bound, _ = _gathered_horner(self.moduli, self.pick[which], np.abs(self.w[which]))
        return np.abs(self.v[which]) <= _NOISE_ULPS * np.finfo(float).eps * bound


def _route_points(z: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each point's route: whether |z| <= 1, x = z there and 1/z elsewhere, and its column.

    |x| <= 1 either way; z[i, k] reads column 2 rows[i] + (|z| <= 1) of `_route_table`.
    """
    inner = np.abs(z) <= 1.0
    return inner, np.where(inner, z, 1.0 / z), 2 * rows[:, None] + inner


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _aberth_steps(table: np.ndarray, moduli: np.ndarray, active: np.ndarray, z: np.ndarray,
                  X: np.ndarray, Y: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, _Values]:
    """Aberth steps of the approximations z, and the values of p they used.

    z[i, k] is approximation cols[i, k] of stack row active[i]; rows i of X
    and Y hold the real and imaginary parts of all of that row's.  `table`
    is the stack's `_route_table` of P (each row's p_0..p_m) and R (the
    same reversed), each scaled by `_unit_end`, and `moduli` its moduli.
    Horner runs on P in z where |z| <= 1 and on R in w = 1/z elsewhere
    (`_route_points`), that is on q(w) = w^m p(1/w), where p'(z)/p(z) =
    w (m - w q'(w)/q(w)).  Either way |x| <= 1, so no far approximation
    overflows and, by the scaling, no value underflows.  The step is
    1 / (p'/p - sum_j 1/(z - z_j)), the sum over the whole row
    (`_pair_sums`); where p'/p overflows (on P) it is the limit p/p', and
    an approximation at which p or q vanishes exactly is a root and takes
    none.  The returned `_Values` tells, for the approximations the
    caller asks about, whether the computed value is below 4 eps sum_k
    |c_k| |x|^k, c_k the coefficients Horner ran on.
    """
    inner, w, pick = _route_points(z, active)
    v, dv = _gathered_horner(table, pick, w, derivative=True)
    ratio = dv / v
    m = X.shape[1]
    step = 1.0 / (np.where(inner, ratio, w * (m - w * ratio)) - _pair_sums(z, X, Y, cols))
    huge = ~np.isfinite(ratio)
    if huge.any():
        huge &= inner & (v != 0)
        step[huge] = v[huge] / dv[huge]
    step[v == 0] = 0
    return step, _Values(moduli, pick, w, v)


@np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore")
def _pair_sums(z: np.ndarray, X: np.ndarray, Y: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum over j != i of 1/(z_i - z_j) for each z_i = z[row, k], in blocks of rows.

    z_i is approximation cols[row, k] of its row, whose z_j have real and
    imaginary parts X[row] and Y[row].  The sum runs over every z_j in
    order, so a z_i takes the same sum whichever columns are asked for
    with it and however the rows are blocked (about _PAIR_ENTRIES pairs
    per block, in buffers reused from block to block).  Each term is conj(d)/|d|^2, d = z_i - z_j, in
    real arithmetic; where |d|^2 leaves the normal range (|d| below about
    1e-154 or above about 1e154) it is the complex 1/d instead, so no term
    underflows or overflows that would not in 1/d.  Exactly zero
    differences, z_i with itself and any approximations that coincide, are
    left out.  |d|^2 can only overflow when some |Re z| or |Im z| reaches
    2^510 (or is not finite), so only then is it checked for that.
    """
    S = np.empty(cols.shape, dtype=np.complex128)
    x, y = z.real[:, :, None], z.imag[:, :, None]
    wide = not (np.max(np.abs(X)) < 2.0**510 and np.max(np.abs(Y)) < 2.0**510)
    m = X.shape[1]
    X, Y = X[:, None, :], Y[:, None, :]
    step = max(1, _PAIR_ENTRIES // (cols.shape[1] * m))
    block = np.empty((4, min(step, len(z)), cols.shape[1], m))
    start = np.arange(0, block[0].size, m).reshape(block.shape[1:3])  # flat index of (i, k, 0)
    tiny = np.finfo(float).tiny
    for lo in range(0, len(z), step):
        k = cols[lo: lo + step]
        dx, dy, q, dy2 = block[:, : len(k)]
        np.subtract(x[lo: lo + step], X[lo: lo + step], out=dx)
        np.subtract(y[lo: lo + step], Y[lo: lo + step], out=dy)
        np.multiply(dx, dx, out=q)
        q += np.multiply(dy, dy, out=dy2)
        q.reshape(-1)[start[: len(k)] + k] = 1.0  # z_i with itself: 0 / 1 (q is contiguous)
        if not q.min() >= tiny or wide and q.max() == np.inf:  # rare: take those terms as 1/d
            odd = ~(q >= tiny) | (q == np.inf)
            d = dx[odd].astype(np.complex128)
            d.imag = dy[odd]
            d[d == 0] = np.inf
            np.reciprocal(d, out=d)
            dx[odd], dy[odd], q[odd] = d.real, -d.imag, 1.0
        dx /= q
        dy /= q
        S.real[lo: lo + step] = dx.sum(axis=2)
        S.imag[lo: lo + step] = -dy.sum(axis=2)
    return S


def _check_distinct(Z: np.ndarray, samples) -> None:
    """Raise unless every two approximations of a row lie more than a few ulps apart.

    A simultaneous iteration can converge twice to one root and miss
    another; the residual check cannot see that, since both copies are
    roots.  Rows are compared in blocks of about _PAIR_ENTRIES pairs.
    """
    m = Z.shape[1]
    diagonal = np.arange(m)
    step = max(1, _PAIR_ENTRIES // m ** 2)
    for lo in range(0, len(Z), step):
        z = Z[lo: lo + step]
        gap = np.abs(z[:, :, None] - z[:, None, :])
        gap[:, diagonal, diagonal] = np.inf
        close = gap <= _COINCIDE_ULPS * np.finfo(float).eps * np.abs(z)[:, :, None]
        if close.any():
            row, i, j = (int(k[0]) for k in np.nonzero(close))
            raise RootResidualError(
                f"sample {samples[lo + row]}: approximations {z[row, i]!r} and {z[row, j]!r} "
                f"coincide to {_COINCIDE_ULPS} ulps (one root found twice, another missed)")


def _check_residuals(C: np.ndarray, roots: np.ndarray, samples=None) -> None:
    """Raise unless every residual of `_residuals` is finite and at most 1e-8.

    C and roots hold one row per polynomial (1-D: one polynomial).  A
    residual that is not finite (a non-finite root) fails.  The error names
    the first failing row's entry of `samples` (default: its row).
    """
    C, roots = np.atleast_2d(C), np.atleast_2d(roots)
    resid = _residuals(C, roots)
    bad = ~(resid <= _RESIDUAL_REL)  # NaN fails too
    if bad.any():
        row, i = (int(k[0]) for k in np.nonzero(bad))
        raise RootResidualError(
            f"sample {row if samples is None else samples[row]}: root {roots[row, i]!r}: "
            f"residual {resid[row, i]:.3e} of its largest term on its route "
            f"(must be finite and <= {_RESIDUAL_REL:g})")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _residuals(C: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """|v| / L for each root of each row: Horner's value over the largest term, in x.

    Row i of C holds c_0..c_m (both nonzero) and row i of roots its roots,
    each on its route as in `_aberth_steps` (`_route_points`), on the
    table the iteration runs on.  v is Horner's value at x and L = max_n
    |c_n| |x|^n, by the same recurrence with a max for the sum.  The ratio
    is the same on either route and under any power-of-two scaling: |p(z*)|
    over p's largest term at |z*|, which by Cauchy's inequality is at most
    max |p| on |z| = |z*|, so a check against it is the stricter.  With
    |x| <= 1 and the route's constant term in [1/2, 1), L >= 1/2 cannot
    underflow and is at most the largest scaled coefficient; and Horner
    runs on exactly the values the iteration ran on, so a row on which v
    overflows is one the iteration could not have converged on.  Residuals
    stay below 2e-13 on GEF `zeros --verify` rows at r = 1 to 40 and on
    degree-200 Rademacher and Steinhaus rows, but reach 5e-11 at outer
    roots of the all-ones row, which stop by the noise test.
    """
    table = _route_table(_unit_end(C), _unit_end(C[:, ::-1]))
    _, x, pick = _route_points(roots, np.arange(len(C)))
    v, _ = _gathered_horner(table, pick, x)
    moduli, size = np.abs(table), np.abs(x)
    L, c = moduli[-1].take(pick), np.empty(pick.shape)
    for row in moduli[-2::-1]:
        L *= size
        np.maximum(L, row.take(pick, out=c, mode="clip"), out=L)
    return np.abs(v) / L


def min_zero_moduli(phi_rows: np.ndarray, model: CoefficientModel, *,
                    first_index: int = 0) -> np.ndarray:
    """Smallest |z*| over the roots of each row (+inf for a nonzero constant).

    Rows hold phi_0..phi_N of samples first_index, first_index + 1, ...;
    the root oracle (`_root_stacks`) solves them all, on the rows of p(z)
    e^(-M) formed by `_disk_rows` at r = 1.
    """
    out = np.full(len(phi_rows), math.inf)
    for idx, roots in _root_stacks(_disk_rows(phi_rows, model, 1.0), first_index):
        if roots.shape[1]:
            out[idx] = np.min(np.abs(roots), axis=1)
    return out


def min_zero_modulus(ts: TruncatedSeries) -> float:
    """Smallest |z*| over all roots; +inf for a nonzero constant."""
    return float(min_zero_moduli(np.asarray(ts.phi)[None, :], ts.model)[0])


def rotate_draw(phi: np.ndarray, theta: float) -> np.ndarray:
    """phi_n -> phi_n * e^(i n theta), mapping f(z) to f(z e^(i theta)).

    n runs along the last axis, so `phi` is one row or a block of rows.
    """
    return phi * np.exp(1j * theta * np.arange(phi.shape[-1]))
