"""Certified zero counting of truncated series in disks.

A draw is a plain complex array phi_0..phi_N; `TruncatedSeries` pairs it
with a coefficient model.  Counting uses two fully independent routes which
cross-verify each other:

  * the argument principle, certified arc by arc.  Every count, one series
    (`count_zeros_disk`, `count_for_coeffs`) or a batch of rows, goes
    through `winding_counts_batch`.  Each row is rescaled to
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
    0 counts the polynomial).  The first grid has the smallest power of
    two >= 64 and >= (N+1)/2 points.  Rows with many failing arcs are
    evaluated again on a doubled grid; the others bisect only their
    failing arcs, evaluating q and q' at the midpoints by Horner.  A row
    nothing certifies raises, naming its sample, and is never guessed;
  * a root oracle by the Aberth-Ehrlich iteration.  `roots_rows` is the
    one implementation: rows of equal stripped length form one stack, and
    all of a stack's moving approximations move at once, each by
    1 / (p'/p - sum_j 1/(z - z_j)), with p'/p by Horner in z inside the
    unit circle and in 1/z outside it, so that no value overflows.  They
    start on the circles of each row's Newton polygon.  Each sweep puts
    the approximations still moving first in their rows and steps only as
    many columns as the row with the most of them needs; the sum over j
    runs over every approximation of the row, in real arithmetic.  An
    approximation stops at a relative step of 1e-15, or once its steps
    stop shrinking while |p| is at the rounding level of its evaluation,
    and a row is done when all of its approximations have stopped.  The
    oracle refuses a row still moving after a fixed number of sweeps and
    a row in which two approximations coincide to a few ulps (one root
    found twice, so another is missed).  Every root's residual is then
    checked against the max of |p| on its own circle, from one 64-point
    FFT per root, and a failing root is refused too.  The check proves
    only that each returned z is a root of a polynomial close to p in
    that sense; it cannot place an ill-conditioned root within its
    neighbourhood, which is why a count stands only when the roots and
    the kernel agree.  The oracle forms its rows one way, in log scale
    (`_peak_scaled`): p(r w) e^(-M) for `verify_counts`, which counts the
    roots with |w| < 1, p(z) e^(-M) for `min_zero_moduli` and
    `roots_truncated`, and c_n |z*|^n e^(-s) for each root's circle
    maximum.

Each route checks its rows once: a row that is all zero or holds a NaN or
inf raises ValueError naming its sample, in `_unit_circle_rows` before it
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

from .coeff_models import CoefficientModel

_FIRST_GRID = 64  # fewest points of the first grid
_MAX_GRID_POINTS = 2**16  # whole-grid doubling stops here
_BISECT_LEVELS = 48  # an arc of the first grid halved this often is below the angle resolution
_BLOCK_VALUES = 2**16  # circle or coefficient values per block (1 MB of complex128, cache-sized)
_ROUNDING_REL = 1e-15  # rounding bound per log2(points), times sum (1+n)|d_n|
_STRIP_REL = 1e-300  # trailing coefficients below this times max|c| are dropped
_MAX_LOG_RATIO = 745.0  # t_n - M of a nonzero entry is at most -log(2^-1074) = 744.4
_RESIDUAL_REL = 1e-8
_RESIDUAL_POINTS = 64  # points of the circle |z| = |z*| the residual check takes its max over
_PAIR_ENTRIES = 2**15  # pairs per block of the Aberth sums (256 KB per float64 array, cache-sized)
_ABERTH_SWEEPS = 200  # sweeps of the Aberth iteration before a row is refused
_STEP_REL = 1e-15  # an approximation stops once its step is at most this times its modulus
_COINCIDE_ULPS = 4  # approximations closer than this many ulps of their modulus coincide
_NOISE_ULPS = 4  # |p(z)| below this many ulps of sum |c_k| |z|^k is rounding noise
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))  # turn between neighbouring start circles


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


def _horner(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n c[..., n] z^n; each row of a 2-D c pairs with the same row of z."""
    col = c.shape[:-1] + (1,) * (np.ndim(z) - c.ndim + 1)
    acc = np.empty(np.shape(z), dtype=np.complex128)
    acc[...] = c[..., -1].reshape(col)
    for k in range(c.shape[-1] - 2, -1, -1):
        acc *= z
        acc += c[..., k].reshape(col)
    return acc


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

    Rows hold phi_0..phi_N of samples first_index, first_index + 1, ...; one
    `roots_rows` call solves them all, on the rows of p(r w) formed by
    `_disk_rows`, and the zeros in |z| < r are the roots with |w| < 1.
    The Aberth roots share no code with the winding count.  The error
    names the first disagreeing sample.
    """
    roots = roots_rows(_disk_rows(phi_rows, model, r), first_index=first_index)
    for i, (w, count) in enumerate(zip(roots, counts)):
        oracle = int(np.sum(np.abs(w) < 1.0))
        if oracle != count:
            raise ZeroCountError(
                f"sample {first_index + i}: argument principle ({count}) disagrees "
                f"with root oracle ({oracle}) at r={r!r}")


def _unit_circle_rows(rows: np.ndarray, r: float, log_coeffs: np.ndarray | None,
                      first_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rows rescaled so that |z| = r becomes the unit circle, in log scale, and their M.

    Entry n becomes phi_n h_n h_n with h_n = exp((t_n - M)/2), t_n = log a_n +
    n log r and M the row's largest log|phi_n| + t_n: the row then evaluates
    p(r w) e^(-M), which winds exactly as p does along |z| = r.  No a_n or r^n
    is ever formed in linear scale, so no term underflows or overflows on its
    own.  The factor is split in two halves because exp(t_n - M) alone
    overflows when the largest term is subnormal (t_n - M up to 744.4);
    phi_n h_n stays finite, and so does its product with h_n, which is at
    most 1 in modulus.  Past 745 the entry is zero, and the clip keeps h_n
    finite so that it stays zero.  M is not finite exactly when the row is
    all zero or holds a NaN or inf; such a row raises ValueError naming
    its sample, row i being sample first_index + i.
    """
    t = np.arange(rows.shape[1]) * math.log(r)
    if log_coeffs is not None:
        t = t + log_coeffs
    with np.errstate(divide="ignore"):
        top = np.max(np.log(np.abs(rows)) + t, axis=1, keepdims=True)
    bad = ~np.isfinite(top[:, 0])
    if bad.any():
        raise ValueError(f"sample {first_index + int(np.flatnonzero(bad)[0])}: "
                         f"no usable coefficients (all zero, or a NaN or inf entry)")
    half = np.exp(0.5 * np.minimum(t - top, _MAX_LOG_RATIO))
    D = rows * half
    D *= half
    return D, top[:, 0]


def _row_bounds(D: np.ndarray, log_scale: np.ndarray, tail_eps: float) -> np.ndarray:
    """Columns L, M2, S, tau of scaled rows D, computed in blocks.

    L = sum n|d_n| and M2 = sum n(n-1)|d_n| bound |q'| and |q''| on the
    closed unit disk; S = sum (1+n)|d_n| scales the rounding bound; tau is
    the truncation tail tail_eps in the row's units, tail_eps e^(-M).
    """
    n = np.arange(D.shape[1], dtype=np.float64)
    K = np.empty((len(D), 4))
    step = max(1, _BLOCK_VALUES // D.shape[1])
    for lo in range(0, len(D), step):
        K[lo: lo + step, :3] = np.abs(D[lo: lo + step]) @ np.stack([n, n * (n - 1), 1 + n], axis=1)
    with np.errstate(over="ignore"):  # a row far below the tail cannot be certified
        K[:, 3] = np.exp(math.log(tail_eps) - log_scale) if tail_eps > 0 else 0.0
    return K


def _margins(K: np.ndarray, bits) -> tuple[np.ndarray, ...]:
    """L, M2, rho, rho_g, tau for rows with bounds K, last evaluated on 2**bits points.

    rho bounds the rounding in computed values of q, by FFT or by Horner
    (which errs by about 4e-16 (1+n) |d_n| per term); rho_g bounds it in
    w q'(w), whose terms are n d_n.
    """
    L, M2, S, tau = K.T
    return L, M2, _ROUNDING_REL * bits * S, _ROUNDING_REL * bits * (M2 + 2 * L), tau


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

    Coefficients past `points` are folded onto n mod points first.
    """
    if D.shape[1] > points:
        D = np.pad(D, ((0, 0), (0, -D.shape[1] % points)))
        D = D.reshape(len(D), -1, points).sum(axis=1)
    return np.fft.ifft(D, n=points, axis=1, norm="forward")


def _values_at(D: np.ndarray, row: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q(w_j) and w_j q'(w_j) of rows D[row[j]], by Horner in blocks of about _BLOCK_VALUES terms."""
    F = np.empty(len(row), dtype=np.complex128)
    G = np.empty(len(row), dtype=np.complex128)
    step = max(1, _BLOCK_VALUES // D.shape[1])
    for lo in range(0, len(row), step):
        C = np.ascontiguousarray(D[row[lo: lo + step]].T)
        z = w[lo: lo + step]
        q = C[-1].copy()
        dq = np.zeros_like(q)
        for c in C[-2::-1]:
            dq *= z
            dq += q
            q *= z
            q += c
        F[lo: lo + step] = q
        G[lo: lo + step] = dq * z
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
    (failing arcs times coefficients > 4 points) and the failing arcs of the
    others.  w q'(w) is evaluated, by a second FFT, only for rows that fail
    the L test and may still bisect: |q(w)| > min(L s, M2 s^2 / 2) + rho +
    tau is necessary for w to certify, so a row failing that on too many
    arcs goes to the doubled grid at once.
    """
    n = D.shape[1]
    s = math.pi / points
    theta = 2.0 * math.pi / points * np.arange(points)
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
        need = need[np.count_nonzero(~(maybe & np.roll(maybe, -1, axis=1)), axis=1) * n <= 4 * points]
        G = np.zeros_like(F)
        if len(need):
            G[need] = _circle_values(block[need] * np.arange(n), points)
            ok[need] = _certified(absF[need], np.abs(G[need]), s, L[need], M2[need],
                                  rho[need], rho_g[need], tau[need])
        arc_ok = ok & np.roll(ok, -1, axis=1)
        many = np.count_nonzero(~arc_ok, axis=1) * n > 4 * points
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
    rows left uncertified: those with arcs still failing after
    _BISECT_LEVELS halvings, and those whose failing arcs cost more Horner
    terms a level than 4 _MAX_GRID_POINTS.
    """
    refused = np.zeros(len(D), dtype=bool)
    for _ in range(_BISECT_LEVELS):
        if not len(arcs.row):
            return refused
        crowded = np.bincount(arcs.row, minlength=len(D)) * D.shape[1] > 4 * _MAX_GRID_POINTS
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
    """Certified winding numbers for many coefficient rows along the same circle.

    Row i holds c_n = phi_n a_n, or phi_n alone when `log_coeffs` gives
    log(a_n) (then no a_n is formed in linear scale, where it underflows).
    Every row is rescaled to the unit circle (`_unit_circle_rows`) and
    certified arc by arc as the module docstring states, with tau =
    tail_eps e^(-M): a bound on the truncation tail |f - p| on |z| = r
    makes the count one of f.  The first grid is shared by all rows; rows
    with many failing arcs go together to doubled grids, up to 2^16
    points, and the others bisect their failing arcs together.
    Row i is sample first_index + i.  A row that is all zero or holds a
    NaN or inf raises ValueError before any is counted.  A row nothing
    certifies, or one that winds a negative number of times (impossible
    for an analytic function), raises ZeroCountError naming the first such
    sample: no caller gets a count the kernel could not certify.
    """
    rows = np.asarray(coeff_rows, dtype=np.complex128)
    D, log_scale = _unit_circle_rows(rows, r, log_coeffs, first_index)
    K = _row_bounds(D, log_scale, tail_eps)
    turn = np.zeros(len(D))
    bits = np.zeros(len(D))
    todo = np.arange(len(D))
    points = _first_grid(D.shape[1])
    arcs = []
    while len(todo):
        bits[todo] = math.log2(points)
        todo, failing = _grid_pass(D, K, todo, points, turn)
        arcs.append(failing)
        if points >= _MAX_GRID_POINTS:
            break
        points *= 2
    uncertified = _bisect(D, K, bits, _concat_arcs(arcs), turn)
    uncertified[todo] = True
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


def _strip_trailing(c: np.ndarray, sample: int) -> np.ndarray:
    scale = float(np.max(np.abs(c)))
    if not 0.0 < scale < math.inf:
        raise ValueError(f"sample {sample}: no usable coefficients (all zero, or a NaN or inf entry)")
    keep = np.abs(c) >= _STRIP_REL * scale
    top = int(np.flatnonzero(keep)[-1])
    return c[: top + 1]


def _peak_scaled(c: np.ndarray, log_terms: np.ndarray, t: np.ndarray,
                 out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows c_n e^(t_n - s) and each row's s = max_n log|c_n| + t_n (0 if not finite).

    log_terms holds log|c_n| + t_n and is overwritten with h, so the
    scaling makes no temporary of that size; t is one row shared by all
    rows or one per row.  Entry n is (c_n h_n) h_n with h_n =
    exp((t_n - s)/2), the exponent clipped at 745: no e^(t_n) is formed on
    its own, every entry has modulus at most 1, a term is lost only below
    1e-300 of the row's largest (which `roots_rows` strips anyway), a zero
    c_n stays zero and a NaN or inf stays non-finite.  Written into `out`
    when given.
    """
    s = np.max(log_terms, axis=1, keepdims=True)
    s[~np.isfinite(s)] = 0.0
    h = np.subtract(t, s, out=log_terms)
    np.minimum(h, _MAX_LOG_RATIO, out=h)
    h *= 0.5
    np.exp(h, out=h)
    D = np.multiply(c, h, out=out)
    D *= h
    return D, s[:, 0]


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _disk_rows(phi_rows: np.ndarray, model: CoefficientModel, r: float) -> np.ndarray:
    """Coefficients of p(r w) e^(-M), M the row's largest log(|phi_n| a_n r^n).

    Entry n is phi_n a_n r^n e^(-M), formed by `_peak_scaled` with t_n =
    log a_n + n log r.
    """
    t = model.log_coeffs(phi_rows.shape[1] - 1) + np.arange(phi_rows.shape[1]) * math.log(r)
    return _peak_scaled(phi_rows, np.log(np.abs(phi_rows)) + t, t)[0]


def roots_rows(coeff_rows: np.ndarray, *, first_index: int = 0) -> list[np.ndarray]:
    """All roots of each row's polynomial sum_n c_n z^n, solved in stacks.

    Each row drops its trailing coefficients below 1e-300 of its largest;
    a row that is all zero or holds a NaN or inf raises ValueError naming
    its sample, `first_index` plus its row, before any row is solved.
    Rows of equal stripped length and equal number of zero constant terms
    form one stack: roots at 0 for the zero constant terms, and the roots
    of the nonzero part by one Aberth-Ehrlich iteration of the whole stack
    (`_aberth_roots`).  Each residual |p(z*)| is then checked against 1e-8
    times the max of |p| on the circle |z| = |z*| (64-point grid, a lower
    bound for the true max, so the check only errs on the strict side).
    A row the iteration leaves unconverged, a row in which two
    approximations coincide, and a failing root raise RootResidualError
    naming the sample, `first_index` plus its row.
    """
    stripped = [_strip_trailing(c, first_index + i) for i, c in enumerate(np.asarray(coeff_rows))]
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(stripped):
        stacks.setdefault((len(c), int(np.flatnonzero(c)[0])), []).append(i)
    out: list[np.ndarray] = [np.empty(0, dtype=np.complex128)] * len(stripped)
    for (n, lead), idx in stacks.items():
        if n == 1:
            continue
        C = np.array([stripped[i] for i in idx])
        samples = [first_index + i for i in idx]
        roots = np.zeros((len(idx), n - 1), dtype=np.complex128)
        if n - lead > 1:
            roots[:, : n - lead - 1] = _aberth_roots(C[:, lead:], samples)
        _check_residuals(C, roots, samples)
        for k, i in enumerate(idx):
            out[i] = roots[k]
    return out


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
    rounding noise.  Well-conditioned roots pass the first test.  The
    outer roots of the all-ones row of degree 200 never do: a change of
    that size in its coefficients moves them by up to about 5%, and they
    stop by the second test anywhere in that range.  A stopped
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
    P, R = _unit_end(P), _unit_end(P[:, ::-1])
    last = np.full(Z.shape, np.inf)  # each approximation's latest step length
    moving = np.ones(Z.shape, dtype=bool)
    active = np.arange(len(P))
    for _ in range(_ABERTH_SWEEPS):
        rows, flags = active[:, None], moving[active]
        width = int(flags.sum(axis=1).max())
        cols = np.argsort(~flags, axis=1, kind="stable")[:, :width]  # moving ones first
        z, still, before = Z[rows, cols], moving[rows, cols], last[rows, cols]
        step, noisy = _aberth_steps(P[active], R[active], Z[active], cols)
        step[~still] = 0
        Z[rows, cols] = z - step
        length = np.abs(step)
        last[rows, cols] = np.where(still, length, before)
        stalled = noisy & (length > 0.5 * before)
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
    neighbouring circles do not line up.  The hull is built by a monotone
    chain, one column at a time for all rows at once; zero coefficients
    (log 0 = -inf) never enter it.
    """
    rows, n = P.shape
    y = np.log(np.abs(P))
    every = np.arange(rows)
    hull = np.zeros((rows, n), dtype=np.intp)  # each row's vertices, hull[:, :top + 1]
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
    angle = 2.0 * math.pi * (col[:-1] - a + 0.5) / (b - a) + _GOLDEN_ANGLE * a
    return radius * np.exp(1j * angle)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _aberth_steps(P: np.ndarray, R: np.ndarray, Z: np.ndarray,
                  cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aberth steps of the approximations Z[row, cols[row, k]], and whether p is at the rounding level.

    Row i of Z holds all approximations of a row, and row i of cols the
    columns of those to step.  P holds each row's p_0..p_m and R the same
    reversed, each scaled by `_unit_end`.  Horner runs on P in z where
    |z| <= 1 and on R in w = 1/z elsewhere, that is on the reversed
    polynomial q(w) = w^m p(1/w), where p'(z)/p(z) = w (m - w q'(w)/q(w)).
    Either way |x| <= 1, so no far approximation overflows and, by the
    scaling, no value underflows.  Coefficient k of each approximation is
    one gather from a table row that interleaves every row's r_k and p_k,
    at column 2 row + (|z| <= 1).  The step is 1 / (p'/p - sum_j 1/(z -
    z_j)), the sum over the whole row of Z (`_pair_sums`); an
    approximation at which p or q vanishes exactly is a root and takes
    none.  The computed value is at the rounding level when it is below
    4 eps sum_k |c_k| |x|^k, with c_k the coefficients Horner's rule ran
    on and x = z or w.
    """
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
    ck, sk = np.empty_like(v), np.empty_like(bound)  # reused: no temporaries per k
    for k in range(m - 1, -1, -1):
        dv *= w
        dv += v
        v *= w
        v += coeffs[k].take(pick, out=ck, mode="clip")  # "clip" writes to out unbuffered
        bound *= size
        bound += sizes[k].take(pick, out=sk, mode="clip")
    ratio = dv / v
    step = 1.0 / (np.where(inner, ratio, w * (m - w * ratio)) - _pair_sums(Z, cols))
    step[v == 0] = 0
    return step, np.abs(v) <= _NOISE_ULPS * np.finfo(float).eps * bound


@np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore")
def _pair_sums(Z: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """sum over j != i of 1/(z_i - z_j) for z_i = Z[row, cols[row, k]], in blocks of rows.

    The sum runs over every z_j of the row in its order, so a z_i takes the
    same sum whichever columns are asked for with it and however the rows
    are blocked (about _PAIR_ENTRIES pairs per block, in buffers reused
    from block to block).  Each term is conj(d)/|d|^2, d = z_i - z_j, in
    real arithmetic; where |d|^2 leaves the normal range (|d| below about
    1e-154 or above about 1e154) it is the complex 1/d instead, so no term
    underflows or overflows that would not in 1/d.  Exactly zero
    differences, z_i with itself and any approximations that coincide,
    are left out.
    """
    S = np.empty(cols.shape, dtype=np.complex128)
    step = max(1, _PAIR_ENTRIES // (cols.shape[1] * Z.shape[1]))
    block = np.empty((4, min(step, len(Z)), cols.shape[1], Z.shape[1]))
    tiny = np.finfo(float).tiny
    for lo in range(0, len(Z), step):
        row, k = Z[lo: lo + step], cols[lo: lo + step]
        z = np.take_along_axis(row, k, 1)[:, :, None]
        row = row[:, None, :]
        dx, dy, q, dy2 = block[:, : len(k)]
        np.subtract(z.real, row.real, out=dx)
        np.subtract(z.imag, row.imag, out=dy)
        np.multiply(dx, dx, out=q)
        q += np.multiply(dy, dy, out=dy2)
        np.put_along_axis(q, k[:, :, None], 1.0, 2)  # z_i with itself: 0 / 1
        if not q.min() >= tiny or q.max() == np.inf:  # rare: take those terms as 1/d
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
    """Raise unless every |p(z*)| is finite and below 1e-8 max|p| on |z| = |z*|.

    C and roots hold one row per polynomial (1-D: one polynomial).  The
    residual is Horner's, in z where |z*| <= 1 and, as in `_aberth_steps`,
    elsewhere on the reversed polynomial q(w) = w^m p(1/w) in w = 1/z,
    scaled by the power of two that brings its constant term c_m into
    [1/2, 1): no power of a far root overflows and, since C is stripped
    (c_m is not zero), no value underflows.  Residual and circle maximum
    (`_circle_max`, one 64-point FFT per root) are compared in the e^(-s)
    scale the circle maximum is formed in, where both stay finite.  A
    residual or maximum that is still not finite (a non-finite root)
    fails the check.  The error names the first failing row's entry of
    `samples` (default: its row) and gives both in the e^(-s) scale.
    """
    C, roots = np.atleast_2d(C), np.atleast_2d(roots)
    peak, s = _circle_max(C, roots)
    rho = np.abs(roots)
    e = np.frexp(np.abs(C[:, -1:]))[1]  # q = 2^e times the reversed row scaled as in `_unit_end`
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        far = ((C.shape[1] - 1) * np.log(rho) + e * math.log(2.0)
               + np.log(np.abs(_horner(C[:, ::-1] * np.exp2(-e), 1.0 / roots))))
        near = np.log(np.abs(_horner(C, roots)))
        resid = np.exp(np.where(rho > 1.0, far, near) - s)
    bad = ~np.isfinite(resid) | ~np.isfinite(peak) | (resid > _RESIDUAL_REL * peak)
    if bad.any():
        row, i = (int(k[0]) for k in np.nonzero(bad))
        raise RootResidualError(
            f"sample {row if samples is None else samples[row]}: root {roots[row, i]!r}: "
            f"residual {resid[row, i]:.3e} against circle max {peak[row, i]:.3e} "
            f"in units of e^{s[row, i]:.6g} (both must be finite, ratio <= {_RESIDUAL_REL:g})")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _circle_max(C: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(peak, s) with max |p| = peak e^s over the 64 points |z*| e^(2 pi i k / 64) of each root z*.

    Row i of C holds p's coefficients c_n and row i of roots its roots.
    With b_n = c_n |z*|^n e^(-s) folded mod 64, B_j = sum of b_n over
    n = j mod 64, the 64 values are p(|z*| e^(2 pi i k / 64)) e^(-s) =
    sum_j B_j e^(2 pi i j k / 64): one 64-point FFT per root, in blocks of
    about _BLOCK_VALUES values b_n.  b_n and s are formed by `_peak_scaled`
    with t_n = n log|z*| (t_0 = 0), one row of t per root, so every |b_n|
    <= 1 and no power |z*|^n overflows on its own; a non-finite |z*|
    still fails.
    """
    rho = np.abs(roots).ravel()
    row = np.repeat(np.arange(len(C)), roots.shape[1])
    width = -(-C.shape[1] // _RESIDUAL_POINTS) * _RESIDUAL_POINTS
    n = np.arange(C.shape[1])
    log_c = np.log(np.abs(C))
    peak, scale = np.empty(len(rho)), np.empty(len(rho))
    step = max(1, _BLOCK_VALUES // width)
    for lo in range(0, len(rho), step):
        t = n * np.log(rho[lo: lo + step, None])
        t[:, 0] = 0.0  # rho^0 = 1, also at a root at 0
        block = row[lo: lo + step]
        b = np.zeros((len(block), width), dtype=np.complex128)
        _, scale[lo: lo + step] = _peak_scaled(C[block], log_c[block] + t, t,
                                               out=b[:, : C.shape[1]])
        B = b.reshape(len(b), -1, _RESIDUAL_POINTS).sum(axis=1)
        values = np.fft.ifft(B, axis=1, norm="forward")
        peak[lo: lo + step] = np.max(np.abs(values), axis=1)
    return peak.reshape(roots.shape), scale.reshape(roots.shape)


def min_zero_moduli(phi_rows: np.ndarray, model: CoefficientModel, *,
                    first_index: int = 0) -> np.ndarray:
    """Smallest |z*| over the roots of each row (+inf for a nonzero constant).

    Rows hold phi_0..phi_N of samples first_index, first_index + 1, ...;
    one `roots_rows` call solves them all, on the rows of p(z) e^(-M)
    formed by `_disk_rows` at r = 1.
    """
    roots = roots_rows(_disk_rows(phi_rows, model, 1.0), first_index=first_index)
    return np.array([float(np.min(np.abs(z))) if len(z) else math.inf for z in roots])


def min_zero_modulus(ts: TruncatedSeries) -> float:
    """Smallest |z*| over all roots; +inf for a nonzero constant."""
    return float(min_zero_moduli(np.asarray(ts.phi)[None, :], ts.model)[0])


def rotate_draw(phi: np.ndarray, theta: float) -> np.ndarray:
    """phi_n -> phi_n * e^(i n theta), mapping f(z) to f(z e^(i theta)).

    n runs along the last axis, so `phi` is one row or a block of rows.
    """
    return phi * np.exp(1j * theta * np.arange(phi.shape[-1]))
