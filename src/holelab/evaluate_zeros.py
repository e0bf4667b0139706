"""Truncated series evaluation and certified zero counting in disks.

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
  * a companion-matrix root oracle (balanced eigenvalues, a damped Newton
    polish and a residual check against the max of |p| on the root's own
    circle, taken from one 64-point FFT per root).  `roots_rows` is the one
    implementation: rows of equal stripped length form one stack, handed
    to `eigvals` in slices of at most about 2^20 companion entries and
    polished and checked together; `roots_truncated`, `min_zero_modulus`
    and `verify_count` are its one-row case, `min_zero_moduli` and
    `verify_counts` its many-row case, and a failure names the sample.

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
_COMPANION_ENTRIES = 2**20  # companion-matrix entries per eigvals call (16 MB of complex128)


class ZeroCountError(ArithmeticError):
    """Raised when zero counting cannot be certified."""


class RootResidualError(ArithmeticError):
    """Raised when a polished root fails its residual check."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Draws phi_0..phi_N paired with a coefficient model: p(z) = sum phi_n a_n z^n."""

    phi: np.ndarray
    model: CoefficientModel

    def coeffs(self) -> np.ndarray:
        """phi_n a_n in linear scale, for Horner and the root oracle (a_n may underflow)."""
        return _linear_rows(np.asarray(self.phi)[None, :], self.model)[0]


def _require_finite_nonzero(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"non-finite {what}")
    if not np.any(values != 0):
        raise ValueError(f"identically zero {what}")


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


def eval_series(ts: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated series at z (scalar or array)."""
    out = _horner(ts.coeffs(), np.asarray(z, dtype=np.complex128))
    return complex(out) if out.ndim == 0 else out


def count_for_coeffs(c: np.ndarray, r: float) -> int:
    """Zeros of sum_n c_n z^n in |z| < r: the one-row case of `winding_counts_batch`."""
    return int(winding_counts_batch(np.asarray(c)[None, :], r)[0])


def count_zeros_disk(ts: TruncatedSeries, r: float, *, verify: bool = False) -> ZeroCountResult:
    """Number of zeros of the truncated series in |z| < r.

    The one-row case of `winding_counts_batch` on phi with log a_n kept in
    log scale, so no term is lost to an underflowing a_n.  With
    `verify=True`, `verify_count` recounts the zeros by the root oracle.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    phi = np.asarray(ts.phi, dtype=np.complex128)
    _require_finite_nonzero(phi, "coefficients phi")
    w = int(winding_counts_batch(phi[None, :], r,
                                 log_coeffs=ts.model.log_coeffs(len(phi) - 1))[0])
    if verify:
        verify_count(ts, r, w)
    return ZeroCountResult(count=w, radius=r, verified_by_oracle=verify)


def verify_counts(phi_rows: np.ndarray, model: CoefficientModel, r: float,
                  counts, *, first_index: int = 0) -> None:
    """Raise ZeroCountError unless the root oracle finds counts[i] zeros of row i in |z| < r.

    Rows hold phi_0..phi_N of samples first_index, first_index + 1, ...; one
    `roots_rows` call solves them all.  The companion-matrix roots share no
    code or representation with the winding count.  The error names the
    first disagreeing sample.
    """
    roots = roots_rows(_linear_rows(phi_rows, model, first_index), first_index=first_index)
    for i, (z, count) in enumerate(zip(roots, counts)):
        oracle = int(np.sum(np.abs(z) < r))
        if oracle != count:
            raise ZeroCountError(
                f"sample {first_index + i}: argument principle ({count}) disagrees "
                f"with root oracle ({oracle}) at r={r!r}")


def verify_count(ts: TruncatedSeries, r: float, count: int) -> None:
    """The one-row case of `verify_counts`."""
    verify_counts(np.asarray(ts.phi)[None, :], ts.model, r, [count])


def _unit_circle_rows(rows: np.ndarray, r: float,
                      log_coeffs: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Rows rescaled so that |z| = r becomes the unit circle, in log scale, and their M.

    Entry n becomes phi_n h_n h_n with h_n = exp((t_n - M)/2), t_n = log a_n +
    n log r and M the row's largest log|phi_n| + t_n: the row then evaluates
    p(r w) e^(-M), which winds exactly as p does along |z| = r.  No a_n or r^n
    is ever formed in linear scale, so no term underflows or overflows on its
    own.  The factor is split in two halves because exp(t_n - M) alone
    overflows when the largest term is subnormal (t_n - M up to 744.4);
    phi_n h_n stays finite, and so does its product with h_n, which is at
    most 1 in modulus.  Past 745 the entry is zero, and the clip keeps h_n
    finite so that it stays zero.
    """
    t = np.arange(rows.shape[1]) * math.log(r)
    if log_coeffs is not None:
        t = t + log_coeffs
    with np.errstate(divide="ignore"):
        top = np.max(np.log(np.abs(rows)) + t, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0  # an identically zero row stays zero
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
    Row i is sample first_index + i.  A row nothing certifies, or one that
    winds a negative number of times (impossible for an analytic function),
    raises ZeroCountError naming the first such sample: no caller gets a
    count the kernel could not certify.
    """
    rows = np.asarray(coeff_rows, dtype=np.complex128)
    D, log_scale = _unit_circle_rows(rows, r, log_coeffs)
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


def _strip_trailing(c: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(c)))
    if scale == 0.0 or not math.isfinite(scale):
        raise ValueError("degenerate polynomial: no usable coefficients")
    keep = np.abs(c) >= _STRIP_REL * scale
    top = int(np.flatnonzero(keep)[-1])
    return c[: top + 1]


def _linear_rows(phi_rows: np.ndarray, model: CoefficientModel,
                 first_index: int = 0) -> np.ndarray:
    """phi_n a_n for rows of samples first_index, first_index + 1, ..."""
    c = phi_rows * np.exp(model.log_coeffs(phi_rows.shape[1] - 1))
    bad = ~np.all(np.isfinite(c), axis=1) | ~np.any(c != 0, axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"non-finite or identically zero effective coefficients "
                         f"in sample {first_index + i}")
    return c


def roots_rows(coeff_rows: np.ndarray, *, check_residuals: bool = True,
               first_index: int = 0) -> list[np.ndarray]:
    """All roots of each row's polynomial sum_n c_n z^n, solved in stacks.

    Each row drops its trailing coefficients below 1e-300 of its largest.
    Rows of equal stripped length and equal number of zero constant terms
    form one stack: (rows, N, N) companion arrays of the nonzero part, as
    `np.roots` builds them, handed to `np.linalg.eigvals` in slices of at
    most about 2^20 entries (`eigvals` solves each matrix on its own, so
    slicing changes no root), roots at 0 for the zero constant terms, and
    one damped Newton polish of the whole stack.  Each residual |p(z*)| is
    then checked against 1e-8 times the max of |p| on the circle
    |z| = |z*| (64-point grid, a lower bound for the true max, so the
    check only errs on the strict side).  A failing root raises
    RootResidualError naming its sample, `first_index` plus its row.  Row
    for row, the roots equal those of `np.roots` plus the polish bit for
    bit.
    """
    stripped = [_strip_trailing(c) for c in np.asarray(coeff_rows)]
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(stripped):
        stacks.setdefault((len(c), int(np.flatnonzero(c)[0])), []).append(i)
    out: list[np.ndarray] = [np.empty(0, dtype=np.complex128)] * len(stripped)
    for (n, lead), idx in stacks.items():
        if n == 1:
            continue
        C = np.array([stripped[i] for i in idx])
        roots = np.zeros((len(idx), n - 1), dtype=np.complex128)
        m = n - lead - 1
        if m > 0:
            p = C[:, lead:][:, ::-1]  # highest degree first, as np.roots strips it
            sub = np.arange(m - 1)
            step = max(1, _COMPANION_ENTRIES // (m * m))
            for lo in range(0, len(idx), step):
                part = p[lo: lo + step]
                A = np.zeros((len(part), m, m), dtype=p.dtype)
                A[:, 0, :] = -part[:, 1:] / part[:, :1]
                A[:, sub + 1, sub] = 1
                roots[lo: lo + step, :m] = np.linalg.eigvals(A)
        roots = _polish_roots(C, roots)
        if check_residuals:
            _check_residuals(C, roots, [first_index + i for i in idx])
        for k, i in enumerate(idx):
            out[i] = roots[k]
    return out


def roots_truncated(ts: TruncatedSeries) -> np.ndarray:
    """All roots of the truncated polynomial: the one-row case of `roots_rows`."""
    return roots_rows(ts.coeffs()[None, :])[0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _polish_roots(C: np.ndarray, roots: np.ndarray, iters: int = 60) -> np.ndarray:
    """Damped Newton on a stack of rows, each run to its own convergence.

    Raw companion eigenvalues are near-exact for inner roots but can be off
    by O(1) residuals near the outer root-accumulation circle of high-degree
    truncations; a step is only accepted where it shrinks |p|.  A row leaves
    the active set once its steps are negligible or none of them helps, so
    every row takes the steps it would take alone.  Far-out roots of
    high-degree truncations overflow Horner: their non-finite steps are
    zeroed, and _check_residuals rejects a root whose residual stays
    non-finite.
    """
    roots = roots.copy()
    dC = C[:, 1:] * np.arange(1, C.shape[1])
    p = _horner(C, roots)
    active = np.arange(len(roots))
    for _ in range(iters):
        z, pz = roots[active], p[active]
        dp = _horner(dC[active], z)
        step = np.where(np.abs(dp) > 0, pz / dp, 0.0)
        step = np.where(np.isfinite(step), step, 0.0)
        going = ~np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z)), axis=1)
        active, z, pz, step = active[going], z[going], pz[going], step[going]
        advanced = np.zeros(z.shape, dtype=bool)
        for damp in (1.0, 0.5, 0.25):
            todo = ~advanced & (np.abs(step) > 0)
            if not todo.any():
                break
            cand = z - damp * step
            p_cand = _horner(C[active], cand)
            improve = todo & (np.abs(p_cand) < np.abs(pz))
            z = np.where(improve, cand, z)
            pz = np.where(improve, p_cand, pz)
            advanced |= improve
        roots[active], p[active] = z, pz
        active = active[advanced.any(axis=1)]
        if not len(active):
            break
    return roots


def _check_residuals(C: np.ndarray, roots: np.ndarray, samples=None) -> None:
    """Raise unless every |p(z*)| is finite and below 1e-8 max|p| on |z| = |z*|.

    C and roots hold one row per polynomial (1-D: one polynomial).  The
    residual is Horner's; the circle maximum comes from `_circle_max`, one
    64-point FFT per root.  Both overflow at far-out roots of high-degree
    truncations; a non-finite residual or circle maximum cannot certify
    the root, so it fails the check instead of comparing inf with inf.
    The error names the first failing row's entry of `samples` (default:
    its row).
    """
    C, roots = np.atleast_2d(C), np.atleast_2d(roots)
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(_horner(C, roots))
    denom = _circle_max(C, roots)
    bad = ~np.isfinite(resid) | ~np.isfinite(denom) | (resid > _RESIDUAL_REL * denom)
    if bad.any():
        row, i = (int(k[0]) for k in np.nonzero(bad))
        raise RootResidualError(
            f"sample {row if samples is None else samples[row]}: root {roots[row, i]!r}: "
            f"residual {resid[row, i]:.3e} against circle max {denom[row, i]:.3e} "
            f"(both must be finite, ratio <= {_RESIDUAL_REL:g})")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _circle_max(C: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """max |p| over the 64 points |z*| e^(2 pi i k / 64) of each root z*, for `_check_residuals`.

    Row i of C holds p's coefficients c_n and row i of roots its roots.
    With b_n = c_n |z*|^n folded mod 64, B_j = sum of b_n over n = j mod 64,
    the 64 values are p(|z*| e^(2 pi i k / 64)) = sum_j B_j e^(2 pi i j k / 64):
    one 64-point FFT per root, in blocks of about _BLOCK_VALUES values b_n.
    b_n is formed as (c_n h_n) h_n with h_n = exp((n log|z*| - s)/2) and s
    the largest log|b_n|, so that no power |z*|^n overflows on its own; the
    max is scaled back by e^s, which is inf where p itself overflows.
    """
    rho = np.abs(roots).ravel()
    row = np.repeat(np.arange(len(C)), roots.shape[1])
    width = -(-C.shape[1] // _RESIDUAL_POINTS) * _RESIDUAL_POINTS
    n = np.arange(C.shape[1])
    log_c = np.log(np.abs(C))
    out = np.empty(len(rho))
    step = max(1, _BLOCK_VALUES // width)
    for lo in range(0, len(rho), step):
        t = n * np.log(rho[lo: lo + step, None])
        t[:, 0] = 0.0  # rho^0 = 1, also at a root at 0
        c = C[row[lo: lo + step]]
        s = np.max(log_c[row[lo: lo + step]] + t, axis=1, keepdims=True)
        s[~np.isfinite(s)] = 0.0  # an all-zero b stays zero; a non-finite rho still fails
        h = np.exp(0.5 * np.minimum(t - s, _MAX_LOG_RATIO))
        b = np.zeros((len(c), width), dtype=np.complex128)
        np.multiply(c, h, out=b[:, : C.shape[1]])
        b[:, : C.shape[1]] *= h
        B = b.reshape(len(b), -1, _RESIDUAL_POINTS).sum(axis=1)
        values = np.fft.ifft(B, axis=1, norm="forward")
        out[lo: lo + step] = np.max(np.abs(values), axis=1) * np.exp(s[:, 0])
    return out.reshape(roots.shape)


def min_zero_moduli(phi_rows: np.ndarray, model: CoefficientModel, *,
                    first_index: int = 0) -> np.ndarray:
    """Smallest |z*| over the roots of each row (+inf for a nonzero constant).

    Rows hold phi_0..phi_N of samples first_index, first_index + 1, ...;
    one `roots_rows` call solves them all.
    """
    roots = roots_rows(_linear_rows(phi_rows, model, first_index), first_index=first_index)
    return np.array([float(np.min(np.abs(z))) if len(z) else math.inf for z in roots])


def min_zero_modulus(ts: TruncatedSeries) -> float:
    """Smallest |z*| over all roots; +inf for a nonzero constant."""
    return float(min_zero_moduli(np.asarray(ts.phi)[None, :], ts.model)[0])


def rotate_draw(phi: np.ndarray, theta: float) -> np.ndarray:
    """phi_n -> phi_n * e^(i n theta), mapping f(z) to f(z e^(i theta)).

    n runs along the last axis, so `phi` is one row or a block of rows.
    """
    return phi * np.exp(1j * theta * np.arange(phi.shape[-1]))
