"""Truncated series evaluation, max modulus, and zero counting in disks.

A draw is a plain complex array phi_0..phi_N; `TruncatedSeries` pairs it
with a coefficient model.  Counting uses two fully independent routes which
cross-verify each other:

  * the argument principle: the winding number of f along |z| = r, tracked
    on a circular grid whose argument increments are forced below pi/2
    (half the theoretical limit, for aliasing margin).  Every count, one
    series (`count_zeros_disk`) or a batch of rows, goes through
    `winding_counts_batch`: one FFT of log-scaled coefficients on the unit
    circle, on grids doubled only for the rows not yet resolved;
    `count_for_coeffs` (local midpoint refinement, then circles nudged by
    1e-9) is the one retry path for the rows left;
  * a companion-matrix root oracle (balanced eigenvalues plus one Newton
    polish step and a residual check against the max of |p| on the root's
    own circle); `verify_count` checks a count against it.

A hole estimate hinges on "count == 0", so a silent undercount anywhere
would poison every downstream number; mismatches raise instead of warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeff_models import CoefficientModel

_MAX_CIRCLE_POINTS = 2**20
_BATCH_MAX_POINTS = 2**16  # batched grid doubling stops here; count_for_coeffs takes the rest
_BLOCK_VALUES = 2**20  # circle values per FFT block (16 MB of complex128)
_TINY_MODULUS_REL = 1e-290  # |f| below this times max|f| hints a boundary zero
_STRIP_REL = 1e-300  # trailing coefficients below this times max|c| are dropped
_RESIDUAL_REL = 1e-8
_ARG_STEP_LIMIT = math.pi / 2


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
        c = self.phi * np.exp(self.model.log_coeffs(len(self.phi) - 1))
        _require_finite_nonzero(c, "effective coefficients")
        return c


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
    acc = np.full(np.shape(z), c[-1], dtype=np.complex128)
    for k in range(len(c) - 2, -1, -1):
        acc = acc * z + c[k]
    return acc


def eval_series(ts: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated series at z (scalar or array)."""
    out = _horner(ts.coeffs(), np.asarray(z, dtype=np.complex128))
    return complex(out) if out.ndim == 0 else out


def max_modulus(ts: TruncatedSeries, r: float, grid_size: int = 256) -> float:
    """Max of |f| over |z| = r (where the maximum principle puts it).

    The grid doubles until the maximum moves by less than 1e-6 relative, so
    the result is a converged lower bound for the true boundary maximum.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be >= 64")
    c = ts.coeffs()
    m = grid_size
    best_prev = -math.inf
    while True:
        z = r * np.exp(2j * np.pi * np.arange(m) / m)
        best = float(np.max(np.abs(_horner(c, z))))
        if best_prev > 0 and best - best_prev <= 1e-6 * best:
            return best
        if m >= _MAX_CIRCLE_POINTS:
            return best
        best_prev = best
        m *= 2


class _BoundarySuspicion(Exception):
    def __init__(self, detail: str):
        self.detail = detail


def _winding_adaptive(c: np.ndarray, r: float, base_points: int,
                      max_points: int = _MAX_CIRCLE_POINTS) -> int:
    """Winding number of p along |z| = r by continuous argument tracking."""
    theta = np.linspace(0.0, 2.0 * np.pi, base_points, endpoint=False)
    f = _horner(c, r * np.exp(1j * theta))
    while True:
        scale = float(np.max(np.abs(f)))
        if scale == 0.0 or float(np.min(np.abs(f))) < _TINY_MODULUS_REL * scale:
            raise _BoundarySuspicion(f"|f| collapses on the circle r={r!r}")
        inc = np.angle(np.roll(f, -1) * np.conj(f))
        bad = np.abs(inc) >= _ARG_STEP_LIMIT
        if not bad.any():
            break
        if len(theta) >= max_points:
            raise _BoundarySuspicion(
                f"argument gaps persist at {len(theta)} points, r={r!r}")
        nxt = np.empty_like(theta)
        nxt[:-1] = theta[1:]
        nxt[-1] = theta[0] + 2.0 * np.pi
        mids = 0.5 * (theta[bad] + nxt[bad])
        if np.any((mids == theta[bad]) | (mids == nxt[bad])):
            # a zero closer to the circle than the angular resolution
            raise _BoundarySuspicion(f"argument gap below angle resolution, r={r!r}")
        f_mids = _horner(c, r * np.exp(1j * mids))
        order = np.argsort(np.concatenate([theta, mids]), kind="stable")
        theta = np.concatenate([theta, mids])[order]
        f = np.concatenate([f, f_mids])[order]
    w_float = float(np.sum(inc)) / (2.0 * np.pi)
    w = int(round(w_float))
    if abs(w_float - w) > 1e-3:
        raise ZeroCountError(f"winding sum {w_float!r} is not near an integer")
    return w


def _default_base_points(n_coeffs: int) -> int:
    pts = 256
    while pts < 4 * n_coeffs and pts < _MAX_CIRCLE_POINTS:
        pts *= 2
    return pts


def count_for_coeffs(c: np.ndarray, r: float, base_points: int | None = None) -> int:
    """Winding number along |z| = r of a raw coefficient array, by Horner.

    Argument gaps are closed by inserting midpoints where they occur.  On
    boundary-zero suspicion the circle is nudged to r*(1 +/- 1e-9); both
    retries must agree or the count fails with a diagnostic.
    """
    if base_points is None:
        base_points = _default_base_points(len(c))
    try:
        return _winding_adaptive(c, r, base_points)
    except _BoundarySuspicion as first:
        outcomes = []
        for fac in (1.0 + 1e-9, 1.0 - 1e-9):
            try:
                outcomes.append(_winding_adaptive(c, r * fac, base_points))
            except _BoundarySuspicion as exc:
                outcomes.append(exc)
        ok = [o for o in outcomes if isinstance(o, int)]
        if len(ok) == 2 and ok[0] == ok[1]:
            return ok[0]
        raise ZeroCountError(
            "boundary-zero suspicion unresolved: "
            f"{first.detail}; perturbed retries gave {outcomes!r}") from None


def count_zeros_disk(ts: TruncatedSeries, r: float, *, verify: bool = False,
                     base_points: int | None = None) -> ZeroCountResult:
    """Number of zeros of the truncated series in |z| < r.

    The one-row case of `winding_counts_batch` on phi with log a_n kept in
    log scale, so no term is lost to an underflowing a_n.  With
    `verify=True`, `verify_count` recounts the zeros by the root oracle.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    phi = np.asarray(ts.phi, dtype=np.complex128)
    _require_finite_nonzero(phi, "coefficients phi")
    w = int(winding_counts_batch(phi[None, :], r, base_points,
                                 log_coeffs=ts.model.log_coeffs(len(phi) - 1))[0])
    if verify:
        verify_count(ts, r, w)
    return ZeroCountResult(count=w, radius=r, verified_by_oracle=verify)


def verify_count(ts: TruncatedSeries, r: float, count: int) -> None:
    """Raise ZeroCountError unless the root oracle finds `count` zeros in |z| < r.

    The companion-matrix roots share no code or representation with the
    winding count.
    """
    oracle = int(np.sum(np.abs(roots_truncated(ts)) < r))
    if oracle != count:
        raise ZeroCountError(
            f"argument principle ({count}) disagrees with root oracle ({oracle}) at r={r!r}")


def _unit_circle_rows(rows: np.ndarray, r: float,
                      log_coeffs: np.ndarray | None) -> np.ndarray:
    """Rows rescaled so that |z| = r becomes the unit circle, in log scale.

    Entry n becomes phi_n exp(t_n - M) with t_n = log a_n + n log r and M the
    row's largest log|phi_n| + t_n: the row then evaluates p(r w) e^(-M), which
    winds exactly as p does along |z| = r.  No a_n or r^n is ever formed in
    linear scale, so no term underflows or overflows on its own; the phase is
    exp(1j * angle), because phi / |phi| overflows for subnormal phi.
    """
    t = np.arange(rows.shape[1]) * math.log(r)
    if log_coeffs is not None:
        t = t + log_coeffs
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.abs(rows)) + t
    top = np.max(log_mag, axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0  # an identically zero row stays zero
    return np.exp(log_mag - top) * np.exp(1j * np.angle(rows))


def _unit_circle_pass(D: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """(resolved, counts) for scaled rows D on `points` unit-circle points.

    F = points * ifft(D) is sum_n D_n w^n at w = exp(2 pi i k / points);
    coefficients past `points` are folded onto n mod points first.  Rows go
    through in blocks, so the temporaries stay near _BLOCK_VALUES values.
    """
    resolved = np.zeros(len(D), dtype=bool)
    counts = np.zeros(len(D), dtype=np.int64)
    if D.shape[1] > points:
        D = np.pad(D, ((0, 0), (0, -D.shape[1] % points)))
        D = D.reshape(len(D), -1, points).sum(axis=1)
    step = max(1, _BLOCK_VALUES // points)
    for lo in range(0, len(D), step):
        F = points * np.fft.ifft(D[lo: lo + step], n=points, axis=1)
        inc = np.angle(np.roll(F, -1, axis=1) * np.conj(F))
        absF = np.abs(F)
        scale = np.max(absF, axis=1)
        fine = ((np.max(np.abs(inc), axis=1) < _ARG_STEP_LIMIT)
                & (np.min(absF, axis=1) >= _TINY_MODULUS_REL * scale)
                & (scale > 0.0))
        w_float = np.sum(inc, axis=1) / (2.0 * np.pi)
        w = np.rint(w_float).astype(np.int64)
        resolved[lo: lo + step] = fine & (np.abs(w_float - w) <= 1e-3)
        counts[lo: lo + step] = w
    return resolved, counts


def winding_counts_batch(coeff_rows: np.ndarray, r: float,
                         base_points: int | None = None, *,
                         log_coeffs: np.ndarray | None = None,
                         strict: bool = True) -> np.ndarray:
    """Winding numbers for many coefficient rows along the same circle.

    Row i holds c_n = phi_n a_n, or phi_n alone when `log_coeffs` gives
    log(a_n) (then no a_n is formed in linear scale, where it underflows).
    Every row is rescaled to the unit circle (`_unit_circle_rows`) and
    evaluated by one FFT on a shared grid of `base_points` points.  Rows
    failing the argument-step, tiny-modulus or near-integer checks are
    re-evaluated together on a grid of twice the points, up to
    _BATCH_MAX_POINTS; only the rows still unresolved go to the per-row
    `count_for_coeffs`.  A row that path cannot certify, or that winds a
    negative number of times (impossible for an analytic function), raises
    ZeroCountError, or with strict=False gets a negative count.
    """
    rows = np.asarray(coeff_rows, dtype=np.complex128)
    if base_points is None:
        base_points = _default_base_points(rows.shape[1])
    D = _unit_circle_rows(rows, r, log_coeffs)
    counts = np.empty(len(D), dtype=np.int64)
    todo = np.arange(len(D))
    points = base_points
    while len(todo):
        resolved, got = _unit_circle_pass(D[todo], points)
        counts[todo[resolved]] = got[resolved]
        todo = todo[~resolved]
        if points >= _BATCH_MAX_POINTS:
            break
        points *= 2
    for i in todo:
        try:
            counts[i] = count_for_coeffs(D[i], 1.0, base_points)
        except ZeroCountError as exc:
            if strict:
                raise ZeroCountError(
                    f"row {i} at r={r!r}, counted on the rescaled unit circle: {exc}") from None
            counts[i] = -1
    if strict and np.any(counts < 0):
        i = int(np.flatnonzero(counts < 0)[0])
        raise ZeroCountError(f"negative winding {counts[i]} in row {i} at r={r!r} "
                             "for an analytic function")
    return counts


def _strip_trailing(c: np.ndarray) -> np.ndarray:
    scale = float(np.max(np.abs(c)))
    if scale == 0.0 or not math.isfinite(scale):
        raise ValueError("degenerate polynomial: no usable coefficients")
    keep = np.abs(c) >= _STRIP_REL * scale
    top = int(np.flatnonzero(keep)[-1])
    return c[: top + 1]


def roots_truncated(ts: TruncatedSeries, *, check_residuals: bool = True) -> np.ndarray:
    """All roots of the truncated polynomial via the balanced companion matrix.

    Roots are polished by damped Newton to convergence; each residual
    |p(z*)| is then checked against 1e-8 times the max of |p| on the circle
    |z| = |z*| (64-point grid, a lower bound for the true max, so the check
    only errs on the strict side).
    """
    c = _strip_trailing(ts.coeffs())
    if len(c) == 1:
        return np.empty(0, dtype=np.complex128)
    roots = _polish_roots(c, np.roots(c[::-1]))
    if check_residuals:
        _check_residuals(c, roots)
    return roots


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _polish_roots(c: np.ndarray, roots: np.ndarray, iters: int = 60) -> np.ndarray:
    """Damped Newton, run to convergence.

    Raw companion eigenvalues are near-exact for inner roots but can be off
    by O(1) residuals near the outer root-accumulation circle of high-degree
    truncations; a step is only accepted where it shrinks |p|.  Far-out
    roots of high-degree truncations overflow Horner: their non-finite steps
    are zeroed, and _check_residuals rejects a root whose residual stays
    non-finite.
    """
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


def _check_residuals(c: np.ndarray, roots: np.ndarray) -> None:
    """Raise unless every |p(z*)| is finite and below 1e-8 max|p| on |z| = |z*|.

    Horner overflows at far-out roots of high-degree truncations; a
    non-finite residual or circle maximum cannot certify the root, so it
    fails the check instead of comparing inf with inf.
    """
    if len(roots) == 0:
        return
    phases = np.exp(2j * np.pi * np.arange(64) / 64)
    circle = np.abs(roots)[:, None] * phases[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(_horner(c, roots))
        denom = np.max(np.abs(_horner(c, circle)), axis=1)
    bad = ~np.isfinite(resid) | ~np.isfinite(denom) | (resid > _RESIDUAL_REL * denom)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise RootResidualError(
            f"root {roots[i]!r}: residual {resid[i]:.3e} against circle max "
            f"{denom[i]:.3e} (both must be finite, ratio <= {_RESIDUAL_REL:g})")


def min_zero_modulus(ts: TruncatedSeries) -> float:
    """Smallest |z*| over all roots; +inf for a nonzero constant."""
    roots = roots_truncated(ts)
    if len(roots) == 0:
        return math.inf
    return float(np.min(np.abs(roots)))


def rotate_draw(phi: np.ndarray, theta: float) -> np.ndarray:
    """phi_n -> phi_n * e^(i n theta), mapping f(z) to f(z e^(i theta)).

    n runs along the last axis, so `phi` is one row or a block of rows.
    """
    return phi * np.exp(1j * theta * np.arange(phi.shape[-1]))
