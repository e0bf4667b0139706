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
  * a companion-matrix root oracle (balanced eigenvalues, a damped Newton
    polish and a residual check against the max of |p| on the root's own
    circle).  `roots_rows` is the one implementation: rows of equal
    stripped length form one stack, solved by one `eigvals` call and
    polished and checked together; `roots_truncated`, `min_zero_modulus`
    and `verify_count` are its one-row case, `min_zero_moduli` and
    `verify_counts` its many-row case, and a failure names the sample.

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
_BLOCK_VALUES = 2**16  # circle values per FFT block (1 MB of complex128, cache-sized)
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

    F = ifft(D, norm="forward") is sum_n D_n w^n at w = exp(2 pi i k / points);
    coefficients past `points` are folded onto n mod points first.  Rows go
    through in blocks of about _BLOCK_VALUES values, small enough to stay in
    cache and to keep the temporaries of forked pool workers small.
    """
    resolved = np.zeros(len(D), dtype=bool)
    counts = np.zeros(len(D), dtype=np.int64)
    if D.shape[1] > points:
        D = np.pad(D, ((0, 0), (0, -D.shape[1] % points)))
        D = D.reshape(len(D), -1, points).sum(axis=1)
    step = max(1, _BLOCK_VALUES // points)
    for lo in range(0, len(D), step):
        F = np.fft.ifft(D[lo: lo + step], n=points, axis=1, norm="forward")
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
    form one stack: one (rows, N, N) companion array of the nonzero part,
    as `np.roots` builds it, one `np.linalg.eigvals` call, roots at 0 for
    the zero constant terms, and one damped Newton polish of the whole
    stack.  Each residual |p(z*)| is then checked against 1e-8 times the
    max of |p| on the circle |z| = |z*| (64-point grid, a lower bound for
    the true max, so the check only errs on the strict side).  A failing
    root raises RootResidualError naming its sample, `first_index` plus
    its row.  Row for row, the roots equal those of `np.roots` plus the
    polish bit for bit.
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
        if n - lead > 1:
            p = C[:, lead:][:, ::-1]  # highest degree first, as np.roots strips it
            A = np.zeros((len(idx), n - lead - 1, n - lead - 1), dtype=p.dtype)
            A[:, 0, :] = -p[:, 1:] / p[:, :1]
            sub = np.arange(n - lead - 2)
            A[:, sub + 1, sub] = 1
            roots[:, : n - lead - 1] = np.linalg.eigvals(A)
        roots = _polish_roots(C, roots)
        if check_residuals:
            _check_residuals(C, roots, [first_index + i for i in idx])
        for k, i in enumerate(idx):
            out[i] = roots[k]
    return out


def roots_truncated(ts: TruncatedSeries, *, check_residuals: bool = True) -> np.ndarray:
    """All roots of the truncated polynomial: the one-row case of `roots_rows`."""
    return roots_rows(ts.coeffs()[None, :], check_residuals=check_residuals)[0]


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

    C and roots hold one row per polynomial (1-D: one polynomial).  Horner
    overflows at far-out roots of high-degree truncations; a non-finite
    residual or circle maximum cannot certify the root, so it fails the
    check instead of comparing inf with inf.  The error names the first
    failing row's entry of `samples` (default: its row).
    """
    C, roots = np.atleast_2d(C), np.atleast_2d(roots)
    phases = np.exp(2j * np.pi * np.arange(64) / 64)
    circle = np.abs(roots)[..., None] * phases
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.abs(_horner(C, roots))
        denom = np.max(np.abs(_horner(C, circle)), axis=-1)
    bad = ~np.isfinite(resid) | ~np.isfinite(denom) | (resid > _RESIDUAL_REL * denom)
    if bad.any():
        row, i = (int(k[0]) for k in np.nonzero(bad))
        raise RootResidualError(
            f"sample {row if samples is None else samples[row]}: root {roots[row, i]!r}: "
            f"residual {resid[row, i]:.3e} against circle max {denom[row, i]:.3e} "
            f"(both must be finite, ratio <= {_RESIDUAL_REL:g})")


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
