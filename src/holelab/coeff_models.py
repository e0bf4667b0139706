"""Deterministic coefficient sequences and the qualifying-index log-sum S(r).

Two coefficient families are supported, both kept in log scale because the
raw terms a_n * r^n overflow double precision near the peak index n ~ r^2
once r is moderately large:

  * square-root-factorial coefficients  a_n = (n!)^(-1/2)
  * Mittag-Leffler coefficients         a_n = 1 / Gamma(alpha*n + 1)

Both come from `log_gamma`, the standard library's `math.lgamma` applied
elementwise, the one special function the lab needs.

The central quantity is

    S(r) = 2 * sum_{n : a_n r^n >= 1} log(a_n r^n),

an exact finite sum: the term sequence t_n = log(a_n) + n*log(r) rises from
t_0 = 0 to a single peak and then falls off super-exponentially, so the
qualifying set is the contiguous block {0, ..., n_last}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Leading constant of the quartic growth law claimed for the
# square-root-factorial family: (3/4) * e^2.
QUARTIC_LAW_CONST = 0.75 * math.e**2


def log_gamma(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) for an array of x > 0, elementwise by `math.lgamma`."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(math.lgamma, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


class ModelKind(Enum):
    GEF = "gef"
    MITTAG_LEFFLER = "mittag-leffler"


@dataclass
class CoefficientModel:
    """A coefficient sequence a_n, cached as log(a_n).

    The cache is append-only: once an entry is computed it never changes.
    Extension is not locked; warm it in a single thread (one `log_coeffs`
    call with the largest index) before sharing the model across workers.
    """

    kind: ModelKind
    alpha: float = 1.0
    _cache: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind is ModelKind.MITTAG_LEFFLER and not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        self._cache = np.zeros(1)  # log a_0 = 0 for both kinds

    @classmethod
    def gef(cls) -> "CoefficientModel":
        return cls(ModelKind.GEF)

    @classmethod
    def mittag_leffler(cls, alpha: float) -> "CoefficientModel":
        return cls(ModelKind.MITTAG_LEFFLER, alpha)

    def _log_coeff_block(self, n: np.ndarray) -> np.ndarray:
        if self.kind is ModelKind.GEF:
            return -0.5 * log_gamma(n + 1.0)
        return -log_gamma(self.alpha * n + 1.0)

    def log_coeffs(self, n_max: int) -> np.ndarray:
        """log(a_n) for n = 0..n_max as a read-only view of the cache."""
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        if n_max >= len(self._cache):
            hi = max(n_max + 1, 2 * len(self._cache))
            fresh = np.arange(len(self._cache), hi, dtype=np.float64)
            self._cache = np.concatenate([self._cache, self._log_coeff_block(fresh)])
        view = self._cache[: n_max + 1]
        view.flags.writeable = False
        return view

    def log_coeff(self, n: int) -> float:
        """log(a_n); deterministic and consistent with the cache."""
        return float(self.log_coeffs(n)[n])


def _scan_terms(model: CoefficientModel, r: float) -> np.ndarray:
    """Terms t_n = log(a_n) + n*log(r) out to just past the qualifying block.

    The scan stops once the peak has been passed and the terms have dropped
    safely below zero, which the log-concavity of t_n makes final.
    """
    log_r = math.log(r)
    if model.kind is ModelKind.GEF:
        guess = int(math.e * r * r) + 64
    else:
        guess = int((math.e / model.alpha) * r ** (1.0 / model.alpha)) + 64
    while True:
        n = np.arange(guess + 1, dtype=np.float64)
        t = model.log_coeffs(guess) + n * log_r
        peak = int(np.argmax(t))
        if peak < guess and t[-1] < -1.0:
            return t
        guess *= 2


def s_of_r(model: CoefficientModel, r: float) -> float:
    """The exact sum 2 * sum(t_n) over the qualifying block {n : t_n >= 0}."""
    return s_of_r_detail(model, r).value


@dataclass(frozen=True)
class QualifyingSum:
    value: float
    last_index: int  # largest n with a_n r^n >= 1 (ties at exactly 1 included)
    term_count: int


def s_of_r_detail(model: CoefficientModel, r: float) -> QualifyingSum:
    if not r > 0:
        raise ValueError("r must be positive")
    t = _scan_terms(model, r)
    qualifying = np.flatnonzero(t >= 0.0)
    if qualifying.size == 0:  # only possible through rounding at tiny r; n=0 is a tie
        return QualifyingSum(0.0, 0, 1)
    last = int(qualifying[-1])
    # t is concave with t_0 = 0, so the qualifying set is the prefix 0..last.
    value = 2.0 * float(np.sum(t[: last + 1]))
    return QualifyingSum(value, last, last + 1)


def s_asymptotic(model: CoefficientModel, r: float) -> float:
    """Leading-order growth law: (3e^2/4) r^4, resp. r^(2/alpha) / (2 alpha)."""
    if not r > 0:
        raise ValueError("r must be positive")
    if model.kind is ModelKind.GEF:
        return QUARTIC_LAW_CONST * r**4
    return r ** (2.0 / model.alpha) / (2.0 * model.alpha)


def peak_index_range(model: CoefficientModel, r: float) -> tuple[int, int]:
    """Index interval where a_n r^n attains its local maximum.

    For the square-root-factorial family this is the closed-form interval
    {ceil(r^2 - 1), ..., floor(r^2)}.  For Mittag-Leffler coefficients the
    interval is found by scanning (no closed form is assumed).
    """
    if not r >= 1:
        raise ValueError("peak interval defined for r >= 1")
    if model.kind is ModelKind.GEF:
        return (math.ceil(r * r - 1.0), math.floor(r * r))
    t = _scan_terms(model, r)
    best = np.max(t)
    ties = np.flatnonzero(t == best)
    return (int(ties[0]), int(ties[-1]))


def tail_log_bound(r: float, n: int) -> float:
    """Tail bound -(n - e r^2)/2 >= log(a_n r^n), valid for n >= e r^2.

    Specific to the square-root-factorial coefficients.
    """
    if n < math.e * r * r:
        raise ValueError(f"need n >= e*r^2 = {math.e * r * r:.6g}, got n = {n}")
    return -0.5 * (n - math.e * r * r)
