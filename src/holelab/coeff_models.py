"""Deterministic coefficient sequences and the qualifying-index log-sum S(r).

Two coefficient families are supported, both kept in log scale because the
raw terms a_n * r^n overflow double precision near the peak index n ~ r^2
once r is moderately large:

  * square-root-factorial coefficients  a_n = (n!)^(-1/2)
  * Mittag-Leffler coefficients         a_n = 1 / Gamma(alpha*n + 1)

Both come from `log_gamma`, the standard library's `math.lgamma` applied
elementwise, the one special function the lab needs.  Each process keeps one
append-only table of log(a_n) per coefficient family, shared by every
`CoefficientModel` equal to it: a command pays for the entries it reads only
the first time any command in the process reads them.  The children that
run parallel jobs are forked from the process and inherit the tables.

The central quantity is

    S(r) = 2 * sum_{n : a_n r^n >= 1} log(a_n r^n),

an exact finite sum: the term sequence t_n = log(a_n) + n*log(r) rises from
t_0 = 0 to a single peak and then falls off super-exponentially, so the
qualifying set is the contiguous block {0, ..., n_last}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class CoefficientModel:
    """A coefficient sequence a_n, read as log(a_n) from its family's table.

    The model is a hashable value, (kind, alpha), and keys one table per
    process in `_TABLES`, which `log_coeffs` extends on demand and never
    rewrites: an entry once computed stays bit-identical, and a view handed
    out earlier stays valid when the table grows.  A table is replaced, not
    written in place, when it grows, so readers in other threads never see
    a half-built one; two threads extending it at once at worst compute the
    same entries twice.  Forked children inherit the tables built before
    the fork, and a job a child runs extends only the child's copy.
    """

    kind: ModelKind
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind is ModelKind.MITTAG_LEFFLER and not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

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
        """log(a_n) for n = 0..n_max as a read-only view of the family's table."""
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        table = _TABLES.get(self, _LOG_A0)
        if n_max >= len(table):
            hi = max(n_max + 1, 2 * len(table))
            fresh = np.arange(len(table), hi, dtype=np.float64)
            table = np.concatenate([table, self._log_coeff_block(fresh)])
            table.flags.writeable = False
            _TABLES[self] = table
        return table[: n_max + 1]


_LOG_A0 = np.zeros(1)  # log a_0 = 0 for both kinds
_LOG_A0.flags.writeable = False
_TABLES: dict[CoefficientModel, np.ndarray] = {}


def _scan_terms(model: CoefficientModel, r: float) -> np.ndarray:
    """Terms t_n = log(a_n) + n*log(r) out to just past the qualifying block.

    The scan stops once the peak has been passed and the terms have dropped
    safely below zero, which the log-concavity of t_n makes final.
    """
    log_r = math.log(r)
    guess = int(peak_bound(model, r)) + 64
    while True:
        n = np.arange(guess + 1, dtype=np.float64)
        t = model.log_coeffs(guess) + n * log_r
        peak = int(np.argmax(t))
        if peak < guess and t[-1] < -1.0:
            return t
        guess *= 2


def peak_bound(model: CoefficientModel, r: float) -> float:
    """e r^2, or (e/alpha) |r|^(1/alpha) for Mittag-Leffler: an index past the peak of a_n |r|^n.

    inf where the power overflows, so that a caller can refuse the radius
    before any table of that length is asked for.
    """
    if model.kind is ModelKind.GEF:
        return math.e * r * r
    try:
        return (math.e / model.alpha) * abs(r) ** (1.0 / model.alpha)
    except OverflowError:
        return math.inf


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


def expected_zero_count(model: CoefficientModel, r: float) -> float:
    """Edelman-Kostlan mean zero count in |z| < r: r^2 K'(r^2) / K(r^2), K(t) = sum a_n^2 t^n.

    That is the mean of n under the weights a_n^2 r^(2n), summed in log scale
    until they fall by e^-100 past the peak (log a_n is concave, so the rest
    is negligible).  For GEF, K(t) = e^t and the mean is r^2 exactly.
    """
    if not r > 0:
        raise ValueError("r must be positive")
    if model.kind is ModelKind.GEF:
        return r ** 2
    n_max = 64
    while True:
        n = np.arange(n_max + 1, dtype=np.float64)
        u = 2.0 * (model.log_coeffs(n_max) + n * math.log(r))
        peak = int(np.argmax(u))
        if peak < n_max and u[-1] < u[peak] - 100.0:
            w = np.exp(u - u[peak])
            return float(np.dot(n, w) / np.sum(w))
        n_max *= 2


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

