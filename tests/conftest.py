import math

import numpy as np
import pytest

from holelab import CoefficientModel, evaluate_zeros


@pytest.fixture(scope="session")
def gef():
    model = CoefficientModel.gef()
    model.log_coeffs(120_000)  # builds the process's GEF table once for the session
    return model


@pytest.fixture(scope="session")
def ml1():
    return CoefficientModel.mittag_leffler(1.0)


@pytest.fixture
def refuse_row(monkeypatch):
    """refuse(row, r, log_coeffs): make the kernel refuse the row phi_0..phi_N.

    The dominant-term pass leaves that row to the grid, and the arc
    bisection refuses it there; every other row takes its usual route.
    The row is known by its scaled row, whose largest term has modulus 1:
    in the pass by its sums l1 and S to 1e-9, in the bisection by its
    entries to 1e-12.  No two samples come that close.  Forked workers
    inherit the patch.
    """
    def refuse(row, r, log_coeffs):
        t = log_coeffs + np.arange(len(row)) * math.log(r)
        size = np.exp(np.log(np.abs(row)) + t - np.max(np.log(np.abs(row)) + t))
        target = row / np.abs(row) * size
        l1, S = size.sum(), size @ (1.0 + np.arange(len(row)))
        dominant, bisect = evaluate_zeros._dominant_terms, evaluate_zeros._bisect

        def leave(K, bits):
            k = dominant(K, bits)
            k[np.isclose(K[:, 3], l1, rtol=1e-9, atol=0.0)
              & np.isclose(K[:, 1], S, rtol=1e-9, atol=0.0)] = -1
            return k

        def bisect_refusing(D, *args):
            refused = bisect(D, *args)
            refused[np.max(np.abs(D - target), axis=1) <= 1e-12] = True
            return refused

        monkeypatch.setattr(evaluate_zeros, "_dominant_terms", leave)
        monkeypatch.setattr(evaluate_zeros, "_bisect", bisect_refusing)

    return refuse
