import pytest

from holelab import CoefficientModel


@pytest.fixture(scope="session")
def gef():
    model = CoefficientModel.gef()
    model.log_coeffs(120_000)  # builds the process's GEF table once for the session
    return model


@pytest.fixture(scope="session")
def ml1():
    return CoefficientModel.mittag_leffler(1.0)
