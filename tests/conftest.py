import numpy as np
import pytest

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def sigma_x():
    return SIGMA_X


@pytest.fixture
def sigma_z():
    return SIGMA_Z

