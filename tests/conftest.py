import numpy as np
import pytest

from aqm.algebra import IncompatibleObservableError, _branch_values

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def sigma_x():
    return SIGMA_X


@pytest.fixture
def sigma_z():
    return SIGMA_Z


def chi_square_test(observed, expected) -> tuple:
    """(statistic, critical value) of Pearson's chi-square test at alpha = 1e-3.

    The cells expected to hold fewer than 5 are pooled into one.  The
    critical value is the Wilson-Hilferty approximation of the chi-square
    quantile, within 3% of it from 2 degrees of freedom on.
    """
    observed, expected = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    small = expected < 5.0
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    df = len(expected) - 1
    z = 3.0902  # the 1 - 1e-3 quantile of the standard normal
    critical = df * (1.0 - 2.0 / (9 * df) + z * np.sqrt(2.0 / (9 * df))) ** 3
    return float(np.sum((observed - expected) ** 2 / expected)), float(critical)


def measurable(q, a) -> bool:
    """True iff algebra._branch_values, the package's one measurability test, accepts the pair."""
    try:
        _branch_values(q, a)
    except IncompatibleObservableError:
        return False
    return True
