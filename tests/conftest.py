from contextlib import contextmanager

import numpy as np
import pytest

from aqm import rng

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def sigma_x():
    return SIGMA_X


@pytest.fixture
def sigma_z():
    return SIGMA_Z


@contextmanager
def pool_of(threads):
    """Run the block with rng.chunk_map's thread pool rebuilt at `threads` threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "_WORKERS", threads)  # read when the pool is built
        rng._executor.cache_clear()
        try:
            yield
        finally:
            rng._executor().shutdown(wait=True)
            rng._executor.cache_clear()
