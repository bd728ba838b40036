import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aqm.algebra import Character, masa_from, spectral_decompose
from aqm.ensemble import born_distribution
from aqm.experiments import random_density, random_hermitian
from aqm.interferometer import DeviceConfig, wave_probabilities
from aqm.two_slit import MomentumBin, momentum_projector


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 12))
def test_spectral_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_hermitian(dim, rng, scale=rng.uniform(0.1, 10.0))
    recon = sum(val * proj for val, proj in spectral_decompose(a))
    assert np.max(np.abs(a - recon)) <= 1e-10 * max(1.0, np.abs(a).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 10))
def test_character_homomorphism(seed, dim):
    rng = np.random.default_rng(seed)
    ctx = masa_from(random_hermitian(dim, rng))
    chi = Character(ctx, int(rng.integers(0, ctx.n_branches)))
    coeffs = rng.standard_normal((2, ctx.n_branches))
    a = sum(c * p for c, p in zip(coeffs[0], ctx.projectors))
    b = sum(c * p for c, p in zip(coeffs[1], ctx.projectors))
    assert abs(chi(a @ b) - chi(a) * chi(b)) <= 1e-9
    assert abs(chi(a + b) - chi(a) - chi(b)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 10))
def test_born_distribution_normalized(seed, dim):
    rng = np.random.default_rng(seed)
    psi = random_density(dim, rng)
    ctx = masa_from(random_hermitian(dim, rng))
    probs = born_distribution(psi, ctx).probs
    assert np.all(probs >= 0)
    assert probs.sum() == 1.0 or abs(probs.sum() - 1.0) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 48),
    data=st.data(),
)
def test_momentum_bins_tile_the_identity(n, data):
    cut = data.draw(st.integers(1, n - 1))
    left = momentum_projector(MomentumBin(0, cut), n)
    right = momentum_projector(MomentumBin(cut, n), n)
    assert np.max(np.abs(left + right - np.eye(n))) <= 1e-10
    assert np.max(np.abs(left @ right)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(0.01, np.pi / 2 - 0.01),
    phase=st.floats(0.0, 2 * np.pi),
    present=st.booleans(),
)
def test_wave_model_conserves_probability(theta, phase, present):
    cfg = DeviceConfig(
        m4_present=present, transmit=np.cos(theta), reflect=1j * np.sin(theta)
    )
    p_da, p_db = wave_probabilities(cfg, phase_a=phase)
    assert abs(p_da + p_db - 1.0) <= 1e-12
