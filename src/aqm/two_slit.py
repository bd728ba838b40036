"""Two-slit scattering on an N-site lattice.

A slit is a set of lattice sites, held as a 0/1 site mask: its projector
is diag(mask), so P_a rho P_b is rho masked elementwise.  The screen
observable is a projector onto a bin of discrete-Fourier modes, standing
in for a small solid angle of outgoing momenta.  The ensemble mean of a
screen projector splits exactly into a slit-a term, a slit-b term, and a
cross (interference) term.  The stacked-screens sampler realizes the same
statistics one event at a time, with each particle localized at exactly
one slit; the cross term's mass is shared equally between the two slit
labels, the unique symmetric split consistent with the ensemble
decomposition.  The pattern and the split are computed per DFT mode by
FFT from the masks.  The dense `slit_projectors`, `momentum_projector` and
`decompose_mean` are oracles for tests and arbitrary bins; the only dense
matrix a run builds is the slit event it conditions on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aqm.algebra import as_matrix
from aqm.ensemble import QuantumState, condition_on_event, inverse_cdf
from aqm.errors import ImpossibleEventError, ModelViolationError
from aqm.rng import event_chunks, event_uniforms

CLOSURE_TOL = 1e-10
CONDITIONED_TOL = 1e-8
CLAMP_BUDGET = 1e-6  # per lattice site, see screen_split


@dataclass(frozen=True)
class SlitGeometry:
    """Disjoint, non-empty site sets for the two slits on an N-site lattice."""

    grid_size: int
    slit_a: frozenset
    slit_b: frozenset

    def __post_init__(self):
        a = frozenset(int(i) for i in self.slit_a)
        b = frozenset(int(i) for i in self.slit_b)
        if not a or not b:
            raise ValueError("both slits must be non-empty")
        if a & b:
            raise ValueError(f"slits overlap on sites {sorted(a & b)}")
        if any(i < 0 or i >= self.grid_size for i in a | b):
            raise ValueError("slit site index out of range")
        object.__setattr__(self, "slit_a", a)
        object.__setattr__(self, "slit_b", b)

    @property
    def masks(self) -> tuple:
        """0/1 float site masks (a, b) of the two slits."""
        a, b = np.zeros(self.grid_size), np.zeros(self.grid_size)
        a[list(self.slit_a)] = 1.0
        b[list(self.slit_b)] = 1.0
        return a, b


@dataclass(frozen=True)
class MomentumBin:
    """Contiguous index range [start, stop) in the DFT momentum basis."""

    start: int
    stop: int

    def __post_init__(self):
        if self.stop <= self.start:
            raise ValueError("momentum bin must be non-empty")

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class InterferenceDecomposition:
    """Three-term split of the mean of a screen projector."""

    direct_a: float
    direct_b: float
    interference: float
    total: float


def slit_projectors(geom: SlitGeometry):
    """Dense diagonal projectors diag(a), diag(b) of the slit masks; a test oracle."""
    return tuple(np.diag(m) for m in geom.masks)


def dft_basis(n: int) -> np.ndarray:
    """Columns are the orthonormal discrete-Fourier momentum modes."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def momentum_projector(mbin: MomentumBin, n: int) -> np.ndarray:
    """Projector onto a contiguous bin of DFT momentum modes."""
    if mbin.start < 0 or mbin.stop > n:
        raise ValueError(f"momentum bin {mbin} out of range for N={n}")
    cols = dft_basis(n)[:, mbin.start : mbin.stop]
    k = cols @ cols.conj().T
    return 0.5 * (k + k.conj().T)


def uniform_source(n: int) -> QuantumState:
    """Default incident state: uniform pure state over all sites."""
    return QuantumState.pure(np.ones(n))


def _slit_masks(psi: QuantumState, geom: SlitGeometry) -> tuple:
    """`geom.masks`, once the state is checked to live on the slits' lattice."""
    if psi.dim != geom.grid_size:
        raise ValueError(f"state has dimension {psi.dim}, expected N={geom.grid_size}")
    return geom.masks


def _weight(psi: QuantumState, mask: np.ndarray) -> float:
    """tr(rho diag(mask)), read off the diagonal of rho."""
    return float(np.sum(np.diagonal(psi.rho) * mask).real)


def prepare_conditioned(psi0: QuantumState, geom: SlitGeometry) -> QuantumState:
    """Select the sub-ensemble that passed through one of the slits."""
    e = sum(geom.masks)
    psi = condition_on_event(psi0, np.diag(e))
    support = _weight(psi, e)
    if abs(support - 1.0) > 1e-12:
        raise ImpossibleEventError(
            f"conditioned state has slit support {support}, expected 1"
        )
    return psi


def verify_support_identities(
    psi_ab: QuantumState, geom: SlitGeometry, trials: int, rng: np.random.Generator
) -> float:
    """Max residual of the right/left/two-sided slit-support absorptions.

    For random dynamical variables A, the mean of A must equal the means
    of AE, EA, and EAE where E = diag(e) is the total slit projector; this
    is the Cauchy-Schwarz consequence of unit slit support.
    """
    e = sum(_slit_masks(psi_ab, geom))
    if abs(_weight(psi_ab, e) - 1.0) > CONDITIONED_TOL:
        raise ValueError("state is not conditioned on the slit event")
    rho = psi_ab.rho
    n = rho.shape[0]

    def mean(m):
        return np.trace(rho @ m)

    worst = 0.0
    for _ in range(trials):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        base = mean(a)
        worst = max(
            worst,
            abs(base - mean(a * e)),
            abs(base - mean(e[:, None] * a)),
            abs(base - mean(e[:, None] * a * e)),
        )
    return float(worst)


def decompose_mean(psi_ab: QuantumState, k, p_a, p_b) -> InterferenceDecomposition:
    """Split the mean of the screen observable into direct and cross terms."""
    mk, ma, mb = as_matrix(k), as_matrix(p_a), as_matrix(p_b)
    rho = psi_ab.rho
    direct_a = np.trace(rho @ ma @ mk @ ma).real
    direct_b = np.trace(rho @ mb @ mk @ mb).real
    cross = np.trace(rho @ (ma @ mk @ mb + mb @ mk @ ma)).real
    total = np.trace(rho @ mk).real
    return InterferenceDecomposition(
        direct_a=float(direct_a),
        direct_b=float(direct_b),
        interference=float(cross),
        total=float(total),
    )


def _mode_diagonal(g: np.ndarray) -> np.ndarray:
    """diag(F^dagger G F).real over the DFT modes F = dft_basis(N), by two FFTs."""
    return np.diagonal(np.fft.ifft(np.fft.fft(g, axis=1), axis=0)).real.copy()


def _mode_statistics(psi_ab: QuantumState, geom: SlitGeometry) -> tuple:
    """Per-mode (direct_a, direct_b, cross, total) of every single-mode screen.

    Each vector is diag(F^dagger G F) for G = P_a rho P_a, P_b rho P_b,
    P_a rho P_b + P_b rho P_a and rho; with P = diag(mask) each G is rho
    masked elementwise by an outer product of the slit masks.
    """
    a, b = _slit_masks(psi_ab, geom)
    rho = psi_ab.rho
    masks = (np.outer(a, a), np.outer(b, b), np.outer(a, b) + np.outer(b, a), 1.0)
    return tuple(_mode_diagonal(rho * m) for m in masks)


def pattern_decomposed(psi_ab: QuantumState, geom: SlitGeometry) -> list:
    """Per-momentum-site decomposition over single-mode bins."""
    return _decomposition(_mode_statistics(psi_ab, geom))


def _decomposition(modes: tuple) -> list:
    """One InterferenceDecomposition per mode, from `_mode_statistics` vectors."""
    return [InterferenceDecomposition(*row) for row in zip(*(m.tolist() for m in modes))]


def pattern(psi_ab: QuantumState) -> np.ndarray:
    """Momentum distribution of the conditioned state over single-mode bins."""
    return np.clip(_mode_diagonal(psi_ab.rho), 0.0, None)


@dataclass(frozen=True, eq=False)
class ScreenSplit:
    """Per-event split of a conditioned ensemble between the two slits."""

    modes: tuple  # per-mode (direct_a, direct_b, cross, total) it was built from
    slit_probs: np.ndarray
    conds: tuple  # momentum distribution given slit a, given slit b
    clamped: tuple  # negative mass clamped from each, at most `budget`
    budget: float


def screen_split(psi_ab: QuantumState, geom: SlitGeometry) -> ScreenSplit:
    """Per-slit conditional momentum distributions of the event sampler.

    The direct term of a slit goes entirely to that slit's label; the
    cross term is split half and half.  Negative masses (the cross term is
    not sign-definite) are clamped to zero; if the clamped mass exceeds
    the per-site budget the split rule cannot reproduce the pattern and a
    diagnostic error is raised.
    """
    modes = _mode_statistics(psi_ab, geom)
    direct_a, direct_b, cross, _ = modes
    n = len(cross)
    budget = CLAMP_BUDGET * n
    slit_probs = np.array([_weight(psi_ab, m) for m in geom.masks])
    conds, clamped = [], []
    for direct in (direct_a, direct_b):
        mass = direct + 0.5 * cross
        clamped.append(float(np.sum(np.maximum(-mass, 0.0))))
        if clamped[-1] > budget:
            raise ModelViolationError(
                f"per-event split rule produced negative conditional mass "
                f"{clamped[-1]:.3e} (budget {budget:.3e}); the kernel "
                f"sampler cannot reproduce the interference pattern here"
            )
        mass = np.clip(mass, 0.0, None)
        # a slit of zero Born weight is never sampled: a flat placeholder
        conds.append(mass / mass.sum() if mass.sum() > 0.0 else np.full(n, 1.0 / n))
    return ScreenSplit(modes, slit_probs / slit_probs.sum(), tuple(conds), tuple(clamped), budget)


def sample_screens(split: ScreenSplit, n_events: int, seed: int):
    """Accumulate independent single-particle events into one histogram.

    Each event localizes the particle at exactly one slit, then draws a
    momentum site from that slit's conditional distribution.  Events are
    addressed by (seed, event index) counter streams, so the histogram is
    reproducible and independent of execution order; they are drawn one
    chunk of rng.event_chunks at a time, in memory that does not grow with
    n_events.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    n = len(split.conds[0])
    histogram = np.zeros(n, dtype=np.int64)
    n_b = 0
    for start, count in event_chunks(n_events):
        u = event_uniforms(seed, count, start=start)  # per event: (slit, site, _, _)
        slit_b = u[:, 0] >= split.slit_probs[0]
        for s in (0, 1):
            site = inverse_cdf(split.conds[s], u[slit_b == bool(s), 1])
            histogram += np.bincount(site, minlength=n)
        n_b += int(np.count_nonzero(slit_b))
    return histogram, (n_events - n_b, n_b)


def stacked_screens(psi0: QuantumState, geom: SlitGeometry, n_events: int, seed: int):
    """`sample_screens` of `psi0` conditioned on the slits of `geom`."""
    psi_ab = prepare_conditioned(psi0, geom)
    return sample_screens(screen_split(psi_ab, geom), n_events, seed)


def total_variation(histogram: np.ndarray, probs: np.ndarray) -> float:
    """TV distance between an empirical histogram and a probability vector."""
    freq = histogram / histogram.sum()
    return float(0.5 * np.sum(np.abs(freq - probs)))
