"""Two-slit scattering on an N-site lattice.

A slit is a set of lattice sites, held as a 0/1 site mask: its projector
is diag(mask).  The source is pure and the slit event diagonal, so the
sub-ensemble that passed the slits is one unit amplitude vector psi.  The
screen observable is a projector onto a bin of discrete-Fourier modes,
standing in for a small solid angle of outgoing momenta.  Its ensemble
mean splits exactly into a slit-a term, a slit-b term and a cross
(interference) term, per DFT mode from one FFT of each slit's masked
amplitudes; no N x N matrix is built.  The stacked-screens sampler,
sample_screens, draws the tallies of events that each localize the
particle at exactly one slit, each mode's cross term shared between the
slits so that no conditional mass is negative (see screen_split), and
sampler_law_residual checks its exact law against the pattern without a draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aqm.ensemble import multinomial_counts
from aqm.rng import stream

CLOSURE_TOL = 1e-10
CLAMP_BUDGET = 1e-6  # per lattice site: a run that clamps more fails
LAW_FLOOR = 1e-12  # rounding allowance of sampler_law_residual


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


def uniform_source(n: int) -> np.ndarray:
    """Default incident state: the uniform unit amplitude vector over all sites."""
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _slit_masks(psi: np.ndarray, geom: SlitGeometry) -> tuple:
    """`geom.masks`, once the amplitudes are checked to live on the slits' lattice."""
    if psi.shape != (geom.grid_size,):
        raise ValueError(f"state has shape {psi.shape}, expected N={geom.grid_size}")
    return geom.masks


def prepare_conditioned(psi0: np.ndarray, geom: SlitGeometry) -> np.ndarray:
    """Select the sub-ensemble of the unit vector psi0 that passed through a slit.

    The slit event E = diag(a + b) keeps a pure state pure: the result is
    E psi0 / |E psi0|.
    """
    psi = sum(_slit_masks(psi0, geom)) * psi0
    weight = np.vdot(psi, psi).real
    if weight <= 1e-12:
        raise ValueError("conditioning on an event of probability zero")
    return psi / np.sqrt(weight)


def _mode_statistics(psi_ab: np.ndarray, geom: SlitGeometry) -> tuple:
    """Per-mode (direct_a, direct_b, cross, total) of every single-mode screen.

    With f_s = F^dagger (mask_s psi) the amplitude of slit s in each mode,
    F[j, k] = exp(-2 pi i jk/N)/sqrt(N), the terms are |f_a|^2, |f_b|^2,
    2 Re(conj(f_a) f_b) and |f_a + f_b|^2; the total is formed on its own,
    so the closure check compares two separately rounded results.  Real
    arithmetic, one IEEE operation per ufunc call, so SIMD dispatch moves no bit.
    """
    a, b = _slit_masks(psi_ab, geom)
    scale = np.sqrt(len(psi_ab))
    f_a, f_b = (scale * np.fft.ifft(m * psi_ab) for m in (a, b))
    ra, ia, rb, ib = f_a.real, f_a.imag, f_b.real, f_b.imag
    return (ra * ra + ia * ia, rb * rb + ib * ib, 2.0 * (ra * rb + ia * ib),
            (ra + rb) * (ra + rb) + (ia + ib) * (ia + ib))


@dataclass(frozen=True, eq=False)
class ScreenSplit:
    """Per-event split of a conditioned ensemble between the two slits."""

    modes: tuple  # per-mode (direct_a, direct_b, cross, total) it was built from
    slit_probs: np.ndarray
    conds: tuple  # momentum distribution given slit a, given slit b
    clamped: tuple  # negative mass clamped from each; a run fails above `budget`
    budget: float


def cross_shares(direct_a: np.ndarray, direct_b: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Slit a's share of each mode's cross term, by the rule of screen_split."""
    share = np.full(len(cross), 0.5)
    dark = cross < 0.0
    share[dark] = np.clip(0.5, 1.0 + direct_b[dark] / cross[dark], -direct_a[dark] / cross[dark])
    bright = np.sum(cross[cross > 0.0])
    share[~dark] -= np.sum((share[dark] - 0.5) * cross[dark]) / bright if bright > 0.0 else 0.0
    return share


def screen_split(psi_ab: np.ndarray, geom: SlitGeometry) -> ScreenSplit:
    """Per-slit conditional momentum distributions of the event sampler.

    Slit a takes its direct term plus a share s_k of mode k's cross term,
    slit b the rest.  Where cross < 0, s_k is the share nearest 1/2 that
    keeps both masses >= 0, which exists as direct_a + direct_b + cross =
    |f_a + f_b|^2.  The other modes take 1/2 + tau, the one tau that keeps
    slit a's total at p_a; disjoint slits give sum(cross) = 0, so |tau| <= 1/2.
    Where the half split is non-negative, every s_k is exactly 1/2.  Masses
    negative by rounding are clamped and reported against the per-site budget.
    """
    modes = _mode_statistics(psi_ab, geom)
    direct_a, direct_b, cross, _ = modes
    share = cross_shares(direct_a, direct_b, cross)
    slit_probs = np.array([np.sum((psi_ab.real ** 2 + psi_ab.imag ** 2) * m) for m in geom.masks])
    conds, clamped = [], []
    for direct, s in ((direct_a, share), (direct_b, 1.0 - share)):
        mass = direct + s * cross
        clamped.append(float(np.sum(np.maximum(-mass, 0.0))))
        mass = np.clip(mass, 0.0, None)
        # a slit of zero Born weight is never sampled: a flat placeholder
        conds.append(mass / mass.sum() if mass.sum() > 0.0 else np.full_like(mass, 1 / len(mass)))
    return ScreenSplit(modes, slit_probs / slit_probs.sum(), tuple(conds), tuple(clamped),
                       CLAMP_BUDGET * len(cross))


def sample_screens(split: ScreenSplit, n_events: int, seed: int):
    """Accumulate independent single-particle events into one histogram.

    Each event localizes the particle at exactly one slit, then draws a
    momentum site from that slit's conditional distribution.  The result
    reads the events only through their tallies, so it draws those: the
    slit-a tally n_a ~ Binomial(n_events, p_a), then one multinomial_counts
    histogram per slit over its conditional distribution, all three in that
    order from stream(seed, 0).  The histogram replays exactly, and time
    and memory grow with the lattice, not with n_events.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    gen = stream(seed)
    n_a = int(gen.binomial(n_events, split.slit_probs[0]))
    tallies = (n_a, n_events - n_a)
    histogram = sum(multinomial_counts(gen, n, cond) for n, cond in zip(tallies, split.conds))
    return histogram, tallies


def sampler_law_residual(split: ScreenSplit) -> tuple:
    """(residual, bound): L1 distance of the sampler's exact law p_a cond_a + p_b cond_b from P.

    With m_s = direct_s + share_s cross, c_s >= 0 what the clamp adds and C_s = sum(c_s):
    sum(m_s) = p_s (Parseval, and cross_shares keeps each slit's total), so p_s cond_s =
    p_s (m_s + c_s) / (p_s + C_s) = m_s + c_s - C_s cond_s lies within 2 C_s of m_s
    in L1.  As m_a + m_b = P, the bound is 2 (C_a + C_b), plus LAW_FLOOR for rounding.
    """
    law = split.slit_probs[0] * split.conds[0] + split.slit_probs[1] * split.conds[1]
    return float(np.sum(np.abs(law - split.modes[3]))), 2.0 * sum(split.clamped) + LAW_FLOOR
