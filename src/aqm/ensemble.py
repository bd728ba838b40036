"""Quantum states as probability spaces over measurement branches.

A quantum state is a density matrix standing for an equivalence class of
elementary states.  measure_many draws a branch by the Born rule for each
of a batch of fresh copies of the state, measured with a device of a given
context; lueders builds the state a copy is left in, the pure state of the
drawn branch's column, for a caller that measures it again, which makes
the measurement reproducible.  A measurement takes no observable;
algebra.evaluate reads an observable's value on the drawn branches.  Monte
Carlo means converge to tr(rho A) at the law-of-large-numbers rate; the
postulate checkers below verify device-type independence, functional
linearity, and reproducibility numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aqm.algebra import (
    VALUE_TOL,
    Context,
    _branch_values,
    _check_same_dim,
    _clusters,
    as_matrix,
    is_hermitian,
)
from aqm.errors import NotHermitianError
from aqm.rng import stream

STATE_TOL = 1e-10


@dataclass(frozen=True)
class QuantumState:
    """Density matrix: Hermitian, positive semidefinite, unit trace."""

    rho: np.ndarray

    def __post_init__(self):
        m = np.array(as_matrix(self.rho), dtype=complex)
        if not is_hermitian(m):
            raise NotHermitianError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > STATE_TOL:
            raise ValueError(f"density matrix trace is {np.trace(m).real}, expected 1")
        if np.min(np.linalg.eigvalsh(m)) < -STATE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "rho", m)

    def mean(self, a) -> float:
        """Ensemble mean tr(rho A) of a Hermitian observable."""
        return float(np.trace(self.rho @ as_matrix(a)).real)


def born_distribution(psi: QuantumState, q: Context) -> np.ndarray:
    """Branch probabilities p_j = V_j^dagger rho V_j, clamped to [0, 1] and renormalized.

    V_j is branch j's column of the context's basis, so p is the diagonal
    of V^dagger rho V.
    """
    v = q.basis
    _check_same_dim(psi.rho, v)
    p = np.clip((v.conj() * (psi.rho @ v)).sum(axis=0).real, 0.0, 1.0)
    return p / p.sum()


def inverse_cdf(probs, u):
    """Index drawn from the non-negative weights `probs` for each uniform in `u`.

    `u` is a finite uniform, or an array of them, in [0, 1].  The weights
    need not sum to one.  When u * total rounds up to the total, the index
    is clamped to the last branch with positive weight, so a
    zero-probability branch is never returned.
    """
    cdf = np.cumsum(probs)
    last = np.flatnonzero(probs)[-1]
    return np.minimum(np.searchsorted(cdf, np.asarray(u) * cdf[-1], side="right"), last)


def multinomial_counts(gen: np.random.Generator, n: int, probs) -> np.ndarray:
    """(k,) int64 tally of n iid draws from the distribution `probs`, in one draw.

    The tally is Multinomial(n, probs), which gen draws by conditional
    binomials in O(k), whatever n.  As in inverse_cdf, the last branch
    with positive probability takes the mass that rounding leaves over, so
    a zero-probability branch is never counted, at any n.
    """
    last = np.flatnonzero(probs)[-1]
    counts = np.zeros(len(probs), dtype=np.int64)
    counts[: last + 1] = gen.multinomial(n, probs[: last + 1])
    return counts


def measure_many(psi: QuantumState, q: Context, u) -> np.ndarray:
    """Branch drawn by a projective measurement of a fresh copy of the state, one per uniform in u.

    Uniform u_i draws branch inverse_cdf(born_distribution, u_i).  A copy
    that drew branch j is left in the state lueders(q, j), which is built
    only for a copy that is measured again.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("uniforms must lie in [0, 1]")
    return inverse_cdf(born_distribution(psi, q), u)


def lueders(q: Context, j: int) -> QuantumState:
    """Lueders post-state of branch j of q: the pure state v v^dagger of its column v.

    For the rank-1 projector P = v v^dagger, P rho P / tr(rho P) is v v^dagger
    whatever the state rho that drew the branch.  Symmetrized against
    rounding, so it is exactly Hermitian.
    """
    v = q.basis[:, j]
    rho = np.outer(v, v.conj())
    return QuantumState(0.5 * (rho + rho.conj().T))


def monte_carlo_mean(psi: QuantumState, a, q: Context, n: int, seed: int, index: int) -> float:
    """Arithmetic mean of n independent single-shot values.

    Each trial measures a fresh copy of the state, so the draws are iid
    over the Born distribution, and the mean reads them only through their
    branch counts.  Those are Multinomial(n, p): one multinomial_counts
    draw from stream(seed, index).  The estimate, sum_i count_i v_i / n
    rounded once, comes from the counts alone, so neither time nor memory
    grows with n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values = _branch_values(q, a)
    counts = multinomial_counts(stream(seed, index), n, born_distribution(psi, q))
    ratios = map(float.as_integer_ratio, values.tolist())  # each d a power of two <= 2**1074
    total = sum(c * m * (1 << 1074) // d for c, (m, d) in zip(counts.tolist(), ratios))
    return total / (n << 1074)  # exact int true division: correctly rounded


# ---------------------------------------------------------------------------
# Postulate checks


def _cdf(n_levels: int, level: np.ndarray, values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """CDF at levels 0..n_levels-1 of the distribution putting probs[j] on level[j].

    A level's mass adds its branches one by one in ascending value order;
    a CDF point is one np.sum of the masses of the held levels up to it.
    """
    order = np.argsort(values)
    held = np.flatnonzero(np.bincount(level))
    mass = np.bincount(level[order], weights=probs[order])[held]
    below = np.searchsorted(held, np.arange(n_levels), side="right")
    return np.array([np.sum(mass[:k]) for k in below.tolist()])


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic of two samples of levels, small non-negative ints."""
    n_levels = max(x.max(), y.max()) + 1
    cx, cy = (np.cumsum(np.bincount(s, minlength=n_levels)) / len(s) for s in (x, y))
    return float(np.max(np.abs(cx - cy)))


@dataclass(frozen=True)
class Postulate5Report:
    exact_distance: float
    ks_stat: float
    ks_critical: float


def check_postulate5(psi: QuantumState, a, q: Context, qp: Context, n: int,
                     rng: np.random.Generator) -> Postulate5Report:
    """Device-type independence of the value distribution of an observable.

    Reports the largest gap between the two contexts' exact value CDFs
    over one grid of value levels, which Postulate 5 needs within 1e-10,
    and, as a smoke test, a two-sample KS statistic on the levels of n
    draws per context with its critical value at alpha = 0.01.
    postulate_suite decides from both.
    """
    values = [_branch_values(c, a) for c in (q, qp)]
    probs = [born_distribution(psi, c) for c in (q, qp)]
    # one grid of value levels: the clusters of both contexts' branch values,
    # which float jitter keeps from matching exactly
    grid = np.sort(np.concatenate(values))
    grid = grid[[start for start, _ in _clusters(grid, VALUE_TOL)]]
    levels = [np.searchsorted(grid, v, side="right") - 1 for v in values]
    c1, c2 = (_cdf(len(grid), lv, v, p) for lv, v, p in zip(levels, values, probs))
    x, y = (lv[inverse_cdf(p, rng.random(n))] for lv, p in zip(levels, probs))
    critical = 1.6276 * np.sqrt(2.0 / n)  # alpha = 0.01
    return Postulate5Report(float(np.max(np.abs(c1 - c2))), ks_statistic(x, y), float(critical))


def check_postulate6(psi: QuantumState, a, b) -> bool:
    """Linearity of the mean functional within 1e-10, with no compatibility requirement."""
    ma, mb = as_matrix(a), as_matrix(b)
    _check_same_dim(ma, mb, psi.rho)
    return abs(psi.mean(ma) + psi.mean(mb) - psi.mean(ma + mb)) <= 1e-10
