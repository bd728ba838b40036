"""Quantum states as probability spaces over measurement branches.

A quantum state is a density matrix standing for an equivalence class of
elementary states.  measure_many measures a batch of fresh copies of the
state with a device of a given context: each copy draws one branch by the
Born rule and takes the Lueders update, so that the measurement is
reproducible.  A measurement takes no observable; algebra.evaluate reads
an observable's value on the drawn branches.  Monte Carlo means converge
to tr(rho A) at the law-of-large-numbers rate; the postulate checkers
below verify device-type independence, functional linearity, and
reproducibility numerically.
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
    _starts,
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
    """Branch probabilities p_j = tr(V_j^dagger rho V_j), clamped to [0, 1] and renormalized.

    V_j is branch j's block of the context's basis; p_j sums the diagonal
    of V^dagger rho V over the block.
    """
    v = q.basis
    _check_same_dim(psi.rho, v)
    diagonal = (v.conj() * (psi.rho @ v)).sum(axis=0).real
    p = np.clip(np.add.reduceat(diagonal, _starts(q)), 0.0, 1.0)
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


def measure_many(psi: QuantumState, q: Context, u):
    """Projective measurements of fresh copies of the state, one per uniform in u.

    Returns (branches, posts): the branch drawn for each uniform, and a
    dict from each drawn branch to its Lueders post-state.  Uniform u_i
    draws branch inverse_cdf(born_distribution, u_i), with post-state
    P rho P / tr(rho P) for the branch's projector P; a post-state is built
    only for a branch that was drawn.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("uniforms must lie in [0, 1]")
    branches = inverse_cdf(born_distribution(psi, q), u)
    drawn = np.flatnonzero(np.bincount(branches, minlength=q.n_branches))
    starts = _starts(q)
    posts = {}
    for j in drawn.tolist():
        posts[j] = _lueders(psi, q.basis[:, starts[j]:starts[j] + q.ranks[j]])
    return branches, posts


def _lueders(psi: QuantumState, block: np.ndarray) -> QuantumState:
    """Lueders post-state P rho P / tr(rho P) of the projector P = B B^dagger.

    B is a block of orthonormal columns, and the state is built as
    B (B^dagger rho B) B^dagger / tr(B^dagger rho B), symmetrized against
    rounding.
    """
    inner = block.conj().T @ psi.rho @ block
    rho = block @ inner @ block.conj().T / np.trace(inner).real
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


def _pushforward(probs: np.ndarray, values: np.ndarray):
    """Exact value distribution: branch probabilities summed per distinct value."""
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    bounds = _clusters(values, VALUE_TOL)
    # cumsum adds each cluster's probabilities in sorted order, one at a time
    mass = [np.cumsum(probs[start:stop])[-1] for start, stop in bounds]
    return values[[start for start, _ in bounds]], np.array(mass)


def _distribution_distance(v1, p1, v2, p2) -> float:
    """Max CDF gap between two discrete distributions on the reals."""
    points = np.sort(np.concatenate([v1, v2]))
    c1 = np.array([p1[v1 <= x + VALUE_TOL].sum() for x in points])
    c2 = np.array([p2[v2 <= x + VALUE_TOL].sum() for x in points])
    return float(np.max(np.abs(c1 - c2)))


def ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    xs, ys = np.sort(x), np.sort(y)
    grid = np.concatenate([xs, ys])
    cx = np.searchsorted(xs, grid, side="right") / len(xs)
    cy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(cx - cy)))


@dataclass(frozen=True)
class Postulate5Report:
    exact_distance: float
    ks_stat: float
    ks_critical: float


def check_postulate5(
    psi: QuantumState,
    a,
    q: Context,
    qp: Context,
    n: int,
    rng: np.random.Generator,
) -> Postulate5Report:
    """Device-type independence of the value distribution of an observable.

    Reports the max CDF gap between the exact pushforward distributions
    under the two contexts, which Postulate 5 needs within 1e-10, and, as
    a smoke test, a two-sample KS statistic on n draws per context with
    its critical value at alpha = 0.01.  postulate_suite decides from both.
    """
    values = _branch_values(q, a)
    values_p = _branch_values(qp, a)
    probs = born_distribution(psi, q)
    probs_p = born_distribution(psi, qp)
    v1, p1 = _pushforward(probs, values)
    v2, p2 = _pushforward(probs_p, values_p)
    exact = _distribution_distance(v1, p1, v2, p2)

    # snap the branch values onto one merged value grid; without this, float
    # jitter between the two contexts' branch eigenvalues breaks the KS
    # statistic for what are physically identical discrete values
    grid = np.sort(np.concatenate([v1, v2]))
    grid = grid[[start for start, _ in _clusters(grid, VALUE_TOL)]]

    def snap(vals):
        idx = np.clip(np.searchsorted(grid, vals), 0, len(grid) - 1)
        left = np.clip(idx - 1, 0, len(grid) - 1)
        use_left = np.abs(grid[left] - vals) < np.abs(grid[idx] - vals)
        return grid[np.where(use_left, left, idx)]

    x = snap(values)[inverse_cdf(probs, rng.random(n))]
    y = snap(values_p)[inverse_cdf(probs_p, rng.random(n))]
    stat = ks_statistic(x, y)
    critical = 1.6276 * np.sqrt(2.0 / n)  # alpha = 0.01
    return Postulate5Report(exact, stat, float(critical))


def check_postulate6(psi: QuantumState, a, b) -> bool:
    """Linearity of the mean functional within 1e-10, with no compatibility requirement."""
    ma, mb = as_matrix(a), as_matrix(b)
    _check_same_dim(ma, mb, psi.rho)
    return abs(psi.mean(ma) + psi.mean(mb) - psi.mean(ma + mb)) <= 1e-10
