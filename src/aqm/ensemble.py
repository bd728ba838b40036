"""Quantum states as probability spaces over measurement branches.

A quantum state is a density matrix standing for an equivalence class of
elementary states.  measure_many draws a branch by the Born rule for each
of a batch of fresh copies of the state, measured with a device of a given
context.  A copy that drew a branch is left in that branch's Lueders
state, the pure state of its column, whatever state drew it; lueders_law
gives the Born law of each such post-state on a second context, so a
copy can be measured again without building its state, which makes the
measurement reproducible.  A measurement takes no observable;
algebra.evaluate reads an observable's value on the drawn branches.  Monte
Carlo means converge to tr(rho A) at the law-of-large-numbers rate; the
postulate checkers below verify device-type independence, functional
linearity, and the Born mean numerically.

States, contexts and the functions below take stacks, as algebra's do:
(..., d, d) arrays, one state or context per slice, every check on every
slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aqm.algebra import (
    VALUE_TOL,
    Context,
    _adjoint,
    _branch_values,
    _check_same_dim,
    _max_abs,
    as_matrix,
    is_hermitian,
)
from aqm.rng import stream

STATE_TOL = 1e-10


@dataclass(frozen=True)
class QuantumState:
    """Density matrix: Hermitian, positive semidefinite, unit trace; or a stack of them."""

    rho: np.ndarray

    def __post_init__(self):
        m = np.array(as_matrix(self.rho), dtype=complex)
        if not is_hermitian(m):
            raise ValueError("density matrix must be Hermitian")
        trace = np.trace(m, axis1=-2, axis2=-1).real
        if not _max_abs(trace - 1.0) <= STATE_TOL:
            worst = trace.flat[np.argmax(np.abs(trace - 1.0))]
            raise ValueError(f"density matrix trace is {worst}, expected 1")
        if not np.min(np.linalg.eigvalsh(m)) >= -STATE_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m.setflags(write=False)
        object.__setattr__(self, "rho", m)

    def mean(self, a):
        """Ensemble mean tr(rho A) of a Hermitian observable, per slice."""
        return np.trace(self.rho @ as_matrix(a), axis1=-2, axis2=-1).real


def _normalized(p: np.ndarray) -> np.ndarray:
    """Weights clamped to [0, 1] and divided by their sum over the last axis."""
    p = p.clip(0.0, 1.0)
    return p / p.sum(axis=-1, keepdims=True)


def born_distribution(psi: QuantumState, q: Context) -> np.ndarray:
    """Branch probabilities p_j = V_j^dagger rho V_j, clamped to [0, 1] and renormalized.

    V_j is branch j's column of the context's basis, so p is the diagonal
    of V^dagger rho V; (..., k) for stacks.  Re(conj(V) * rho V) is taken as
    real products and sums, which numpy's SIMD dispatch cannot fuse.
    """
    v = q.basis
    _check_same_dim(psi.rho, v)
    w = psi.rho @ v
    return _normalized((v.real * w.real + v.imag * w.imag).sum(axis=-2))


def lueders_law(q: Context, qp: Context) -> np.ndarray:
    """Born law on qp of the Lueders post-state of each branch of q: row j for branch j.

    For the rank-1 projector P = v v^dagger of branch j, P rho P / tr(rho P)
    is the pure state v v^dagger whatever the state rho that drew the
    branch, and its weight on branch i of qp is |v^dagger v'_i|^2.  So the
    law is row j of |Q^dagger Q'|^2, clamped and renormalized as in
    born_distribution.
    """
    _check_same_dim(q.basis, qp.basis)
    return _normalized(np.abs(_adjoint(q.basis) @ qp.basis) ** 2)


def inverse_cdf(probs, u):
    """Index drawn from the non-negative weights `probs` for each uniform in `u`.

    `probs` is (..., k), a stack of weight vectors that need not sum to
    one, and the shape of `u` begins with the stack's: each uniform draws
    from its own slice's weights.  Uniforms outside [0, 1] (NaN too) raise
    ValueError.  When u * total rounds up to the total, the index is
    clamped to the last branch with positive weight, so a zero-probability
    branch is never returned.
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("uniforms must lie in [0, 1]")
    probs = np.asarray(probs)
    k = probs.shape[-1]
    last = k - 1 - np.argmax(probs[..., ::-1] != 0, axis=-1)
    # one axis of length 1 for each axis of u past the stack's
    shape = probs.shape[:-1] + (1,) * (u.ndim - probs.ndim + 1)
    cdf = np.cumsum(probs, axis=-1).reshape(shape + (k,))
    # the number of CDF entries at or below u * total: searchsorted(cdf, u * total, side="right")
    drawn = np.count_nonzero(cdf <= (u * cdf[..., -1])[..., None], axis=-1)
    return np.minimum(drawn, last.reshape(shape))


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

    Uniform u_i draws branch inverse_cdf(born_distribution, u_i); for a
    stack of states or contexts, u's leading axes are the stack's.  A copy
    that drew branch j is left in branch j's Lueders state, whose Born law
    on a second context is row j of lueders_law.
    """
    return inverse_cdf(born_distribution(psi, q), u)


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


def _tally(level: np.ndarray, n_levels: int, weights=None) -> np.ndarray:
    """np.bincount of each slice of `level` (..., n), as a (..., n_levels) array.

    One bincount over the flattened stack: each slice's entries are added
    one by one in their order, as a bincount of that slice alone adds them.
    """
    lead = level.shape[:-1]
    offset = np.arange(int(np.prod(lead))).reshape(lead + (1,)) * n_levels
    flat = None if weights is None else np.ravel(weights)
    counts = np.bincount((offset + level).ravel(), flat, minlength=offset.size * n_levels)
    return counts.reshape(lead + (n_levels,))


def _cdf(level: np.ndarray, values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """CDF at levels 0..2k-1 of the distribution putting probs[..., j] on level[..., j].

    A level's mass adds its branches one by one in ascending value order;
    a CDF point is one np.sum of the masses of the held levels up to it,
    taken for every slice at once, one prefix length at a time.
    """
    n_levels = 2 * level.shape[-1]
    order = np.argsort(values, axis=-1)
    level, probs = (np.take_along_axis(x, order, axis=-1) for x in (level, probs))
    held = _tally(level, n_levels) > 0
    mass = _tally(level, n_levels, probs)
    mass = np.take_along_axis(mass, np.argsort(~held, axis=-1, kind="stable"), axis=-1)
    below = np.cumsum(held, axis=-1)  # held levels up to each level
    prefix = np.zeros(mass.shape[:-1] + (n_levels + 1,))
    for m in range(1, int(below.max(initial=0)) + 1):
        prefix[..., m] = np.sum(mass[..., :m], axis=-1)
    return np.take_along_axis(prefix, below, axis=-1)


def ks_statistic(x: np.ndarray, y: np.ndarray):
    """Two-sample Kolmogorov-Smirnov statistic of two samples of levels, small non-negative ints.

    Samples are (..., n): one statistic per slice.
    """
    n_levels = int(max(x.max(), y.max())) + 1
    cx, cy = (np.cumsum(_tally(s, n_levels), axis=-1) / s.shape[-1] for s in (x, y))
    return np.max(np.abs(cx - cy), axis=-1)


@dataclass(frozen=True)
class Postulate5Report:
    """Statistics of check_postulate5, one per slice of the stack (scalars for one pair)."""

    exact_distance: np.ndarray
    ks_stat: np.ndarray
    ks_critical: float


def check_postulate5(psi: QuantumState, a, q: Context, qp: Context, n: int,
                     rng: np.random.Generator) -> Postulate5Report:
    """Device-type independence of the value distribution of an observable.

    Reports the largest gap between the two contexts' exact value CDFs
    over one grid of value levels, which Postulate 5 needs within 1e-10,
    and, as a smoke test, a two-sample KS statistic on the levels of n
    draws per context with its critical value at alpha = 0.01.
    postulate_suite decides from both.  For stacks, each slice is one
    pair of contexts; the draws are one rng.random((..., 2, n)), the
    first n of a slice for q and the next n for qp.
    """
    values = [_branch_values(c, a) for c in (q, qp)]
    probs = [born_distribution(psi, c) for c in (q, qp)]
    # one grid of value levels per slice: the clusters of both contexts'
    # branch values, which float jitter keeps from matching exactly
    grid = np.sort(np.concatenate(values, axis=-1), axis=-1)
    starts = np.diff(grid, axis=-1, prepend=-np.inf) > VALUE_TOL
    # a value's level: the number of cluster starts at or below it, less one
    levels = [np.count_nonzero(starts[..., None, :] & (grid[..., None, :] <= v[..., None]),
                               axis=-1) - 1 for v in values]
    c1, c2 = (_cdf(lv, v, p) for lv, v, p in zip(levels, values, probs))
    u = rng.random(np.shape(c1)[:-1] + (2, n))
    x, y = (np.take_along_axis(lv, inverse_cdf(p, u[..., i, :]), axis=-1)
            for i, (lv, p) in enumerate(zip(levels, probs)))
    critical = 1.6276 * np.sqrt(2.0 / n)  # alpha = 0.01
    return Postulate5Report(np.max(np.abs(c1 - c2), axis=-1), ks_statistic(x, y), float(critical))


def check_postulate6(psi: QuantumState, a, b):
    """Linearity of the mean functional within 1e-10, per slice, with no compatibility requirement."""
    ma, mb = as_matrix(a), as_matrix(b)
    _check_same_dim(ma, mb, psi.rho)
    return np.abs(psi.mean(ma) + psi.mean(mb) - psi.mean(ma + mb)) <= 1e-10


def born_mean_residual(psi: QuantumState, a, q: Context):
    """|sum_j p_j a_j - tr(rho A)| per slice: the mean read through the device against the state's.

    p_j is the Born weight and a_j the observable's value on branch j of
    q, so this compares the measurement path with the state's own mean
    functional: a state read wrongly by the Born rule is still a state,
    which no comparison of the package with itself would catch.
    """
    return np.abs(np.sum(born_distribution(psi, q) * _branch_values(q, a), axis=-1) - psi.mean(a))
