"""Dense and one-event-at-a-time references that the tests compare the package with.

No command-line run reaches them.  The package holds a context as one
orthonormal basis, one column per branch, re-measures a copy by the
drawn branch's row of |Q^dagger Q'|^2 without building its post-state,
conditions the pure two-slit
source as one amplitude vector, takes the pattern by FFT of its
slit-masked amplitudes, draws photon events in batches of
event_uniforms rows, draws Born tallies as one multinomial, and compares
Postulate 5 value distributions on one grid of integer value levels;
these references hold a context as a (d, d, d) stack of rank-1
projectors, build each post-state, as the pure state of the drawn
branch's column and by the block formula of any rank, condition and decompose N x N density matrices, draw one event
at a time, tally Born draws one uniform at a time, and compare each
context's own value distribution on the values themselves.  The package
draws each observable together with its contexts; masa_from builds the
context of a given observable by eigendecomposition instead.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from aqm.algebra import (
    COMMUTE_TOL,
    PROJECTOR_TOL,
    VALUE_TOL,
    Context,
    _branch_values,
    _check_same_dim,
    as_matrix,
    is_hermitian,
)
from aqm.ensemble import QuantumState, born_distribution, inverse_cdf
from aqm.errors import IncompatibleObservableError
from aqm.experiments import random_degenerate_spectrum
from aqm.interferometer import DETECTOR_A, DETECTOR_B, PATH_A, PATH_B, _P_PATH_A, _P_STEERED_DB
from aqm.rng import DRAWS_PER_EVENT, LANE_EVENTS, _key
from aqm.two_slit import SlitGeometry, _slit_masks

CONDITIONED_TOL = 1e-8


@dataclass(frozen=True)
class MomentumBin:
    """Contiguous index range [start, stop) in the DFT momentum basis."""

    start: int
    stop: int

    def __post_init__(self):
        if self.stop <= self.start:
            raise ValueError("momentum bin must be non-empty")


def projectors(q: Context) -> np.ndarray:
    """(d, d, d) stack of the context's rank-1 branch projectors V_j V_j^dagger."""
    return np.array([np.outer(v, v.conj()) for v in q.basis.T])


def context_from_projectors(projectors) -> Context:
    """Context of a complete family of orthogonal rank-1 projectors, checked as a stack.

    Each projector must be Hermitian and idempotent, each pair orthogonal,
    and their sum the identity, every entry within PROJECTOR_TOL.  Branch
    j's column is the eigenvector of projector j with eigenvalue one, and
    a projector with more or fewer such eigenvectors is rejected.
    """
    mats = [as_matrix(p) for p in projectors]
    if not mats:
        raise ValueError("context needs at least one projector")
    dim = _check_same_dim(*mats)
    for i, p in enumerate(mats):
        if np.max(np.abs(p - p.conj().T)) > PROJECTOR_TOL:
            raise ValueError(f"projector {i} is not Hermitian")
        if np.max(np.abs(p @ p - p)) > PROJECTOR_TOL:
            raise ValueError(f"projector {i} is not idempotent")
    for i, j in zip(*np.triu_indices(len(mats), 1)):
        if np.max(np.abs(mats[i] @ mats[j])) > PROJECTOR_TOL:
            raise ValueError(f"projectors {i} and {j} are not orthogonal")
    if np.max(np.abs(sum(mats) - np.eye(dim))) > PROJECTOR_TOL:
        raise ValueError("projectors do not sum to the identity")
    columns = []
    for i, p in enumerate(mats):
        w, v = np.linalg.eigh(0.5 * (p + p.conj().T))
        if np.count_nonzero(w > 0.5) != 1:
            raise ValueError(f"projector {i} has rank {np.count_nonzero(w > 0.5)}, not 1")
        columns.append(v[:, -1])
    return Context(np.column_stack(columns))


def _clusters(values: np.ndarray, gap: float) -> list:
    """[start, stop) index ranges of sorted values, split where neighbours are over gap apart."""
    cuts = (np.flatnonzero(np.abs(np.diff(values)) > gap) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(values)]))


def _gram_schmidt(coords: np.ndarray) -> np.ndarray:
    """Orthonormal r x r coordinates that split a rank-r eigenspace into rank-1 branches.

    Gram-Schmidt on the columns of `coords`, the refinement basis in the
    eigenspace's coordinates, in order: a column whose remainder has norm
    1e-8 or less is skipped, a deterministic tie-break for degeneracies.
    """
    chosen = []
    for c in coords.T:
        for u in chosen:
            c = c - u * (u.conj() @ c)
        norm = np.linalg.norm(c)
        if norm > 1e-8:
            chosen.append(c / norm)
            if len(chosen) == len(coords):
                break
    return np.column_stack(chosen)


def masa_from(a, refinement=None) -> Context:
    """Maximal abelian context containing the observable, from its eigendecomposition.

    Eigenvalues within 1e-8 times the spectral norm of one another form
    one degenerate eigenspace, which the `refinement` orthonormal basis
    (default: standard basis), restricted to it, splits into rank-1
    branches.  Branches follow the eigenvalues in ascending order.
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise ValueError("a maximal context needs a Hermitian observable")
    dim = m.shape[0]
    basis = np.eye(dim, dtype=complex) if refinement is None else Context(refinement).basis
    w, v = np.linalg.eigh(m)
    gap = 1e-8 * max(np.max(np.abs(w)), 1e-12) if w.size else 1e-12
    columns = []
    for start, stop in _clusters(w, gap):
        block = v[:, start:stop]
        columns.append(block if stop - start == 1 else block @ _gram_schmidt(block.conj().T @ basis))
    return Context(np.hstack(columns))


def spectral_decompose(a):
    """Eigenvalue clusters and their eigenprojectors, as [(value, projector)].

    Eigenvalues within 1e-8 times the spectral norm of one another are
    merged into a single degenerate cluster, as masa_from merges them.
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise ValueError("spectral decomposition requires a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    gap = 1e-8 * max(np.max(np.abs(w)), 1e-12) if w.size else 1e-12
    out = []
    for start, stop in _clusters(w, gap):
        block = v[:, start:stop]
        proj = block @ block.conj().T
        out.append((float(np.mean(w[start:stop])), 0.5 * (proj + proj.conj().T)))
    return out


def stack_contains(p: np.ndarray, a) -> bool:
    """True iff the observable commutes with every projector of the stack, within COMMUTE_TOL."""
    m = as_matrix(a)
    return bool(np.max(np.abs(m @ p - p @ m)) <= COMMUTE_TOL)


def stack_branch_values(p: np.ndarray, a) -> np.ndarray:
    """Value tr(P_j A) / tr(P_j) of the observable on each projector of the stack.

    Raises IncompatibleObservableError, as algebra._branch_values does,
    unless stack_contains holds.
    """
    if not stack_contains(p, a):
        raise IncompatibleObservableError("observable is not measurable with this context")
    pm = p @ as_matrix(a)
    return (np.trace(pm, axis1=1, axis2=2) / np.trace(p, axis1=1, axis2=2)).real


def lueders(q: Context, j: int) -> QuantumState:
    """Lueders post-state of branch j of q: the pure state v v^dagger of its column v.

    For the rank-1 projector P = v v^dagger, P rho P / tr(rho P) is v v^dagger
    whatever the state rho that drew the branch.  Symmetrized against
    rounding, so it is exactly Hermitian.  Its Born law on a context Q' is
    the package's ensemble.lueders_law(q, Q')[j].
    """
    v = q.basis[:, j]
    rho = np.outer(v, v.conj())
    return QuantumState(0.5 * (rho + rho.conj().T))


def lueders_block(psi: QuantumState, block: np.ndarray) -> QuantumState:
    """Lueders post-state P rho P / tr(rho P) of P = B B^dagger, B orthonormal columns.

    Built as B (B^dagger rho B) B^dagger / tr(B^dagger rho B), symmetrized
    against rounding, for a block B of any rank: the general-rank oracle
    of lueders, whose branches are single columns.
    """
    inner = block.conj().T @ psi.rho @ block
    rho = block @ inner @ block.conj().T / np.trace(inner).real
    return QuantumState(0.5 * (rho + rho.conj().T))


def random_degenerate_observable(dim: int, rng: np.random.Generator) -> np.ndarray:
    """u diag(lam) u^dagger of one experiments.random_degenerate_spectrum draw."""
    u, lam = random_degenerate_spectrum(dim, rng)
    return (u * lam) @ u.conj().T


def pushforward(probs: np.ndarray, values: np.ndarray):
    """Exact value distribution: branch probabilities summed per distinct value."""
    order = np.argsort(values)
    values, probs = values[order], probs[order]
    bounds = _clusters(values, VALUE_TOL)
    # cumsum adds each cluster's probabilities in sorted order, one at a time
    mass = [np.cumsum(probs[start:stop])[-1] for start, stop in bounds]
    return values[[start for start, _ in bounds]], np.array(mass)


def distribution_distance(v1, p1, v2, p2) -> float:
    """Max CDF gap between two discrete distributions on the reals."""
    points = np.sort(np.concatenate([v1, v2]))
    c1 = np.array([p1[v1 <= x + VALUE_TOL].sum() for x in points])
    c2 = np.array([p2[v2 <= x + VALUE_TOL].sum() for x in points])
    return float(np.max(np.abs(c1 - c2)))


def sample_ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic of two samples of reals."""
    xs, ys = np.sort(x), np.sort(y)
    grid = np.concatenate([xs, ys])
    cx = np.searchsorted(xs, grid, side="right") / len(xs)
    cy = np.searchsorted(ys, grid, side="right") / len(ys)
    return float(np.max(np.abs(cx - cy)))


def postulate5(psi: QuantumState, a, q: Context, qp: Context, n: int, rng: np.random.Generator):
    """(exact_distance, ks_stat) of ensemble.check_postulate5, on the values themselves.

    Each context's value distribution is its own pushforward, compared at
    every value of either with a VALUE_TOL shift; the n draws per context
    are snapped to the nearest point of one merged value grid before the
    KS statistic.
    """
    values, values_p = _branch_values(q, a), _branch_values(qp, a)
    probs, probs_p = born_distribution(psi, q), born_distribution(psi, qp)
    v1, p1 = pushforward(probs, values)
    v2, p2 = pushforward(probs_p, values_p)
    exact = distribution_distance(v1, p1, v2, p2)
    grid = np.sort(np.concatenate([v1, v2]))
    grid = grid[[start for start, _ in _clusters(grid, VALUE_TOL)]]

    def snap(vals):
        idx = np.clip(np.searchsorted(grid, vals), 0, len(grid) - 1)
        left = np.clip(idx - 1, 0, len(grid) - 1)
        use_left = np.abs(grid[left] - vals) < np.abs(grid[idx] - vals)
        return grid[np.where(use_left, left, idx)]

    x = snap(values)[inverse_cdf(probs, rng.random(n))]
    y = snap(values_p)[inverse_cdf(probs_p, rng.random(n))]
    return exact, sample_ks_statistic(x, y)


def pure(vec) -> QuantumState:
    """Density matrix psi psi^dagger of the normalized vector psi."""
    v = np.asarray(vec, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    return QuantumState(np.outer(v, v.conj()))


def condition_on_event(psi: QuantumState, event) -> QuantumState:
    """State prepared by selecting the sub-ensemble where the event holds.

    The event is a projector E, to within 1e-8; the result is the Lueders
    state E rho E / tr(rho E), which assigns mean 1 to E.
    """
    e = as_matrix(event)
    _check_same_dim(e, psi.rho)
    if max(np.max(np.abs(e @ e - e)), np.max(np.abs(e - e.conj().T))) > 1e-8:
        raise ValueError("event must be a Hermitian projector")
    weight = np.trace(psi.rho @ e).real
    if weight <= 1e-12:
        raise ValueError("conditioning on an event of probability zero")
    rho = e @ psi.rho @ e / weight
    return QuantumState(0.5 * (rho + rho.conj().T))


def branch_counts(probs, u) -> np.ndarray:
    """(k,) int64 tally of the branches inverse_cdf(probs, u) draws, one per uniform.

    With x = u * total, branch j's tally is #(x >= cdf[j-1]) - #(x >= cdf[j]):
    one count_nonzero per count up to 32 branches, one sort of x above.
    """
    cdf = np.cumsum(probs)
    last = np.flatnonzero(probs)[-1]
    x = np.ravel(u) * cdf[-1]
    at_least = np.full(last + 1, x.size)  # [j]: draws of branch j or above
    if last > 32:
        x.sort()
        at_least[1:] -= np.searchsorted(x, cdf[:last], side="left")
    else:
        at_least[1:] = [np.count_nonzero(x >= c) for c in cdf[:last]]
    return -np.diff(at_least, append=np.zeros(len(cdf) - last, np.int64))


def slit_projectors(geom: SlitGeometry):
    """Dense diagonal projectors diag(a), diag(b) of the slit masks."""
    return tuple(np.diag(m) for m in geom.masks)


def dft_basis(n: int) -> np.ndarray:
    """Columns are the orthonormal discrete-Fourier momentum modes."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


def mode_diagonal(g: np.ndarray) -> np.ndarray:
    """diag(F^dagger G F).real over the DFT modes F = dft_basis(N), densely."""
    f = dft_basis(len(g))
    return np.einsum("ik,ij,jk->k", f.conj(), g, f).real


def momentum_projector(mbin: MomentumBin, n: int) -> np.ndarray:
    """Projector onto a contiguous bin of DFT momentum modes."""
    if mbin.start < 0 or mbin.stop > n:
        raise ValueError(f"momentum bin {mbin} out of range for N={n}")
    cols = dft_basis(n)[:, mbin.start : mbin.stop]
    k = cols @ cols.conj().T
    return 0.5 * (k + k.conj().T)


def verify_support_identities(
    psi_ab: np.ndarray, geom: SlitGeometry, trials: int, rng: np.random.Generator
) -> float:
    """Max residual of the right/left/two-sided slit-support absorptions.

    For random dynamical variables A, the mean of A in the dense state
    rho = psi_ab psi_ab^dagger must equal the means of AE, EA, and EAE
    where E = diag(e) is the total slit projector; this is the
    Cauchy-Schwarz consequence of unit slit support.
    """
    e = sum(_slit_masks(psi_ab, geom))
    if abs(np.sum(np.abs(psi_ab) ** 2 * e) - 1.0) > CONDITIONED_TOL:
        raise ValueError("state is not conditioned on the slit event")
    rho = np.outer(psi_ab, psi_ab.conj())
    n = len(psi_ab)

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


def decompose_mean(psi_ab: QuantumState, k, p_a, p_b) -> dict:
    """Split the mean of the screen observable into direct and cross terms.

    The keys are the columns of a pattern.csv row, `total` being its `prob`.
    """
    mk, ma, mb = as_matrix(k), as_matrix(p_a), as_matrix(p_b)
    rho = psi_ab.rho
    direct_a = np.trace(rho @ ma @ mk @ ma).real
    direct_b = np.trace(rho @ mb @ mk @ mb).real
    cross = np.trace(rho @ (ma @ mk @ mb + mb @ mk @ ma)).real
    total = np.trace(rho @ mk).real
    return {
        "direct_a": float(direct_a),
        "direct_b": float(direct_b),
        "interference": float(cross),
        "total": float(total),
    }


def particle_run(m4_at_arrival: bool, rng: EventDraws) -> tuple[int, int]:
    """One photon through the particle model; returns (kernel_path, detector).

    The scalar reference for run_events.  The kernel picks a path at M1
    with the splitter's intensity ratio.  The mirror decision arrives
    after the photon has passed M1; nothing decided earlier can influence
    the outcome.  With the mirror present the detector is drawn from the
    wave distribution regardless of the kernel's path; with it absent,
    path A lands on detector A and path B on detector B.
    """
    kernel_path = PATH_A if rng.random() < _P_PATH_A else PATH_B
    if m4_at_arrival:
        detector = DETECTOR_B if rng.random() < _P_STEERED_DB else DETECTOR_A
    else:
        detector = DETECTOR_A if kernel_path == PATH_A else DETECTOR_B
    return kernel_path, detector


def event_bits(codes: np.ndarray) -> tuple:
    """(path, m4 at arrival, detector) arrays of event codes 4*path + 2*m4 + detector."""
    return codes >> 2, (codes >> 1 & 1).astype(bool), codes & 1


class EventDraws:
    """The uniforms of one event, drawn through `random` as from a Generator.

    Raises IndexError past DRAWS_PER_EVENT draws: the next ones belong to
    the next event.
    """

    def __init__(self, generator: np.random.Generator):
        self._generator = generator
        self._left = DRAWS_PER_EVENT

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        if n > self._left:
            raise IndexError(f"an event has only {DRAWS_PER_EVENT} draws")
        self._left -= n
        return self._generator.random(size)


def event_stream(seed: int, index: int, lane: int = LANE_EVENTS) -> EventDraws:
    """The DRAWS_PER_EVENT uniforms of one event."""
    if index < 0:
        raise ValueError(f"event index must be non-negative, got {index}")
    return EventDraws(np.random.Generator(np.random.Philox(key=_key(seed, lane), counter=index)))


def events_csv(m4_at_arrival, seed: int, start: int = 0) -> bytes:
    """events.csv rows of events start, start+1, ... with the given mirror presence.

    Written by csv.writer over particle_run, one event_stream per event;
    the header comes first when start is 0.
    """
    text = io.StringIO()
    writer = csv.writer(text)
    if start == 0:
        writer.writerow(["event", "seed", "kernel_path", "m4", "detector"])
    for i, m4 in enumerate(m4_at_arrival, start):
        kernel_path, detector = particle_run(m4, event_stream(seed, i))
        writer.writerow([i, seed, "AB"[kernel_path], int(m4), ("DA", "DB")[detector]])
    return text.getvalue().encode()
