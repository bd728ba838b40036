"""Finite-dimensional algebra of observables.

The abstract C*-algebra is modeled as the full matrix algebra M_n(C),
its elements as square complex arrays.  A measurement device type is a
Context: a complete family of mutually orthogonal Hermitian projectors (a
maximal abelian subalgebra when all projectors are rank one).  A
character of a context is one of its branch indices: it evaluates every
observable diagonal in that context to the eigenvalue on that branch.  An
elementary state carries one character per context, so a batch of n
elementary states is one (n,) branch array per context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aqm.errors import (
    DimensionMismatchError,
    IncompatibleObservableError,
    IndeterminateValueError,
    NotHermitianError,
)

HERM_TOL = 1e-10
COMMUTE_TOL = 1e-10
PROJECTOR_TOL = 1e-10
VALUE_TOL = 1e-8  # values this close are one value of an observable


def as_matrix(a) -> np.ndarray:
    """Coerce a square array-like to a complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_same_dim(*mats: np.ndarray) -> int:
    dims = {m.shape[0] for m in mats}
    if len(dims) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def is_hermitian(a) -> bool:
    m = as_matrix(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= HERM_TOL)


def _max_abs(stack: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each matrix in a (k, d, d) stack."""
    return np.abs(stack).max(axis=(1, 2))


def _clusters(values: np.ndarray, gap: float) -> list:
    """[start, stop) index ranges of sorted values, split where neighbours are over gap apart."""
    cuts = (np.flatnonzero(np.abs(np.diff(values)) > gap) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(values)]))


@dataclass(frozen=True)
class Context:
    """Complete family of orthogonal projectors; one measurement device type.

    The projectors are stored as one read-only (k, d, d) array, one
    projector per branch.  Maximal (a MASA) when every projector has rank one.
    """

    projectors: np.ndarray

    def __post_init__(self):
        mats = [as_matrix(p) for p in self.projectors]
        if not mats:
            raise ValueError("context needs at least one projector")
        dim = _check_same_dim(*mats)
        p = np.array(mats, dtype=complex)
        not_hermitian = _max_abs(p - p.conj().transpose(0, 2, 1)) > PROJECTOR_TOL
        not_idempotent = _max_abs(p @ p - p) > PROJECTOR_TOL
        bad = np.flatnonzero(not_hermitian | not_idempotent)
        if bad.size:
            i = bad[0]
            if not_hermitian[i]:
                raise NotHermitianError(f"projector {i} is not Hermitian")
            raise ValueError(f"projector {i} is not idempotent")
        # pairs in batches of k, so the products take no more memory than p
        rows, cols = np.triu_indices(len(p), 1)
        for lo in range(0, rows.size, len(p)):
            i, j = rows[lo:lo + len(p)], cols[lo:lo + len(p)]
            overlap = np.flatnonzero(_max_abs(p[i] @ p[j]) > PROJECTOR_TOL)
            if overlap.size:
                n = overlap[0]
                raise ValueError(f"projectors {i[n]} and {j[n]} are not orthogonal")
        if np.max(np.abs(p.sum(axis=0) - np.eye(dim))) > PROJECTOR_TOL:
            raise ValueError("projectors do not sum to the identity")
        p.setflags(write=False)
        object.__setattr__(self, "projectors", p)

    @property
    def n_branches(self) -> int:
        return self.projectors.shape[0]


# ---------------------------------------------------------------------------
# Operations


def spectral_decompose(a):
    """Eigenvalue clusters and their eigenprojectors, as [(value, projector)].

    Eigenvalues within 1e-8 times the spectral norm of one another are
    merged into a single degenerate cluster.
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise NotHermitianError("spectral decomposition requires a Hermitian matrix")
    w, v = np.linalg.eigh(m)
    gap = 1e-8 * max(np.max(np.abs(w)), 1e-12) if w.size else 1e-12
    out = []
    for start, stop in _clusters(w, gap):
        block = v[:, start:stop]
        proj = block @ block.conj().T
        out.append((float(np.mean(w[start:stop])), 0.5 * (proj + proj.conj().T)))
    return out


def _check_orthonormal(basis: np.ndarray, dim: int) -> np.ndarray:
    b = np.asarray(basis, dtype=complex)
    if b.shape != (dim, dim):
        raise ValueError(f"refinement basis must be {dim}x{dim}, got {b.shape}")
    if np.max(np.abs(b.conj().T @ b - np.eye(dim))) > 1e-10:
        raise ValueError("refinement basis is not orthonormal")
    return b


def _split_eigenspace(proj: np.ndarray, basis: np.ndarray) -> list:
    """Split a rank-r eigenprojector into r rank-1 projectors.

    Gram-Schmidt on the basis columns projected into the eigenspace; the
    standard basis gives a deterministic tie-break for degeneracies.
    """
    rank = round(np.trace(proj).real)
    if rank == 1:
        return [proj]
    chosen = []
    for col in basis.T:
        v = proj @ col
        for u in chosen:
            v = v - u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            chosen.append(v / norm)
        if len(chosen) == rank:
            break
    if len(chosen) != rank:
        raise ValueError("refinement basis does not span the degenerate eigenspace")
    return [np.outer(u, u.conj()) for u in chosen]


def masa_from(a, refinement=None) -> Context:
    """Maximal abelian context containing the observable.

    Degenerate eigenspaces are split into rank-1 projectors using the
    `refinement` orthonormal basis (default: standard basis), restricted to
    each eigenspace.
    """
    m = as_matrix(a)
    dim = m.shape[0]
    basis = np.eye(dim, dtype=complex) if refinement is None else _check_orthonormal(refinement, dim)
    projs = []
    for _val, proj in spectral_decompose(m):
        projs.extend(_split_eigenspace(proj, basis))
    return Context(projectors=tuple(projs))


def contains(q: Context, a) -> bool:
    """True iff the observable commutes with every projector of the context."""
    m = as_matrix(a)
    _check_same_dim(m, q.projectors[0])
    return bool(np.max(np.abs(m @ q.projectors - q.projectors @ m)) <= COMMUTE_TOL)


def _branch_values(q: Context, a) -> np.ndarray:
    """Eigenvalue of the observable on each branch of the context.

    The one test of measurability: raises IncompatibleObservableError
    unless the observable commutes with the context (max-abs commutator
    within COMMUTE_TOL) and is constant, within VALUE_TOL, on every branch;
    a commuting observable can still vary inside a rank > 1 branch.
    """
    m = as_matrix(a)
    if not contains(q, m):
        raise IncompatibleObservableError("observable is not measurable with this context")
    p = q.projectors
    pm = p @ m
    values = (np.trace(pm, axis1=1, axis2=2) / np.trace(p, axis1=1, axis2=2)).real
    # p m stands in for m p: the commutator check above bounds their difference
    drift = _max_abs(pm - values[:, None, None] * p)
    varies = np.flatnonzero(drift > VALUE_TOL * np.maximum(1.0, np.abs(values)))
    if varies.size:
        raise IncompatibleObservableError(
            f"observable is not constant on branch {varies[0]} of the context"
        )
    return values


def evaluate(q: Context, a, branches) -> np.ndarray:
    """Eigenvalue of the observable on each character's branch of q.

    `branches` holds branch indices of q, one per character.  Raises
    ValueError for indices that are not integers (numpy would read booleans
    as a mask) or lie outside [0, k), and IncompatibleObservableError
    when the observable is not measurable with q (see _branch_values): its
    value would depend on the device type, or on more than the branch.
    """
    branches = np.asarray(branches)
    if branches.size and branches.dtype.kind not in "iu":  # [] is an empty float array
        raise ValueError(f"branch indices must be integers, got dtype {branches.dtype}")
    if np.any((branches < 0) | (branches >= q.n_branches)):
        raise ValueError(f"branch index out of range for a context with {q.n_branches} branches")
    return _branch_values(q, a)[branches.astype(np.intp, copy=False)]


def is_stable(a, contexts, branches) -> np.ndarray:
    """True where an elementary state's characters agree on the observable.

    branches[j] holds the characters of contexts[j], one per elementary
    state; every context must contain the observable.  The characters
    agree when their values span at most VALUE_TOL.
    """
    if not contexts:
        raise IndeterminateValueError("no context to evaluate the observable in")
    values = [evaluate(q, a, b) for q, b in zip(contexts, branches, strict=True)]
    return np.ptp(values, axis=0) <= VALUE_TOL
