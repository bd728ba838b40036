"""Finite-dimensional algebra of observables.

The abstract C*-algebra is modeled as the full matrix algebra M_n(C),
its elements as square complex arrays.  A measurement device type is a
maximal abelian subalgebra, held as a Context: an orthonormal basis whose
column j is branch j.  A character of a context is one of its branch
indices: it evaluates every observable diagonal in that context to the
eigenvalue on that branch.  An elementary state carries one character per
context, so a batch of n elementary states is one (n,) branch array per
context.

Contexts, observables and the functions below also take stacks: arrays of
shape (..., d, d), one matrix per slice, with branch arrays of shape
(..., n).  A single matrix is a stack of none, through the same code, and
every check holds on every slice.  Malformed operands raise ValueError; an
observable that its context does not contain raises the subclass
IncompatibleObservableError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
COMMUTE_TOL = 1e-10
PROJECTOR_TOL = 1e-10
VALUE_TOL = 1e-8  # values this close are one value of an observable


class IncompatibleObservableError(ValueError):
    """Observable is not diagonal in the requested context (wrong device type)."""


def as_matrix(a) -> np.ndarray:
    """Coerce a square array-like, or a stack of them, to a complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of the stack."""
    return m.conj().swapaxes(-1, -2)


def _max_abs(x: np.ndarray):
    """Largest |entry| of x over every slice of its stack; NaN if any entry is NaN."""
    return np.abs(x).max(initial=0.0)


def _check_same_dim(*mats: np.ndarray) -> int:
    dims = {m.shape[-1] for m in mats}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def is_hermitian(a) -> bool:
    m = as_matrix(a)
    return bool(_max_abs(m - _adjoint(m)) <= HERM_TOL)


@dataclass(frozen=True)
class Context:
    """One measurement device type: an orthonormal basis, one branch per column.

    `basis` is a read-only d x d unitary V; branch j is column j, and its
    projector is the rank-1 V_j V_j^dagger, so the context is a MASA.  A
    (..., d, d) basis is a stack of contexts, each one checked.
    """

    basis: np.ndarray

    def __post_init__(self):
        v = np.array(as_matrix(self.basis))
        if not _max_abs(_adjoint(v) @ v - np.eye(v.shape[-1])) <= PROJECTOR_TOL:  # NaN fails too
            raise ValueError("context basis is not orthonormal")
        v.setflags(write=False)
        object.__setattr__(self, "basis", v)

    @property
    def n_branches(self) -> int:
        return self.basis.shape[-1]


# ---------------------------------------------------------------------------
# Operations


def _branch_values(q: Context, a) -> np.ndarray:
    """Eigenvalue of the observable on each branch of the context: the diagonal of V^dagger A V.

    The one test of measurability: raises IncompatibleObservableError
    unless the observable commutes with the context, that is, unless every
    off-diagonal entry of V^dagger A V is within COMMUTE_TOL, on every
    slice of a stack.
    """
    m = as_matrix(a)
    _check_same_dim(m, q.basis)
    m = _adjoint(q.basis) @ m @ q.basis
    off_diagonal = m[..., ~np.eye(m.shape[-1], dtype=bool)]
    if not _max_abs(off_diagonal) <= COMMUTE_TOL:  # a NaN entry fails too
        raise IncompatibleObservableError("observable is not measurable with this context")
    return m.diagonal(0, -2, -1).real


def evaluate(q: Context, a, branches) -> np.ndarray:
    """Eigenvalue of the observable on each character's branch of q.

    `branches` holds branch indices of q, one per character; for a stack
    of contexts, its leading axes are the stack's.  Raises ValueError for
    indices that are not integers (numpy would read booleans as a mask) or
    lie outside [0, k), and IncompatibleObservableError when the
    observable is not measurable with q (see _branch_values): its value
    would depend on the device type.
    """
    branches = np.asarray(branches)
    if branches.size and branches.dtype.kind not in "iu":  # [] is an empty float array
        raise ValueError(f"branch indices must be integers, got dtype {branches.dtype}")
    if np.any((branches < 0) | (branches >= q.n_branches)):
        raise ValueError(f"branch index out of range for a context with {q.n_branches} branches")
    values = _branch_values(q, a)
    index = branches.astype(np.intp, copy=False).reshape(values.shape[:-1] + (-1,))
    return np.take_along_axis(values, index, axis=-1).reshape(branches.shape)


def is_stable(a, contexts, branches) -> np.ndarray:
    """True where an elementary state's characters agree on the observable.

    branches[j] holds the characters of contexts[j], one per elementary
    state, stacked as in evaluate; every context must contain the
    observable.  The characters
    agree when their values span at most VALUE_TOL.
    """
    if not contexts:
        raise ValueError("no context to evaluate the observable in")
    values = [evaluate(q, a, b) for q, b in zip(contexts, branches, strict=True)]
    return np.ptp(values, axis=0) <= VALUE_TOL
