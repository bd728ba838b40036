"""Finite-dimensional simulator of contextual algebraic quantum mechanics.

Observables live in a full complex matrix algebra.  Measurement device
types are modeled as contexts (maximal abelian subalgebras, each an
orthonormal basis with one branch per column), individual outcomes as
characters (branch indices of a context, one array per context for a
batch), and quantum states as density matrices sampled through the Born
rule.  Experiment drivers cover the two-slit interference
decomposition and the delayed-choice Mach-Zehnder interferometer, each
under both a wave model and a per-event-local particle model.

Importing the package loads no submodule and so no numpy: the CLI sets
its BLAS thread count before numpy starts (see aqm.cli).
"""

__version__ = "0.1.0"
