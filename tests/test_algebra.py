import numpy as np
import pytest

from aqm.algebra import Context, IncompatibleObservableError, evaluate, is_stable
from aqm.experiments import random_hermitian
from conftest import SIGMA_X, SIGMA_Z, measurable
from reference import context_from_projectors, masa_from, projectors, spectral_decompose


class TestSpectralDecompose:
    # the reference's eigenprojectors, the oracle for masa_from's eigenspaces
    def test_sigma_z(self):
        decomp = spectral_decompose(SIGMA_Z)
        got = {val: proj for val, proj in decomp}
        assert set(got) == {1.0, -1.0}
        assert np.allclose(got[1.0], np.diag([1.0, 0.0]))
        assert np.allclose(got[-1.0], np.diag([0.0, 1.0]))

    def test_identity_is_single_cluster(self):
        decomp = spectral_decompose(np.eye(3))
        assert len(decomp) == 1
        val, proj = decomp[0]
        assert val == pytest.approx(1.0)
        assert np.allclose(proj, np.eye(3))

    def test_sigma_x_projectors_by_direct_arithmetic(self):
        # oracle: P_pm = (I pm sigma_x)/2 must be idempotent and reconstruct
        p_plus = 0.5 * (np.eye(2) + SIGMA_X)
        p_minus = 0.5 * (np.eye(2) - SIGMA_X)
        assert np.allclose(p_plus @ p_plus, p_plus)
        assert np.allclose(p_plus + -1.0 * p_minus, SIGMA_X)
        decomp = dict((round(v), p) for v, p in spectral_decompose(SIGMA_X))
        assert np.allclose(decomp[1], p_plus, atol=1e-12)
        assert np.allclose(decomp[-1], p_minus, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="requires a Hermitian matrix"):
            spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 5, 16, 32])
    def test_reconstruction_random(self, dim):
        rng = np.random.default_rng(dim)
        a = random_hermitian(dim, rng)
        recon = sum(val * proj for val, proj in spectral_decompose(a))
        assert np.max(np.abs(a - recon)) <= 1e-10


class TestMasaFrom:
    # the reference's context of a given observable, the oracle of the package's direct contexts
    def test_sigma_z_context(self):
        ctx = masa_from(SIGMA_Z)
        assert ctx.n_branches == 2
        mats = sorted(projectors(ctx), key=lambda p: -p[0, 0].real)
        assert np.allclose(mats[0], np.diag([1.0, 0.0]))
        assert np.allclose(mats[1], np.diag([0.0, 1.0]))

    def test_identity_default_refinement_standard_basis(self):
        ctx = masa_from(np.eye(2))
        assert np.allclose(projectors(ctx), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def test_identity_sigma_x_refinement_gives_distinct_masa(self):
        basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ctx = masa_from(np.eye(2), refinement=basis)
        p_plus = 0.5 * (np.eye(2) + SIGMA_X)
        p_minus = 0.5 * (np.eye(2) - SIGMA_X)
        assert np.allclose(projectors(ctx), [p_plus, p_minus], atol=1e-12)
        # both MASAs contain the identity: the contextuality seed
        assert measurable(ctx, np.eye(2)) and measurable(masa_from(np.eye(2)), np.eye(2))

    def test_contains_source_observable(self):
        rng = np.random.default_rng(5)
        for dim in (3, 6, 9):
            a = random_hermitian(dim, rng)
            assert measurable(masa_from(a), a)


class TestContextInvariants:
    @pytest.mark.parametrize("dim", [2, 8, 17, 64])
    def test_completeness_and_orthogonality(self, dim):
        rng = np.random.default_rng(dim)
        ctx = masa_from(random_hermitian(dim, rng))
        total = sum(projectors(ctx))
        assert np.max(np.abs(total - np.eye(dim))) <= 1e-10
        for i, p in enumerate(projectors(ctx)):
            for j, q in enumerate(projectors(ctx)):
                expect = p if i == j else np.zeros_like(p)
                assert np.max(np.abs(p @ q - expect)) <= 1e-10

    def test_maximality_flag(self):
        # a context is maximal: every branch's rank, its projector's trace, is one
        masa = masa_from(np.diag([1.0, 1.0, 2.0]))
        traces = np.rint(np.trace(projectors(masa), axis1=1, axis2=2).real).tolist()
        assert masa.n_branches == 3 and traces == [1.0, 1.0, 1.0]

    def test_rejects_incomplete_family(self):
        # one column leaves the second basis vector out
        with pytest.raises(ValueError):
            Context(np.eye(2)[:, :1])

    def test_orthonormality_is_checked_to_projector_tol(self):
        # V^dagger V - I is diag(0, 2d + d^2): d = 0.45e-10 is inside 1e-10, 0.55e-10 past it
        Context(np.diag([1.0, 1.0 + 0.45e-10]))
        with pytest.raises(ValueError, match="not orthonormal"):
            Context(np.diag([1.0, 1.0 + 0.55e-10]))

    def test_basis_is_one_read_only_matrix(self):
        source = np.eye(3)
        ctx = Context(source)
        source[0, 0] = 2.0  # the context holds a copy
        assert ctx.basis.shape == (3, 3) and ctx.basis[0, 0] == 1.0
        assert not ctx.basis.flags.writeable
        assert ctx.n_branches == 3


_E = np.eye(3)
_V = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)


@pytest.mark.parametrize(
    "stack, error, message",
    [
        ((), ValueError, "at least one projector"),
        # an oblique (idempotent, non-Hermitian) projector
        ((np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 1.0]])), ValueError,
         "projector 1 is not Hermitian"),
        ((np.diag([1.0, 0.0]), np.diag([0.0, 2.0])), ValueError, "projector 1 is not idempotent"),
        # (1, 3) is the first pair that is not orthogonal
        ((np.diag(_E[0]), np.diag(_E[1]), np.diag(_E[2]), np.outer(_V, _V)), ValueError,
         "projectors 1 and 3 are not orthogonal"),
        ((np.diag([1.0, 0.0]),), ValueError, "do not sum to the identity"),
        ((np.diag([1.0, 1.0, 0.0]), np.diag(_E[2])), ValueError, "projector 0 has rank 2, not 1"),
    ],
    ids=["empty", "not-hermitian", "not-idempotent", "not-orthogonal", "incomplete", "rank-2"],
)
def test_context_rejects_bad_projectors(stack, error, message):
    # the reference's projector-stack checks, the oracle for Context's one check
    with pytest.raises(error, match=message):
        context_from_projectors(stack)


@pytest.mark.parametrize(
    "basis, error, message",
    [
        (np.eye(3)[:, :2], ValueError, "expected a square matrix"),
        (np.diag([1.0, 1.0 + 1e-9]), ValueError, "context basis is not orthonormal"),
    ],
    ids=["not-square", "not-unitary"],
)
def test_context_rejects_bad_basis(basis, error, message):
    with pytest.raises(error, match=message):
        Context(basis)


class TestContains:
    def test_sigma_z_context_examples(self):
        ctx = masa_from(SIGMA_Z)
        assert measurable(ctx, SIGMA_Z)
        assert not measurable(ctx, SIGMA_X)
        assert measurable(ctx, np.eye(2))


class TestEvaluate:
    def test_branch_values(self):
        ctx = masa_from(SIGMA_Z)
        branch_of = {round(v): i for i, v in enumerate(evaluate(ctx, SIGMA_Z, [0, 1]).tolist())}
        assert set(branch_of) == {1, -1}
        assert evaluate(ctx, 3.0 * np.eye(2), branch_of[-1]) == pytest.approx(3.0)

    def test_incompatible_observable_raises(self):
        with pytest.raises(IncompatibleObservableError, match="not measurable with this context"):
            evaluate(masa_from(SIGMA_Z), SIGMA_X, [0])

    @pytest.mark.parametrize("branches", [-1, 2, [0, 2]])
    def test_rejects_branches_out_of_range(self, branches):
        # numpy would read branch -1 as the last one
        with pytest.raises(ValueError, match="out of range"):
            evaluate(masa_from(SIGMA_Z), SIGMA_Z, branches)

    @pytest.mark.parametrize("branches", [[True, False, True], [0.0, 2.0], np.array([1], object)],
                             ids=["bool", "float", "object"])
    def test_rejects_branches_that_are_not_integers(self, branches):
        # numpy would read the booleans as a mask: two values for three characters
        a = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="must be integers"):
            evaluate(masa_from(a), a, branches)
        with pytest.raises(ValueError, match="must be integers"):
            is_stable(a, (masa_from(a),), (branches,))

    def test_no_characters_give_no_values(self):
        a = np.diag([1.0, 1.0, 3.0])
        flipped = masa_from(a, refinement=np.eye(3)[:, ::-1])
        for branches in ([], np.array([], dtype=np.int64)):
            assert evaluate(masa_from(a), a, branches).shape == (0,)
            assert is_stable(a, (masa_from(a), flipped), (branches, branches)).shape == (0,)

    def test_homomorphism_on_random_context(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            ctx = masa_from(random_hermitian(dim, rng))
            branches = rng.integers(0, ctx.n_branches, size=5)

            def chi(m):
                return evaluate(ctx, m, branches)

            # random elements of the abelian subalgebra
            ca = np.zeros((dim, dim), dtype=complex)
            cb = ca.copy()
            for p in projectors(ctx):
                ca = ca + rng.standard_normal() * p
                cb = cb + rng.standard_normal() * p
            assert np.max(np.abs(chi(ca @ cb) - chi(ca) * chi(cb))) <= 1e-9
            assert np.max(np.abs(chi(ca + cb) - chi(ca) - chi(cb))) <= 1e-9


class TestIsStable:
    def test_single_containing_context(self):
        ctx = masa_from(SIGMA_Z)
        assert is_stable(SIGMA_Z, (ctx,), ([0, 1],)).tolist() == [True, True]

    def test_identity_always_stable(self):
        basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        c1 = masa_from(np.eye(2))
        c2 = masa_from(np.eye(2), refinement=basis)
        # every pair of characters, one on each context
        b1, b2 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        assert is_stable(np.eye(2), (c1, c2), (b1, b2)).all()

    def test_degenerate_refinements_can_disagree(self):
        a = np.diag([1.0, 1.0, 2.0])
        mix = np.array(
            [[1, 1, 0], [1, -1, 0], [0, 0, np.sqrt(2)]], dtype=complex
        ) / np.sqrt(2)
        c1 = masa_from(a)
        c2 = masa_from(a, refinement=mix)
        # oracle: direct evaluation fixes which branch carries which value
        v1, v2 = evaluate(c1, a, range(3)), evaluate(c2, a, range(3))
        b1 = [i for i in range(3) if v1[i] == pytest.approx(1.0)][0]
        b2 = [i for i in range(3) if v2[i] == pytest.approx(2.0)][0]
        same = [i for i in range(3) if v2[i] == pytest.approx(1.0)][0]
        assert is_stable(a, (c1, c2), ([b1, b1], [b2, same])).tolist() == [False, True]

    def test_every_context_must_contain_the_observable(self):
        contexts = (masa_from(SIGMA_Z), masa_from(SIGMA_X))
        with pytest.raises(IncompatibleObservableError):
            is_stable(SIGMA_Z, contexts, (0, 0))

    def test_missing_character_is_indeterminate(self):
        # no context, so no character to evaluate the observable with
        with pytest.raises(ValueError, match="no context to evaluate"):
            is_stable(SIGMA_Z, (), ())

    def test_needs_one_branch_array_per_context(self):
        with pytest.raises(ValueError):
            is_stable(SIGMA_Z, (masa_from(SIGMA_Z),) * 2, ([0],))

    def test_rejects_mixed_dimensions(self):
        contexts = (masa_from(SIGMA_Z), masa_from(np.eye(3)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_stable(SIGMA_Z, contexts, (0, 0))
