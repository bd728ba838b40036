import io
import os
import tempfile
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqm.algebra import (
    COMMUTE_TOL,
    PROJECTOR_TOL,
    VALUE_TOL,
    Context,
    _branch_values,
    evaluate,
    is_stable,
)
from aqm import experiments, interferometer, rng, two_slit
from aqm.ensemble import (
    QuantumState,
    born_distribution,
    born_mean_residual,
    check_postulate5,
    check_postulate6,
    inverse_cdf,
    lueders_law,
    measure_many,
    monte_carlo_mean,
    multinomial_counts,
)
from aqm.errors import IncompatibleObservableError
from aqm.experiments import (
    random_degenerate_spectrum,
    random_density,
    random_hermitian,
    random_masa,
    random_unitary,
)
from aqm.interferometer import POLICIES
from aqm.rng import LANE_EVENTS, LANE_POLICY, event_uniforms, stream
from aqm.two_slit import (
    SlitGeometry,
    cross_shares,
    prepare_conditioned,
    sample_screens,
    sampler_law_residual,
    screen_split,
    uniform_source,
)
from reference import (
    MomentumBin,
    branch_counts,
    context_from_projectors,
    decompose_mean,
    event_stream,
    events_csv,
    lueders,
    lueders_block,
    masa_from,
    mode_diagonal,
    momentum_projector,
    particle_run,
    projectors,
    pure,
    random_degenerate_observable,
    slit_projectors,
    spectral_decompose,
    stack_branch_values,
    stack_contains,
)

# the rounding allowed between the basis arithmetic and the projector-stack
# oracle, relative to the largest entry involved
_ROUNDING = 64 * np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 12))
def test_spectral_reconstruction(seed, dim):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10.0)
    a = scale * random_hermitian(dim, rng)
    recon = sum(val * proj for val, proj in spectral_decompose(a))
    assert np.max(np.abs(a - recon)) <= 1e-10 * max(1.0, np.abs(a).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 10))
def test_character_homomorphism(seed, dim):
    rng = np.random.default_rng(seed)
    ctx = masa_from(random_hermitian(dim, rng))
    branches = rng.integers(0, ctx.n_branches, size=8)

    def chi(m):
        return evaluate(ctx, m, branches)

    coeffs = rng.standard_normal((2, ctx.n_branches))
    a = sum(c * p for c, p in zip(coeffs[0], projectors(ctx)))
    b = sum(c * p for c, p in zip(coeffs[1], projectors(ctx)))
    assert np.max(np.abs(chi(a @ b) - chi(a) * chi(b))) <= 1e-9
    assert np.max(np.abs(chi(a + b) - chi(a) - chi(b))) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 12))
def test_stacked_context_matches_the_per_projector_loop(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_degenerate_observable(dim, rng)
    ctx = masa_from(a, refinement=random_unitary(dim, rng))
    psi = random_density(dim, rng)
    weights = np.clip([np.trace(psi.rho @ p).real for p in projectors(ctx)], 0.0, 1.0)
    assert np.max(np.abs(born_distribution(psi, ctx) - weights / weights.sum())) <= _ROUNDING
    values = [float((np.trace(p @ a) / np.trace(p)).real) for p in projectors(ctx)]
    got = evaluate(ctx, a, np.arange(ctx.n_branches))
    assert np.max(np.abs(got - values)) <= _ROUNDING * np.abs(a).max()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(3, 10), n=st.integers(1, 50))
def test_characters_are_branch_arrays(seed, dim, n):
    rng = np.random.default_rng(seed)
    a = random_degenerate_observable(dim, rng)
    q = masa_from(a, refinement=random_unitary(dim, rng))
    qp = masa_from(a, refinement=random_unitary(dim, rng))
    b1, b2 = rng.integers(0, q.n_branches, n), rng.integers(0, qp.n_branches, n)
    vq, vqp = _branch_values(q, a), _branch_values(qp, a)
    assert evaluate(q, a, b1).tolist() == vq[b1].tolist()
    assert is_stable(a, (q, qp), (b1, b2)).tolist() == (np.abs(vq[b1] - vqp[b2]) <= 1e-8).tolist()


def _pair(dim: int, i: int, j: int, phase: float) -> np.ndarray:
    """Hermitian matrix of max-abs entry 1, nonzero only at (i, j) and (j, i)."""
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = np.exp(1j * phase) if i != j else 1.0
    e[j, i] = e[i, j].conj()
    return e


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


# Each check below is a max-abs bound, and the basis and the projector stack
# see a perturbation in different bases.  A perturbation of max-abs size s
# at one entry pair has Frobenius norm f between s and 2 s, and a d x d
# matrix's max-abs entry lies between f / d and f: so at 0.1 times a
# tolerance both sides accept, and at 10 sqrt(d) times it both reject,
# for every d up to 100.
_SCALE = {"accept": lambda dim: 0.1, "reject": lambda dim: 10.0 * np.sqrt(dim)}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 12), verdict=st.sampled_from(sorted(_SCALE)))
def test_measurability_verdicts_match_the_projector_stack_near_the_tolerances(seed, dim, verdict):
    # an observable diagonal in V, perturbed at one entry pair between two
    # branches of V^dagger A V: it breaks commutation against COMMUTE_TOL
    rng = np.random.default_rng(seed)
    q = Context(random_unitary(dim, rng))
    i, j = rng.choice(dim, size=2, replace=False).tolist()
    m = (np.diag(3.0 * rng.standard_normal(dim))
         + _SCALE[verdict](dim) * COMMUTE_TOL * _pair(dim, i, j, rng.uniform(0, 6.3)))
    a = q.basis @ m @ q.basis.conj().T
    stack = projectors(q)
    assert stack_contains(stack, a) == (verdict == "accept")
    if verdict == "accept":
        got, expected = _branch_values(q, a), stack_branch_values(stack, a)
        assert np.max(np.abs(got - expected)) <= _ROUNDING * np.abs(a).max()
    else:
        with pytest.raises(IncompatibleObservableError):
            _branch_values(q, a)
        with pytest.raises(IncompatibleObservableError):
            stack_branch_values(stack, a)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 12), verdict=st.sampled_from(sorted(_SCALE)))
def test_basis_check_matches_the_projector_stack_near_its_tolerance(seed, dim, verdict):
    # V' = V (I + S) for a Hermitian S at one entry pair: V'^dagger V' - I is
    # 2 S to first order, and the stack's deviations are 2 S in V's basis
    rng = np.random.default_rng(seed)
    i, j = rng.integers(0, dim, 2).tolist()
    s = 0.5 * _SCALE[verdict](dim) * PROJECTOR_TOL * _pair(dim, i, j, rng.uniform(0, 6.3))
    v = random_unitary(dim, rng) @ (np.eye(dim) + s)
    stack = [np.outer(c, c.conj()) for c in v.T]
    accepted = _accepts(lambda: Context(v))
    assert accepted == _accepts(lambda: context_from_projectors(stack)) == (verdict == "accept")


def test_contains_rejects_a_single_entry_between_two_branches():
    # 1e-9 at one entry pair between two branches of V^dagger A V
    q = masa_from(np.diag([1.0, 2.0, 3.0]))
    a = np.diag([1.0, 1.0, 3.0]) + 1e-9 * _pair(3, 1, 2, 0.0)
    with pytest.raises(IncompatibleObservableError):
        _branch_values(q, a)
    assert not stack_contains(projectors(q), a)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 8), n=st.integers(1, 300))
def test_measure_many_is_the_scalar_loop(seed, dim, n):
    rng = np.random.default_rng(seed)
    a = random_degenerate_observable(dim, rng)
    contexts = [masa_from(a, refinement=random_unitary(dim, rng)) for _ in range(2)]
    psi = random_density(dim, rng)
    for lane, ctx in enumerate(contexts):
        u = stream(seed, lane).random(n)
        # the reference, one uniform at a time: its Born branch and the
        # observable's value there
        probs, values = born_distribution(psi, ctx), _branch_values(ctx, a)
        branches = [int(inverse_cdf(probs, x)) for x in u.tolist()]
        got_branches = measure_many(psi, ctx, u)
        assert got_branches.tolist() == branches
        assert evaluate(ctx, a, got_branches).tolist() == [values[b] for b in branches]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 8), n=st.integers(1, 50))
def test_lueders_is_the_block_formula_on_each_drawn_branch(seed, dim, n):
    # the post-state of a drawn branch is P rho P / tr(rho P), whatever rho
    # drew it, exactly Hermitian
    rng = np.random.default_rng(seed)
    q = masa_from(random_degenerate_observable(dim, rng), refinement=random_unitary(dim, rng))
    psi = random_density(dim, rng)
    for j in set(measure_many(psi, q, stream(seed).random(n)).tolist()):
        block = q.basis[:, [j]]
        weight = (block.conj().T @ psi.rho @ block).real.item()
        post = lueders(q, j)
        assert np.max(np.abs(post.rho - lueders_block(psi, block).rho)) <= _ROUNDING / weight
        assert np.array_equal(post.rho, post.rho.conj().T)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 8))
def test_each_row_of_the_lueders_law_is_the_born_law_of_its_post_state(seed, dim):
    # row j of |Q^dagger Q'|^2 against the state v_j v_j^dagger, measured on Q'
    rng = np.random.default_rng(seed)
    q, qp = (Context(random_unitary(dim, rng)) for _ in range(2))
    law = lueders_law(q, qp)
    for j in range(dim):
        assert np.max(np.abs(law[j] - born_distribution(lueders(q, j), qp))) <= _ROUNDING


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 12))
def test_direct_contexts_match_the_masa_from_oracle(seed, dim):
    # for the same A, a context drawn from A's own basis and masa_from's
    # context hold the same values with the same law
    rng = np.random.default_rng(seed)
    u, lam = random_degenerate_spectrum(dim, rng)
    a = (u * lam) @ u.conj().T
    direct = random_masa(u, lam, rng)
    oracle = masa_from(a, refinement=random_unitary(dim, rng))
    got, want = (np.sort(_branch_values(c, a)) for c in (direct, oracle))
    assert np.max(np.abs(got - want)) <= VALUE_TOL
    report = check_postulate5(random_density(dim, rng), a, direct, oracle, 2, rng)
    assert report.exact_distance <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 6), count=st.integers(1, 4),
       n=st.integers(1, 30).map(lambda m: 2 * m))
def test_each_stacked_function_is_its_call_on_each_slice(seed, dim, count, n):
    # a single call is a batch of one: slice k of a stacked call has the bits
    # of the call on slice k alone
    rng = np.random.default_rng(seed)
    a, q, qp, psi = experiments._instance(dim, rng, (count,))
    b = random_hermitian(dim, rng, (count,))
    u = rng.random((count, n))
    branches = rng.integers(0, dim, (count, 2, n))

    def calls(a, q, qp, psi, b, u, branches, gen):
        probs = born_distribution(psi, q)
        report = check_postulate5(psi, a, q, qp, n, gen)
        return [QuantumState(psi.rho).rho, Context(q.basis).basis, psi.mean(a), probs,
                _branch_values(q, a), evaluate(q, a, branches[..., 0, :]),
                is_stable(a, (q, qp), (branches[..., 0, :], branches[..., 1, :])),
                inverse_cdf(probs, u), measure_many(psi, q, u), lueders_law(q, qp),
                report.exact_distance, report.ks_stat, check_postulate6(psi, a, b),
                born_mean_residual(psi, a, q)]

    stacked = calls(a, q, qp, psi, b, u, branches, stream(seed, 0))
    for k in range(count):
        # check_postulate5 draws 2n uniforms per slice: slice k's begin at draw 2nk
        alone = calls(a[k], Context(q.basis[k]), Context(qp.basis[k]), QuantumState(psi.rho[k]),
                      b[k], u[k], branches[k], stream(seed, 0, start=2 * n * k))
        for got, want in zip(stacked, alone, strict=True):
            assert np.array_equal(got[k], want)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 6), count=st.integers(2, 5), data=st.data())
def test_a_stack_with_one_bad_slice_past_the_first_is_rejected(seed, dim, count, data):
    k = data.draw(st.integers(1, count - 1))
    rng = np.random.default_rng(seed)
    a, q, _, psi = experiments._instance(dim, rng, (count,))

    def spoiled(stack, bad):
        stack = stack.copy()
        stack[k] = bad
        return stack

    with pytest.raises(ValueError, match="context basis is not orthonormal"):
        Context(spoiled(q.basis, q.basis[k] * (1.0 + 1e-6)))
    negative = np.diag(np.r_[1.5, -0.5, np.zeros(dim - 2)])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        QuantumState(spoiled(psi.rho, negative))
    with pytest.raises(ValueError, match="trace"):
        QuantumState(spoiled(psi.rho, 2.0 * psi.rho[k]))
    with pytest.raises(ValueError, match="must be Hermitian"):
        QuantumState(spoiled(psi.rho, psi.rho[k] + 1e-6j * np.triu(np.ones((dim, dim)), 1)))
    # a perturbation of A's own eigenbasis mixes two branches of q
    with pytest.raises(IncompatibleObservableError):
        _branch_values(q, spoiled(a, a[k] + 1e-6 * random_hermitian(dim, rng)))
    with pytest.raises(ValueError, match="uniforms"):
        measure_many(psi, q, spoiled(rng.random((count, 3)), [0.5, 1.5, 0.5]))


def test_measure_many_never_draws_a_zero_probability_branch():
    # the last branch has probability zero; u = 1 must not reach it
    sz = np.diag([1.0, -1.0])
    ctx = masa_from(sz)
    branches = measure_many(pure([0.0, 1.0]), ctx, [0.0, 0.5, 1.0])
    assert branches.tolist() == [0, 0, 0]
    assert evaluate(ctx, sz, branches).tolist() == [-1.0, -1.0, -1.0]


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(1, 300), st.integers(1, 2**63 - 1)),
    dim=st.sampled_from([3, 40]),
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(1, 2**20),
)
def test_monte_carlo_mean_is_the_exact_mean_of_its_multinomial_counts(n, dim, seed, index):
    psi, a, q = _born_instance(dim, seed)
    values = _branch_values(q, a)
    counts = multinomial_counts(stream(seed, index), n, born_distribution(psi, q))
    mean = float(sum(Fraction(v) * c for v, c in zip(values.tolist(), counts.tolist())) / n)
    assert monte_carlo_mean(psi, a, q, n, seed, index) == mean


def _on_threads(threads: int, call) -> list:
    """call() run on `threads` threads at once; their results in thread order."""
    results = [None] * threads
    start = threading.Barrier(threads)

    def run(i):
        start.wait(timeout=60)
        results[i] = call()

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in workers)
    return results


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 2**16 - 1, 2**16, 2 * 2**16 + 3, 4 * 2**16 + 5]),
    dim=st.sampled_from([3, 40]),
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(1, 2**20),
)
def test_monte_carlo_mean_does_not_depend_on_the_worker_count(n, dim, seed, index):
    # each call draws from a generator of its own, so calls made on 1, 2 or 3
    # threads at once each return the result of a call made alone
    psi, a, q = _born_instance(dim, seed)
    expected = monte_carlo_mean(psi, a, q, n, seed, index)
    for threads in (1, 2, 3):
        assert _on_threads(threads, lambda: monte_carlo_mean(psi, a, q, n, seed, index)) == (
            [expected] * threads)


@settings(max_examples=10, deadline=None)
@given(
    geom=st.sampled_from([SlitGeometry(32, {10, 11}, {18, 19}),
                          SlitGeometry(256, {120, 121}, {134, 135})]),
    n=st.integers(1, 12 * 4096),
    seed=st.integers(0, 2**64 - 1),
)
def test_sample_screens_does_not_depend_on_the_worker_count(geom, n, seed):
    split = screen_split(prepare_conditioned(uniform_source(geom.grid_size), geom), geom)
    histogram, tally = sample_screens(split, n, seed)
    expected = (histogram.tolist(), tally)
    assert histogram.dtype == np.int64 and histogram.sum() == n == sum(tally)
    for threads in (1, 2, 3):
        for histogram, tally in _on_threads(threads, lambda: sample_screens(split, n, seed)):
            assert histogram.dtype == np.int64
            assert (histogram.tolist(), tally) == expected


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.integers(1, 300), st.sampled_from([2**16 - 1, 2**16 + 1, 3 * 2**16 + 5])),
    chunk=st.sampled_from([4, 8, 12, 2**16]),
    dim=st.sampled_from([3, 40]),
    seed=st.integers(0, 2**64 - 1),
    index=st.integers(1, 2**20),
)
def test_monte_carlo_mean_does_not_depend_on_the_chunk_length(n, chunk, dim, seed, index):
    # rng._CHUNK cuts a photon run into chunks; a mean is one tally at any chunk length
    psi, a, q = _born_instance(dim, seed)
    expected = monte_carlo_mean(psi, a, q, n, seed, index)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "_CHUNK", chunk)
        assert monte_carlo_mean(psi, a, q, n, seed, index) == expected


def _born_instance(dim: int, seed: int):
    setup = np.random.default_rng(seed)
    a = random_hermitian(dim, setup)
    q = masa_from(a)
    return random_density(dim, setup), a, q


_POSITIVE_WEIGHT = st.one_of(st.integers(1, 8).map(float), st.floats(1e-6, 1.0))


def _weights_and_uniforms(k: int, data):
    """k weights with zero runs leading, trailing and inside, and uniforms that hit every tie."""
    lead = data.draw(st.integers(0, k - 1))
    trail = data.draw(st.integers(0, k - 1 - lead))
    middle = data.draw(st.lists(st.one_of(st.just(0.0), _POSITIVE_WEIGHT),
                                min_size=k - lead - trail - 1, max_size=k - lead - trail - 1))
    weights = np.array([0.0] * lead + [data.draw(_POSITIVE_WEIGHT)] + middle + [0.0] * trail)
    return weights, _tie_uniforms(weights, data)


def _tie_uniforms(weights, data):
    """0, 1, and uniforms at which u * total lands on a CDF entry, or next to one."""
    cdf = np.cumsum(weights)
    ties = cdf / cdf[-1]
    return np.concatenate([
        [0.0, 1.0], ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0).clip(0.0, 1.0),
        data.draw(st.lists(st.floats(0.0, 1.0), max_size=20)),
    ])


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 64), data=st.data())
def test_inverse_cdf_is_the_clamped_searchsorted(k, data):
    # zero weights anywhere and uniforms on every tie; a scalar uniform draws as an array's does
    weights, u = _weights_and_uniforms(k, data)
    cdf = np.cumsum(weights)
    last = np.flatnonzero(weights)[-1]
    want = np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), last)
    assert inverse_cdf(weights, u).tolist() == want.tolist()
    assert [int(inverse_cdf(weights, x)) for x in u.tolist()] == want.tolist()


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 64), data=st.data())
def test_branch_counts_tally_the_inverse_cdf_draws(k, data):
    # k spans both kernels: comparison counting up to 32 branches, sorting above
    weights, u = _weights_and_uniforms(k, data)
    want = np.bincount(inverse_cdf(weights, u), minlength=k)
    counts = branch_counts(weights, u)
    assert counts.dtype == np.int64
    assert counts.tolist() == want.tolist()


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([33, 256, 2048]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_branch_counts_tally_the_inverse_cdf_draws_beyond_64_branches(k, seed, data):
    # too many weights to draw one by one: zero runs leading, trailing and
    # inside around numpy-drawn weights of mixed scales
    gen = np.random.default_rng(seed)
    lead = data.draw(st.integers(0, k - 1))
    trail = data.draw(st.integers(0, k - 1 - lead))
    weights = gen.random(k) * 10.0 ** gen.integers(-6, 2, size=k) * (gen.random(k) < 0.7)
    weights[:lead] = 0.0
    weights[k - trail:] = 0.0
    weights[lead] = 1.0 - gen.random()  # in (0, 1]
    u = np.concatenate([_tie_uniforms(weights, data), gen.random(4096)])
    counts = branch_counts(weights, u)
    assert counts.dtype == np.int64
    assert counts.tolist() == np.bincount(inverse_cdf(weights, u), minlength=k).tolist()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), dim=st.integers(2, 10))
def test_born_distribution_normalized(seed, dim):
    rng = np.random.default_rng(seed)
    psi = random_density(dim, rng)
    ctx = masa_from(random_hermitian(dim, rng))
    probs = born_distribution(psi, ctx)
    assert np.all(probs >= 0)
    assert probs.sum() == 1.0 or abs(probs.sum() - 1.0) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 48),
    data=st.data(),
)
def test_momentum_bins_tile_the_identity(n, data):
    cut = data.draw(st.integers(1, n - 1))
    left = momentum_projector(MomentumBin(0, cut), n)
    right = momentum_projector(MomentumBin(cut, n), n)
    assert np.max(np.abs(left + right - np.eye(n))) <= 1e-10
    assert np.max(np.abs(left @ right)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**31), data=st.data())
def test_fft_mode_statistics_match_the_dense_oracle(n, seed, data):
    rng = np.random.default_rng(seed)
    sites = rng.permutation(n).tolist()
    ka = data.draw(st.integers(1, n - 1))
    kb = data.draw(st.integers(1, n - ka))
    geom = SlitGeometry(n, frozenset(sites[:ka]), frozenset(sites[ka : ka + kb]))
    p_a, p_b = slit_projectors(geom)
    # complex amplitudes: for a real psi, fft and ifft differ only by a
    # conjugation that none of the four terms sees
    psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = prepare_conditioned(psi0 / np.linalg.norm(psi0), geom)
    dense = pure(psi)
    rho = dense.rho
    modes = two_slit._mode_statistics(psi, geom)

    # the three-term split of every single-mode screen, bin by bin
    for k, got in enumerate(zip(*modes)):
        want = decompose_mean(dense, momentum_projector(MomentumBin(k, k + 1), n), p_a, p_b)
        for field, value in zip(("direct_a", "direct_b", "interference", "total"), got):
            assert abs(value - want[field]) <= 1e-12

    assert np.max(np.abs(modes[3] - mode_diagonal(rho))) <= 1e-12

    # conditional masses of the per-event split: diag(F^dagger g F) per slit,
    # with slit a's share of each mode's cross term and slit b the rest
    direct_a, direct_b, cross, _ = modes
    share = cross_shares(direct_a, direct_b, cross)
    masses = []
    for ms, mo, direct, s in ((p_a, p_b, direct_a, share), (p_b, p_a, direct_b, 1.0 - share)):
        mass = mode_diagonal(ms @ rho @ ms) + s * mode_diagonal(ms @ rho @ mo + mo @ rho @ ms)
        assert np.max(np.abs(direct + s * cross - mass)) <= 1e-12
        masses.append(mass)
    split = screen_split(psi, geom)
    clamped = [float(np.sum(np.maximum(-m, 0.0))) for m in masses]
    assert np.allclose(split.clamped, clamped, rtol=0.0, atol=1e-12)
    for cond, mass in zip(split.conds, masses):
        mass = np.clip(mass, 0.0, None)
        assert np.max(np.abs(cond - mass / mass.sum())) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 2**31))
@example(n=2, seed=0)  # the N = 2 lattice, its half split negative
@example(n=2, seed=1)  # and non-negative
@example(n=16, seed=82)  # non-negative on a wider lattice
def test_the_per_mode_split_exists_on_every_geometry(n, seed):
    # random slits and a complex source, where the half split of the cross
    # term nearly always leaves a negative mass; the per-mode shares clamp
    # only rounding
    rng = np.random.default_rng(seed)
    sites = rng.permutation(n).tolist()
    ka = int(rng.integers(1, n))
    kb = int(rng.integers(1, n - ka + 1))
    geom = SlitGeometry(n, frozenset(sites[:ka]), frozenset(sites[ka : ka + kb]))
    psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = prepare_conditioned(psi0 / np.linalg.norm(psi0), geom)
    split = screen_split(psi, geom)
    direct_a, direct_b, cross, _ = split.modes
    share = cross_shares(direct_a, direct_b, cross)
    assert np.all((-_ROUNDING <= share) & (share <= 1.0 + _ROUNDING))
    assert max(split.clamped) <= 1e-15
    assert abs(np.sum(direct_a + share * cross) - split.slit_probs[0]) <= 1e-12
    law, bound = sampler_law_residual(split)
    assert law <= bound
    # bit for bit the half split wherever that is non-negative: per mode
    # where the cross term is negative, and everywhere if it is nowhere negative
    halves = [direct + 0.5 * cross for direct in (direct_a, direct_b)]
    assert np.all(share[(cross < 0.0) & (halves[0] >= 0.0) & (halves[1] >= 0.0)] == 0.5)
    if min(h.min() for h in halves) >= 0.0:
        assert np.all(share == 0.5)
        for cond, half in zip(split.conds, halves):
            assert np.array_equal(cond, half / half.sum())


# ---------------------------------------------------------------------------
# Per-event kernels in chunks: the same events, rows and histograms as the
# scalar path and as one unchunked batch, across chunk and decade edges.

_CHUNK = 1 << 16
_EDGES = (0, 9, 10, 99, 99_999, 100_000, _CHUNK - 1, _CHUNK, 3 * _CHUNK + 5)
_NEAR_EDGE = st.sampled_from(_EDGES).flatmap(lambda e: st.integers(max(e - 3, 0), e + 3))


def _scalar_m4(policy_name: str, p: float, seed: int, i: int) -> bool:
    """Mirror presence of event i, decided one event at a time."""
    if policy_name in ("present", "absent"):
        return policy_name == "present"
    if policy_name == "delayed-alternating":
        return i % 2 == 1
    return bool(event_stream(seed, i, lane=LANE_POLICY).random() < p)


def _run(policy_name: str, p: float, seed: int, start: int, count: int) -> np.ndarray:
    """Event codes of events start..start+count-1, drawn as one batch."""
    m4 = POLICIES[policy_name](p, seed, count, start)
    return interferometer.run_events(m4, seed, start)


def _scalar_csv(policy_name: str, p: float, seed: int, start: int, count: int) -> bytes:
    """events.csv rows of events start..start+count-1, one event at a time."""
    m4 = [_scalar_m4(policy_name, p, seed, i) for i in range(start, start + count)]
    return events_csv(m4, seed, start)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    start=_NEAR_EDGE,
    count=st.integers(1, 6),
    lane=st.sampled_from([LANE_EVENTS, LANE_POLICY]),
)
def test_event_uniforms_from_start_are_the_event_streams(seed, start, count, lane):
    rows = event_uniforms(seed, count, lane=lane, start=start)
    for i in range(count):
        assert np.array_equal(rows[i], event_stream(seed, start + i, lane=lane).random(4))


@settings(max_examples=80, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    p=st.floats(0.0, 1.0),
    seed=st.sampled_from([0, 7, 10, 12345, 2**40 + 3]),
    start=_NEAR_EDGE,
    count=st.integers(1, 25),
)
def test_events_csv_rows_are_csv_writer_over_particle_run(policy_name, p, seed, start, count):
    codes = _run(policy_name, p, seed, start, count)
    buffer = io.BytesIO()
    interferometer.write_events_csv(codes, seed, start, buffer)
    assert buffer.getvalue() == _scalar_csv(policy_name, p, seed, start, count)


@settings(max_examples=60, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
    start=_NEAR_EDGE,
    count=st.integers(1, 40),
)
def test_count_events_is_the_path_m4_detector_tally_of_particle_run(
        policy_name, p, seed, start, count):
    want = np.zeros((2, 2, 2), dtype=np.int64)
    for i in range(start, start + count):
        m4 = _scalar_m4(policy_name, p, seed, i)
        path, detector = particle_run(m4, event_stream(seed, i))
        want[path, int(m4), detector] += 1
    counts = interferometer.count_events(_run(policy_name, p, seed, start, count))
    assert counts.dtype == np.int64
    assert counts.tolist() == want.tolist()


@settings(max_examples=40, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    chunk=st.sampled_from([1, 3, 7, 64]),
    n=st.integers(1, 130),
    seed=st.integers(0, 2**31),
)
def test_small_chunks_write_the_scalar_file(policy_name, chunk, n, seed):
    buffer = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "_CHUNK", chunk)
        for start, count in rng.chunks(n):  # the delayed-choice driver's loop
            interferometer.write_events_csv(
                _run(policy_name, 0.5, seed, start, count), seed, start, buffer)
    assert buffer.getvalue() == _scalar_csv(policy_name, 0.5, seed, 0, n)
    assert len(buffer.getvalue()) == interferometer.events_csv_bytes(n, seed)


@settings(max_examples=16, deadline=None)
@given(
    policy_name=st.sampled_from(sorted(POLICIES)),
    n=st.sampled_from([1000, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]),
    seed=st.integers(0, 2**31),
)
def test_chunked_run_is_the_one_batch_run(policy_name, n, seed):
    # one run_events call over all n events is the unchunked reference,
    # itself the scalar path by the tests above
    codes = _run(policy_name, 0.5, seed, 0, n)
    want = io.BytesIO()
    interferometer.write_events_csv(codes, seed, 0, want)
    report = interferometer.summarize_counts(interferometer.count_events(codes))
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "events.csv")
        result = experiments.delayed_choice_experiment(policy_name, n, seed, 0.5, path)
        with open(path, "rb") as fh:
            assert fh.read() == want.getvalue()
    assert len(want.getvalue()) == interferometer.events_csv_bytes(n, seed)
    assert result["max_deviation"] == report["max_deviation"]
    assert result["sub_ensembles"] == report["sub_ensembles"]
