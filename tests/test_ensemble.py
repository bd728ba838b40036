import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import aqm
from aqm import algebra, ensemble, experiments
from aqm.algebra import IncompatibleObservableError, evaluate, is_stable
from aqm.ensemble import (
    QuantumState,
    born_distribution,
    check_postulate5,
    check_postulate6,
    inverse_cdf,
    lueders_law,
    measure_many,
    monte_carlo_mean,
    multinomial_counts,
)
from aqm.experiments import _instance, random_density, random_hermitian, random_unitary
from aqm.rng import stream
from conftest import SIGMA_X, SIGMA_Z, chi_square_test
from reference import (
    branch_counts,
    condition_on_event,
    lueders,
    masa_from,
    postulate5,
    projectors,
    pure,
    random_degenerate_observable,
)
from test_golden import BASELINE_DISPATCH

KET0 = pure([1.0, 0.0])
PLUS = pure([1.0, 1.0])
Z_CTX = masa_from(SIGMA_Z)
X_CTX = masa_from(SIGMA_X)


class TestQuantumState:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            QuantumState(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            QuantumState(np.diag([1.5, -0.5]))

    # each bound is 1e-10: a state 0.9e-10 off is inside it, one 1.1e-10 off is past it
    def test_hermiticity_is_checked_to_herm_tol(self):
        QuantumState(np.diag([0.5, 0.5]) + np.diag([0.9e-10j], 1))
        with pytest.raises(ValueError, match="must be Hermitian"):
            QuantumState(np.diag([0.5, 0.5]) + np.diag([1.1e-10j], 1))

    def test_trace_is_checked_to_state_tol(self):
        QuantumState(np.diag([0.5, 0.5 + 0.9e-10]))
        with pytest.raises(ValueError, match="trace is"):
            QuantumState(np.diag([0.5, 0.5 + 1.1e-10]))

    def test_eigenvalues_are_checked_to_state_tol(self):
        QuantumState(np.diag([1.0 + 0.9e-10, -0.9e-10]))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            QuantumState(np.diag([1.0 + 1.1e-10, -1.1e-10]))

    def test_pure_normalizes(self):
        psi = pure([3.0, 0.0])
        assert np.allclose(psi.rho, np.diag([1.0, 0.0]))


class TestBornDistribution:
    def test_eigenstate_is_deterministic(self):
        probs = born_distribution(KET0, Z_CTX)
        assert probs[_z_branch(1)] == pytest.approx(1.0)

    def test_symmetry_in_conjugate_context(self):
        assert np.allclose(born_distribution(KET0, X_CTX), [0.5, 0.5])

    def test_maximally_mixed_is_flat(self):
        psi = QuantumState(np.eye(2) / 2)
        for ctx in (Z_CTX, X_CTX):
            assert np.allclose(born_distribution(psi, ctx), [0.5, 0.5])


def _z_branch(value):
    # branch of the sigma_z context carrying the given eigenvalue
    for i, p in enumerate(projectors(Z_CTX)):
        if np.trace(p @ SIGMA_Z).real == pytest.approx(value):
            return i
    raise AssertionError


class TestSampleCharacter:
    def test_deterministic_distribution(self):
        branches = measure_many(KET0, Z_CTX, stream(0).random(50))
        assert branches.tolist() == [_z_branch(1)] * 50
        # zero-probability branches are never drawn, even when u * total
        # rounds up to the total (u = 1 here)
        probs = [0.0, 0.3, 0.0, 0.7, 0.0]
        assert inverse_cdf(probs, [0.0, 0.29, 0.31, 0.999, 1.0]).tolist() == [1, 1, 3, 3, 3]

    def test_symmetric_frequency(self):
        # the branches that n Born draws on stream(1) pick
        n = 100_000
        branches = inverse_cdf(born_distribution(PLUS, Z_CTX), stream(1).random(n))
        hits = np.count_nonzero(branches == 0)
        assert abs(hits / n - 0.5) <= 0.005  # 3 sigma at p = 0.5

    def test_replay_with_fixed_seed(self):
        def branches():
            return [measure_many(PLUS, Z_CTX, stream(42, i).random(1))[0]
                    for i in range(20)]

        assert branches() == branches()


def _count_checks(monkeypatch):
    calls = []
    original = algebra._branch_values

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra, "_branch_values", counted)
    return calls


def test_evaluate_means_and_postulate5_reject_the_same_pairs():
    # one measurability rule: a commutator of 1e-9, above COMMUTE_TOL
    psi, a, q = PLUS, SIGMA_Z + 1e-9 * SIGMA_X, Z_CTX
    branches = measure_many(psi, q, stream(0).random(100))
    for check in (
        lambda: evaluate(q, a, branches),
        lambda: is_stable(a, (q,), (branches,)),
        lambda: monte_carlo_mean(psi, a, q, 10, 0, 0),
        lambda: check_postulate5(psi, a, q, q, 10, stream(0)),
    ):
        with pytest.raises(IncompatibleObservableError):
            check()


class TestMeasure:
    # measuring an observable is measure_many, then evaluate on the drawn branches
    def test_eigenstate(self):
        branches = measure_many(KET0, Z_CTX, stream(0).random(1))
        assert evaluate(Z_CTX, SIGMA_Z, branches)[0] == pytest.approx(1.0)
        assert np.allclose(lueders(Z_CTX, branches[0]).rho, KET0.rho)

    def test_reproducibility(self):
        # column 0 drives the first measurement, column 1 the re-measurement
        u = stream(2).random((200, 2))
        b1 = measure_many(PLUS, Z_CTX, u[:, 0])
        v1 = evaluate(Z_CTX, SIGMA_Z, b1)
        assert set(v1.tolist()) == {1.0, -1.0}
        for j in set(b1.tolist()):
            drawn = b1 == j
            b2 = measure_many(lueders(Z_CTX, j), Z_CTX, u[drawn, 1])
            assert b2.tolist() == [j] * int(np.count_nonzero(drawn))
            assert np.allclose(evaluate(Z_CTX, SIGMA_Z, b2), v1[drawn], rtol=0.0, atol=1e-12)

    def test_incompatible_raises(self):
        # the pair is checked even when no branch was drawn
        with pytest.raises(IncompatibleObservableError, match="not measurable"):
            evaluate(Z_CTX, SIGMA_X, [])

    def test_checks_the_observable_against_the_context_once(self, monkeypatch):
        # drawing the branch checks no observable; reading its value checks the pair
        calls = _count_checks(monkeypatch)
        branches = measure_many(PLUS, Z_CTX, [0.5])
        assert calls == []
        evaluate(Z_CTX, SIGMA_Z, branches)
        assert len(calls) == 1

    def test_same_distribution_under_two_contexts_dim4(self):
        # A = sigma_z on a doubled register; two refinements of its
        # degenerate eigenspaces give the same value distribution
        a = np.diag([1.0, 1.0, -1.0, -1.0])
        mix = np.zeros((4, 4), dtype=complex)
        mix[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mix[2:, 2:] = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        q = masa_from(a)
        qp = masa_from(a, refinement=mix)
        rng = np.random.default_rng(9)
        psi = random_density(4, rng)
        # oracle: Born weight of each eigenprojector of A
        p_plus = np.diag([1.0, 1.0, 0.0, 0.0])
        expected = np.trace(psi.rho @ p_plus).real
        for ctx in (q, qp):
            probs = born_distribution(psi, ctx)
            weight = sum(
                prob
                for prob, proj in zip(probs, projectors(ctx))
                if np.trace(proj @ a).real > 0
            )
            assert weight == pytest.approx(expected, abs=1e-10)
        # 20 000 uniforms of stream(3) measure in q, the next 20 000 in qp
        n = 20_000
        u = stream(3).random(2 * n)
        f1 = np.count_nonzero(evaluate(q, a, measure_many(psi, q, u[:n])) > 0) / n
        f2 = np.count_nonzero(evaluate(qp, a, measure_many(psi, qp, u[n:])) > 0) / n
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(f1 - expected) <= 4 * sigma + 1e-12
        assert abs(f2 - expected) <= 4 * sigma + 1e-12


class TestMeasureMany:
    def test_incompatible_raises(self):
        branches = measure_many(PLUS, Z_CTX, [0.5])
        with pytest.raises(IncompatibleObservableError):
            evaluate(Z_CTX, SIGMA_X, branches)

    def test_checks_the_observable_against_the_context_once(self, monkeypatch):
        # evaluate checks the pair once for a whole batch of characters
        calls = _count_checks(monkeypatch)
        branches = measure_many(PLUS, Z_CTX, stream(0).random(100))
        assert calls == []
        evaluate(Z_CTX, SIGMA_Z, branches)
        assert len(calls) == 1

    @pytest.mark.parametrize("u", [[-0.1], [1.5], [np.nan]])
    def test_rejects_uniforms_outside_the_unit_interval(self, u):
        with pytest.raises(ValueError):
            measure_many(PLUS, Z_CTX, u)

    def test_builds_no_post_state(self, monkeypatch):
        # a copy measured again is re-measured by its branch's row of
        # lueders_law; no measurement builds its post-state
        def no_state(rho):
            raise AssertionError("measure_many built a QuantumState")

        monkeypatch.setattr(ensemble, "QuantumState", no_state)
        rng = np.random.default_rng(12)
        psi = random_density(4, rng)
        q = masa_from(random_degenerate_observable(4, rng), refinement=random_unitary(4, rng))
        assert len(set(measure_many(psi, q, stream(0).random(100)).tolist())) > 1


def _sigma(psi: QuantumState, a, n: int) -> float:
    """Standard deviation sqrt(Var_rho(A) / n) of the mean of n single-shot values."""
    a = np.asarray(a)
    return math.sqrt((psi.mean(a @ a) - psi.mean(a) ** 2) / n)


class TestMonteCarloMean:
    def test_deterministic_value(self):
        assert monte_carlo_mean(KET0, SIGMA_Z, Z_CTX, 500, 0, 0) == 1.0

    def test_symmetric_mean(self):
        est = monte_carlo_mean(PLUS, SIGMA_Z, Z_CTX, 1_000_000, 1, 0)
        assert abs(est) <= 0.004  # 4 sigma at unit variance

    def test_shifted_observable(self):
        # oracle: tr(rho (sz + 2 sx)) = 2 for the plus state
        a = SIGMA_Z + 2.0 * SIGMA_X
        assert np.trace(PLUS.rho @ a).real == pytest.approx(2.0)
        ctx = masa_from(a)
        est = monte_carlo_mean(PLUS, a, ctx, 100_000, 2, 0)
        assert abs(est - 2.0) <= 4 * _sigma(PLUS, a, 100_000)

    @pytest.mark.parametrize("n", [1, 2, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
    def test_chunked_draws_replay_one_vectorized_call(self, n):
        # n straddles rng._CHUNK, the chunk length of a photon run; a mean is
        # drawn in no chunks: it replays one multinomial call of its stream
        setup = stream(4, 0)
        a = random_hermitian(3, setup)
        q = masa_from(a)
        psi = random_density(3, setup)
        est = monte_carlo_mean(psi, a, q, n, 4, 1)
        values = algebra._branch_values(q, a)
        counts = multinomial_counts(stream(4, 1), n, born_distribution(psi, q))
        draws = np.repeat(values, counts)
        assert len(draws) == n
        # the estimate is the exact mean of the draws, rounded once
        assert est == float(sum(Fraction(v) * c for v, c in zip(values.tolist(), counts.tolist())) / n)
        assert abs(est - draws.mean()) <= 4 * np.spacing(abs(draws.mean()))

    def test_a_mean_of_10_to_the_15_draws_is_one_tally(self):
        # the multinomial tally costs O(k), whatever n
        setup = stream(8, 0)
        a = random_hermitian(8, setup)
        q = masa_from(a)
        psi = random_density(8, setup)
        start = time.perf_counter()
        est = monte_carlo_mean(psi, a, q, 10**15, 8, 1)
        assert time.perf_counter() - start < 1.0
        sigma = _sigma(psi, a, 10**15)
        assert 0.0 < sigma < 1e-7
        assert abs(est - psi.mean(a)) <= 6 * sigma

    def test_more_threads_than_cpus_under_fast_switching(self):
        # each call draws from a generator of its own, so eight calls made
        # at once share no state and each returns the one-thread result
        a = SIGMA_Z + 2.0 * SIGMA_X
        ctx = masa_from(a)
        n = 9 * 2**16 + 7
        expected = monte_carlo_mean(PLUS, a, ctx, n, 6, 0)
        results = [None] * 8

        def call(i):
            for _ in range(20):
                results[i] = monte_carlo_mean(PLUS, a, ctx, n, 6, 0)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 8

    @pytest.mark.parametrize("dim", [3, 40])
    def test_memory_does_not_grow_with_n(self, dim):
        # 2**22 values would take 32 MB; the mean keeps only its branch counts
        setup = stream(5, 0)
        a = random_hermitian(dim, setup)
        q = masa_from(a)
        psi = random_density(dim, setup)
        tracemalloc.start()
        try:
            monte_carlo_mean(psi, a, q, 2**22, 5, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


_PROBS = np.array([0.2, 0.5, 0.3, 0.0])  # the trailing zero branch is never counted


@pytest.mark.parametrize("tally", [
    lambda seed: multinomial_counts(stream(seed, 1), 3, _PROBS),
    lambda seed: branch_counts(_PROBS, stream(seed, 1).random(3)),
], ids=["multinomial", "per-draw-oracle"])
def test_tallies_of_three_draws_follow_the_multinomial_pmf(tally):
    # 4000 seeds, each one tally of n = 3 draws; the per-draw oracle passes the same test
    n, seeds = 3, 4000
    cells = [c for c in itertools.product(range(n + 1), repeat=3) if sum(c) == n]
    pmf = [math.factorial(n) * math.prod(p**c / math.factorial(c) for p, c in zip(_PROBS, cell))
           for cell in cells]
    seen = Counter()
    for seed in range(seeds):
        counts = tally(seed)
        assert counts.dtype == np.int64 and counts.tolist()[3] == 0
        seen[tuple(counts.tolist()[:3])] += 1
    assert set(seen) <= set(cells)
    stat, critical = chi_square_test([seen[c] for c in cells], seeds * np.array(pmf))
    assert stat < critical


def test_a_zero_probability_branch_is_never_counted_at_any_n():
    # the conditional binomials round; without the clamp to the last positive
    # branch, about n * 2**-53 draws would land on the trailing zeros
    n = 2**63 - 1
    for seed in range(20):
        gen = np.random.default_rng(seed)
        probs = gen.random(8) * (gen.random(8) < 0.6)
        probs[gen.integers(0, 4)] = 1.0
        probs[6:] = 0.0
        probs /= probs.sum()
        counts = multinomial_counts(stream(seed, 1), n, probs)
        assert counts.sum() == n
        assert counts[probs == 0.0].tolist() == [0] * int(np.sum(probs == 0.0))


def test_a_stack_counts_no_zero_probability_branch_at_any_n():
    # one draw over the columns up to the widest support: numpy leaves the
    # remainder in that last column, which a slice whose support ends
    # earlier must fold back into its own last positive branch
    n = 2**63 - 1
    for seed in range(200):
        gen = np.random.default_rng(seed)
        probs = gen.random((3, 4)) + 0.1
        probs[0, 2:] = probs[1, 3:] = 0.0  # supports end at columns 1, 2 and 3
        probs /= probs.sum(axis=-1, keepdims=True)
        counts = multinomial_counts(stream(seed, 1), n, probs)
        assert counts.sum(axis=-1).tolist() == [n] * 3
        assert counts[probs == 0.0].tolist() == [0, 0, 0]


def test_a_stacked_tally_draws_its_slices_in_turn():
    # with one support for every slice, slice k's tally is the k-th of the
    # 1-D calls on one generator
    probs = np.array([[0.2, 0.5, 0.3, 0.0], [0.1, 0.1, 0.8, 0.0], [0.6, 0.0, 0.4, 0.0]])
    gen = stream(3, 1)
    alone = [multinomial_counts(gen, 1000, p) for p in probs]
    assert np.array_equal(multinomial_counts(stream(3, 1), 1000, probs), alone)


class TestPostulate5:
    def test_same_context_trivially_passes(self):
        rep = check_postulate5(PLUS, SIGMA_Z, Z_CTX, Z_CTX, 2000, stream(0))
        assert rep.exact_distance == pytest.approx(0.0, abs=1e-15)
        assert rep.ks_stat < rep.ks_critical

    def test_degenerate_refinements_agree(self):
        a = np.diag([1.0, 1.0, 2.0, 2.0])
        mix = np.zeros((4, 4), dtype=complex)
        mix[:2, :2] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        mix[2:, 2:] = np.eye(2)
        q = masa_from(a)
        qp = masa_from(a, refinement=mix)
        rng = np.random.default_rng(4)
        psi = random_density(4, rng)
        rep = check_postulate5(psi, a, q, qp, 2000, stream(1))
        assert rep.exact_distance <= 1e-10
        assert rep.ks_stat < rep.ks_critical

    def test_biased_device_fails(self, monkeypatch):
        a = np.diag([1.0, 1.0, 2.0, 2.0])
        q = masa_from(a)
        psi = QuantumState(np.eye(4) / 4)
        calls = []

        def biased(gen, n, probs):
            # the second device always reports the lowest level
            calls.append(probs)
            counts = multinomial_counts(gen, n, probs)
            counts[..., 1, :] = 0
            counts[..., 1, 0] = n
            return counts

        monkeypatch.setattr(ensemble, "multinomial_counts", biased)
        rep = check_postulate5(psi, a, q, q, 2000, stream(2))
        assert len(calls) == 1
        assert rep.exact_distance == 0.0  # the bias is in the draws alone
        assert rep.ks_stat >= rep.ks_critical

    def test_biased_born_weights_fail(self, monkeypatch):
        # the second device puts all weight on branch 0, a value-1 branch, so
        # each value's mass is 1/2 under q and 1 or 0 under the second device
        a = np.diag([1.0, 1.0, 2.0, 2.0])
        q = masa_from(a)
        psi = QuantumState(np.eye(4) / 4)
        calls = []
        born = ensemble.born_distribution

        def biased(psi, ctx):
            calls.append(ctx)
            return born(psi, ctx) if len(calls) == 1 else np.array([1.0, 0.0, 0.0, 0.0])

        monkeypatch.setattr(ensemble, "born_distribution", biased)
        rep = check_postulate5(psi, a, q, q, 2000, stream(2))
        assert len(calls) == 2
        assert rep.exact_distance == 0.5
        assert rep.ks_stat >= rep.ks_critical

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 12, 16, 32])
    def test_matches_the_oracle_on_the_values_themselves(self, dim):
        # the oracle compares each context's own pushforward at every value
        # with a VALUE_TOL shift, and snaps the draws to the nearest grid
        # value; both must give the same bits, from twin generators
        for seed in range(12):
            a, q, qp, psi = _instance(dim, stream(seed, dim))
            rep = check_postulate5(psi, a, q, qp, 400, stream(seed, 100 + dim))
            exact, ks = postulate5(psi, a, q, qp, 400, stream(seed, 100 + dim))
            assert rep.exact_distance == exact
            assert rep.ks_stat == ks


def _suite_peak(dim: int, trials: int) -> int:
    """Peak traced bytes of postulate_suite(dim, trials, 1)."""
    tracemalloc.start()
    try:
        experiments.postulate_suite(dim, trials, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_postulate_suite_memory_does_not_grow_with_its_blocks_of_trials():
    # a block at dim 16 stacks _BLOCK // 256 trials, about 12 MB at its peak;
    # four blocks, run one after another, peak where one does
    per_block = experiments._BLOCK // 16**2
    peaks = [_suite_peak(16, trials) for trials in (per_block, 4 * per_block)]
    assert peaks[1] <= 1.05 * peaks[0]


def test_postulate_suite_memory_does_not_grow_with_its_number_of_blocks(monkeypatch):
    # one trial per block: only running totals outlive a block, so 700
    # blocks peak where 100 do
    monkeypatch.setattr(experiments, "_BLOCK", 4)
    experiments.postulate_suite(2, 10, 1)  # warm-up: first-call allocations are not the run's
    peaks = [_suite_peak(2, trials) for trials in (100, 700)]
    assert peaks[1] <= 1.05 * peaks[0]


def test_4096_trials_at_dim_2_peak_below_a_dim_8_block():
    # a trial's smoke test holds (2k,)-long level tallies, not its draws, so
    # a dim-2 block of 4096 trials peaks near 4 MB, below the 1024 trials of
    # a dim-8 block; 400 draws per context would take it past 25 MB
    assert _suite_peak(2, 4096) <= _suite_peak(8, 1024)


def test_postulate_suite_totals_every_block(monkeypatch):
    # 40 blocks of 50 trials at dim 3: the result is the max, sum and max of
    # the blocks' largest exact distances, KS failures and Born-mean residuals
    monkeypatch.setattr(experiments, "_BLOCK", 3**2 * 50)
    real_p5, real_born = experiments.check_postulate5, experiments.born_mean_residual
    blocks = []

    def recorded_p5(*args, **kwargs):
        # a lowered critical value makes several blocks fail the smoke test
        report = dataclasses.replace(real_p5(*args, **kwargs), ks_critical=0.07)
        blocks.append([report.exact_distance.max(),
                       int(np.count_nonzero(report.ks_stat >= report.ks_critical))])
        return report

    def recorded_born(*args):
        residuals = real_born(*args)
        blocks[-1].append(residuals.max())
        return residuals

    monkeypatch.setattr(experiments, "check_postulate5", recorded_p5)
    monkeypatch.setattr(experiments, "born_mean_residual", recorded_born)
    result = experiments.postulate_suite(3, 2000, 2)
    distances, failures, residuals = zip(*blocks)
    # at this seed neither maximum is the last block's (distances are a few
    # ulps, so blocks often tie), and several blocks fail KS, so a total
    # that keeps one block is caught
    assert len(blocks) == 40
    assert max(distances) > distances[-1] and max(residuals) > residuals[-1]
    assert np.count_nonzero(failures) >= 2
    assert result["postulate5"]["max_exact_distance"] == max(distances)
    assert result["postulate5"]["ks_failures"] == sum(failures)
    assert result["born_mean"]["max_residual"] == max(residuals)


class TestPostulate6:
    def test_pauli_pair(self):
        assert check_postulate6(PLUS, SIGMA_X, SIGMA_Z)

    def test_cancellation(self):
        a = random_hermitian(3, np.random.default_rng(0))
        assert check_postulate6(QuantumState(np.eye(3) / 3), a, -a)

    def test_random_pairs_dim8(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            psi = random_density(8, rng)
            assert check_postulate6(psi, random_hermitian(8, rng), random_hermitian(8, rng))


class TestConditionOnEvent:
    def test_identity_is_noop(self):
        out = condition_on_event(PLUS, np.eye(2))
        assert np.allclose(out.rho, PLUS.rho)

    def test_rank2_slice_of_mixed_state(self):
        e = np.diag([1.0, 1.0, 0.0, 0.0])
        out = condition_on_event(QuantumState(np.eye(4) / 4), e)
        assert np.allclose(out.rho, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_projects_pure_state(self):
        e = np.diag([1.0, 0.0])
        out = condition_on_event(PLUS, e)
        assert np.allclose(out.rho, np.diag([1.0, 0.0]))

    def test_impossible_event(self):
        with pytest.raises(ValueError, match="probability zero"):
            condition_on_event(KET0, np.diag([0.0, 1.0]))

    def test_conditioned_event_has_unit_mean(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            psi = random_density(dim, rng)
            u = random_unitary(dim, rng)
            k = int(rng.integers(1, dim))
            e = u[:, :k] @ u[:, :k].conj().T
            out = condition_on_event(psi, e)
            assert out.mean(e) == pytest.approx(1.0, abs=1e-10)


def test_lueders_law_has_the_same_bits_under_baseline_simd_dispatch(tmp_path):
    # |w|**2 of a complex w takes numpy's SIMD-dispatched absolute value,
    # whose bits vary with the dispatch target; real products do not
    _, q, qp, _ = _instance(32, stream(0), (16,))
    np.save(tmp_path / "bases.npy", np.stack([q.basis, qp.basis]))
    code = ("import sys, numpy as np\n"
            "from aqm.algebra import Context\n"
            "from aqm.ensemble import lueders_law\n"
            "b = np.load(sys.argv[1])\n"
            "np.save(sys.argv[2], lueders_law(Context(b[0]), Context(b[1])))\n")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH,
               PYTHONPATH=os.path.dirname(os.path.dirname(aqm.__file__)))
    child = subprocess.run([sys.executable, "-c", code, tmp_path / "bases.npy",
                            tmp_path / "law.npy"], env=env, capture_output=True, text=True)
    if "NPY_DISABLE_CPU_FEATURES" in child.stderr:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={BASELINE_DISPATCH!r}")
    assert child.returncode == 0, child.stderr
    assert np.load(tmp_path / "law.npy").tobytes() == lueders_law(q, qp).tobytes()


def test_lueders_post_states_are_exactly_hermitian():
    # P rho P / tr(rho P) is Hermitian only up to rounding, which the
    # QuantumState check tolerates; the symmetrized post-state is exact
    rng = np.random.default_rng(11)
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        psi = random_density(dim, rng)
        a = random_degenerate_observable(dim, rng)
        q = masa_from(a, refinement=random_unitary(dim, rng))
        posts = [lueders(q, j) for j in set(measure_many(psi, q, rng.random(50)).tolist())]
        u = random_unitary(dim, rng)
        k = int(rng.integers(1, dim))
        posts.append(condition_on_event(psi, u[:, :k] @ u[:, :k].conj().T))
        for post in posts:
            assert np.array_equal(post.rho, post.rho.conj().T)


class TestFunctionalPositivity:
    def test_quadratic_means_are_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            psi = random_density(dim, rng)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert np.trace(psi.rho @ g.conj().T @ g).real >= -1e-10
