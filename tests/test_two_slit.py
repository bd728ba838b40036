import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from aqm import experiments, two_slit
from aqm.ensemble import QuantumState
from aqm.experiments import random_density
from aqm.rng import stream
from aqm.two_slit import (
    CLAMP_BUDGET,
    ScreenSplit,
    SlitGeometry,
    _mode_statistics,
    cross_shares,
    prepare_conditioned,
    sample_screens,
    screen_split,
    uniform_source,
)
from conftest import chi_square_test
from reference import (
    MomentumBin,
    condition_on_event,
    decompose_mean,
    mode_diagonal,
    momentum_projector,
    pure,
    slit_projectors,
    verify_support_identities,
)

# unit amplitude vector of the sites {0, 2} of a 4-site lattice
SLITS_02 = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)


class TestSlitGeometry:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            SlitGeometry(8, frozenset({1, 2}), frozenset({2, 5}))

    def test_rejects_empty_slit(self):
        with pytest.raises(ValueError):
            SlitGeometry(8, frozenset(), frozenset({1}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SlitGeometry(4, frozenset({0}), frozenset({4}))


class TestSlitProjectors:
    def test_point_slits(self):
        p_a, p_b = slit_projectors(SlitGeometry(4, frozenset({0}), frozenset({2})))
        assert np.allclose(p_a, np.diag([1.0, 0, 0, 0]))
        assert np.allclose(p_b, np.diag([0, 0, 1.0, 0]))

    def test_disjoint_and_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(4, 33))
            sites = rng.permutation(n)
            ka, kb = int(rng.integers(1, n // 2)), int(rng.integers(1, n // 2))
            geom = SlitGeometry(n, frozenset(sites[:ka]), frozenset(sites[ka : ka + kb]))
            p_a, p_b = slit_projectors(geom)
            assert np.max(np.abs(p_a @ p_b)) == 0.0
            assert np.allclose(p_a @ p_a, p_a)
            assert np.allclose(p_b @ p_b, p_b)

    def test_masks_are_disjoint_and_the_projector_diagonals(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(4, 33))
            sites = rng.permutation(n)
            ka, kb = int(rng.integers(1, n // 2)), int(rng.integers(1, n // 2))
            geom = SlitGeometry(n, frozenset(sites[:ka]), frozenset(sites[ka : ka + kb]))
            a, b = geom.masks
            assert set(a.tolist()) | set(b.tolist()) <= {0.0, 1.0}
            assert not np.any(a * b)
            assert np.flatnonzero(a).tolist() == sorted(geom.slit_a)
            assert np.flatnonzero(b).tolist() == sorted(geom.slit_b)
            p_a, p_b = slit_projectors(geom)
            assert np.array_equal(np.diagonal(p_a), a) and np.array_equal(np.diagonal(p_b), b)

    def test_wide_slits_have_matching_rank(self):
        p_a, p_b = slit_projectors(SlitGeometry(8, frozenset({1, 2}), frozenset({5, 6})))
        assert np.trace(p_a).real == pytest.approx(2.0)
        assert np.trace(p_b).real == pytest.approx(2.0)


class TestMomentumProjector:
    def test_full_bin_is_identity(self):
        k = momentum_projector(MomentumBin(0, 6), 6)
        assert np.allclose(k, np.eye(6))

    def test_single_mode_n2_by_hand(self):
        # oracle: first DFT column of N=2 is (1, 1)/sqrt(2); outer product
        k = momentum_projector(MomentumBin(0, 1), 2)
        assert np.allclose(k, 0.5 * np.ones((2, 2)))

    @pytest.mark.parametrize("n", [3, 8, 17, 64])
    def test_idempotent_random_bins(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            start = int(rng.integers(0, n))
            stop = int(rng.integers(start + 1, n + 1))
            k = momentum_projector(MomentumBin(start, stop), n)
            assert np.max(np.abs(k @ k - k)) <= 1e-12
            assert np.max(np.abs(k - k.conj().T)) <= 1e-12

    def test_bin_out_of_range(self):
        with pytest.raises(ValueError):
            momentum_projector(MomentumBin(3, 9), 8)


class TestPrepareConditioned:
    def test_supported_state_unchanged(self):
        geom = SlitGeometry(4, frozenset({0}), frozenset({2}))
        out = prepare_conditioned(SLITS_02, geom)
        assert np.allclose(out, SLITS_02)

    def test_uniform_source_collapses_to_slit_superposition(self):
        geom = SlitGeometry(4, frozenset({0}), frozenset({2}))
        p_a, p_b = slit_projectors(geom)
        out = prepare_conditioned(uniform_source(4), geom)
        assert np.max(np.abs(out - SLITS_02)) <= 1e-12
        assert np.vdot(out, (p_a + p_b) @ out).real == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_source_is_impossible(self):
        geom = SlitGeometry(4, frozenset({0}), frozenset({2}))
        with pytest.raises(ValueError, match="probability zero"):
            prepare_conditioned(np.array([0.0, 1.0, 0.0, 0.0]), geom)


class TestSupportIdentities:
    def test_special_variables_have_zero_residual(self):
        geom = SlitGeometry(8, frozenset({1}), frozenset({5}))
        p_a, p_b = slit_projectors(geom)
        psi = prepare_conditioned(uniform_source(8), geom)
        e = p_a + p_b
        rho = np.outer(psi, psi.conj())
        for a in (np.eye(8, dtype=complex), p_a):
            for m in (a @ e, e @ a, e @ a @ e):
                assert abs(np.trace(rho @ a) - np.trace(rho @ m)) <= 1e-12

    def test_random_variables_n16(self):
        geom = SlitGeometry(16, frozenset({2, 3}), frozenset({10, 11}))
        psi = prepare_conditioned(uniform_source(16), geom)
        assert verify_support_identities(psi, geom, 100, stream(0)) <= 1e-10

    def test_unconditioned_state_rejected(self):
        geom = SlitGeometry(4, frozenset({0}), frozenset({2}))
        with pytest.raises(ValueError):
            verify_support_identities(uniform_source(4), geom, 1, stream(0))


class TestDecomposeMean:
    def test_two_site_case_by_hand(self):
        # oracle: all four traces evaluate by 2x2 arithmetic to 1/4, 1/4, 1/2
        p_a, p_b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        psi = pure([1.0, 1.0])
        k = 0.5 * np.ones((2, 2))
        d = decompose_mean(psi, k, p_a, p_b)
        assert d["direct_a"] == pytest.approx(0.25)
        assert d["direct_b"] == pytest.approx(0.25)
        assert d["interference"] == pytest.approx(0.5)
        assert d["total"] == pytest.approx(1.0)

    def test_commuting_screen_kills_interference(self):
        geom = SlitGeometry(8, frozenset({1}), frozenset({5}))
        p_a, p_b = slit_projectors(geom)
        psi = pure(prepare_conditioned(uniform_source(8), geom))
        k = np.diag([1.0, 1.0, 0, 0, 0, 0, 0, 0])  # diagonal: commutes with p_a
        d = decompose_mean(psi, k, p_a, p_b)
        assert abs(d["interference"]) <= 1e-10
        assert d["direct_a"] + d["direct_b"] == pytest.approx(d["total"], abs=1e-10)

    def test_classical_mixture_has_no_cross_term(self):
        p_a, p_b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        psi = QuantumState(np.diag([0.5, 0.5]))
        k = 0.5 * np.ones((2, 2))
        d = decompose_mean(psi, k, p_a, p_b)
        assert d["direct_a"] == pytest.approx(0.25)
        assert d["direct_b"] == pytest.approx(0.25)
        assert d["interference"] == pytest.approx(0.0, abs=1e-12)

    def test_closure_on_random_instances(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(4, 65))
            sites = rng.permutation(n)
            geom = SlitGeometry(n, frozenset(sites[:1]), frozenset(sites[1:2]))
            p_a, p_b = slit_projectors(geom)
            psi = condition_on_event(random_density(n, rng), p_a + p_b)
            start = int(rng.integers(0, n))
            stop = int(rng.integers(start + 1, n + 1))
            k = momentum_projector(MomentumBin(start, stop), n)
            d = decompose_mean(psi, k, p_a, p_b)
            assert abs(d["direct_a"] + d["direct_b"] + d["interference"] - d["total"]) <= 1e-10
            assert d["direct_a"] >= -1e-10 and d["direct_b"] >= -1e-10
            assert -1e-10 <= d["total"] <= 1 + 1e-10


class TestPattern:
    def test_single_slit_is_flat_with_no_interference(self):
        geom = SlitGeometry(8, frozenset({3}), frozenset({6}))
        psi = np.eye(8)[3]  # slit a only
        _, _, cross, probs = _mode_statistics(psi, geom)
        assert np.allclose(probs, np.full(8, 1 / 8))
        assert np.max(np.abs(cross)) <= 1e-12

    def test_symmetric_two_slit_fringes(self):
        n = 64
        geom = SlitGeometry(n, frozenset({16}), frozenset({48}))
        psi = prepare_conditioned(uniform_source(n), geom)
        probs = _mode_statistics(psi, geom)[3]
        # oracle: |1 + exp(i pi k)|^2 / (2N) = (1 + cos(pi k)) / N
        k = np.arange(n)
        expect = (1.0 + np.cos(np.pi * k)) / n
        assert np.max(np.abs(probs - expect)) <= 1e-12
        visibility = (probs.max() - probs.min()) / (probs.max() + probs.min())
        assert visibility >= 0.99

    def test_mixed_conditioned_state_has_no_interference(self):
        n = 16
        geom = SlitGeometry(n, frozenset({2}), frozenset({9}))
        rho = np.zeros((n, n), dtype=complex)
        rho[2, 2] = rho[9, 9] = 0.5
        # no pure state is this mixture: the dense cross term of the oracle
        p_a, p_b = slit_projectors(geom)
        cross = mode_diagonal(p_a @ rho @ p_b + p_b @ rho @ p_a)
        assert np.max(np.abs(cross)) <= 1e-12

    def test_normalization(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(4, 65))
            geom = SlitGeometry(n, {0}, {1})
            psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi = prepare_conditioned(psi0 / np.linalg.norm(psi0), geom)
            total = _mode_statistics(psi, geom)[3]
            assert total.sum() == pytest.approx(1.0, abs=1e-9)


def _split_on_disjoint_supports() -> ScreenSplit:
    """A split over 6 sites with p_a = 0.3: slit a's events land on sites 0-2, slit b's on 3-5."""
    conds = (np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 0.1, 0.6, 0.3]))
    return ScreenSplit(None, np.array([0.3, 0.7]), conds, (0.0, 0.0), 0.0)


class TestStackedScreens:
    def test_single_open_slit(self):
        # source supported on slit a only: every event tallies slit a and
        # the histogram follows the one-slit (flat) pattern
        n = 16
        geom = SlitGeometry(n, frozenset({3}), frozenset({11}))
        psi_ab = prepare_conditioned(np.eye(n)[3], geom)
        hist, (n_a, n_b) = sample_screens(screen_split(psi_ab, geom), 20_000, seed=5)
        assert n_a == 20_000 and n_b == 0
        assert hist.sum() == 20_000
        flat = np.full(n, 1 / n)
        assert 0.5 * np.sum(np.abs(hist / 20_000 - flat)) <= 2 * np.sqrt(n / 20_000)

    def test_replay_determinism(self):
        geom = SlitGeometry(8, frozenset({1}), frozenset({5}))
        split = screen_split(prepare_conditioned(uniform_source(8), geom), geom)
        h1, t1 = sample_screens(split, 5000, seed=11)
        h2, t2 = sample_screens(split, 5000, seed=11)
        assert np.array_equal(h1, h2) and t1 == t2

    def test_the_slit_tally_is_binomial(self):
        split, n, seeds = _split_on_disjoint_supports(), 10, 2000
        tallies = Counter(sample_screens(split, n, seed)[1][0] for seed in range(seeds))
        pmf = [math.comb(n, k) * 0.3**k * 0.7 ** (n - k) for k in range(n + 1)]
        stat, critical = chi_square_test([tallies[k] for k in range(n + 1)], seeds * np.array(pmf))
        assert stat < critical

    def test_each_slit_histogram_follows_its_conditional_distribution(self):
        # the supports are disjoint, so each slit's histogram is read off the sum;
        # given the slit tallies, the sums over the seeds are multinomial
        split, n = _split_on_disjoint_supports(), 10
        histograms, tallies = np.zeros(6, dtype=np.int64), np.zeros(2, dtype=np.int64)
        for seed in range(2000):
            histogram, tally = sample_screens(split, n, seed)
            assert (histogram[:3].sum(), histogram[3:].sum()) == tally
            histograms += histogram
            tallies += tally
        for s, sites in enumerate((slice(0, 3), slice(3, 6))):
            stat, critical = chi_square_test(histograms[sites], tallies[s] * split.conds[s][sites])
            assert stat < critical

    @pytest.mark.parametrize("geom", [
        SlitGeometry(32, frozenset({4, 5}), frozenset({20})),
        SlitGeometry(256, frozenset({100}), frozenset(range(140, 150))),
    ], ids=["uneven-slits", "uneven-wide"])
    def test_uneven_slits_run_and_pass(self, geom):
        # the half split of the cross term goes negative beyond its budget
        # here; the per-mode shares clamp only rounding
        direct_a, direct_b, cross, _ = _mode_statistics(
            prepare_conditioned(uniform_source(geom.grid_size), geom), geom)
        assert max(np.sum(np.maximum(-(direct + 0.5 * cross), 0.0))
                   for direct in (direct_a, direct_b)) > CLAMP_BUDGET * geom.grid_size
        result = experiments.two_slit_experiment(geom, 10_000, seed=1)
        assert result["passed"]
        assert max(result["split_clamp"]["a"], result["split_clamp"]["b"]) <= 1e-15
        assert result["sampler_law_residual"] <= result["sampler_law_bound"]

    def test_a_split_without_bright_modes_leaves_their_shares_at_half(self):
        # no mode has a positive cross term, so no tau can be solved for:
        # the shares of the other modes stay 1/2, and no division runs
        share = cross_shares(np.array([0.05, 0.5]), np.array([0.5, 0.5]), np.array([-0.2, 0.0]))
        assert share.tolist() == [0.25, 0.5]

    @pytest.mark.parametrize("geom", [
        SlitGeometry(2, frozenset({0}), frozenset({1})),
        SlitGeometry(64, frozenset({16}), frozenset({48})),
        SlitGeometry(32, frozenset({4, 5}), frozenset({20, 21})),
        SlitGeometry(256, frozenset({120, 121}), frozenset({134, 135})),
    ], ids=["n2", "symmetric64", "custom", "lattice"])
    def test_where_the_half_split_is_non_negative_it_is_the_split(self, geom):
        # bit for bit, so these geometries write the bytes they always did
        psi = prepare_conditioned(uniform_source(geom.grid_size), geom)
        direct_a, direct_b, cross, _ = _mode_statistics(psi, geom)
        halves = [direct + 0.5 * cross for direct in (direct_a, direct_b)]
        assert min(h.min() for h in halves) >= 0.0
        assert np.all(cross_shares(direct_a, direct_b, cross) == 0.5)
        split = screen_split(psi, geom)
        assert split.clamped == (0.0, 0.0)
        for cond, half in zip(split.conds, halves):
            assert np.array_equal(cond, half / half.sum())

    def test_grid_size_must_match_state(self):
        psi = uniform_source(8)
        geom = SlitGeometry(6, frozenset({1}), frozenset({5}))
        with pytest.raises(ValueError, match="N=6"):
            _mode_statistics(psi, geom)
        with pytest.raises(ValueError, match="N=6"):
            screen_split(psi, geom)
        with pytest.raises(ValueError, match="N=6"):
            verify_support_identities(psi, geom, 1, stream(0))


class TestTwoSlitExperiment:
    def test_conditions_once_and_builds_no_dense_projector(self, monkeypatch):
        calls = {"prepare_conditioned": 0, "_mode_statistics": 0}
        for name in calls:
            original = getattr(two_slit, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(two_slit, name, counted)
        geom = SlitGeometry(32, frozenset({10, 11}), frozenset({18, 19}))
        assert experiments.two_slit_experiment(geom, n_events=2000, seed=3)["passed"]
        assert calls == {"prepare_conditioned": 1, "_mode_statistics": 1}
        for dense in ("slit_projectors", "dft_basis", "momentum_projector", "decompose_mean",
                      "QuantumState"):
            assert not hasattr(two_slit, dense)

    def test_a_run_holds_no_n_by_n_matrix(self):
        # one dense N x N complex matrix at N = 2048 is 64 MiB
        geom = SlitGeometry(2048, frozenset({1000, 1001}), frozenset({1048, 1049}))
        tracemalloc.start()
        try:
            experiments.two_slit_experiment(geom, n_events=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_split_clamp_reported_below_budget(self):
        geom = SlitGeometry(64, frozenset({16}), frozenset({48}))
        result = experiments.two_slit_experiment(geom, n_events=2000, seed=7)
        clamp = result["split_clamp"]
        assert set(clamp) == {"a", "b", "budget"}
        assert clamp["budget"] == pytest.approx(64e-6)
        assert 0.0 <= clamp["a"] <= clamp["budget"] and 0.0 <= clamp["b"] <= clamp["budget"]

    def test_result_reports_the_split_clamp(self):
        # a geometry whose split clamps rounding-level negative mass
        geom = SlitGeometry(20, frozenset({8, 11}), frozenset({17, 18}))
        split = screen_split(prepare_conditioned(uniform_source(20), geom), geom)
        clamp = experiments.two_slit_experiment(geom, 2000, 1)["split_clamp"]
        assert (clamp["a"], clamp["b"], clamp["budget"]) == (*split.clamped, split.budget)
