"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantity and its tolerance."""

import time

import numpy as np
import pytest

from aqm import experiments, two_slit
from aqm.experiments import random_density
from aqm.interferometer import DETECTOR_B, POLICIES, run_events, wave_probabilities
from aqm.rng import stream
from reference import (
    MomentumBin,
    condition_on_event,
    decompose_mean,
    event_bits,
    momentum_projector,
    slit_projectors,
    verify_support_identities,
)


def report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed


def test_criterion_1_mirror_present_certain_db():
    t0 = time.time()
    p_da, p_db = wave_probabilities(True)
    wave_ok = (p_da, p_db) == (0.0, 1.0)
    _, _, detector = event_bits(run_events(POLICIES["present"](0.5, 7, 100_000, 0), seed=7))
    at_db = detector == DETECTOR_B
    particle_ok = bool(np.all(at_db))
    elapsed = time.time() - t0
    report(
        "1 delayed-choice position (b)",
        wave_ok and particle_ok and elapsed < 5.0,
        f"wave p_DB={p_db:.15f}, particle D_B frequency "
        f"{np.count_nonzero(at_db) / len(at_db)}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_2_mirror_absent_even_split():
    t0 = time.time()
    result = experiments.delayed_choice_experiment("absent", 100_000, seed=7, p=0.5)
    sub = result["sub_ensembles"][0]
    dev = max(abs(sub["freq_DA"] - 0.5), abs(sub["freq_DB"] - 0.5))
    elapsed = time.time() - t0
    report(
        "2 delayed-choice position (a)",
        dev <= 0.0063 and elapsed < 5.0,
        f"max deviation {dev:.5f} <= 0.0063, runtime {elapsed:.2f}s",
    )


def test_criterion_3_delayed_random_reproduces_both():
    m4 = POLICIES["delayed-random"](0.5, 7, 100_000, 0)
    _, present, detector = event_bits(run_events(m4, seed=7))
    at_db = detector == DETECTOR_B
    n_absent = np.count_nonzero(~present)
    db_present = np.count_nonzero(at_db & present) / np.count_nonzero(present)
    da_absent = np.count_nonzero(~at_db & ~present) / n_absent
    tol_absent = 4.0 * np.sqrt(0.25 / n_absent)
    ok = db_present == 1.0 and abs(da_absent - 0.5) <= tol_absent
    report(
        "3 delayed-choice in one run",
        ok,
        f"present sub-ensemble D_B={db_present}, absent sub-ensemble "
        f"D_A={da_absent:.4f} +- {tol_absent:.4f}",
    )


def test_criterion_4_decomposition_closure():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_closure = 0.0
    worst_commuting = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 65))
        sites = rng.permutation(n)
        ka, kb = int(rng.integers(1, max(n // 4, 2))), int(rng.integers(1, max(n // 4, 2)))
        geom = two_slit.SlitGeometry(
            n, frozenset(sites[:ka]), frozenset(sites[ka : ka + kb])
        )
        p_a, p_b = slit_projectors(geom)
        psi = condition_on_event(random_density(n, rng), p_a + p_b)
        start = int(rng.integers(0, n))
        stop = int(rng.integers(start + 1, n + 1))
        k = momentum_projector(MomentumBin(start, stop), n)
        d = decompose_mean(psi, k, p_a, p_b)
        worst_closure = max(
            worst_closure, abs(d["direct_a"] + d["direct_b"] + d["interference"] - d["total"])
        )
        # commuting screen observable: diagonal, so [p_a, K] = 0
        k_diag = np.diag(rng.random(n))
        d2 = decompose_mean(psi, k_diag, p_a, p_b)
        worst_commuting = max(worst_commuting, abs(d2["interference"]))
    elapsed = time.time() - t0
    report(
        "4 three-term closure",
        worst_closure <= 1e-10 and worst_commuting <= 1e-10 and elapsed < 30.0,
        f"max closure residual {worst_closure:.2e}, max commuting-case "
        f"interference {worst_commuting:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_5_support_identities():
    rng = stream(7)
    geom = two_slit.SlitGeometry(16, frozenset({2, 3}), frozenset({10, 11}))
    psi = two_slit.prepare_conditioned(two_slit.uniform_source(16), geom)
    residual = verify_support_identities(psi, geom, 100, rng)
    report("5 support identities", residual <= 1e-10, f"max residual {residual:.2e}")


def test_criterion_6_stacked_screens():
    n_events = 100_000
    geom = two_slit.SlitGeometry(64, frozenset({16}), frozenset({48}))
    result = experiments.two_slit_experiment(geom, n_events, 7)
    tv = result["tv_distance"]
    n_a, n_b = result["slit_tally"]["a"], result["slit_tally"]["b"]
    locality = n_a + n_b == n_events  # every event tallies exactly one slit
    report(
        "6 stacked screens",
        tv <= 0.05 and locality and abs(n_a / n_events - 0.5) <= 0.005,
        f"TV distance {tv:.4f} <= 0.05, slit tally {n_a}+{n_b}={n_events}, "
        f"slit-a share {n_a / n_events:.4f} within 0.005 of 0.5",
    )


def test_criterion_7_khinchin_rate():
    result = experiments.khinchin_experiment(
        n_seeds=50, n_small=10_000, n_big=1_000_000, dim=4, seed=7
    )
    report(
        "7 Monte Carlo error scaling",
        result["passed"],
        f"chi-square {result['chi2']:.1f} on {2 * result['n_seeds']} degrees of freedom, "
        f"upper tail {result['chi2_upper_tail']:.3g} in [alpha/2, 1 - alpha/2], "
        f"alpha = {result['alpha']:g}; median error ratio {result['ratio']:.2f}",
    )


def test_criterion_8_postulate_suite():
    result = experiments.postulate_suite(dim=8, trials=100, seed=7)
    p5 = result["postulate5"]
    repro = result["reproducibility"]
    report(
        "8 postulate suite",
        result["passed"],
        f"max pushforward distance {p5['max_exact_distance']:.2e} <= 1e-10, "
        f"linearity passed={result['postulate6']['passed']}, "
        f"re-measurement agreement {repro['agreement_probability']} over "
        f"{repro['trials']} trials",
    )
