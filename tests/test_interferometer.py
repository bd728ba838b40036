from itertools import combinations

import numpy as np
import pytest

from aqm.experiments import delayed_choice_experiment
from aqm.interferometer import (
    DETECTOR_A,
    DETECTOR_B,
    PATH_A,
    Always,
    DelayedAlternating,
    DelayedRandom,
    PhotonEvents,
    count_events,
    run_events,
    summarize_counts,
    wave_probabilities,
    write_events_csv,
)
from aqm.rng import LANE_POLICY
from reference import event_stream, events_csv, particle_run

POLICIES = {
    "present": Always(True),
    "absent": Always(False),
    "delayed-alternating": DelayedAlternating(),
    "delayed-random": DelayedRandom(0.5, seed=6),
}


class TestWaveProbabilities:
    def test_mirror_absent_splits_evenly(self):
        p_da, p_db = wave_probabilities(False)
        assert p_da == pytest.approx(0.5, abs=1e-12)
        assert p_db == pytest.approx(0.5, abs=1e-12)

    def test_mirror_present_is_dark_at_da(self):
        p_da, p_db = wave_probabilities(True)
        assert p_da == pytest.approx(0.0, abs=1e-12)
        assert p_db == pytest.approx(1.0, abs=1e-12)


class TestParticleRun:
    def test_mirror_absent_frequency(self):
        events = run_events(Always(False), 100_000, seed=1)
        freq = np.count_nonzero(events.detector == DETECTOR_A) / len(events)
        assert abs(freq - 0.5) <= 0.005

    def test_mirror_present_always_db(self):
        events = run_events(Always(True), 20_000, seed=2)
        assert np.all(events.detector == DETECTOR_B)

    def test_kernel_locality_when_absent(self):
        events = run_events(Always(False), 5000, seed=3)
        expect = np.where(events.kernel_path == PATH_A, DETECTOR_A, DETECTOR_B)
        assert np.array_equal(events.detector, expect)

    def test_delayed_random_sub_ensembles(self):
        events = run_events(DelayedRandom(0.5, seed=4), 100_000, seed=4)
        present = events.m4_at_arrival
        assert np.all(events.detector[present] == DETECTOR_B)
        absent = events.detector[~present]
        freq = np.count_nonzero(absent == DETECTOR_A) / len(absent)
        assert abs(freq - 0.5) <= 0.008

    def test_batch_matches_single_event_runs(self):
        batch = run_events(DelayedRandom(0.5, seed=9), 200, seed=9)
        for i in range(200):
            # DelayedRandom's rule, one event at a time on the policy lane
            m4 = bool(event_stream(9, i, lane=LANE_POLICY).random() < 0.5)
            path, detector = particle_run(m4, event_stream(9, i))
            assert batch.m4_at_arrival[i] == m4
            assert batch.kernel_path[i] == path
            assert batch.detector[i] == detector


class TestDelayedChoiceIndifference:
    def test_policies_agreeing_after_m1_replay_identically(self):
        # the policy is consulted only after M1: it never changes the
        # kernel's path, and events whose mirror agrees at arrival replay
        # identically whichever policy set it
        runs = [run_events(policy, 10_000, seed=6) for policy in POLICIES.values()]
        for a, b in combinations(runs, 2):
            assert np.array_equal(a.kernel_path, b.kernel_path)
            agree = a.m4_at_arrival == b.m4_at_arrival
            assert np.array_equal(a.detector[agree], b.detector[agree])

    def test_alternating_policy_partitions_exactly(self):
        events = run_events(DelayedAlternating(), 1000, seed=7)
        assert np.array_equal(events.m4_at_arrival, np.arange(1000) % 2 == 1)


class TestEquivalenceReport:
    def test_always_present_is_exact(self):
        report = delayed_choice_experiment("present", 10_000, seed=8, p=0.5)
        assert report["max_deviation"] <= 1e-12
        assert report["passed"]

    def test_always_absent_within_binomial_bound(self):
        report = delayed_choice_experiment("absent", 100_000, seed=9, p=0.5)
        assert report["max_deviation"] <= 0.0063
        assert report["passed"]

    def test_leaky_particle_model_fails(self):
        # adversarial model: kernel path leaks into the mirror-present
        # outcome, so the D_B port is no longer certain
        leaked = (np.arange(10_000) % 2 == 0).astype(np.uint8)  # odd: A, DA
        events = PhotonEvents(
            kernel_path=leaked,
            m4_at_arrival=np.ones(10_000, dtype=bool),
            detector=leaked,
            seed=0,
        )
        report = summarize_counts(count_events(events))
        assert not report["passed"]


@pytest.mark.parametrize("name", POLICIES)
def test_events_csv(tmp_path, name):
    n = 300
    policy = POLICIES[name]
    events = run_events(policy, n, seed=3)
    path = tmp_path / "events.csv"
    with open(path, "wb") as fh:
        write_events_csv(events, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "event,seed,kernel_path,m4,detector"
    assert len(lines) == n + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "3"
    # reference: csv.writer over scalar particle_run rows
    assert path.read_bytes() == events_csv(policy.decide_batch(n).tolist(), 3)
