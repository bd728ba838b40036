from itertools import combinations

import numpy as np
import pytest

from aqm import interferometer
from aqm.experiments import delayed_choice_experiment
from aqm.interferometer import (
    DETECTOR_A,
    DETECTOR_B,
    PATH_A,
    PATH_B,
    POLICIES,
    count_events,
    run_events,
    summarize_counts,
    wave_probabilities,
    write_events_csv,
)
from aqm.rng import LANE_POLICY
from reference import event_bits, event_stream, events_csv, particle_run


def decide(name: str, n: int, seed: int = 6, p: float = 0.5) -> np.ndarray:
    """The named policy's mirror presence for events 0..n-1."""
    return POLICIES[name](p, seed, n, 0)


class TestWaveProbabilities:
    def test_mirror_absent_splits_evenly(self):
        assert wave_probabilities(False) == (0.5, 0.5)

    def test_mirror_present_is_dark_at_da(self):
        assert wave_probabilities(True) == (0.0, 1.0)


class TestParticleRun:
    def test_codes_are_uint8_one_per_event(self):
        codes = run_events(decide("delayed-random", 1000), seed=1)
        assert codes.dtype == np.uint8 and codes.shape == (1000,)
        assert set(np.unique(codes)) <= set(range(8))

    def test_mirror_absent_frequency(self):
        _, _, detector = event_bits(run_events(decide("absent", 100_000), seed=1))
        freq = np.count_nonzero(detector == DETECTOR_A) / len(detector)
        assert abs(freq - 0.5) <= 0.005

    def test_mirror_present_always_db(self):
        _, _, detector = event_bits(run_events(decide("present", 20_000), seed=2))
        assert np.all(detector == DETECTOR_B)

    def test_no_uniform_below_1_steers_a_photon_to_da(self, monkeypatch):
        # the largest uniform numpy draws is nextafter(1, 0): with the mirror present,
        # it too lands on D_B, so one event cannot fail a run's exact tolerance
        u = np.array([[0.0, np.nextafter(1.0, 0.0), 0.0, 0.0]])
        monkeypatch.setattr(interferometer, "event_uniforms", lambda seed, n, start=0: u)
        _, _, detector = event_bits(run_events(np.ones(1, dtype=bool), seed=0))
        assert detector.tolist() == [DETECTOR_B]

    def test_the_path_splits_at_exactly_one_half(self, monkeypatch):
        u = np.array([[np.nextafter(0.5, 0.0), 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
        monkeypatch.setattr(interferometer, "event_uniforms", lambda seed, n, start=0: u)
        path, _, _ = event_bits(run_events(np.zeros(2, dtype=bool), seed=0))
        assert path.tolist() == [PATH_A, PATH_B]

    def test_kernel_locality_when_absent(self):
        path, _, detector = event_bits(run_events(decide("absent", 5000), seed=3))
        assert np.array_equal(detector, np.where(path == PATH_A, DETECTOR_A, DETECTOR_B))

    def test_delayed_random_sub_ensembles(self):
        codes = run_events(decide("delayed-random", 100_000, seed=4), seed=4)
        _, present, detector = event_bits(codes)
        assert np.all(detector[present] == DETECTOR_B)
        absent = detector[~present]
        freq = np.count_nonzero(absent == DETECTOR_A) / len(absent)
        assert abs(freq - 0.5) <= 0.008

    def test_batch_matches_single_event_runs(self):
        codes = run_events(decide("delayed-random", 200, seed=9), seed=9)
        for i in range(200):
            # delayed-random's rule, one event at a time on the policy lane
            m4 = bool(event_stream(9, i, lane=LANE_POLICY).random() < 0.5)
            path, detector = particle_run(m4, event_stream(9, i))
            assert codes[i] == 4 * path + 2 * m4 + detector


class TestDelayedChoiceIndifference:
    def test_policies_agreeing_after_m1_replay_identically(self):
        # the policy is consulted only after M1: it never changes the
        # kernel's path, and events whose mirror agrees at arrival replay
        # identically whichever policy set it
        runs = [event_bits(run_events(decide(name, 10_000), seed=6)) for name in POLICIES]
        for (path_a, m4_a, det_a), (path_b, m4_b, det_b) in combinations(runs, 2):
            assert np.array_equal(path_a, path_b)
            agree = m4_a == m4_b
            assert np.array_equal(det_a[agree], det_b[agree])

    def test_alternating_policy_partitions_exactly(self):
        _, m4, _ = event_bits(run_events(decide("delayed-alternating", 1000), seed=7))
        assert np.array_equal(m4, np.arange(1000) % 2 == 1)


class TestEquivalenceReport:
    def test_always_present_is_exact(self):
        report = delayed_choice_experiment("present", 10_000, seed=8, p=0.5)
        assert report["max_deviation"] == 0.0
        assert report["passed"]

    def test_always_absent_within_binomial_bound(self):
        report = delayed_choice_experiment("absent", 100_000, seed=9, p=0.5)
        assert report["max_deviation"] <= 0.0063
        assert report["passed"]

    def test_leaky_particle_model_fails(self):
        # adversarial model: kernel path leaks into the mirror-present
        # outcome, so the D_B port is no longer certain
        leaked = (np.arange(10_000) % 2 == 0).astype(np.uint8)  # odd: A, DA
        codes = 4 * leaked + 2 + leaked  # mirror present on every event
        report = summarize_counts(count_events(codes))
        assert not report["passed"]

    def test_a_ten_sigma_deviation_fails_its_four_sigma_tolerance(self):
        # mirror absent: 5,500 of 10,000 events at D_A, 0.05 from the wave
        # model's 1/2, where one sigma is 0.005
        counts = np.zeros((2, 2, 2), dtype=np.int64)
        counts[PATH_A, 0, DETECTOR_A] = 5500
        counts[PATH_A, 0, DETECTOR_B] = 4500
        report = summarize_counts(counts)
        (row,) = report["sub_ensembles"]
        assert (row["m4_present"], row["n_events"]) == (False, 10_000)
        assert row["deviation"] == pytest.approx(0.05, abs=1e-12)
        assert row["tolerance"] == pytest.approx(0.02, abs=1e-12)
        assert not row["passed"] and not report["passed"]

    def test_fewer_than_1000_events_are_refused(self):
        counts = np.zeros((2, 2, 2), dtype=np.int64)
        counts[PATH_A, 0, DETECTOR_A] = 999
        with pytest.raises(ValueError, match="need at least 1000 events") as exc:
            summarize_counts(counts)
        assert type(exc.value) is ValueError
        counts[PATH_A, 0, DETECTOR_B] = 1
        assert summarize_counts(counts)["sub_ensembles"][0]["n_events"] == 1000


@pytest.mark.parametrize("name", POLICIES)
def test_events_csv(tmp_path, name):
    n = 300
    m4 = decide(name, n)
    path = tmp_path / "events.csv"
    with open(path, "wb") as fh:
        write_events_csv(run_events(m4, seed=3), 3, 0, fh)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "event,seed,kernel_path,m4,detector"
    assert len(lines) == n + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "3"
    # reference: csv.writer over scalar particle_run rows
    assert path.read_bytes() == events_csv(m4.tolist(), 3)
