"""Delayed-choice Mach-Zehnder interferometer.

Two interchangeable models of the same device, whose half-silvered
mirrors split 50/50.  The wave model propagates a unit amplitude through
the mirror network: reflection at any mirror
advances the phase by pi/2 (a factor i), transmission leaves it
unchanged.  The particle model localizes the photon kernel on one path at
the first half-silvered mirror; when the output mirror is present the
detector is resampled from the wave distribution independently of the
kernel's path (the dark-field steering rule), and when it is absent the
kernel's geometric path fixes the detector.  The output mirror may be
inserted or removed after the photon has passed the first mirror; only
the configuration at arrival matters.

A run of photons is drawn, counted and written in the fixed chunks of
rng.chunks, so its memory does not grow with the number of events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from aqm.errors import ConfigError
from aqm.rng import LANE_POLICY, event_uniforms

# Codes in PhotonEvents.  They coincide because, with the output mirror
# absent, path A lands on detector A and path B on detector B.
PATH_A, PATH_B = 0, 1
DETECTOR_A, DETECTOR_B = 0, 1

_MIN_EVENTS = 1000  # smallest run summarize_counts compares with the wave model


# transmission and reflection amplitudes of a 50/50 half-silvered mirror
_T, _R = 1 / np.sqrt(2), 1j / np.sqrt(2)
_SPLITTER = np.array([[_T, _R], [_R, _T]])


def wave_probabilities(m4_present: bool):
    """Detector probabilities (D_A, D_B) of the wave model.

    Mirror absent -> (0.5, 0.5), mirror present -> (0, 1).
    """
    amp = _SPLITTER @ np.array([1.0, 0.0])  # (path A, path B) after M1
    amp = 1j * amp  # full mirrors M2, M3: one reflection on each path
    if m4_present:
        amp = _SPLITTER @ amp
    p = np.abs(amp) ** 2
    return float(p[0]), float(p[1])


# A uniform below _P_PATH_A puts the particle model's kernel on path A,
# and with the mirror present the detector is B with the wave model's
# probability _P_STEERED_DB.
_P_PATH_A = abs(_T) ** 2
_P_STEERED_DB = wave_probabilities(True)[1]


@dataclass(frozen=True)
class Always:
    """Mirror fixed present or absent for every event."""

    present: bool

    def decide_batch(self, n: int, start: int = 0) -> np.ndarray:
        return np.full(n, self.present, dtype=bool)


@dataclass(frozen=True)
class DelayedRandom:
    """Insert the mirror with probability p, decided per event in flight.

    Decisions come from a dedicated counter stream, so they are
    reproducible and do not disturb the photon's own randomness.  Event
    i's decision is column 0 of its event_uniforms row on LANE_POLICY.
    """

    p: float
    seed: int

    def decide_batch(self, n: int, start: int = 0) -> np.ndarray:
        return event_uniforms(self.seed, n, lane=LANE_POLICY, start=start)[:, 0] < self.p


@dataclass(frozen=True)
class DelayedAlternating:
    """Mirror present on odd events, absent on even ones, decided in flight."""

    def decide_batch(self, n: int, start: int = 0) -> np.ndarray:
        return np.arange(start, start + n) % 2 == 1


@dataclass(frozen=True, eq=False)
class PhotonEvents:
    """Photon events as parallel arrays; entry i belongs to event start + i.

    `kernel_path` and `detector` are uint8 codes, `m4_at_arrival` is bool.
    """

    kernel_path: np.ndarray
    m4_at_arrival: np.ndarray
    detector: np.ndarray
    seed: int
    start: int = 0

    def __len__(self) -> int:
        return len(self.detector)


def run_events(policy, n: int, seed: int, start: int = 0) -> PhotonEvents:
    """Photons start..start+n-1 of the particle model, one Philox block per event.

    The policy (Always, DelayedRandom or DelayedAlternating) fixes the
    output mirror's presence at arrival: its decide_batch(n, start) is a
    bool array for events start..start+n-1.  The decision is taken after
    the photon has passed M1, so nothing it decides can influence the
    kernel's path.

    Event i reads row i - start of event_uniforms(seed, n, start=start):
    column 0 picks the kernel's path at M1, and column 1 the detector when
    the mirror is present at arrival.
    """
    u = event_uniforms(seed, n, start=start)
    paths = (u[:, 0] >= _P_PATH_A).astype(np.uint8)
    m4 = policy.decide_batch(n, start)
    steered = (u[:, 1] < _P_STEERED_DB).astype(np.uint8)
    detector = np.where(m4, steered, paths)
    return PhotonEvents(kernel_path=paths, m4_at_arrival=m4, detector=detector, seed=seed,
                        start=start)


def count_events(events: PhotonEvents) -> np.ndarray:
    """(2, 2) int64 event counts, indexed by [m4 at arrival, detector]."""
    return np.bincount(2 * events.m4_at_arrival + events.detector, minlength=4).reshape(2, 2)


def check_event_count(n: int) -> None:
    """Reject a run too small for summarize_counts, before anything is drawn."""
    if n < _MIN_EVENTS:
        raise ConfigError(
            f"need at least {_MIN_EVENTS} events for a meaningful comparison, got {n}"
        )


def summarize_counts(counts: np.ndarray) -> dict:
    """Compare particle-model detector frequencies against the wave model.

    `counts` is count_events' (2, 2) array, summed over a run.  Per mirror
    sub-ensemble: deviation of the empirical detector frequencies from the
    wave probabilities, passed at a 4-sigma binomial tolerance (exact
    agreement required for deterministic outcomes).  Fewer than 1000
    events are rejected.  Returns the comparison as result.json reports it.
    """
    check_event_count(int(counts.sum()))
    rows = []
    for m4 in (False, True):
        n = int(counts[int(m4)].sum())
        if not n:
            continue
        p_da, p_db = wave_probabilities(m4)
        f_da = int(counts[int(m4), DETECTOR_A]) / n
        f_db = 1.0 - f_da
        dev = max(abs(f_da - p_da), abs(f_db - p_db))
        # floor covers float noise in the wave probabilities when the
        # outcome is deterministic (binomial tolerance would be zero)
        tol = max(4.0 * np.sqrt(p_da * p_db / n), 1e-12)
        rows.append({
            "m4_present": m4,
            "n_events": n,
            "freq_DA": f_da,
            "freq_DB": f_db,
            "expected_DA": p_da,
            "expected_DB": p_db,
            "deviation": float(dev),
            "tolerance": float(tol),
            "passed": bool(dev <= tol),
        })
    return {
        "sub_ensembles": rows,
        "max_deviation": max((r["deviation"] for r in rows), default=0.0),
        "passed": all(r["passed"] for r in rows),
    }


_CSV_HEADER = b"event,seed,kernel_path,m4,detector\r\n"


def _csv_suffixes(seed: int) -> np.ndarray:
    """(8, L) bytes that follow a row's event index, by 4*path + 2*m4 + detector."""
    rows = [f",{seed},{k},{m},{d}\r\n" for k in "AB" for m in "01" for d in ("DA", "DB")]
    return np.frombuffer("".join(rows).encode(), dtype=np.uint8).reshape(8, -1)


def _digit_runs(start: int, stop: int):
    """(lo, hi, digits): the runs of indices in [start, stop) of one decimal length."""
    digits = len(str(start))
    while start < stop:
        hi = min(stop, 10**digits)
        yield start, hi, digits
        start, digits = hi, digits + 1


def events_csv_bytes(n: int, seed: int) -> int:
    """Exact size of the events.csv that photons 0..n-1 of this seed make."""
    width = _csv_suffixes(seed).shape[1]
    return len(_CSV_HEADER) + sum((hi - lo) * (d + width) for lo, hi, d in _digit_runs(0, n))


def write_events_csv(events: PhotonEvents, fh) -> None:
    """Append the events' rows, columns event,seed,kernel_path,m4,detector.

    `fh` is a file open for binary writing; the events that start at event
    0 are preceded by the header, so consecutive chunks written in order
    make one file.  Same bytes as csv.writer.  A row is its event index in
    ASCII digits followed by one of eight suffixes, indexed by the row's
    (path, m4, detector) codes.
    """
    if events.start == 0:
        fh.write(_CSV_HEADER)
    suffix = _csv_suffixes(events.seed)[
        4 * events.kernel_path + 2 * events.m4_at_arrival + events.detector
    ]
    for lo, hi, digits in _digit_runs(events.start, events.start + len(events)):
        rows = np.empty((hi - lo, digits + suffix.shape[1]), dtype=np.uint8)
        index = np.arange(lo, hi, dtype=np.min_scalar_type(hi - 1))  # narrow divides faster
        for p in range(digits):
            rows[:, digits - 1 - p] = index // 10**p % 10 + ord("0")
        rows[:, digits:] = suffix[lo - events.start : hi - events.start]
        fh.write(rows)
