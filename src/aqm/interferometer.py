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

An event is one uint8 code, 4*path + 2*m4 + detector: the kernel's
path at the first mirror, the output mirror's presence at arrival and the
detector.  A run of photons is an array of codes, drawn, counted and
written in the fixed chunks of rng.chunks, so its memory does not grow
with the number of events.
"""

from __future__ import annotations

import numpy as np

from aqm.rng import LANE_POLICY, event_uniforms

# Path and detector bits of an event code.  They coincide because, with
# the output mirror absent, path A lands on detector A and path B on
# detector B.
PATH_A, PATH_B = 0, 1
DETECTOR_A, DETECTOR_B = 0, 1

MIN_EVENTS = 1000  # smallest run summarize_counts compares with the wave model


# a 50/50 half-silvered mirror scaled by sqrt(2): transmission 1, reflection
# i.  After k of them each amplitude is g / sqrt(2)**k with g a Gaussian
# integer, so each probability |g|**2 / 2**k is exact in a double.
_SPLITTER = np.array([[1, 1j], [1j, 1]])


def wave_probabilities(m4_present: bool):
    """Detector probabilities (D_A, D_B) of the wave model.

    Mirror absent -> (0.5, 0.5), mirror present -> (0, 1), both exact.
    """
    g = _SPLITTER @ np.array([1.0, 0.0])  # (path A, path B) after M1
    g = 1j * g  # full mirrors M2, M3: one reflection on each path
    if m4_present:
        g = _SPLITTER @ g
    p = (g.real ** 2 + g.imag ** 2) / (4 if m4_present else 2)  # 2**k after k splitters
    return float(p[0]), float(p[1])


# A uniform below _P_PATH_A puts the particle model's kernel on path A,
# and with the mirror present the detector is B with the wave model's
# probability _P_STEERED_DB.
_P_PATH_A = abs(_SPLITTER[0, 0]) ** 2 / 2
_P_STEERED_DB = wave_probabilities(True)[1]


# --m4 name -> decide(p, seed, n, start): the output mirror's presence at
# arrival, a bool array over events start..start+n-1.  delayed-random
# inserts the mirror with probability p; event i's decision is column 0
# of its event_uniforms row on LANE_POLICY, so it is reproducible and
# does not disturb the photon's own randomness.
POLICIES = {
    "present": lambda p, seed, n, start: np.ones(n, dtype=bool),
    "absent": lambda p, seed, n, start: np.zeros(n, dtype=bool),
    "delayed-random": lambda p, seed, n, start: (
        event_uniforms(seed, n, lane=LANE_POLICY, start=start)[:, 0] < p),
    "delayed-alternating": lambda p, seed, n, start: np.arange(start, start + n) % 2 == 1,
}


def run_events(m4: np.ndarray, seed: int, start: int = 0) -> np.ndarray:
    """Event codes of photons start..start+len(m4)-1 of the particle model.

    m4[i] is the output mirror's presence when event start + i arrives.
    It is decided after the photon has passed M1, so nothing it decides
    can influence the kernel's path.

    Event i reads row i - start of event_uniforms(seed, len(m4), start=start):
    column 0 picks the kernel's path at M1, and column 1 the detector when
    the mirror is present at arrival.
    """
    u = event_uniforms(seed, len(m4), start=start)
    path = u[:, 0] >= _P_PATH_A
    detector = np.where(m4, u[:, 1] < _P_STEERED_DB, path)
    return (4 * path + 2 * m4 + detector).astype(np.uint8)


def count_events(codes: np.ndarray) -> np.ndarray:
    """(2, 2, 2) int64 event counts, indexed by [path, m4 at arrival, detector]."""
    return np.bincount(codes, minlength=8).reshape(2, 2, 2)


def summarize_counts(counts: np.ndarray) -> dict:
    """Compare particle-model detector frequencies against the wave model.

    `counts` is count_events' (2, 2, 2) array, summed over a run.  Per mirror
    sub-ensemble: deviation of the empirical detector frequencies from the
    wave probabilities, passed at a 4-sigma binomial tolerance (exact
    agreement required for deterministic outcomes).  Fewer than MIN_EVENTS
    events are rejected.  Returns the comparison as result.json reports it.
    """
    total = int(counts.sum())
    if total < MIN_EVENTS:
        raise ValueError(
            f"need at least {MIN_EVENTS} events for a meaningful comparison, got {total}")
    counts = counts.sum(axis=0)  # [m4 at arrival, detector]
    rows = []
    for m4 in (False, True):
        n = int(counts[int(m4)].sum())
        if not n:
            continue
        p_da, p_db = wave_probabilities(m4)
        f_da = int(counts[int(m4), DETECTOR_A]) / n
        f_db = 1.0 - f_da
        dev = max(abs(f_da - p_da), abs(f_db - p_db))
        tol = 4.0 * np.sqrt(p_da * p_db / n)
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
    """(8, L) bytes that follow a row's event index, by event code."""
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


def write_events_csv(codes: np.ndarray, seed: int, start: int, fh) -> None:
    """Append the rows of events start onward, columns event,seed,kernel_path,m4,detector.

    `fh` is a file open for binary writing; the events that start at event
    0 are preceded by the header, so consecutive chunks written in order
    make one file.  Same bytes as csv.writer.  A row is its event index in
    ASCII digits followed by one of eight suffixes, indexed by the row's
    event code.
    """
    if start == 0:
        fh.write(_CSV_HEADER)
    suffix = _csv_suffixes(seed)[codes]
    for lo, hi, digits in _digit_runs(start, start + len(codes)):
        rows = np.empty((hi - lo, digits + suffix.shape[1]), dtype=np.uint8)
        index = np.arange(lo, hi, dtype=np.min_scalar_type(hi - 1))  # narrow divides faster
        for p in range(digits):
            rows[:, digits - 1 - p] = index // 10**p % 10 + ord("0")
        rows[:, digits:] = suffix[lo - start : hi - start]
        fh.write(rows)
