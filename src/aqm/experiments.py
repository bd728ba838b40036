"""End-to-end experiment drivers shared by the CLI and the test suite.

Each driver returns a plain dict of summary statistics with a `passed`
flag, suitable for direct JSON serialization.  Given a path, the two-slit
driver also writes its per-mode table, and delayed-choice its photon events.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from aqm import interferometer, two_slit
from aqm.algebra import is_stable, masa_from
from aqm.ensemble import (
    QuantumState,
    check_postulate5,
    check_postulate6,
    lueders,
    measure_many,
    monte_carlo_mean,
)
from aqm.errors import ConfigError
from aqm.rng import chunks, stream
from aqm.serialize import atomic_open


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def random_density(dim: int, rng: np.random.Generator) -> QuantumState:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return QuantumState(rho / np.trace(rho).real)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_degenerate_observable(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with at least two distinct eigenvalues.

    For dim > 2 one eigenvalue repeats; at dim = 2 none does, and the
    reproducibility loop of postulate_suite does draw dim = 2.
    """
    n_distinct = int(rng.integers(2, max(dim - 1, 2) + 1))
    levels = rng.standard_normal(n_distinct) * 3
    values = levels[rng.integers(0, n_distinct, size=dim)]
    values[0] = levels[0]
    values[1] = levels[1]  # at least two distinct eigenvalues
    if dim > 2:
        values[2] = levels[0]  # and a genuine degeneracy
    u = random_unitary(dim, rng)
    return u @ np.diag(values) @ u.conj().T


# ---------------------------------------------------------------------------
# Postulate suite

_KS_DRAWS = 400  # draws per context of each Postulate 5 smoke test
_REPRODUCIBILITY_TRIALS = 10_000  # re-measurements, over 50 random instances


def _instance(dim: int, rng: np.random.Generator):
    """(a, q, qp, psi): a random_degenerate_observable, two MASAs containing it, a state."""
    a = random_degenerate_observable(dim, rng)
    q = masa_from(a, refinement=random_unitary(dim, rng))
    qp = masa_from(a, refinement=random_unitary(dim, rng))
    return a, q, qp, random_density(dim, rng)


def postulate_suite(dim: int, trials: int, seed: int) -> dict:
    """Numerical checks of device independence, linearity, reproducibility."""
    exact_distances = []
    ks_failures = 0
    rng = stream(seed, 0)
    for _ in range(trials):
        a, q, qp, psi = _instance(dim, rng)
        report = check_postulate5(psi, a, q, qp, n=_KS_DRAWS, rng=rng)
        exact_distances.append(report.exact_distance)
        if report.ks_stat >= report.ks_critical:
            ks_failures += 1
    max_exact = float(max(exact_distances))
    p5_pass = max_exact <= 1e-10 and ks_failures <= max(1, trials // 20)

    rng = stream(seed, 1)
    p6_residual_pass = all(
        check_postulate6(random_density(dim, rng), random_hermitian(dim, rng), random_hermitian(dim, rng))
        for _ in range(trials)
    )

    # Lueders reproducibility: re-measure in a second context containing A
    rng = stream(seed, 2)
    agreements = 0
    n_instances = 50
    per_instance = _REPRODUCIBILITY_TRIALS // n_instances
    for _ in range(n_instances):
        a, q, qp, psi = _instance(int(rng.integers(2, dim + 1)), rng)
        # column 0 drives the first measurement and column 1 the second;
        # b1 and b2 are each trial's characters on q and on qp
        u = rng.random((per_instance, 2))
        b1 = measure_many(psi, q, u[:, 0])
        b2 = np.empty_like(b1)
        for j in np.flatnonzero(np.bincount(b1)).tolist():
            drawn = b1 == j
            b2[drawn] = measure_many(lueders(q, j), qp, u[drawn, 1])
        agreements += int(np.count_nonzero(is_stable(a, (q, qp), (b1, b2))))
    done = n_instances * per_instance
    repro_prob = agreements / done

    return {
        "dim": dim,
        "trials": trials,
        "postulate5": {
            "max_exact_distance": max_exact,
            "ks_failures": ks_failures,
            "passed": p5_pass,
        },
        "postulate6": {"passed": bool(p6_residual_pass)},
        "reproducibility": {
            "trials": done,
            "agreement_probability": repro_prob,
            "passed": repro_prob == 1.0,
        },
        "passed": bool(p5_pass and p6_residual_pass and repro_prob == 1.0),
    }


# ---------------------------------------------------------------------------
# Khinchin convergence


def khinchin_experiment(n_seeds: int, n_small: int, n_big: int, dim: int, seed: int) -> dict:
    """Monte Carlo error scaling between two sample sizes.

    The median absolute error should shrink roughly by sqrt(n_big/n_small);
    the accepted band is [3, 33] around the theoretical 10 for the CLI's
    default sizes.
    """
    setup = stream(seed, 0)
    a = random_hermitian(dim, setup)
    q = masa_from(a, refinement=random_unitary(dim, setup))
    psi = random_density(dim, setup)
    exact = psi.mean(a)
    err_small, err_big = [], []
    for j in range(n_seeds):
        err_small.append(abs(monte_carlo_mean(psi, a, q, n_small, seed, 2 * j + 1) - exact))
        err_big.append(abs(monte_carlo_mean(psi, a, q, n_big, seed, 2 * j + 2) - exact))
    med_s = float(np.median(err_small))
    med_b = float(np.median(err_big))
    ratio = med_s / med_b if med_b > 0 else float("inf")
    lo, hi = 3.0, 33.0
    return {
        "n_seeds": n_seeds,
        "n_small": n_small,
        "n_big": n_big,
        "exact_mean": exact,
        "median_error_small": med_s,
        "median_error_big": med_b,
        "ratio": ratio,
        "band": [lo, hi],
        "passed": bool(lo <= ratio <= hi),
    }


# ---------------------------------------------------------------------------
# Two-slit


# name -> geometry of each named two-slit lattice
PRESETS = {"symmetric64": two_slit.SlitGeometry(64, frozenset({16}), frozenset({48}))}


def two_slit_experiment(geom: two_slit.SlitGeometry, n_events: int, seed: int, pattern_path=None) -> dict:
    """Summary dict of the pattern, its decomposition and the event sampler.

    With `pattern_path`, also pattern.csv, one row per mode, a block at a time.
    """
    psi_ab = two_slit.prepare_conditioned(two_slit.uniform_source(geom.grid_size), geom)
    split = two_slit.screen_split(psi_ab, geom)  # an infeasible split fails here
    direct_a, direct_b, cross, probs = split.modes
    histogram, (n_a, n_b) = two_slit.sample_screens(split, n_events, seed)
    if pattern_path is not None:
        with atomic_open(pattern_path, newline="") as fh:
            fh.write("k,prob,count,direct_a,direct_b,interference\r\n")
            columns = (probs, histogram, direct_a, direct_b, cross)
            for lo, n in chunks(geom.grid_size):
                rows = zip(range(lo, lo + n), *(m[lo:lo + n].tolist() for m in columns))
                fh.write("".join(f"{k},{p!r},{c},{a!r},{b!r},{x!r}\r\n" for k, p, c, a, b, x in rows))
    tv = float(0.5 * np.sum(np.abs(histogram / n_events - probs)))
    tv_bound = 2.0 * np.sqrt(geom.grid_size / n_events)
    closure = np.max(np.abs(direct_a + direct_b + cross - probs))
    law, law_bound = two_slit.sampler_law_residual(split)
    return {
        "grid_size": geom.grid_size,
        "slit_a": sorted(geom.slit_a),
        "slit_b": sorted(geom.slit_b),
        "n_events": n_events,
        "slit_tally": {"a": n_a, "b": n_b},
        "split_clamp": {"a": split.clamped[0], "b": split.clamped[1], "budget": split.budget},
        "tv_distance": tv,
        "tv_bound": float(tv_bound),
        "max_closure_residual": float(closure),
        "sampler_law_residual": law,
        "sampler_law_bound": law_bound,
        "passed": bool(tv <= tv_bound and closure <= two_slit.CLOSURE_TOL and law <= law_bound),
    }


# ---------------------------------------------------------------------------
# Delayed choice


def delayed_choice_experiment(
    policy_name: str, n_events: int, seed: int, p: float, events_path=None
) -> dict:
    """Summary dict of one run; with `events_path`, its events.csv too.

    The photons are drawn, counted and written one chunk at a time, so no
    array grows with n_events.  Every check, including that the CSV fits
    on its disk, runs before the first draw; the CSV is renamed into place
    only when all of it is written.
    """
    if policy_name not in interferometer.POLICIES:
        raise ConfigError(f"unknown choice policy {policy_name!r}")
    interferometer.check_event_count(n_events)
    decide = interferometer.POLICIES[policy_name]
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    if events_path is None:
        sink = nullcontext()
    else:
        size = interferometer.events_csv_bytes(n_events, seed)
        sink = atomic_open(events_path, "wb", size=size)
    with sink as fh:
        for start, count in chunks(n_events):
            codes = interferometer.run_events(decide(p, seed, count, start), seed, start)
            counts += interferometer.count_events(codes)
            if fh is not None:
                interferometer.write_events_csv(codes, seed, start, fh)
    return {"policy": policy_name, "n_events": n_events,
            **interferometer.summarize_counts(counts)}
