"""End-to-end experiment drivers shared by the CLI and the test suite.

Each driver returns a plain dict of summary statistics with a `passed`
flag, suitable for direct JSON serialization.  Given a path, the two-slit
driver also writes its per-mode table, and delayed-choice its photon events.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np

from aqm import interferometer, two_slit
from aqm.algebra import Context, _adjoint, _branch_values, is_stable
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
)
from aqm.rng import chunks, stream
from aqm.serialize import atomic_open

# Each random_* draw below takes a stack shape: shape () draws one matrix,
# and a shape S draws S of them, one numpy call per quantity.


def _gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex array of the given shape: standard normal real parts, then imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(g: np.ndarray) -> np.ndarray:
    """The unitary factor Q of g = QR with R's diagonal made positive: Haar for a Gaussian g."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_hermitian(dim: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    m = _gaussian(rng, shape + (dim, dim))
    return 0.5 * (m + _adjoint(m))


def random_density(dim: int, rng: np.random.Generator, shape: tuple = ()) -> QuantumState:
    g = _gaussian(rng, shape + (dim, dim))
    rho = g @ _adjoint(g)
    return QuantumState(rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None])


def random_unitary(dim: int, rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    return _haar(_gaussian(rng, shape + (dim, dim)))


def random_degenerate_spectrum(dim: int, rng: np.random.Generator, shape: tuple = ()):
    """(u, lam): eigenvectors and eigenvalues of an observable u diag(lam) u^dagger.

    It has at least two distinct eigenvalues.  For dim > 2 one of them
    repeats; at dim = 2 none does, and the reproducibility check of
    postulate_suite does draw dim = 2.
    """
    top = max(dim - 1, 2)
    n_distinct = rng.integers(2, top + 1, size=shape)
    levels = rng.standard_normal(shape + (top,)) * 3
    picks = rng.integers(0, n_distinct[..., None], size=shape + (dim,))
    lam = np.take_along_axis(levels, picks, axis=-1)
    lam[..., :2] = levels[..., :2]  # at least two distinct eigenvalues
    if dim > 2:
        lam[..., 2] = levels[..., 0]  # and a genuine degeneracy
    return random_unitary(dim, rng, shape), lam


def random_masa(u: np.ndarray, lam: np.ndarray, rng: np.random.Generator) -> Context:
    """A random maximal context containing u diag(lam) u^dagger, with no eigendecomposition.

    Its basis is u times a Haar unitary on each eigenspace: the QR of a
    Gaussian masked to the pattern [lam_i == lam_j] keeps that pattern,
    since Householder reflections of one eigenspace's columns touch only
    its rows.
    """
    same = lam[..., :, None] == lam[..., None, :]
    return Context(u @ _haar(_gaussian(rng, same.shape) * same))


# ---------------------------------------------------------------------------
# Postulate suite

_KS_DRAWS = 400  # draws per context of each Postulate 5 smoke test
_REPRODUCIBILITY_TRIALS = 10_000  # re-measurements, over _REPRODUCIBILITY_INSTANCES instances
_REPRODUCIBILITY_INSTANCES = 50
_BORN_MEAN_TOL = 1e-10
# matrix entries of one block of trials: a block stacks _BLOCK // dim**2
# trials, so memory does not grow with the number of trials
_BLOCK = 1 << 16


def _block_size(dim: int) -> int:
    """Trials per block at this dim."""
    return max(1, _BLOCK // dim**2)


def _instance(dim: int, rng: np.random.Generator, shape: tuple = ()):
    """(a, q, qp, psi): an observable, two random MASAs containing it, a state; stacked over shape."""
    u, lam = random_degenerate_spectrum(dim, rng, shape)
    a = (u * lam[..., None, :]) @ _adjoint(u)
    return a, random_masa(u, lam, rng), random_masa(u, lam, rng), random_density(dim, rng, shape)


def _postulate5_block(dim: int, count: int, rng: np.random.Generator):
    """(exact distances, KS failures, Born-mean residuals) of one block of Postulate 5 trials."""
    a, q, qp, psi = _instance(dim, rng, (count,))
    report = check_postulate5(psi, a, q, qp, n=_KS_DRAWS, rng=rng)
    failures = int(np.count_nonzero(report.ks_stat >= report.ks_critical))
    return report.exact_distance, failures, born_mean_residual(psi, a, q)


def _reproduced(dim: int, count: int, per_instance: int, rng: np.random.Generator) -> int:
    """Copies, over one block of instances, whose re-measurement on qp agrees with the first on q."""
    a, q, qp, psi = _instance(dim, rng, (count,))
    # u[..., 0] drives each copy's first measurement and u[..., 1] its
    # second; b1 and b2 are each copy's characters on q and on qp
    u = rng.random((count, per_instance, 2))
    b1 = measure_many(psi, q, u[..., 0])
    # a copy that drew branch j of q is re-measured by row j of the Lueders law
    law = np.take_along_axis(lueders_law(q, qp), b1[..., None], axis=-2)
    b2 = inverse_cdf(law, u[..., 1])
    return int(np.count_nonzero(is_stable(a, (q, qp), (b1, b2))))


def postulate_suite(dim: int, trials: int, seed: int) -> dict:
    """Numerical checks of device independence, linearity, the Born mean, reproducibility.

    Each check draws and runs a block of trials at a time as stacked
    arrays (see _block_size): one numpy call per quantity per block.
    Postulate 5 keeps running totals over its blocks, so no array grows
    with the number of trials.
    """
    rng = stream(seed, 0)
    max_exact, ks_failures, max_born = 0.0, 0, 0.0
    for _, count in chunks(trials, _block_size(dim)):
        distances, failures, born_means = _postulate5_block(dim, count, rng)
        max_exact = float(np.max(distances, initial=max_exact))  # a NaN stays NaN
        ks_failures += failures
        max_born = float(np.max(born_means, initial=max_born))
    p5_pass = max_exact <= 1e-10 and ks_failures <= max(1, trials // 20)
    born_pass = max_born <= _BORN_MEAN_TOL

    rng = stream(seed, 1)
    p6_residual_pass = all(
        np.all(check_postulate6(random_density(dim, rng, (count,)),
                                random_hermitian(dim, rng, (count,)),
                                random_hermitian(dim, rng, (count,))))
        for _, count in chunks(trials, _block_size(dim))
    )

    # Lueders reproducibility: re-measure in a second context containing A.
    # The instances' dims are drawn first; the instances of each dim, in
    # ascending order, are then drawn and run a block at a time.
    rng = stream(seed, 2)
    per_instance = _REPRODUCIBILITY_TRIALS // _REPRODUCIBILITY_INSTANCES
    dims = rng.integers(2, dim + 1, size=_REPRODUCIBILITY_INSTANCES)
    agreements = sum(_reproduced(d, count, per_instance, rng)
                     for d, n in zip(*(x.tolist() for x in np.unique(dims, return_counts=True)))
                     for _, count in chunks(n, _block_size(d)))
    done = _REPRODUCIBILITY_INSTANCES * per_instance
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
        "born_mean": {"max_residual": max_born, "bound": _BORN_MEAN_TOL, "passed": born_pass},
        "reproducibility": {
            "trials": done,
            "agreement_probability": repro_prob,
            "passed": repro_prob == 1.0,
        },
        "passed": bool(p5_pass and p6_residual_pass and born_pass and repro_prob == 1.0),
    }


# ---------------------------------------------------------------------------
# Khinchin convergence


_KHINCHIN_ALPHA = 1e-6  # false-alarm rate of the khinchin rate check


def _chi2_upper_tail(s: float, m: int) -> float:
    """P(X > s) for X chi-square with 2m degrees of freedom: P(Poisson(s/2) < m).

    Summed in log space: exp(-s/2) alone underflows from s of about 1,490 on.
    """
    lam = s / 2
    logs = [k * math.log(lam) - lam - math.lgamma(k + 1) for k in range(m)]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(x - top) for x in logs)


def khinchin_experiment(n_seeds: int, n_small: int, n_big: int, dim: int, seed: int) -> dict:
    """Monte Carlo means at two sample sizes, checked against the Born law's rate.

    The setup is one postulate-suite instance.  With mu and sigma^2 the
    mean and variance of the branch values under the Born weights, a mean
    of n draws has z^2 = n (mean - mu)^2 / sigma^2, and E z^2 = 1 at any n.
    The check passes when S = sum z^2 over the 2 n_seeds means has a
    chi-square(2 n_seeds) upper tail in [alpha/2, 1 - alpha/2]: the large-n
    law, since Var z^2 = 2 + (mu_4 / sigma^4 - 3) / n.  The median errors
    and their ratio, near sqrt(n_big / n_small), are diagnostics.
    """
    a, q, _, psi = _instance(dim, stream(seed, 0))
    p, values = born_distribution(psi, q), _branch_values(q, a)
    mu = math.fsum(p * values)
    var = math.fsum(p * (values - mu) ** 2)
    small = [monte_carlo_mean(psi, a, q, n_small, seed, 2 * j + 1) for j in range(n_seeds)]
    big = [monte_carlo_mean(psi, a, q, n_big, seed, 2 * j + 2) for j in range(n_seeds)]
    errors = [[x - mu for x in xs] for xs in (small, big)]
    chi2 = math.fsum(n * e * e / var for n, es in zip((n_small, n_big), errors) for e in es)
    tail = _chi2_upper_tail(chi2, n_seeds)
    med_s, med_b = (float(np.median(np.abs(es))) for es in errors)
    ratio = med_s / med_b if med_b > 0 else float("inf")
    return {
        "n_seeds": n_seeds,
        "n_small": n_small,
        "n_big": n_big,
        "exact_mean": mu,
        "median_error_small": med_s,
        "median_error_big": med_b,
        "ratio": ratio,
        "chi2": chi2,
        "chi2_upper_tail": tail,
        "alpha": _KHINCHIN_ALPHA,
        "passed": bool(_KHINCHIN_ALPHA / 2 <= tail <= 1 - _KHINCHIN_ALPHA / 2),
    }


# ---------------------------------------------------------------------------
# Two-slit


def two_slit_experiment(geom: two_slit.SlitGeometry, n_events: int, seed: int, pattern_path=None) -> dict:
    """Summary dict of the pattern, its decomposition and the event sampler.

    With `pattern_path`, also pattern.csv, one row per mode, a block at a time.
    """
    psi_ab = two_slit.prepare_conditioned(two_slit.uniform_source(geom.grid_size), geom)
    split = two_slit.screen_split(psi_ab, geom)
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
        "passed": bool(tv <= tv_bound and closure <= two_slit.CLOSURE_TOL and law <= law_bound
                       and max(split.clamped) <= split.budget),
    }


# ---------------------------------------------------------------------------
# Delayed choice


def delayed_choice_experiment(
    policy_name: str, n_events: int, seed: int, p: float, events_path=None
) -> dict:
    """Summary dict of one run; with `events_path`, its events.csv too.

    The photons are drawn, counted and written one chunk at a time, so no
    array grows with n_events.  The CSV is renamed into place only when
    all of it is written.  The CLI checks the run's input, the CSV's fit
    on its disk included, before it calls this.
    """
    decide = interferometer.POLICIES[policy_name]
    counts = np.zeros((2, 2, 2), dtype=np.int64)
    sink = nullcontext() if events_path is None else atomic_open(events_path, "wb")
    with sink as fh:
        for start, count in chunks(n_events):
            codes = interferometer.run_events(decide(p, seed, count, start), seed, start)
            counts += interferometer.count_events(codes)
            if fh is not None:
                interferometer.write_events_csv(codes, seed, start, fh)
    return {"policy": policy_name, "n_events": n_events,
            **interferometer.summarize_counts(counts)}
