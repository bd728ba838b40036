"""A standing mutation table: each row is one plain-text edit of the package
that some non-golden test must catch.

A row names the file, an exact source fragment that occurs there once, its
replacement, and the pytest ids expected to kill the mutant.  Run

    python tests/mutants.py [NAME ...]

to check every row (or the named ones): the runner first runs the listed
tests on an unmutated copy of the tree, where they must pass, then, one
mutant at a time, copies the tree, applies the edit and runs only that
row's tests, which must fail.  It exits 0 when every mutant is killed.
Tier-1 runs only the fast check that each fragment still occurs exactly
once (tests/test_mutants.py), so the table cannot drift from the code.

Mutants that only a golden digest kills are gaps, not rows: a digest
catches any change to the output, so it says nothing about which check
would have caught the fault.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple  # pytest ids, each of which must fail on the mutant


MUTANTS = (
    Mutant("commutation-check-dropped", "src/aqm/algebra.py",
           "if not _max_abs(off_diagonal) <= COMMUTE_TOL:",
           "if False:",
           ("tests/test_ensemble.py::test_evaluate_means_and_postulate5_reject_the_same_pairs",
            "tests/test_properties.py::test_measurability_verdicts_match_the_projector_stack_near_the_tolerances")),
    Mutant("remeasure-ignores-the-branch", "src/aqm/experiments.py",
           "b1[..., None], axis=-2)",
           "0 * b1[..., None], axis=-2)",
           ("tests/test_cli.py::TestPostulatesCommand::test_small_run_passes",
            "tests/test_cli.py::TestPostulatesCommand::test_remeasures_each_copy_by_the_row_of_its_drawn_branch")),
    Mutant("lueders-law-transposed", "src/aqm/ensemble.py",
           "np.abs(_adjoint(q.basis) @ qp.basis) ** 2",
           "np.abs(_adjoint(qp.basis) @ q.basis) ** 2",
           ("tests/test_properties.py::test_each_row_of_the_lueders_law_is_the_born_law_of_its_post_state",)),
    Mutant("born-weights-from-rho-transposed", "src/aqm/ensemble.py",
           "w = psi.rho @ v",
           "w = psi.rho.swapaxes(-1, -2) @ v",
           ("tests/test_cli.py::TestPostulatesCommand::test_small_run_passes",
            "tests/test_cli.py::TestPostulatesCommand::test_the_suite_fails_on_the_born_mean_alone")),
    Mutant("validation-reads-slice-0-only", "src/aqm/algebra.py",
           "return np.abs(x).max(initial=0.0)",
           "return np.abs(x[(0,) * (x.ndim - 2)]).max(initial=0.0)",
           ("tests/test_properties.py::test_a_stack_with_one_bad_slice_past_the_first_is_rejected",)),
    Mutant("equal-eigenvalue-mask-dropped", "src/aqm/experiments.py",
           "_gaussian(rng, same.shape) * same",
           "_gaussian(rng, same.shape)",
           ("tests/test_cli.py::TestPostulatesCommand::test_small_run_passes",
            "tests/test_cli.py::TestKhinchinCommand::test_small_run",
            "tests/test_properties.py::test_direct_contexts_match_the_masa_from_oracle")),
    Mutant("pair-checked-twice", "src/aqm/algebra.py",
           "    values = _branch_values(q, a)",
           "    _branch_values(q, a)\n    values = _branch_values(q, a)",
           ("tests/test_ensemble.py::TestMeasure::test_checks_the_observable_against_the_context_once",
            "tests/test_ensemble.py::TestMeasureMany::test_checks_the_observable_against_the_context_once")),
    Mutant("uniforms-reversed", "src/aqm/ensemble.py",
           "return inverse_cdf(born_distribution(psi, q), u)",
           "return inverse_cdf(born_distribution(psi, q), u[::-1])",
           ("tests/test_properties.py::test_measure_many_is_the_scalar_loop",)),
    Mutant("inverse-cdf-unclamped", "src/aqm/ensemble.py",
           "return np.minimum(drawn, last.reshape(shape))",
           "return drawn",
           ("tests/test_properties.py::test_measure_many_never_draws_a_zero_probability_branch",
            "tests/test_properties.py::test_inverse_cdf_is_the_clamped_searchsorted")),
    Mutant("multinomial-unclamped", "src/aqm/ensemble.py",
           "counts[: last + 1] = gen.multinomial(n, probs[: last + 1])",
           "counts[:] = gen.multinomial(n, probs)",
           ("tests/test_ensemble.py::test_a_zero_probability_branch_is_never_counted_at_any_n",)),
    Mutant("postulate5-distance-zero", "src/aqm/ensemble.py",
           "return Postulate5Report(np.max(np.abs(c1 - c2), axis=-1),",
           "return Postulate5Report(0.0 * np.max(np.abs(c1 - c2), axis=-1),",
           ("tests/test_ensemble.py::TestPostulate5::test_biased_born_weights_fail",)),
    Mutant("ks-failures-never-counted", "src/aqm/experiments.py",
           "failures = int(np.count_nonzero(report.ks_stat >= report.ks_critical))",
           "failures = 0",
           ("tests/test_cli.py::TestPostulatesCommand::test_the_suite_fails_on_ks_failures_alone",)),
    Mutant("ks-failure-gate-true", "src/aqm/experiments.py",
           "ks_failures <= max(1, trials // 20)",
           "True",
           ("tests/test_cli.py::TestPostulatesCommand::test_the_suite_fails_on_ks_failures_alone",)),
    Mutant("khinchin-chi2-gate-dropped", "src/aqm/experiments.py",
           "bool(_KHINCHIN_ALPHA / 2 <= tail <= 1 - _KHINCHIN_ALPHA / 2)",
           "True",
           ("tests/test_cli.py::TestKhinchinCommand::"
            "test_a_sampler_that_draws_a_tenth_of_n_big_exits_2_through_the_chi2_gate",)),
    Mutant("khinchin-big-mean-from-a-tenth", "src/aqm/experiments.py",
           "monte_carlo_mean(psi, a, q, n_big, seed, 2 * j + 2)",
           "monte_carlo_mean(psi, a, q, n_big // 10, seed, 2 * j + 2)",
           ("tests/test_acceptance.py::test_criterion_7_khinchin_rate",
            "tests/test_cli.py::TestKhinchinCommand::"
            "test_the_rate_check_passes_300_seeds_at_each_size")),
    Mutant("two-slit-passed-without-tv", "src/aqm/experiments.py",
           '"passed": bool(tv <= tv_bound and closure',
           '"passed": bool(closure',
           ("tests/test_cli.py::TestTwoSlitCommand::test_a_histogram_off_the_pattern_fails_on_its_tv_distance_alone",)),
    Mutant("screen-split-no-cross-term", "src/aqm/two_slit.py",
           "mass = direct + s * cross",
           "mass = direct + 0.0 * cross",
           ("tests/test_cli.py::TestTwoSlitCommand::test_the_true_sampler_meets_its_exact_law",)),
    Mutant("split-share-half", "src/aqm/two_slit.py",
           "    return share\n",
           "    return np.full(len(cross), 0.5)\n",
           ("tests/test_properties.py::test_the_per_mode_split_exists_on_every_geometry",
            "tests/test_cli.py::TestTwoSlitCommand::test_uneven_slits_run_and_pass")),
    Mutant("split-share-unclipped", "src/aqm/two_slit.py",
           "np.clip(0.5, 1.0 + direct_b[dark] / cross[dark], -direct_a[dark] / cross[dark])",
           "0.5",
           ("tests/test_properties.py::test_the_per_mode_split_exists_on_every_geometry",
            "tests/test_two_slit.py::TestStackedScreens::test_uneven_slits_run_and_pass",
            "tests/test_two_slit.py::TestStackedScreens::"
            "test_a_split_without_bright_modes_leaves_their_shares_at_half")),
    Mutant("split-budget-gate-dropped", "src/aqm/experiments.py",
           "and max(split.clamped) <= split.budget",
           "and True",
           ("tests/test_cli.py::TestTwoSlitCommand::"
            "test_the_half_split_exits_2_through_the_clamp_budget_alone",)),
    Mutant("screen-split-flat-conditionals", "src/aqm/two_slit.py",
           "mass = np.clip(mass, 0.0, None)",
           "mass = np.ones_like(mass)",
           ("tests/test_cli.py::TestTwoSlitCommand::test_the_true_sampler_meets_its_exact_law",)),
    Mutant("fft-direction-flipped", "src/aqm/two_slit.py",
           "np.fft.ifft(m * psi_ab)",
           "np.fft.fft(m * psi_ab)",
           ("tests/test_properties.py::test_fft_mode_statistics_match_the_dense_oracle",)),
    Mutant("summarize-counts-40-sigma", "src/aqm/interferometer.py",
           "4.0 * np.sqrt(p_da * p_db / n)",
           "40.0 * np.sqrt(p_da * p_db / n)",
           ("tests/test_interferometer.py::TestEquivalenceReport::"
            "test_a_ten_sigma_deviation_fails_its_four_sigma_tolerance",)),
    Mutant("steered-detector-threshold-half", "src/aqm/interferometer.py",
           "u[:, 1] < _P_STEERED_DB",
           "u[:, 1] < 0.5",
           ("tests/test_interferometer.py::TestParticleRun::test_mirror_present_always_db",)),
    Mutant("steered-detector-threshold-rounded", "src/aqm/interferometer.py",
           "_P_STEERED_DB = wave_probabilities(True)[1]",
           "_P_STEERED_DB = 0.9999999999999996",
           ("tests/test_interferometer.py::TestParticleRun::"
            "test_no_uniform_below_1_steers_a_photon_to_da",)),
    Mutant("path-threshold-rounded", "src/aqm/interferometer.py",
           "_P_PATH_A = abs(_SPLITTER[0, 0]) ** 2 / 2",
           "_P_PATH_A = 0.4999999999999999",
           ("tests/test_interferometer.py::TestParticleRun::test_the_path_splits_at_exactly_one_half",)),
    Mutant("delayed-choice-minimum-999", "src/aqm/interferometer.py",
           "MIN_EVENTS = 1000",
           "MIN_EVENTS = 999",
           ("tests/test_cli.py::TestDelayedChoiceCommand::test_too_few_events_is_exit_1",
            "tests/test_cli.py::TestEventsFile::test_too_few_events_fail_before_any_draw",
            "tests/test_interferometer.py::TestEquivalenceReport::"
            "test_fewer_than_1000_events_are_refused")),
    Mutant("disk-check-needs-a-spare-byte", "src/aqm/cli.py",
           "if size > free:",
           "if size >= free:",
           ("tests/test_cli.py::TestEventsFile::test_the_disk_check_knows_the_exact_size",)),
    Mutant("herm-tol-times-10", "src/aqm/algebra.py",
           "HERM_TOL = 1e-10",
           "HERM_TOL = 1e-9",
           ("tests/test_ensemble.py::TestQuantumState::test_hermiticity_is_checked_to_herm_tol",)),
    Mutant("state-tol-times-10", "src/aqm/ensemble.py",
           "STATE_TOL = 1e-10",
           "STATE_TOL = 1e-9",
           ("tests/test_ensemble.py::TestQuantumState::test_trace_is_checked_to_state_tol",
            "tests/test_ensemble.py::TestQuantumState::test_eigenvalues_are_checked_to_state_tol")),
    Mutant("projector-tol-times-10", "src/aqm/algebra.py",
           "PROJECTOR_TOL = 1e-10",
           "PROJECTOR_TOL = 1e-9",
           ("tests/test_algebra.py::TestContextInvariants::"
            "test_orthonormality_is_checked_to_projector_tol",)),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's fragment occurs in its file."""
    return (ROOT / mutant.path).read_text().count(mutant.fragment)


def _copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                    ".bench_work")
    return Path(shutil.copytree(ROOT, dest / "tree", ignore=ignore))


def _run_tests(tree: Path, tests) -> int:
    """pytest's exit code for the given ids, run in tree against tree/src."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    rows = [m for m in MUTANTS if not names or m.name in names]
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 1
    bad = [f"{m.name}: fragment occurs {occurrences(m)} times in {m.path}"
           for m in rows if occurrences(m) != 1]
    bad += [f"{m.name}: names a golden test" for m in rows
            if any("test_golden.py" in t for t in m.tests)]
    if bad:
        print("\n".join(bad))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in rows for t in m.tests})
        code = _run_tests(_copy_tree(Path(tmp)), tests)
        if code != 0:
            print(f"the listed tests do not pass on the unmutated tree (pytest exit {code})")
            return 1
    survivors = []
    for m in rows:
        with tempfile.TemporaryDirectory() as tmp:
            tree = _copy_tree(Path(tmp))
            source = tree / m.path
            source.write_text(source.read_text().replace(m.fragment, m.replacement))
            # exit 1: the test ran and failed; anything else (0: passed,
            # 2: collection error, 4: unknown id) is no kill
            codes = {t: _run_tests(tree, [t]) for t in m.tests}
        missed = [f"{t} (pytest exit {c})" for t, c in codes.items() if c != 1]
        print(f"{m.name}: " + ("killed" if not missed else "NOT KILLED by " + ", ".join(missed)),
              flush=True)
        if missed:
            survivors.append(m.name)
    print(f"{len(rows) - len(survivors)} of {len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
