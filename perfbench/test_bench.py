"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload shrunk to a few seconds, untraced and traced, and
checks that each metric of BENCHMARK.json is reported with its unit, that
the exact work counts come out as the code implies, and that runs the
program rejects, or whose outputs miss a check, count as failed.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "photons": run.photons(n=2000),
    "lattice": run.lattice(n_sites=32, slit_a="4,5", slit_b="20,21", n=20_000),
    "postulates": run.postulates(dim=3, trials=5),
    "born-sampling": run.born_sampling(n_seeds=8),
}


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def metric_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.fixture(autouse=True)
def clean_work_dir():
    yield
    shutil.rmtree(run.WORK, ignore_errors=True)


@pytest.fixture(scope="module")
def traced():
    results = {name: run.benchmark(wl, seed=3, seconds=0, trace=True) for name, wl in TINY.items()}
    shutil.rmtree(run.WORK, ignore_errors=True)
    return results


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCH["workloads"])
    assert sorted(TINY) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run.benchmark(TINY[name], seed=3, seconds=0, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert metric_units(result) == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric_and_replays(traced, name):
    result = traced[name]
    # one untraced and one traced run; differing digests would fail the second
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert metric_units(result) == units("per_layer")
    assert result["metrics"]["trace.focus_share"]["value"] > 0


def test_exact_work_counts(traced):
    def value(workload, metric):
        return traced[workload]["metrics"][metric]["value"]

    assert value("photons", "interferometer.events_per_requested") == 2.0
    assert value("photons", "interferometer.run_events.calls") == 2
    assert value("photons", "rng.event_uniforms.draws") == 4 * 4 * 2000  # events and policy, twice
    assert value("lattice", "two_slit.prepare_conditioned.calls") == 2
    assert value("lattice", "two_slit.dft_basis.calls") == 32 + 1
    assert value("lattice", "two_slit.projector_bytes_computed") == 32 * 32**2 * 16
    # 50 instances x 200 trials x 2 measurements, each checked by contains
    # in measure and again in evaluate; check_postulate5 checks 2 contexts
    assert value("postulates", "ensemble.measure.calls") == 20_000
    assert value("postulates", "algebra.contains.calls") == 2 * 20_000 + 2 * 5
    assert value("born-sampling", "ensemble.monte_carlo_mean.calls") == 2 * 8
    assert value("born-sampling", "rng.stream.draws") >= 8 * (10_000 + 1_000_000)


def test_run_the_program_rejects_counts_as_failed():
    # the per-event split of uneven slits exceeds its clamp budget: exit 2
    wl = run.lattice(n_sites=32, slit_a="4,5", slit_b="20", n=1000)
    result = run.benchmark(wl, seed=1, seconds=0, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_missed_output_check_counts_as_failed():
    wl = dataclasses.replace(TINY["photons"], check=partial(run._check_photons, n=1999))
    result = run.benchmark(wl, seed=1, seconds=0, trace=False)
    assert (result["correct"], result["failed"]) == (False, 1)


def test_replay_mismatch_is_a_problem():
    digest = {"result.json": {"sha256": "a", "lines": 1, "bytes": 1}}
    replay = run.Run(1.0, 1.0, 1.0, 0, digest, [])
    assert run.replay_problems(replay, {"result.json": "a"}) == []
    assert run.replay_problems(replay, {"result.json": "b"})


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "photons", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
