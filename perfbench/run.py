"""End-to-end benchmark of the aqm command-line interface.

Run from the repository root:

    python3 perfbench/run.py --workload photons --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client: one `python3 -m aqm.cli`
process runs at a time, and the next starts when the previous one exits.
All runs of one invocation use the same `--seed`, so their outputs must be
byte-identical; a run whose output digests differ from the first run's
counts as failed, as does a run that exits non-zero, writes a result.json
without `passed: true`, or misses a workload's output check.

With `--trace 0` each run is timed from spawn to exit, and the last line
of stdout is a JSON object holding the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` untraced runs alternate with traced ones
(perfbench/spans.py, which wraps the public functions of every aqm module);
the last line then holds the per-layer metrics, and the traced outputs must
match the untraced ones byte for byte.  Lines before the last one start
with `#` and describe the run: the environment, every sample and every
output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# The CLI echoes --out into result.json, so every run, traced or not,
# writes to the same relative path; otherwise the digests would differ.
OUT = ".bench_work/out"
SPANS = WORK / "spans.npz"

SETUP_SPAWNS = 11  # interpreter start-ups timed per invocation for setup_s
DEADLINE_S = 150.0  # no run starts, and any still running is killed, after this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXACT_TOL = 1e-10  # closure and Postulate 5 distance, as the paper states them
WAVE_TOL = 1e-12  # expected detector probabilities of the wave model


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """One CLI command, its input size, and the checks its outputs must pass."""

    name: str
    argv: tuple  # CLI arguments without --seed and --out
    items: int  # input size that throughput counts
    item_unit: str
    focus: tuple  # span patterns of the layer the workload was chosen to stress
    check: Callable[[dict, dict], list] = field(repr=False)  # (result, outputs) -> problems


def _lines(outputs: dict, name: str, expected: int) -> list:
    got = outputs.get(name, {}).get("lines")
    return [] if got == expected else [f"{name} has {got} lines, expected {expected}"]


def _check_photons(result: dict, outputs: dict, n: int) -> list:
    problems = _lines(outputs, "events.csv", n + 1)
    expected = {False: (0.5, 0.5), True: (0.0, 1.0)}
    seen = {s["m4_present"]: s for s in result.get("sub_ensembles", [])}
    for m4, (p_da, p_db) in expected.items():
        sub = seen.get(m4)
        if sub is None:
            problems.append(f"no sub-ensemble with m4_present={m4}")
        elif abs(sub["expected_DA"] - p_da) > WAVE_TOL or abs(sub["expected_DB"] - p_db) > WAVE_TOL:
            problems.append(
                f"m4_present={m4}: wave probabilities ({sub['expected_DA']}, "
                f"{sub['expected_DB']}), expected ({p_da}, {p_db})"
            )
    return problems


def _check_lattice(result: dict, outputs: dict, n_sites: int) -> list:
    problems = _lines(outputs, "pattern.csv", n_sites + 1)
    if not result.get("max_closure_residual", np.inf) <= EXACT_TOL:
        problems.append(f"max_closure_residual {result.get('max_closure_residual')} > {EXACT_TOL}")
    return problems


def _check_postulates(result: dict, outputs: dict) -> list:
    problems = []
    distance = result.get("postulate5", {}).get("max_exact_distance", np.inf)
    if not distance <= EXACT_TOL:
        problems.append(f"postulate5.max_exact_distance {distance} > {EXACT_TOL}")
    agreement = result.get("reproducibility", {}).get("agreement_probability")
    if agreement != 1:
        problems.append(f"reproducibility.agreement_probability {agreement} != 1")
    return problems


def _check_passed_only(result: dict, outputs: dict) -> list:
    return []


def photons(n: int = 1_000_000) -> Workload:
    return Workload(
        "photons",
        ("delayed-choice", "--m4", "delayed-random", "--p", "0.5", "--n", str(n), "--write-events"),
        items=n,
        item_unit="photon events",
        focus=("interferometer.run_events", "interferometer.write_events_csv"),
        check=partial(_check_photons, n=n),
    )


def lattice(n_sites: int = 256, slit_a: str = "120,121", slit_b: str = "134,135",
            n: int = 1_000_000) -> Workload:
    return Workload(
        "lattice",
        ("two-slit", "--n-sites", str(n_sites), "--slit-a", slit_a, "--slit-b", slit_b,
         "--n", str(n)),
        items=n,
        item_unit="particle events",
        focus=("two_slit.pattern_decomposed",),
        check=partial(_check_lattice, n_sites=n_sites),
    )


def postulates(dim: int = 8, trials: int = 100) -> Workload:
    return Workload(
        "postulates",
        ("postulates", "--dim", str(dim), "--trials", str(trials)),
        items=trials,
        item_unit="suite trials",
        focus=("ensemble.measure",),
        check=_check_postulates,
    )


def born_sampling(n_seeds: int = 100, dim: int = 4, n_small: int = 10_000,
                  n_big: int = 1_000_000) -> Workload:
    return Workload(
        "born-sampling",
        ("khinchin", "--n-seeds", str(n_seeds), "--dim", str(dim),
         "--n-small", str(n_small), "--n-big", str(n_big)),
        items=n_seeds * (n_small + n_big),
        item_unit="Born draws",
        focus=("ensemble.monte_carlo_mean",),
        check=_check_passed_only,
    )


WORKLOADS = {w.name: w for w in (photons(), lattice(), postulates(), born_sampling())}


# ---------------------------------------------------------------------------
# Running the CLI


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    outputs: dict  # file name -> {"sha256", "lines", "bytes"}
    problems: list


def child_env() -> dict:
    """Environment of every child: the checkout's own package, BLAS threads capped at nproc."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "")
        if value.isdigit() and int(value) > nproc:
            env[var] = str(nproc)
    return env


class Deadline:
    """Kills the running child once the invocation has used its time."""

    def __init__(self, seconds: float):
        self.at = time.monotonic() + seconds
        self.pid = None
        signal.signal(signal.SIGALRM, self._expire)

    def passed(self) -> bool:
        return time.monotonic() >= self.at

    def _expire(self, signum, frame):
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # exited just before the alarm
                pass

    def spawn(self, argv: list, stderr_path: Path):
        """Run argv to completion; returns (wall seconds, rusage, exit code)."""
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            self.pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, max(self.at - time.monotonic(), 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self.pid = None
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage, proc.returncode


def digest_outputs(out_dir: Path) -> dict:
    """sha256, line count and size of every file the run wrote."""
    outputs = {}
    for path in sorted(out_dir.iterdir()):
        sha, lines = hashlib.sha256(), 0
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
                lines += chunk.count(b"\n")
        outputs[path.name] = {"sha256": sha.hexdigest(), "lines": lines,
                              "bytes": path.stat().st_size}
    return outputs


def run_cli(wl: Workload, seed: int, deadline: Deadline, traced: bool = False) -> Run:
    """One CLI process, timed from spawn to exit, with its outputs checked."""
    out_dir = ROOT / OUT
    shutil.rmtree(out_dir, ignore_errors=True)
    SPANS.unlink(missing_ok=True)
    entry = [str(ROOT / "perfbench" / "spans.py"), str(SPANS)] if traced else ["-m", "aqm.cli"]
    argv = [sys.executable, *entry, *wl.argv, "--seed", str(seed), "--out", OUT]
    stderr_path = WORK / "stderr.txt"
    wall, usage, code = deadline.spawn(argv, stderr_path)
    outputs = digest_outputs(out_dir) if out_dir.is_dir() else {}
    problems = []
    if code != 0:
        tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {code}: {' '.join(tail)}")
    try:
        result = json.loads((out_dir / "result.json").read_text()).get("result", {})
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable result.json: {exc}")
        result = {}
    if result.get("passed") is not True:
        problems.append("result.json does not say passed: true")
    problems += wl.check(result, outputs)
    cpu = usage.ru_utime + usage.ru_stime
    return Run(wall, cpu, usage.ru_maxrss / 1024, code, outputs, problems)


def time_setup(deadline: Deadline) -> list:
    """Wall times of fresh interpreters that import aqm.cli and exit."""
    argv = [sys.executable, "-c", "import aqm.cli"]
    stderr_path = WORK / "stderr.txt"
    deadline.spawn(argv, stderr_path)  # warm-up: writes the bytecode caches
    times = []
    for _ in range(SETUP_SPAWNS):
        wall, _, code = deadline.spawn(argv, stderr_path)
        if code != 0:
            raise RuntimeError(f"importing aqm.cli failed: {stderr_path.read_text()}")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run


def load_spans(path: Path):
    """Per span name: (calls, inclusive seconds, self seconds); and the counters."""
    with np.load(path) as z:
        names, name_id, parent = list(z["names"]), z["name_id"], z["parent"]
        duration = z["end"] - z["start"]
        counts = dict(zip(z["count_names"].tolist(), z["count_values"].tolist()))
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    per_name = [np.bincount(name_id, weights=w, minlength=len(names))
                for w in (None, duration, duration - child)]
    spans = {name: tuple(float(col[i]) for col in per_name) for i, name in enumerate(names)}
    return spans, counts


def layer_metrics(spans: dict, counts: dict, wl: Workload) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""

    def total(pattern: str, column: int) -> float:
        return sum(v[column] for k, v in spans.items() if fnmatchcase(k, pattern))

    def calls(pattern):
        return (int(total(pattern, 0)), "count")

    def secs(pattern):
        return (total(pattern, 1), "s")

    def self_s(pattern):
        return (total(pattern, 2), "s")

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    stream_draws = counts.get("rng.stream.draws", 0)
    event_draws = counts.get("rng.event_uniforms.draws", 0)
    rng_s = total("rng.stream*", 1) + total("rng.event_uniforms", 1)
    events = counts.get("interferometer.run_events.events", 0)
    measures = total("ensemble.measure", 0)
    root_s = total("cli.main", 1)
    return {
        "rng.event_uniforms.s": secs("rng.event_uniforms"),
        "rng.event_uniforms.draws": (event_draws, "count"),
        "rng.stream.draws": (stream_draws, "count"),
        "rng.stream.s": secs("rng.stream*"),
        "rng.draws_per_s": (ratio(stream_draws + event_draws, rng_s), "1/s"),
        "interferometer.run_events.calls": calls("interferometer.run_events"),
        "interferometer.run_events.s": secs("interferometer.run_events"),
        "interferometer.run_events.ns_per_event": (
            ratio(total("interferometer.run_events", 1), events, 1e9), "ns"),
        "interferometer.decide_batch.s": secs("interferometer.*.decide_batch"),
        "interferometer.summarize_events.s": secs("interferometer.summarize_events"),
        "interferometer.write_events_csv.s": secs("interferometer.write_events_csv"),
        "interferometer.write_events_csv.bytes": (
            counts.get("interferometer.write_events_csv.bytes", 0), "bytes"),
        "interferometer.events_per_requested": (ratio(events, wl.items), "ratio"),
        "two_slit.pattern_decomposed.s": secs("two_slit.pattern_decomposed"),
        "two_slit.decompose_mean.calls": calls("two_slit.decompose_mean"),
        "two_slit.decompose_mean.s": secs("two_slit.decompose_mean"),
        "two_slit.momentum_projector.calls": calls("two_slit.momentum_projector"),
        "two_slit.momentum_projector.s": secs("two_slit.momentum_projector"),
        "two_slit.dft_basis.calls": calls("two_slit.dft_basis"),
        "two_slit.dft_basis.s": secs("two_slit.dft_basis"),
        "two_slit.stacked_screens.s": secs("two_slit.stacked_screens"),
        "two_slit.prepare_conditioned.calls": calls("two_slit.prepare_conditioned"),
        "two_slit.projector_bytes_computed": (
            counts.get("two_slit.projector_bytes_computed", 0), "bytes"),
        "ensemble.measure.calls": calls("ensemble.measure"),
        "ensemble.measure.s": secs("ensemble.measure"),
        "ensemble.measure.us_per_call": (ratio(total("ensemble.measure", 1), measures, 1e6), "us"),
        "ensemble.born_distribution.calls": calls("ensemble.born_distribution"),
        "ensemble.QuantumState.calls": calls("ensemble.QuantumState"),
        "ensemble.check_postulate5.s": secs("ensemble.check_postulate5"),
        "ensemble.monte_carlo_mean.calls": calls("ensemble.monte_carlo_mean"),
        "ensemble.monte_carlo_mean.s": secs("ensemble.monte_carlo_mean"),
        "ensemble.monte_carlo_mean.self_s": self_s("ensemble.monte_carlo_mean"),
        "ensemble.condition_on_event.s": secs("ensemble.condition_on_event"),
        "algebra.contains.calls": calls("algebra.contains"),
        "algebra.contains.s": secs("algebra.contains"),
        "algebra.evaluate.calls": calls("algebra.evaluate"),
        "algebra.evaluate.s": secs("algebra.evaluate"),
        "algebra.masa_from.calls": calls("algebra.masa_from"),
        "algebra.masa_from.s": secs("algebra.masa_from"),
        "algebra.Context.calls": calls("algebra.Context"),
        "algebra.Context.s": secs("algebra.Context"),
        "algebra.spectral_decompose.calls": calls("algebra.spectral_decompose"),
        "experiments.postulate_suite.self_s": self_s("experiments.postulate_suite"),
        "experiments.khinchin_experiment.self_s": self_s("experiments.khinchin_experiment"),
        "experiments.two_slit_experiment.self_s": self_s("experiments.two_slit_experiment"),
        "experiments.delayed_choice_experiment.self_s": self_s(
            "experiments.delayed_choice_experiment"),
        "serialize.write_json_atomic.s": secs("serialize.write_json_atomic"),
        "serialize.result_json.bytes": (counts.get("serialize.result_json.bytes", 0), "bytes"),
        "cli.run.self_s": self_s("cli.run"),
        "cli.resolve_config.s": secs("cli.resolve_config"),
        "trace.focus_share": (ratio(sum(total(p, 1) for p in wl.focus), root_s), "ratio"),
        "trace.spans": (int(sum(v[0] for v in spans.values())), "count"),
    }


# ---------------------------------------------------------------------------
# Invocation


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def note(kind: str, payload) -> None:
    print(f"# {kind} {json.dumps(payload, sort_keys=True)}", flush=True)


def replay_problems(run: Run, reference: dict) -> list:
    got = {k: v["sha256"] for k, v in run.outputs.items()}
    if got == reference:
        return []
    return [f"output digests {got} differ from the first run's {reference}"]


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop of CLI runs for `seconds`; returns the result object."""
    WORK.mkdir(exist_ok=True)
    deadline = Deadline(DEADLINE_S)
    note("env", environment(seed))
    note("workload", {"name": wl.name, "argv": ["aqm", *wl.argv, "--seed", str(seed)],
                      "items": wl.items, "item_unit": wl.item_unit})
    setup = [] if trace else time_setup(deadline)
    runs, traced_runs, layer_samples = [], [], []
    reference = None
    start, rounds = time.monotonic(), []
    # A round starts only while one of median length still fits, so a run
    # ends near `seconds` instead of up to one round after it.
    while not rounds or (time.monotonic() - start + statistics.median(rounds) <= seconds
                         and not deadline.passed()):
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            run = run_cli(wl, seed, deadline, traced=traced)
            if reference is None:
                reference = {k: v["sha256"] for k, v in run.outputs.items()}
            else:
                run.problems += replay_problems(run, reference)
            if traced and SPANS.is_file():
                spans, counts = load_spans(SPANS)
                counts["interferometer.write_events_csv.bytes"] = run.outputs.get(
                    "events.csv", {}).get("bytes", 0)
                counts["serialize.result_json.bytes"] = run.outputs.get(
                    "result.json", {}).get("bytes", 0)
                layer_samples.append(layer_metrics(spans, counts, wl))
            elif traced:
                run.problems.append("traced run wrote no spans")
            (traced_runs if traced else runs).append(run)
            note("run", {"traced": traced, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
                         "peak_rss_mb": run.peak_rss_mb, "exit_code": run.exit_code,
                         "problems": run.problems})
        rounds.append(time.monotonic() - round_start)
    note("digests", {"seed": seed, "outputs": runs[0].outputs})
    all_runs = runs + traced_runs
    failed = sum(bool(r.problems) for r in all_runs)
    if trace:
        metrics = {}
        for name, (_, unit) in (layer_samples[0].items() if layer_samples else ()):
            metrics[name] = {"value": statistics.median(s[name][0] for s in layer_samples),
                             "unit": unit}
        overhead = (statistics.median(r.wall_s for r in traced_runs)
                    / statistics.median(r.wall_s for r in runs) - 1.0)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        wall = statistics.median(r.wall_s for r in runs)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(r.cpu_s for r in runs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in runs), "unit": "MB"},
            "throughput": {"value": wl.items / wall, "unit": "items/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        for name, samples in (("wall_s", [r.wall_s for r in runs]), ("setup_s", setup)):
            q1, med, q3 = quartiles(samples)
            note("samples", {"metric": name, "n": len(samples), "q1": q1, "median": med, "q3": q3})
        note("throughput", {"value": wl.items / wall, "unit": f"{wl.item_unit}/s"})
    return {"correct": failed == 0, "attempted": len(all_runs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "aqm" / "cli.py").is_file():
        print(f"no aqm package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
