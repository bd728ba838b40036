"""Record a baseline: run-to-run spread over seeds, plus one traced run.

    python3 perfbench/baseline.py --workloads photons lattice --seeds 1 2 3 4 5 \
        --trace-seed 1 --out perfbench/baseline.json

runs `perfbench/run.py --trace 0` once per workload and seed, one after
another, and prints for every end-to-end metric the median of the per-run
values, their quartiles, and the quartile distance as a share of the
median next to the metric's bound in BENCHMARK.json.  With --trace-seed it
then runs `--trace 1` once per workload and checks that the traced outputs
have the digests of the untraced run of that seed.  With --out, the runs,
their environment, samples, output digests and per-layer metrics are
written to a JSON file.  Exits 1 if any run failed, a digest differs, or
a spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    notes = {"runs": []}
    for line in lines[:-1]:
        kind, _, payload = line[2:].partition(" ")
        if kind in ("env", "digests"):
            notes[kind] = json.loads(payload)
        elif kind == "run":
            notes["runs"].append(json.loads(payload))
    return {"seed": seed, **json.loads(lines[-1]), **notes}


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def digests(run: dict) -> dict:
    return {name: out["sha256"] for name, out in run["digests"]["outputs"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, help="seed of one traced run per workload")
    parser.add_argument("--out", help="write the record to this JSON file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            run = run_once(workload, seed, bench["run_seconds"], trace=False)
            record["env"] = {k: v for k, v in run.pop("env").items() if k != "seed"}
            runs.append(run)
            ok &= run["correct"]
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']}", flush=True)
        spreads = {}
        for name, bound in bounds.items():
            s = spreads[name] = spread([r["metrics"][name]["value"] for r in runs])
            steady = name == "setup_s" or s["iqr_share"] < bound / 3
            ok &= steady
            print(f"  {name:12s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"iqr/median {s['iqr_share']:.4f}  bound/3 {bound / 3:.4f}"
                  f"{'' if steady else '  WIDE'}", flush=True)
        entry = record["workloads"][workload] = {"spreads": spreads, "runs": runs}
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, bench["run_seconds"], trace=True)
            untraced = [r for r in runs if r["seed"] == args.trace_seed]
            same = not untraced or digests(untraced[0]) == digests(traced)
            ok &= traced["correct"] and same
            print(f"  traced seed {args.trace_seed}: correct={traced['correct']} "
                  f"digests match untraced: {same}", flush=True)
            for name, m in traced["metrics"].items():
                print(f"    {name} = {m['value']:.6g} {m['unit']}")
            traced.pop("env")
            entry["traced"] = traced
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
