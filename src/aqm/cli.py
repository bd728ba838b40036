"""Command-line entry point.

One subcommand per experiment.  A JSON config file may supply any
parameter; command-line flags win over the file.  Results are written as
a single result.json (full resolved config echoed back, no timestamps,
atomic write) plus CSV streams where the experiment produces them.
Exit codes: 0 success, 1 config error (or a run too large for memory or
disk), 2 invariant or acceptance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import aqm
from aqm import experiments, two_slit
from aqm.errors import ConfigError, ModelViolationError
from aqm.serialize import atomic_open, write_json_atomic

# each subcommand's config keys, which are the keys it accepts, and their defaults
_DEFAULTS = {
    experiment: {"seed": 0, "out": "results", **keys}
    for experiment, keys in {
        "two-slit": {"n_events": 100_000, "preset": "symmetric64",
                     "n_sites": None, "slit_a": None, "slit_b": None},
        "delayed-choice": {"n_events": 100_000, "m4": "present", "p": 0.5, "write_events": False},
        "postulates": {"dim": 8, "trials": 100},
        "khinchin": {"n_seeds": 50, "n_small": 10_000, "n_big": 1_000_000, "dim": 8},
    }.items()
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def resolve_config(experiment: str, file_config: dict, flags: dict) -> dict:
    """Merge defaults, config file, and flags; reject unknown keys."""
    defaults = _DEFAULTS[experiment]
    unknown = set(file_config) - set(defaults) - {"experiment"}
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    if file_config.get("experiment", experiment) != experiment:
        raise ConfigError(
            f"config file is for experiment {file_config['experiment']!r}, "
            f"but {experiment!r} was requested"
        )
    config = dict(defaults)
    config.update({k: v for k, v in file_config.items() if k != "experiment"})
    config.update({k: v for k, v in flags.items() if v is not None})
    config["experiment"] = experiment
    _validate(experiment, config)
    if experiment == "two-slit" and config["n_sites"] is not None:
        del config["preset"]  # echo only the geometry that runs
    if experiment == "delayed-choice":
        # a file's 1 and the flag's 1.0 must echo, and so write, the same bytes
        config["p"] = float(config["p"])
    return config


# smallest accepted value of each integer key; a key the experiment lacks passes
_INT_MINIMUM = {"n_events": 1, "dim": 2, "trials": 1,
                "n_seeds": 1, "n_small": 1, "n_big": 1}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _validate(experiment: str, config: dict) -> None:
    """Check each value's type and range, as argparse checks the flags."""
    if not isinstance(config["out"], str) or not config["out"]:
        raise ConfigError(f"out must be a non-empty path, got {config['out']!r}")
    seed = config["seed"]
    if not _is_int(seed) or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    for key, minimum in _INT_MINIMUM.items():
        value = config.get(key, minimum)
        if not _is_int(value) or value < minimum:
            raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    if experiment == "two-slit":
        if config["preset"] != "symmetric64":
            raise ConfigError(f"unknown preset {config['preset']!r}")
        custom = [config["n_sites"], config["slit_a"], config["slit_b"]]
        if any(v is not None for v in custom) and not all(v is not None for v in custom):
            raise ConfigError("custom geometry needs n_sites, slit_a, and slit_b")
        if custom[0] is not None and (not _is_int(custom[0]) or custom[0] < 2):
            raise ConfigError(f"n_sites must be an integer >= 2, got {custom[0]!r}")
        for key in ("slit_a", "slit_b"):
            sites = config[key]
            if sites is not None and not (isinstance(sites, list) and all(map(_is_int, sites))):
                raise ConfigError(f"{key} must be a list of integer sites, got {sites!r}")
        _geometry(config)  # a bad slit set fails before --out is created
    if experiment == "delayed-choice":
        if not isinstance(config["m4"], str) or config["m4"] not in experiments.POLICIES:
            raise ConfigError(f"unknown m4 policy {config['m4']!r}")
        p = config["p"]
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise ConfigError(f"p must be a number in [0, 1], got {p!r}")
        if not isinstance(config["write_events"], bool):
            raise ConfigError(f"write_events must be a boolean, got {config['write_events']!r}")


def _geometry(config: dict) -> two_slit.SlitGeometry:
    if config["n_sites"] is not None:
        return two_slit.SlitGeometry(
            grid_size=config["n_sites"],
            slit_a=frozenset(config["slit_a"]),
            slit_b=frozenset(config["slit_b"]),
        )
    return experiments.symmetric64_geometry()


def _write_pattern_csv(path, probs, histogram) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "prob", "count"])
        for k, (p, c) in enumerate(zip(probs, histogram)):
            writer.writerow([k, repr(p), c])


def _run_two_slit(config: dict, out_dir: str) -> dict:
    geom = _geometry(config)
    result = experiments.two_slit_experiment(
        geom, n_events=config["n_events"], seed=config["seed"]
    )
    _write_pattern_csv(
        os.path.join(out_dir, "pattern.csv"), result["pattern"], result["histogram"]
    )
    return result


def _run_delayed_choice(config: dict, out_dir: str) -> dict:
    events_path = os.path.join(out_dir, "events.csv") if config["write_events"] else None
    return experiments.delayed_choice_experiment(
        config["m4"], n_events=config["n_events"], seed=config["seed"], p=config["p"],
        events_path=events_path,
    )


def _run_postulates(config: dict, out_dir: str) -> dict:
    return experiments.postulate_suite(
        dim=config["dim"], trials=config["trials"], seed=config["seed"]
    )


def _run_khinchin(config: dict, out_dir: str) -> dict:
    return experiments.khinchin_experiment(
        n_seeds=config["n_seeds"],
        n_small=config["n_small"],
        n_big=config["n_big"],
        dim=config["dim"],
        seed=config["seed"],
    )


_RUNNERS = {
    "two-slit": _run_two_slit,
    "delayed-choice": _run_delayed_choice,
    "postulates": _run_postulates,
    "khinchin": _run_khinchin,
}


def run(config: dict) -> int:
    """Execute one experiment and write result.json; returns the exit code.

    A run that raises removes the directories it created for --out.
    """
    out_dir = config["out"]
    missing = []  # directories --out needs that do not exist yet, deepest first
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out_dir!r}: {exc.strerror}"
            ) from exc
        result = _RUNNERS[config["experiment"]](config, out_dir)
    except ModelViolationError as exc:
        write_json_atomic(
            os.path.join(out_dir, "result.json"),
            {"version": aqm.__version__, "config": config, "error": str(exc)},
        )
        print(f"model violation: {exc}", file=sys.stderr)
        return 2
    except BaseException:
        for path in missing:
            with contextlib.suppress(OSError):  # one that is not empty stays
                os.rmdir(path)
        raise
    payload = {"version": aqm.__version__, "config": config, "result": result}
    write_json_atomic(os.path.join(out_dir, "result.json"), payload)
    return 0 if result.get("passed", True) else 2


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are config errors (exit 1), not exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aqm", description="Contextual quantum mechanics experiment runner"
    )
    sub = parser.add_subparsers(dest="experiment", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("two-slit", help="two-slit scattering experiment")
    common(p)
    p.add_argument("--n", type=int, default=None, dest="n_events")
    p.add_argument("--preset", default=None, choices=["symmetric64"])
    p.add_argument("--n-sites", type=int, default=None, dest="n_sites")
    p.add_argument("--slit-a", default=None, dest="slit_a",
                   help="comma-separated site indices")
    p.add_argument("--slit-b", default=None, dest="slit_b")

    p = sub.add_parser("delayed-choice", help="delayed-choice interferometer")
    common(p)
    p.add_argument("--n", type=int, default=None, dest="n_events")
    p.add_argument("--m4", default=None, choices=list(experiments.POLICIES))
    p.add_argument("--p", type=float, default=None,
                   help="insertion probability for delayed-random")
    p.add_argument("--write-events", action="store_true", default=None,
                   dest="write_events")

    p = sub.add_parser("postulates", help="postulate verification suite")
    common(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("khinchin", help="Monte Carlo convergence-rate check")
    common(p)
    p.add_argument("--n-seeds", type=int, default=None, dest="n_seeds")
    p.add_argument("--n-small", type=int, default=None, dest="n_small")
    p.add_argument("--n-big", type=int, default=None, dest="n_big")
    p.add_argument("--dim", type=int, default=None)

    return parser


def _parse_sites(value):
    if value is None or not isinstance(value, str):
        return value
    try:
        return [int(s) for s in value.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad site list {value!r}") from exc


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        experiment = args.pop("experiment")
        config_path = args.pop("config", None)
        for key in ("slit_a", "slit_b"):
            if key in args:
                args[key] = _parse_sites(args[key])
        file_config = _load_config_file(config_path) if config_path else {}
        config = resolve_config(experiment, file_config, args)
        return run(config)
    except (ValueError, KeyError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # sizes too large for this machine; no result.json is written
        print(f"config error: not enough memory for this run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
