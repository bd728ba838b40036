"""Command-line entry point.

One subcommand per experiment.  A JSON config file may supply any
parameter; command-line flags win over the file.  Results are written as
a single result.json (full resolved config echoed back, no timestamps,
atomic write) plus CSV streams where the experiment produces them.
Every bad input is decided here, as a ConfigError, before --out is
created: the drivers assume a resolved config.  run is the one function
that creates directories: --out, removed again on exit 1.
Exit codes: 0 success; 1 bad input (a ConfigError, or a run too large for
memory or disk), with nothing written; 2 a broken run, either a failed
check or any other exception a driver raises, with result.json written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import sys
from collections.abc import Callable
from typing import NamedTuple

# Every BLAS call of a run is small (matrices of side `dim`, a vector dot
# product in two-slit, 2x2 products in delayed-choice), too small for a
# second thread to help: OpenBLAS's idle workers only spin.  At large `dim`
# the thread count also changes the last bits of QR and matrix products, so
# the bytes written would depend on the machine's core count.  This must run
# before numpy is first imported; a user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import aqm  # noqa: E402
from aqm import experiments, interferometer, two_slit  # noqa: E402
from aqm.serialize import write_json_atomic  # noqa: E402


class ConfigError(ValueError):
    """Malformed run configuration: exit 1, with nothing written."""


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data


def resolve_config(experiment: str, file_config: dict, flags: dict) -> dict:
    """Merge defaults, config file, and flags; reject unknown keys and bad values."""
    keys = _COMMANDS[experiment].keys
    unknown = set(file_config) - set(keys) - {"experiment"}
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    if file_config.get("experiment", experiment) != experiment:
        raise ConfigError(
            f"config file is for experiment {file_config['experiment']!r}, "
            f"but {experiment!r} was requested"
        )
    config = {key: spec.default for key, spec in keys.items()}
    config.update({k: v for k, v in file_config.items() if k != "experiment"})
    config.update({k: v for k, v in flags.items() if v is not None})
    config["experiment"] = experiment
    for key, spec in keys.items():
        if not spec.ok(config[key]):
            raise ConfigError(spec.message.format(key=key, value=config[key]))
    if experiment == "two-slit":
        try:
            _geometry(config)  # a bad slit set fails before --out is created
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if experiment == "delayed-choice":
        # a file's 1 and the flag's 1.0 must echo, and so write, the same bytes
        config["p"] = float(config["p"])
    return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Key(NamedTuple):
    """One config key: its default, the check of its value, and its flag."""

    default: object
    ok: Callable[[object], bool]
    message: str  # the config error when ok fails; formatted with key and value
    flag: str
    options: dict = {}  # add_argument options of the flag besides dest and default


# binomial and multinomial draws take their number of trials as an int64
_INT64_MAX = 2**63 - 1
# the largest sizes whose complex arrays, dim x dim and n_sites long, an
# int64 byte count still addresses: past them numpy fails other than by
# MemoryError
_DIM_MAX = math.isqrt(_INT64_MAX // 16)
_SITES_MAX = _INT64_MAX // 16


def _count(default: int, minimum: int, flag: str, maximum: int | None = None) -> _Key:
    """An integer key in [minimum, maximum]."""
    bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
    return _Key(default, lambda v: _is_int(v) and minimum <= v
                and (maximum is None or v <= maximum),
                f"{{key}} must be an integer {bounds}, got {{value!r}}", flag, {"type": int})


def _sites(default: list, flag: str, **options) -> _Key:
    """A list of lattice sites, given to the flag comma-separated."""
    return _Key(default, lambda v: isinstance(v, list) and all(map(_is_int, v)),
                "{key} must be a list of integer sites, got {value!r}", flag,
                {"type": _parse_sites, **options})


def _parse_sites(value: str) -> list:
    try:
        return [int(s) for s in value.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad site list {value!r}") from None


def _geometry(config: dict) -> two_slit.SlitGeometry:
    return two_slit.SlitGeometry(grid_size=config["n_sites"], slit_a=frozenset(config["slit_a"]),
                                 slit_b=frozenset(config["slit_b"]))


def _run_two_slit(config: dict, out_dir: str) -> dict:
    return experiments.two_slit_experiment(_geometry(config), config["n_events"], config["seed"],
                                           os.path.join(out_dir, "pattern.csv"))


def _run_delayed_choice(config: dict, out_dir: str) -> dict:
    events_path = os.path.join(out_dir, "events.csv") if config["write_events"] else None
    return experiments.delayed_choice_experiment(
        config["m4"], n_events=config["n_events"], seed=config["seed"], p=config["p"],
        events_path=events_path,
    )


class _Command(NamedTuple):
    help: str
    run: Callable[[dict, str], dict]  # (config, out_dir) -> result
    keys: dict  # config key -> _Key; these are the keys the subcommand accepts


def _run_driver(name: str):
    """Runner that passes every config key but out to experiments.<name>."""
    # looked up at each call, so that a driver replaced on the module is the one run
    return lambda config, out_dir: getattr(experiments, name)(
        **{k: v for k, v in config.items() if k not in ("out", "experiment")})


_COMMON = {
    "seed": _Key(0, lambda v: _is_int(v) and 0 <= v < 2**64,
                 "seed must be an integer in [0, 2**64), got {value!r}", "--seed", {"type": int}),
    "out": _Key("results", lambda v: isinstance(v, str) and v != "" and "\0" not in v,
                "out must be a non-empty path, got {value!r}", "--out",
                {"help": "output directory"}),
}

_COMMANDS = {
    "two-slit": _Command("two-slit scattering experiment", _run_two_slit, {
        **_COMMON,
        "n_events": _count(100_000, 1, "--n", _INT64_MAX),
        "n_sites": _count(64, 2, "--n-sites", _SITES_MAX),
        "slit_a": _sites([16], "--slit-a", help="comma-separated site indices"),
        "slit_b": _sites([48], "--slit-b"),
    }),
    "delayed-choice": _Command("delayed-choice interferometer", _run_delayed_choice, {
        **_COMMON,
        "n_events": _count(100_000, interferometer.MIN_EVENTS, "--n"),
        "m4": _Key("present", lambda v: isinstance(v, str) and v in interferometer.POLICIES,
                   "unknown m4 policy {value!r}", "--m4",
                   {"choices": list(interferometer.POLICIES)}),
        "p": _Key(0.5, lambda v: not isinstance(v, bool) and isinstance(v, (int, float))
                  and 0.0 <= v <= 1.0,
                  "p must be a number in [0, 1], got {value!r}", "--p",
                  {"type": float, "help": "insertion probability for delayed-random"}),
        "write_events": _Key(False, lambda v: isinstance(v, bool),
                             "write_events must be a boolean, got {value!r}", "--write-events",
                             {"action": "store_true"}),
    }),
    "postulates": _Command("postulate verification suite", _run_driver("postulate_suite"), {
        **_COMMON,
        "dim": _count(8, 2, "--dim", _DIM_MAX),
        "trials": _count(100, 1, "--trials"),
    }),
    "khinchin": _Command("Monte Carlo convergence-rate check",
                         _run_driver("khinchin_experiment"), {
        **_COMMON,
        "n_seeds": _count(50, 1, "--n-seeds"),
        "n_small": _count(10_000, 1, "--n-small", _INT64_MAX),
        "n_big": _count(1_000_000, 1, "--n-big", _INT64_MAX),
        "dim": _count(8, 2, "--dim", _DIM_MAX),
    }),
}


def _check_outputs(config: dict, existing: str) -> None:
    """Refuse, as a ConfigError, an output file that the run could not write.

    An output name in --out that is a directory is refused, and so is an
    events.csv larger than the free space of `existing`, the nearest
    directory of --out that exists.
    """
    names = ["result.json"]
    if config["experiment"] == "two-slit":
        names.append("pattern.csv")
    if config.get("write_events"):
        names.append("events.csv")
        size = interferometer.events_csv_bytes(config["n_events"], config["seed"])
        free = shutil.disk_usage(existing).free
        if size > free:
            raise ConfigError(f"not enough disk space for events.csv: it needs {size} bytes "
                              f"and {existing!r} has {free} free")
    for name in names:
        path = os.path.join(config["out"], name)
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {name}: {path!r} is a directory")


def run(config: dict) -> int:
    """Execute one experiment and write result.json; returns the exit code.

    An output it could not write is a ConfigError before --out is created.
    A ConfigError or MemoryError raised later is raised on, after removing
    the directories created for --out.  Any other exception is a broken
    run: its type and message are written as result.json's error, and the
    exit code is 2.
    """
    out_dir = config["out"]
    missing = []  # directories --out needs that do not exist yet, deepest first
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    _check_outputs(config, path)
    try:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out_dir!r}: {exc.strerror}"
            ) from exc
        result = _COMMANDS[config["experiment"]].run(config, out_dir)
    except BaseException as exc:
        if isinstance(exc, Exception) and not isinstance(exc, (ConfigError, MemoryError)):
            error = f"{type(exc).__name__}: {exc}"
            write_json_atomic(os.path.join(out_dir, "result.json"),
                              {"version": aqm.__version__, "config": config, "error": error})
            print(f"run failed: {error}", file=sys.stderr)
            return 2
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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, spec in command.keys.items():
            p.add_argument(spec.flag, dest=key, default=None, **spec.options)
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        experiment = args.pop("experiment")
        config_path = args.pop("config", None)
        file_config = _load_config_file(config_path) if config_path else {}
        config = resolve_config(experiment, file_config, args)
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # sizes too large for this machine; no result.json is written
        print(f"config error: not enough memory for this run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
