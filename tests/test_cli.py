import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqm
from aqm import algebra, cli, ensemble, experiments, interferometer, rng, serialize, two_slit
from aqm.cli import main, resolve_config
from aqm.errors import ConfigError


def run_cli(*argv):
    return main(list(argv))


def _readme_commands() -> list:
    """The `aqm ...` lines of the README's CLI code block, as argument lists."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("aqm ")]


def test_the_readme_documents_every_subcommand():
    assert sorted({argv[0] for argv in _readme_commands()}) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_every_readme_command_resolves(monkeypatch, argv):
    # a flag renamed or removed without the README following fails here; nothing runs
    monkeypatch.setattr(cli, "run", lambda config: 0)
    assert main(argv) == 0


def _readme_key_rows() -> list:
    """(key, flag, default, subcommands) of each row of the README's config-key table."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    cells = [[c.strip().strip("`") for c in line.strip().strip("|").split("|")]
             for line in section.splitlines() if line.startswith("| `")]
    return [row[:4] for row in cells]


def test_the_readme_key_table_is_the_cli_table():
    readme = {}
    for key, flag, default, names in _readme_key_rows():
        for name in cli._COMMANDS if names == "all" else names.split(", "):
            assert (name, key) not in readme
            readme[name, key] = (flag, json.loads(default))
    assert readme == {(name, key): (spec.flag, spec.default)
                      for name, command in cli._COMMANDS.items()
                      for key, spec in command.keys.items()}


_EVERY_KEY = [(name, key) for name, command in cli._COMMANDS.items() for key in command.keys]


@pytest.mark.parametrize("experiment, key", _EVERY_KEY, ids="-".join)
def test_help_lists_the_flag_of_every_key(capsys, experiment, key):
    with pytest.raises(SystemExit) as exc:
        run_cli(experiment, "--help")
    assert exc.value.code == 0
    flags = re.findall(r"--[\w-]+", capsys.readouterr().out)
    assert cli._COMMANDS[experiment].keys[key].flag in flags


@pytest.mark.parametrize("experiment, key", _EVERY_KEY, ids="-".join)
def test_a_wrong_typed_value_of_every_key_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                           experiment, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: "x" if key == "write_events" else True}))
    assert run_cli(experiment, "--config", "cfg.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and re.search(rf"\b{key}\b", err)
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # no --out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# values near the accepted ones, so that some configs resolve
_NEAR_VALID = (st.integers(-2, 70) | st.floats(-0.5, 1.5)
               | st.lists(st.integers(-1, 70), max_size=3)
               | st.sampled_from(["present", "delayed-random", "run", ""]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("experiment", cli._COMMANDS)
def test_any_config_file_resolves_or_is_a_config_error(tmp_path_factory, experiment, data):
    # each key is absent, its default, near an accepted value, or any JSON value
    keys = cli._COMMANDS[experiment].keys
    file_config = data.draw(st.fixed_dictionaries({}, optional={
        **{key: st.just(spec.default) | _NEAR_VALID | _JSON for key, spec in keys.items()},
        "experiment": st.just(experiment) | _JSON,
    }))
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(file_config))
    err = io.StringIO()
    with mock.patch.object(cli, "run", lambda config: 0), contextlib.redirect_stderr(err):
        code = main([experiment, "--config", str(path)])
    assert code in (0, 1)
    assert err.getvalue().startswith("config error: ") if code else err.getvalue() == ""


# values at or just past the bounds of each key, with sizes at which every
# driver runs in milliseconds: no larger size is drawn, so no run takes long
_SMALL_RUNS = {
    "two-slit": {"n_events": st.integers(0, 3000), "n_sites": st.integers(1, 64),
                 "slit_a": st.lists(st.integers(-1, 64), max_size=2),
                 "slit_b": st.lists(st.integers(-1, 64), max_size=2)},
    "delayed-choice": {"n_events": st.integers(990, 3000),
                       "m4": st.sampled_from([*interferometer.POLICIES, "bogus"]),
                       "p": st.floats(-0.1, 1.1), "write_events": st.booleans()},
    "postulates": {"dim": st.integers(1, 5), "trials": st.integers(0, 4)},
    "khinchin": {"n_seeds": st.integers(0, 3), "n_small": st.integers(0, 300),
                 "n_big": st.integers(0, 3000), "dim": st.integers(1, 5)},
}


@settings(max_examples=50, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("experiment", cli._COMMANDS)
def test_any_small_run_exits_0_1_or_2_and_writes_result_json_unless_1(tmp_path_factory,
                                                                       experiment, data):
    # the drivers run unstubbed: a run ends in a result, a config error or an error result
    file_config = data.draw(st.fixed_dictionaries({}, optional={
        **_SMALL_RUNS[experiment], "seed": st.integers(-1, 2**64)}))
    work = tmp_path_factory.mktemp("run")
    (work / "cfg.json").write_text(json.dumps(file_config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([experiment, "--config", str(work / "cfg.json"), "--out", str(work / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (work / "out" / "result.json").exists() == (code != 1)
    if code == 1:
        assert err.getvalue().startswith("config error: ")
        assert not (work / "out").exists()


_DRIVERS = {"two-slit": "two_slit_experiment", "delayed-choice": "delayed_choice_experiment",
            "postulates": "postulate_suite", "khinchin": "khinchin_experiment"}


@pytest.mark.parametrize("fault", [ValueError, KeyError, RuntimeError, ZeroDivisionError],
                         ids=lambda fault: fault.__name__)
@pytest.mark.parametrize("experiment", _DRIVERS)
def test_a_fault_in_any_driver_exits_2_with_an_error_result(tmp_path, monkeypatch, capsys,
                                                            experiment, fault):
    def broken(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(experiments, _DRIVERS[experiment], broken)
    out = tmp_path / "run"
    assert run_cli(experiment, "--out", str(out)) == 2
    error = f"{fault.__name__}: {fault('injected')}"
    assert capsys.readouterr().err == f"run failed: {error}\n"
    payload = json.loads((out / "result.json").read_text())
    assert payload == {"version": aqm.__version__,
                       "config": resolve_config(experiment, {}, {"out": str(out)}),
                       "error": error}
    assert [p.name for p in out.iterdir()] == ["result.json"]


class TestConfigResolution:
    def test_defaults_fill_in(self):
        cfg = resolve_config("delayed-choice", {}, {})
        assert cfg["seed"] == 0 and cfg["m4"] == "present"

    def test_flags_override_file(self):
        cfg = resolve_config("delayed-choice", {"seed": 1, "m4": "absent"}, {"seed": 9})
        assert cfg["seed"] == 9 and cfg["m4"] == "absent"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("two-slit", {"mystery": 1}, {})

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("two-slit", {"experiment": "khinchin"}, {})

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config("delayed-choice", {"m4": "maybe"}, {})

    def test_partial_geometry_rejected(self):
        with pytest.raises(ConfigError, match="slit site index out of range"):
            resolve_config("two-slit", {"n_sites": 8}, {})  # default slit 16 is off the lattice

    def test_each_geometry_key_left_out_takes_its_default(self):
        geometry = ("n_sites", "slit_a", "slit_b")
        cfg = resolve_config("two-slit", {}, {})
        assert [cfg[key] for key in geometry] == [64, [16], [48]]
        cfg = resolve_config("two-slit", {"slit_a": [20]}, {})
        assert [cfg[key] for key in geometry] == [64, [20], [48]]

    def test_config_file_and_flag_write_the_same_bytes(self, tmp_path, monkeypatch):
        # an integer p in the file echoes as the float the flag parses to
        args = ("delayed-choice", "--m4", "delayed-random", "--n", "2000", "--out", "run")
        (tmp_path / "cfg.json").write_text(json.dumps({"p": 1}))
        written = []
        for name, extra in (("file", ("--config", "../cfg.json")), ("flag", ("--p", "1"))):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run_cli(*args, *extra) == 0
            written.append((tmp_path / name / "run" / "result.json").read_bytes())
        assert written[0] == written[1]
        assert b'"p": 1.0' in written[0]


@pytest.mark.parametrize("argv", [
    ("two-slit", "--n", "2000", "--seed", "3"),
    ("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20,21", "--n", "2000"),
    ("delayed-choice", "--m4", "delayed-random", "--n", "2000", "--write-events"),
    ("postulates", "--dim", "4", "--trials", "10", "--seed", "3"),
    ("khinchin", "--n-seeds", "4", "--n-small", "1000", "--n-big", "10000", "--seed", "2"),
], ids=["two-slit-default", "two-slit-custom", "delayed-choice", "postulates", "khinchin"])
def test_the_echoed_config_replays_every_file(tmp_path, monkeypatch, argv):
    # result.json's config, fed back through --config into the same --out
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--out", "run") == 0
    first = {f.name: f.read_bytes() for f in (tmp_path / "run").iterdir()}
    (tmp_path / "cfg.json").write_text(json.dumps(json.loads(first["result.json"])["config"]))
    assert run_cli(argv[0], "--config", "cfg.json") == 0
    assert {f.name: f.read_bytes() for f in (tmp_path / "run").iterdir()} == first


class TestDelayedChoiceCommand:
    def test_present_run(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "delayed-choice", "--m4", "present", "--n", "20000", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        sub = result["result"]["sub_ensembles"][0]
        assert sub["freq_DB"] == 1.0
        assert result["result"]["passed"]
        assert result["config"]["seed"] == 7

    def test_events_csv_written(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "delayed-choice", "--m4", "delayed-alternating", "--n", "2000",
            "--seed", "1", "--out", str(out), "--write-events",
        )
        assert code == 0
        lines = (out / "events.csv").read_text().strip().splitlines()
        assert lines[0] == "event,seed,kernel_path,m4,detector"
        assert len(lines) == 2001

    def test_too_few_events_is_exit_1(self, tmp_path, capsys):
        code = run_cli("delayed-choice", "--n", "500", "--out", str(tmp_path / "run"))
        assert code == 1
        assert "n_events must be an integer >= 1000, got 500" in capsys.readouterr().err


def _no_draw(*args, **kwargs):
    raise AssertionError("events were drawn")


class TestEventsFile:
    def test_too_few_events_fail_before_any_draw(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(interferometer, "run_events", _no_draw)
        out = tmp_path / "run"
        assert run_cli("delayed-choice", "--n", "999", "--write-events", "--out", str(out)) == 1
        assert "n_events must be an integer >= 1000, got 999" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failed_run_keeps_an_existing_out_and_removes_what_it_created(self, tmp_path,
                                                                            monkeypatch):
        reached = []

        def exhausted(*args, events_path, **kwargs):  # as numpy fails to allocate
            reached.append(os.path.isdir(os.path.dirname(events_path)))  # --out was created
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(experiments, "delayed_choice_experiment", exhausted)
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert run_cli("delayed-choice", "--write-events", "--out", str(out)) == 1
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept"
        assert run_cli("delayed-choice", "--write-events",
                       "--out", str(tmp_path / "new" / "run")) == 1
        assert list(tmp_path.iterdir()) == [out]
        assert reached == [True, True]

    def test_a_run_that_fails_midway_leaves_no_events_file(self, tmp_path, monkeypatch):
        run_events, starts = interferometer.run_events, []

        def fails_on_chunk_2(m4, seed, start=0):
            starts.append(start)
            if len(starts) == 2:
                raise RuntimeError("killed midway")
            return run_events(m4, seed, start)

        monkeypatch.setattr(interferometer, "run_events", fails_on_chunk_2)
        out = tmp_path / "run"
        assert run_cli("delayed-choice", "--m4", "delayed-random", "--n", "140001",
                       "--write-events", "--out", str(out)) == 2
        assert starts == [0, 1 << 16]  # the first chunk was written to the temporary file
        assert [p.name for p in out.iterdir()] == ["result.json"]
        assert json.loads((out / "result.json").read_text())["error"] == (
            "RuntimeError: killed midway")

    @pytest.mark.parametrize("n, seed", [(1000, 0), (2000, 7), (100_003, 123_456_789)])
    def test_the_disk_check_knows_the_exact_size(self, tmp_path, monkeypatch, capsys, n, seed):
        size = interferometer.events_csv_bytes(n, seed)
        usage = shutil.disk_usage(tmp_path)
        argv = ("delayed-choice", "--n", str(n), "--seed", str(seed), "--write-events")

        monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=size - 1))
        with monkeypatch.context() as mp:
            mp.setattr(interferometer, "run_events", _no_draw)
            assert run_cli(*argv, "--out", str(tmp_path / "short")) == 1
        assert capsys.readouterr().err.startswith(
            "config error: not enough disk space for events.csv"
        )
        assert not (tmp_path / "short").exists()  # no result.json either

        monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=size))
        assert run_cli(*argv, "--out", str(tmp_path / "enough")) == 0
        assert (tmp_path / "enough" / "events.csv").stat().st_size == size


class TestTwoSlitCommand:
    def test_replay_is_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "two-slit", "--n", "20000", "--seed", "7", "--out", str(out),
        ]
        assert run_cli(*args) == 0
        first = (out / "result.json").read_bytes()
        assert run_cli(*args) == 0
        assert (out / "result.json").read_bytes() == first

    def test_pattern_csv_schema(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "two-slit", "--n-sites", "8", "--slit-a", "1", "--slit-b", "5",
            "--n", "5000", "--seed", "3", "--out", str(out),
        )
        lines = (out / "pattern.csv").read_text().strip().splitlines()
        assert lines[0] == "k,prob,count,direct_a,direct_b,interference"
        assert len(lines) == 9
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 5000

    def test_a_failed_pattern_write_leaves_no_file(self, tmp_path, monkeypatch):
        # 2**17 modes are two blocks of rows: the header and the first block
        # are written, and the write of the second block fails
        real_open = experiments.atomic_open
        writes = []

        class FailsOnTheSecondBlock:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                writes.append(text)
                if len(writes) == 3:
                    raise OSError("disk full")
                return self.fh.write(text)

        @contextlib.contextmanager
        def failing_open(*args, **kwargs):
            with real_open(*args, **kwargs) as fh:
                yield FailsOnTheSecondBlock(fh)

        monkeypatch.setattr(experiments, "atomic_open", failing_open)
        out = tmp_path / "run"
        assert run_cli("two-slit", "--n-sites", str(2**17), "--slit-a", "1000",
                       "--slit-b", "1010", "--n", "2000", "--seed", "3", "--out", str(out)) == 2
        assert len(writes) == 3 and writes[1].count("\r\n") == 2**16
        assert [p.name for p in out.iterdir()] == ["result.json"]
        assert json.loads((out / "result.json").read_text())["error"] == "OSError: disk full"

    def test_decomposition_fields_present(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "two-slit", "--n-sites", "8", "--slit-a", "1", "--slit-b", "5",
            "--n", "2000", "--seed", "3", "--out", str(out),
        )
        with open(out / "pattern.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert {"direct_a", "direct_b", "interference"} <= set(header)
        result = json.loads((out / "result.json").read_text())["result"]
        assert not {"decomposition", "pattern", "histogram"} & set(result)

    @pytest.mark.parametrize("n_sites", [64, 65_536])
    def test_result_json_does_not_grow_with_the_lattice(self, tmp_path, n_sites):
        out = tmp_path / "run"
        assert run_cli("two-slit", "--n-sites", str(n_sites), "--slit-a", "20",
                       "--slit-b", "30", "--n", "10000", "--seed", "1", "--out", str(out)) == 0
        assert (out / "result.json").stat().st_size < 2048
        assert len((out / "pattern.csv").read_bytes().splitlines()) == n_sites + 1

    def test_pattern_csv_holds_each_per_mode_number_of_the_run(self, tmp_path):
        # one row per mode, over more than one block of rows
        n_sites, n, seed = 2**16 + 7, 100_000, 5
        geom = two_slit.SlitGeometry(n_sites, frozenset({1000}), frozenset({1010}))
        out = tmp_path / "run"
        assert run_cli("two-slit", "--n-sites", str(n_sites), "--slit-a", "1000",
                       "--slit-b", "1010", "--n", str(n), "--seed", str(seed),
                       "--out", str(out)) == 0
        with open(out / "pattern.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "prob", "count", "direct_a", "direct_b", "interference"]
        k, prob, count, direct_a, direct_b, cross = zip(*rows[1:])
        split = two_slit.screen_split(
            two_slit.prepare_conditioned(two_slit.uniform_source(n_sites), geom), geom)
        histogram, _ = two_slit.sample_screens(split, n, seed)
        assert list(map(int, k)) == list(range(n_sites))
        assert list(map(int, count)) == histogram.tolist()
        assert sum(map(int, count)) == n
        for column, values in zip((direct_a, direct_b, cross, prob), split.modes):
            assert list(map(float, column)) == values.tolist()

    def test_a_sampler_without_interference_fails(self, tmp_path, monkeypatch):
        # both conditionals flat: the histogram loses the fringes, though the
        # exact pattern and its closure are untouched; only the TV check sees it
        real = two_slit.screen_split

        def flat(psi_ab, geom):
            split = real(psi_ab, geom)
            n = geom.grid_size
            return dataclasses.replace(split, conds=(np.full(n, 1.0 / n),) * 2)

        monkeypatch.setattr(two_slit, "screen_split", flat)
        out = tmp_path / "run"
        args = ("two-slit", "--n-sites", "256", "--slit-a", "120,121", "--slit-b", "134,135",
                "--n", "1000000", "--seed", "1", "--out", str(out))
        assert run_cli(*args) == 2
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["max_closure_residual"] <= two_slit.CLOSURE_TOL
        assert result["tv_distance"] > 10 * result["tv_bound"]
        assert result["sampler_law_residual"] > result["sampler_law_bound"]
        assert not result["passed"]

    def test_a_histogram_off_the_pattern_fails_on_its_tv_distance_alone(self, tmp_path,
                                                                       monkeypatch):
        # the split, and so the sampler's exact law, is true, but the drawn
        # histogram is flat: only the TV check sees it
        def flat(split, n_events, seed):
            n = len(split.modes[0])
            tally = (n_events // 2, n_events - n_events // 2)
            return np.bincount(np.arange(n_events) % n, minlength=n), tally

        monkeypatch.setattr(two_slit, "sample_screens", flat)
        out = tmp_path / "run"
        args = ("two-slit", "--n-sites", "256", "--slit-a", "120,121", "--slit-b", "134,135",
                "--n", "1000000", "--seed", "1", "--out", str(out))
        assert run_cli(*args) == 2
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["max_closure_residual"] <= two_slit.CLOSURE_TOL
        assert result["sampler_law_residual"] <= result["sampler_law_bound"]
        assert result["tv_distance"] > 10 * result["tv_bound"]
        assert not result["passed"]

    @pytest.mark.parametrize("conds", [
        lambda direct_a, direct_b: (np.full(len(direct_a), 1.0 / len(direct_a)),) * 2,
        lambda direct_a, direct_b: (direct_a / direct_a.sum(), direct_b / direct_b.sum()),
    ], ids=["flat", "no-cross-term"])
    def test_a_sampler_without_interference_fails_the_exact_law_check(self, tmp_path,
                                                                     monkeypatch, conds):
        # at N = 4096 and n = 1e4 the TV bound is 1.28, above any TV distance;
        # the exact law of the sampler still misses the pattern
        real = two_slit.screen_split

        def broken(psi_ab, geom):
            split = real(psi_ab, geom)
            return dataclasses.replace(split, conds=conds(*split.modes[:2]))

        monkeypatch.setattr(two_slit, "screen_split", broken)
        out = tmp_path / "run"
        args = ("two-slit", "--n-sites", "4096", "--slit-a", "2000,2001", "--slit-b",
                "2014,2015", "--n", "10000", "--seed", "1", "--out", str(out))
        assert run_cli(*args) == 2
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["tv_bound"] > 1.0 >= result["tv_distance"]
        assert result["max_closure_residual"] <= two_slit.CLOSURE_TOL
        assert result["sampler_law_residual"] > 0.5 > result["sampler_law_bound"]
        assert not result["passed"]

    def test_the_true_sampler_meets_its_exact_law(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("two-slit", "--n-sites", "4096", "--slit-a", "2000,2001", "--slit-b",
                       "2014,2015", "--n", "10000", "--seed", "1", "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["split_clamp"]["a"] == result["split_clamp"]["b"] == 0.0
        assert result["sampler_law_bound"] == two_slit.LAW_FLOOR
        assert result["sampler_law_residual"] <= 1e-15

    def test_uneven_slits_run_and_pass(self, tmp_path):
        # half of each mode's cross term would leave a negative mass here
        out = tmp_path / "run"
        assert run_cli("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20",
                       "--n", "1000", "--seed", "1", "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["passed"]
        assert result["sampler_law_residual"] <= result["sampler_law_bound"]
        assert len((out / "pattern.csv").read_bytes().splitlines()) == 33

    def test_the_half_split_exits_2_through_the_clamp_budget_alone(self, tmp_path, monkeypatch):
        # the law gate's bound grows with the clamped mass, so only the
        # budget sees a split that clamps far more than rounding
        monkeypatch.setattr(two_slit, "cross_shares",
                            lambda direct_a, direct_b, cross: np.full(len(cross), 0.5))
        out = tmp_path / "run"
        assert run_cli("two-slit", "--n-sites", "256", "--slit-a", "100",
                       "--slit-b", ",".join(map(str, range(140, 150))),
                       "--n", "10000", "--seed", "1", "--out", str(out)) == 2
        result = json.loads((out / "result.json").read_text())["result"]
        clamp = result["split_clamp"]
        assert max(clamp["a"], clamp["b"]) > 100 * clamp["budget"]
        assert result["tv_distance"] <= result["tv_bound"]
        assert result["max_closure_residual"] <= two_slit.CLOSURE_TOL
        assert result["sampler_law_residual"] <= result["sampler_law_bound"]
        assert not result["passed"]
        assert (out / "pattern.csv").exists()


def test_cli_import_does_not_load_numpy_fft():
    # numpy.fft is loaded on first use, so it adds nothing to start-up time
    code = "import sys, aqm.cli; sys.exit('numpy.fft' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqm.__file__)))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _import_cli_in_child(openblas_threads=None) -> list:
    """What a fresh interpreter holds after `import aqm.cli`.

    [OPENBLAS_NUM_THREADS as it reads it, its Python threads, its OS
    threads (None without /proc/self/task), whether an executor module is
    loaded, and the name of numpy's BLAS].  The child gets
    OPENBLAS_NUM_THREADS only when `openblas_threads` is given.
    """
    code = ("import json, os, sys, threading, aqm.cli, numpy\n"
            "task = '/proc/self/task'\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threading.active_count(),\n"
            "                  len(os.listdir(task)) if os.path.isdir(task) else None,\n"
            "                  'concurrent.futures' in sys.modules,\n"
            "                  numpy.__config__.CONFIG['Build Dependencies']['blas']['name']]))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqm.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    return json.loads(child.stdout)


def test_cli_import_starts_no_thread_pool():
    # importing the CLI starts no thread, neither a Python one nor a native
    # BLAS worker, and loads no executor module
    blas_threads, python_threads, os_threads, executor, _ = _import_cli_in_child()
    assert (blas_threads, python_threads, executor) == ("1", 1, False)
    if os_threads is not None:
        assert os_threads == 1


def test_cli_import_keeps_the_users_blas_thread_count():
    blas_threads, _, os_threads, _, blas = _import_cli_in_child("2")
    assert blas_threads == "2"
    if os_threads is not None and "openblas" in blas and len(os.sched_getaffinity(0)) >= 2:
        assert os_threads == 2  # the main thread and one OpenBLAS worker


def _public_code(module):
    """name -> code object of each public function and method defined in `module`.

    A public class other than an exception also gives its own __init__,
    the generated one of a dataclass included, so that a class no command
    constructs is found.
    """
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).items() if isinstance(obj, type) else [("", obj)]
        for attr, member in members:
            member = getattr(member, "fget", member)  # a property runs its getter,
            member = getattr(member, "__func__", member)  # a classmethod its function,
            member = inspect.unwrap(member)  # and a decorated function the one it wraps
            constructor = attr == "__init__" and not issubclass(obj, BaseException)
            if (constructor or not attr.startswith("_")) and inspect.isfunction(member):
                found[f"{name}.{attr}".rstrip(".")] = member.__code__
    return found


def _not_run(modules, ran) -> list:
    """Names of the modules' _public_code whose code object is not in `ran`."""
    code = {f"{m.__name__.removeprefix('aqm.')}.{name}": c
            for m in modules for name, c in _public_code(m).items()}
    return [name for name, c in code.items() if c not in ran]


def test_a_class_that_nothing_constructs_is_reported():
    planted = types.ModuleType("aqm.planted")
    exec("from dataclasses import dataclass\n"
         "@dataclass(frozen=True)\nclass Unused:\n    x: int\n"
         "class Failure(ValueError):\n    def __init__(self):\n        pass\n", vars(planted))
    assert _not_run([planted], ran=set()) == ["planted.Unused.__init__"]


def test_every_public_function_of_the_run_path_modules_runs(tmp_path):
    # the package holds what the CLI runs; reference code lives in tests/reference.py
    runs = [("delayed-choice", "--m4", m4, "--n", "1000", "--write-events")
            for m4 in interferometer.POLICIES]
    runs += [("two-slit", "--n", "1000"),
             ("two-slit", "--n-sites", "8", "--slit-a", "1", "--slit-b", "5", "--n", "1000"),
             ("postulates", "--dim", "3", "--trials", "2"),
             ("khinchin", "--n-seeds", "4", "--n-small", "1000", "--n-big", "10000", "--seed", "2")]
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for i, argv in enumerate(runs):
            assert run_cli(*argv, "--out", str(tmp_path / str(i))) == 0
    finally:
        sys.setprofile(None)
    modules = (rng, algebra, ensemble, two_slit, interferometer, experiments, serialize, cli)
    assert _not_run(modules, ran) == []


class TestPostulatesCommand:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "postulates", "--dim", "4", "--trials", "10", "--seed", "7",
            "--out", str(out),
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["result"]["passed"]
        assert "n_events" not in result["config"]

    def test_replay_is_byte_identical(self, tmp_path):
        args = ["postulates", "--dim", "4", "--trials", "10", "--seed", "3",
                "--out", str(tmp_path / "run")]
        assert run_cli(*args) == 0
        first = (tmp_path / "run" / "result.json").read_bytes()
        assert run_cli(*args) == 0
        assert (tmp_path / "run" / "result.json").read_bytes() == first

    def test_reproducibility_fails_without_the_lueders_update(self, tmp_path, monkeypatch):
        # each re-measurement then draws from the Born law of the state before the first
        instance, states = experiments._instance, []

        def kept(dim, rng, shape=()):
            a, q, qp, psi = instance(dim, rng, shape)
            states.append(psi)
            return a, q, qp, psi

        def from_psi(q, qp):
            # every row: the Born law on qp of the block's states
            law = ensemble.born_distribution(states[-1], qp)[..., None, :]
            return np.repeat(law, q.n_branches, axis=-2)

        monkeypatch.setattr(experiments, "_instance", kept)
        monkeypatch.setattr(experiments, "lueders_law", from_psi)
        out = tmp_path / "run"
        args = ("postulates", "--dim", "3", "--trials", "2", "--seed", "1", "--out", str(out))
        assert run_cli(*args) == 2
        reproducibility = json.loads((out / "result.json").read_text())["result"]["reproducibility"]
        assert reproducibility["agreement_probability"] < 1.0
        assert not reproducibility["passed"]

    def test_remeasures_each_copy_by_the_row_of_its_drawn_branch(self, monkeypatch):
        # each block's first measurement draws b1, and its re-measurement draws
        # each copy from row b1 of the block's lueders_law: no post-state is built
        measures, laws, rows, states = [], [], [], []
        measure, law, draw = experiments.measure_many, experiments.lueders_law, experiments.inverse_cdf
        state = experiments.QuantumState

        def measured(psi, q, u):
            measures.append(measure(psi, q, u))
            return measures[-1]

        def lawed(q, qp):
            laws.append(law(q, qp))
            return laws[-1]

        def drawn(probs, u):
            rows.append(probs)
            return draw(probs, u)

        def built(rho):
            states.append(rho)
            return state(rho)

        monkeypatch.setattr(experiments, "measure_many", measured)
        monkeypatch.setattr(experiments, "lueders_law", lawed)
        monkeypatch.setattr(experiments, "inverse_cdf", drawn)
        monkeypatch.setattr(experiments, "QuantumState", built)
        monkeypatch.setattr(experiments, "_REPRODUCIBILITY_TRIALS", 100)  # two copies per instance
        assert experiments.postulate_suite(dim=4, trials=2, seed=5)["passed"]
        assert len(measures) == len(laws) == len(rows) > 1  # one block per instance dim
        assert sum(len(b) for b in measures) == 50
        for b1, full, drawn_rows in zip(measures, laws, rows):
            assert np.array_equal(drawn_rows, full[np.arange(len(b1))[:, None], b1])
        # one stacked state per block: Postulate 5's, Postulate 6's, and each re-measured one
        assert len(states) == 2 + len(measures)

    def test_the_suite_fails_on_ks_failures_alone(self, tmp_path, monkeypatch):
        # every smoke test fails while the exact distributions still agree,
        # so only the KS-failure gate can fail Postulate 5
        monkeypatch.setattr(ensemble, "ks_statistic", lambda x, y: np.ones(x.shape[:-1]))
        out = tmp_path / "run"
        args = ("postulates", "--dim", "3", "--trials", "20", "--seed", "1", "--out", str(out))
        assert run_cli(*args) == 2
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["postulate5"]["ks_failures"] == 20
        assert result["postulate5"]["max_exact_distance"] <= 1e-10
        assert not result["postulate5"]["passed"]
        assert result["postulate6"]["passed"] and result["reproducibility"]["passed"]
        assert result["born_mean"]["passed"]

    def test_the_suite_fails_on_the_born_mean_alone(self, tmp_path, monkeypatch):
        # Born weights read from rho^T, itself a state: both contexts of a pair
        # agree and every re-measurement reproduces, so only the comparison
        # with the state's own mean tr(rho A) can fail
        born = ensemble.born_distribution
        monkeypatch.setattr(ensemble, "born_distribution", lambda psi, q: born(
            ensemble.QuantumState(psi.rho.swapaxes(-1, -2)), q))
        out = tmp_path / "run"
        args = ("postulates", "--dim", "3", "--trials", "20", "--seed", "1", "--out", str(out))
        assert run_cli(*args) == 2
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["born_mean"]["max_residual"] > result["born_mean"]["bound"] == 1e-10
        assert not result["born_mean"]["passed"]
        assert result["postulate5"]["passed"] and result["postulate6"]["passed"]
        assert result["reproducibility"]["passed"]

    def test_a_context_without_its_observable_exits_2_through_the_measurability_gate(
            self, tmp_path, monkeypatch, capsys):
        # Haar contexts, blind to the observable's eigenspaces, do not contain it
        monkeypatch.setattr(experiments, "random_masa", lambda u, lam, rng: algebra.Context(
            experiments.random_unitary(u.shape[-1], rng, u.shape[:-2])))
        out = tmp_path / "run"
        args = ("postulates", "--dim", "4", "--trials", "10", "--seed", "7", "--out", str(out))
        assert run_cli(*args) == 2
        result = json.loads((out / "result.json").read_text())
        assert "not measurable" in result["error"]
        assert "result" not in result
        assert capsys.readouterr().err.startswith(
            "run failed: IncompatibleObservableError: observable is not measurable")

    def test_event_count_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_events": 1000}))
        assert run_cli("postulates", "--config", str(cfg), "--out", str(tmp_path / "run")) == 1
        assert "unknown config keys for postulates: ['n_events']" in capsys.readouterr().err


class TestKhinchinCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "khinchin", "--n-seeds", "10", "--n-small", "1000", "--n-big", "100000",
            "--seed", "5", "--out", str(out),
        )
        result = json.loads((out / "result.json").read_text())
        assert "ratio" in result["result"] and "chi2_upper_tail" in result["result"]
        assert code == 0

    def test_replay_is_byte_identical(self, tmp_path):
        args = ["khinchin", "--n-seeds", "4", "--n-small", "1000", "--n-big", "10000",
                "--seed", "2", "--out", str(tmp_path / "run")]
        code = run_cli(*args)
        first = (tmp_path / "run" / "result.json").read_bytes()
        assert run_cli(*args) == code
        assert (tmp_path / "run" / "result.json").read_bytes() == first

    def test_a_sampler_that_draws_a_tenth_of_n_big_exits_2_through_the_chi2_gate(
            self, tmp_path, monkeypatch):
        real = experiments.monte_carlo_mean
        # stream index 2j + 2 draws seed j's big mean
        monkeypatch.setattr(experiments, "monte_carlo_mean", lambda psi, a, q, n, seed, index:
                            real(psi, a, q, n // 10 if index % 2 == 0 else n, seed, index))
        out = tmp_path / "run"
        assert run_cli("khinchin", "--seed", "5", "--out", str(out)) == 2
        result = json.loads((out / "result.json").read_text())["result"]
        assert result["chi2_upper_tail"] < result["alpha"] / 2
        assert not result["passed"]

    @pytest.mark.parametrize("n_seeds, n_small, n_big, dim", [
        (50, 10_000, 1_000_000, 8),  # the defaults
        (4, 1000, 10_000, 8),  # the khinchin golden
        (2, 1000, 150_000, 40),  # khinchin-dim40
        (2, 1000, 524_293, 4),  # khinchin-split
    ])
    def test_the_rate_check_passes_300_seeds_at_each_size(self, n_seeds, n_small, n_big, dim):
        # at alpha = 1e-6 a false alarm in 300 runs has probability 3e-4
        failed = [seed for seed in range(300) if not experiments.khinchin_experiment(
            n_seeds=n_seeds, n_small=n_small, n_big=n_big, dim=dim, seed=seed)["passed"]]
        assert failed == []


@pytest.mark.parametrize(
    "argv, key",
    [
        (("postulates", "--dim", "1"), "dim"),
        (("postulates", "--trials", "0"), "trials"),
        (("khinchin", "--n-seeds", "0"), "n_seeds"),
        (("khinchin", "--n-small", "0"), "n_small"),
        (("khinchin", "--n-big", "0"), "n_big"),
        (("khinchin", "--dim", "1"), "dim"),
        (("khinchin", "--n-small", str(2**63)), "n_small"),
        (("khinchin", "--n-big", str(2**63)), "n_big"),
        # sizes whose arrays no int64 byte count addresses
        (("two-slit", "--n-sites", "2000000000000000000", "--slit-a", "0", "--slit-b", "1"),
         "n_sites"),
        (("two-slit", "--n-sites", str(cli._SITES_MAX + 1), "--slit-a", "0", "--slit-b", "1"),
         "n_sites"),
        (("postulates", "--dim", "10000000000000000000"), "dim"),
        (("postulates", "--dim", str(cli._DIM_MAX + 1)), "dim"),
        (("khinchin", "--dim", "10000000000000000000"), "dim"),
    ],
)
def test_bad_experiment_size_is_config_error(tmp_path, capsys, argv, key):
    assert run_cli(*argv, "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be an integer")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_the_size_maxima_are_the_largest_an_int64_byte_count_addresses():
    # a complex dim x dim matrix, and a complex array of n_sites entries
    assert 16 * cli._DIM_MAX**2 <= 2**63 - 1 < 16 * (cli._DIM_MAX + 1) ** 2
    assert 16 * cli._SITES_MAX <= 2**63 - 1 < 16 * (cli._SITES_MAX + 1)
    for experiment in ("postulates", "khinchin"):
        assert resolve_config(experiment, {"dim": cli._DIM_MAX}, {})["dim"] == cli._DIM_MAX
    geometry = {"n_sites": cli._SITES_MAX, "slit_a": [0], "slit_b": [1]}
    assert resolve_config("two-slit", geometry, {})["n_sites"] == cli._SITES_MAX


def test_the_largest_lattice_fails_for_memory_alone(tmp_path, capsys):
    # its first array, 8 EiB, is past any address space: numpy raises MemoryError at once
    out = tmp_path / "run"
    assert run_cli("two-slit", "--n-sites", str(cli._SITES_MAX), "--slit-a", "0",
                   "--slit-b", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(
        "config error: not enough memory for this run: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64, 2**128 + 9])
def test_seed_outside_64_bits_is_config_error(tmp_path, capsys, seed):
    # 2**128 + 9 would otherwise write seed 9's results
    out = tmp_path / "run"
    argv = ("khinchin", "--n-seeds", "5", "--n-small", "100", "--n-big", "10000",
            "--out", str(out))
    assert run_cli(*argv, "--seed", str(seed)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: seed must be an integer in [0, 2**64), got {seed}")
    assert not out.exists()  # rejected before the run starts
    assert run_cli(*argv, "--seed", str(2**64 - 1)) == 0
    assert json.loads((out / "result.json").read_text())["config"]["seed"] == 2**64 - 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("postulates", "--n", "5"), "unrecognized arguments: --n 5"),
        (("delayed-choice", "--m4", "maybe"), "argument --m4: invalid choice: 'maybe'"),
        (("postulates", "--seed", "abc"), "argument --seed: invalid int value: 'abc'"),
    ],
    ids=["unknown-flag", "bad-choice", "bad-int"],
)
def test_usage_error_is_config_error(tmp_path, capsys, argv, message):
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, file_config, message",
    [
        ("two-slit", {"n_sites": 8, "slit_a": 1, "slit_b": [5]}, "slit_a must be a list"),
        ("two-slit", {"n_sites": "8", "slit_a": [1], "slit_b": [5]}, "n_sites must be an integer"),
        ("two-slit", {"n_sites": 8.0, "slit_a": [1], "slit_b": [5]}, "n_sites must be an integer"),
        ("two-slit", {"n_sites": 8, "slit_a": [1.7], "slit_b": [5]}, "slit_a must be a list"),
        ("delayed-choice", {"m4": "delayed-random", "p": "0.5"}, "p must be a number"),
        ("delayed-choice", {"p": None}, "p must be a number"),
        ("delayed-choice", {"m4": ["x"]}, "unknown m4 policy ['x']"),
        ("delayed-choice", {"write_events": "no"}, "write_events must be a boolean"),
        ("postulates", {"out": 5}, "out must be a non-empty path"),
        ("postulates", {"out": "run\u0000"}, "out must be a non-empty path"),
        ("postulates", {"out": "cfg.json"}, "cannot create output directory 'cfg.json'"),
        ("two-slit", {"n_sites": 8, "slit_a": [1], "slit_b": [1]}, "slits overlap on sites [1]"),
        ("two-slit", {"n_sites": 8, "slit_a": [1], "slit_b": [8]}, "slit site index out of range"),
        ("two-slit", {"n_sites": 8, "slit_a": [], "slit_b": [5]}, "both slits must be non-empty"),
        ("two-slit", {"n_sites": 2**64, "slit_a": [1], "slit_b": [5]},
         f"n_sites must be an integer in [2, {(2**63 - 1) // 16}], got {2**64}"),
    ],
    ids=["slit-int", "n-sites-str", "n-sites-float", "slit-float", "p-str", "p-null",
         "m4-list", "write-events-str", "out-int", "out-nul", "out-is-a-file", "slits-overlap",
         "slit-out-of-range", "slit-empty", "n-sites-2**64"],
)
def test_bad_config_value_is_config_error(tmp_path, monkeypatch, capsys, experiment,
                                          file_config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(file_config))
    assert run_cli(experiment, "--config", "cfg.json") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # nothing run


@pytest.mark.parametrize("argv, name", [
    (("postulates", "--dim", "2", "--trials", "1"), "result.json"),
    (("delayed-choice", "--n", "1000", "--write-events"), "events.csv"),
    (("two-slit", "--n", "1000"), "pattern.csv"),
], ids=["result.json", "events.csv", "pattern.csv"])
def test_an_output_name_that_is_a_directory_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                              argv, name):
    monkeypatch.setattr(experiments, _DRIVERS[argv[0]], _no_draw)  # refused before the run
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"config error: cannot write {name}: {str(out / name)!r} is a directory\n")
    assert [p.name for p in out.iterdir()] == [name]
    assert list((out / name).iterdir()) == []


def test_two_slit_takes_any_int64_number_of_particles_and_no_more(tmp_path, capsys):
    # the slit tally and the histograms are binomial and multinomial draws of
    # an int64 count: the largest costs what a small one does, a larger one is refused
    argv = ("two-slit", "--n-sites", "8", "--slit-a", "1", "--slit-b", "5", "--seed", "1")
    out = tmp_path / "run"
    assert run_cli(*argv, "--n", str(2**70), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: n_events must be an integer in [1, {2**63 - 1}], "
                          f"got {2**70}")
    assert "Traceback" not in err
    assert not out.exists()
    start = time.perf_counter()
    assert run_cli(*argv, "--n", str(2**63 - 1), "--out", str(out)) == 0
    assert time.perf_counter() - start < 2.0
    result = json.loads((out / "result.json").read_text())["result"]
    with open(out / "pattern.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    counts = [int(row["count"]) for row in rows]
    assert sum(counts) == sum(result["slit_tally"].values()) == 2**63 - 1
    assert [c for row, c in zip(rows, counts) if float(row["prob"]) == 0.0] == [0] * 4


@pytest.mark.parametrize(
    "runner, argv",
    [
        ("khinchin_experiment", ("khinchin", "--n-seeds", "1", "--n-big", "100000000000")),
        ("delayed_choice_experiment", ("delayed-choice", "--n", "1000000000000")),
    ],
    ids=["khinchin", "delayed-choice"],
)
def test_out_of_memory_is_config_error(tmp_path, monkeypatch, capsys, runner, argv):
    def exhausted(*args, **kwargs):  # as numpy fails to allocate an array
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(experiments, runner, exhausted)
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: not enough memory for this run: Unable to allocate")
    assert "Traceback" not in err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("postulates", "--help")
    assert exc.value.code == 0
    assert "--trials" in capsys.readouterr().out


class TestExitCodes:
    def test_config_error_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "two-slit", "bogus": 1}')
        assert run_cli("two-slit", "--config", str(bad), "--out", str(tmp_path)) == 1

    def test_malformed_json_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run_cli("two-slit", "--config", str(bad), "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("content, message", [
        (b"{nope", "Expecting property name"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b'{"seed": 1' + b"0" * 5000 + b"}", "Exceeds the limit"),
    ], ids=["malformed", "nested-100000-deep", "not-utf-8", "5001-digit-int"])
    def test_a_file_that_is_not_json_is_a_config_error(self, tmp_path, capsys, content,
                                                       message):
        (tmp_path / "cfg.json").write_bytes(content)
        out = tmp_path / "run"
        assert run_cli("postulates", "--config", str(tmp_path / "cfg.json"),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config file is not valid JSON: ")
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_config_file_used(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m4": "absent", "n_events": 2000, "seed": 3}))
        out = tmp_path / "run"
        assert run_cli("delayed-choice", "--config", str(cfg), "--out", str(out)) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["config"]["m4"] == "absent"
        assert result["config"]["n_events"] == 2000
