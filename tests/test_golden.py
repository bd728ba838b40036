"""Byte-identity guard: the sha256 of every file each subcommand writes.

Each run is small and writes to a relative --out inside a temporary working
directory, so the config echoed in result.json holds no absolute path.  A
refactor must leave every digest as it is; a change that alters outputs on
purpose re-records them and says so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import aqm
from aqm.cli import main

GOLDEN = {
    "two-slit-default": (
        ("two-slit", "--n", "20000", "--seed", "7"),
        0,
        {
            "pattern.csv": "b2bd7eb9099a14b23b5fbca4fb2f1ba90aed200259c7b7808be0ef4ef50542db",
            "result.json": "06dfe16a2d4a39ebab8af285dc18b23200cf7bf75678ebfd4b45fdaf8690bcbe",
        },
    ),
    "two-slit-custom": (
        ("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20,21",
         "--n", "5000", "--seed", "1"),
        0,
        {
            "pattern.csv": "5e47ed67108b04a957b34ecbe51e828841783902d9c932af5a96ae45039f5256",
            "result.json": "23f185c2a68f854357245d06a9cefeb48cde40931a2527498b86e863c245aa51",
        },
    ),
    # an odd number of particles, each slit's histogram one multinomial draw
    "two-slit-chunks": (
        ("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20,21",
         "--n", "200003", "--seed", "3"),
        0,
        {
            "pattern.csv": "1fee4807bcb1843041c9efa46602c8567f1b0f2d0de67abb1ebe9c4033fa839c",
            "result.json": "9cbc611229e56fc250ceedd132fac65979f27aa798cf783275f905705f6683a5",
        },
    ),
    # uneven slits, where half of each mode's cross term would leave a
    # negative mass: the bright modes' share of slit a is 1/2 + 0.160
    "two-slit-uneven-slits": (
        ("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20",
         "--n", "1000", "--seed", "1"),
        0,
        {
            "pattern.csv": "0e296fc17456dfcbecfe20ec3ad863e17eaaff1c48e41f9d42523a4744febfa2",
            "result.json": "fe49f92d79a38e5b35959637108a6677649508362fc3d987709863ca9599d08d",
        },
    ),
    # and 1/2 - 0.249
    "two-slit-uneven-wide": (
        ("two-slit", "--n-sites", "256", "--slit-a", "100",
         "--slit-b", "140,141,142,143,144,145,146,147,148,149", "--n", "10000", "--seed", "1"),
        0,
        {
            "pattern.csv": "60c567defb0b5b142c53dcb97b8bf9bceb6313a349e6cfd3e26cf4d7ca3af9a3",
            "result.json": "97300d5cb583918a1aaa71cff5552ff256d57518f39d0c6c2b89e501958ec901",
        },
    ),
    "delayed-choice-events": (
        ("delayed-choice", "--m4", "delayed-random", "--n", "2000", "--seed", "1",
         "--write-events"),
        0,
        {
            "events.csv": "66af57e1c14961dd83dd37a7d97edb25fb00220239f344fd7f2af81e526dff84",
            "result.json": "055fdcab1810535074c8bdbc351b48bcd7ec18facd16a7621bb7c7c8248bf9c1",
        },
    ),
    # three chunks of photons, the last one partial, with 5- and 6-digit
    # event indices; recorded before the events were chunked
    "delayed-choice-chunks": (
        ("delayed-choice", "--m4", "delayed-random", "--n", "140001", "--write-events",
         "--seed", "2"),
        0,
        {
            "events.csv": "ba1b228494cc26751414780b44f62dcc5bb5d1cad8b794d6111091b43aa1f9fb",
            "result.json": "4e23eb1262f12b2dfe3e105431b54290ba7794024dc1214dfcf03386352896e8",
        },
    ),
    # one sub-ensemble each, and both
    "delayed-choice-present": (
        ("delayed-choice", "--m4", "present", "--n", "3000", "--seed", "4"),
        0,
        {"result.json": "68265775e86dec88ffb6c92acddc0beccee7f01b3b36cc65e741ef512826754b"},
    ),
    "delayed-choice-absent": (
        ("delayed-choice", "--m4", "absent", "--n", "3000", "--seed", "4"),
        0,
        {"result.json": "ee318dda9c15784eca0774a97037f0696d8ad5a23f5844f45457a905abfe0a17"},
    ),
    "delayed-choice-alternating": (
        ("delayed-choice", "--m4", "delayed-alternating", "--n", "3000", "--seed", "4"),
        0,
        {"result.json": "0434fb5167243a7594677463fc332ee9f18b26345750a18847e15cccbfea96fd"},
    ),
    "postulates": (
        ("postulates", "--dim", "4", "--trials", "10", "--seed", "3"),
        0,
        {"result.json": "59c930267e1f041d6de240513cfe9b666ff163d1addff33527d323eba5472d2c"},
    ),
    # at dim 32 an observable often has 8 or more value levels, and np.sum
    # adds 8 or more terms pairwise: pins how Postulate 5 sums its CDF points
    "postulates-dim32": (
        ("postulates", "--dim", "32", "--trials", "10", "--seed", "2"),
        0,
        {"result.json": "778b8058eca1247ee80a49e0de904162a2a4540698841c75b525b719276f7de2"},
    ),
    "khinchin": (
        ("khinchin", "--n-seeds", "4", "--n-small", "1000", "--n-big", "10000", "--seed", "2"),
        0,
        {"result.json": "6da501d3e59a23bedd05aa37b6da4246c425f06885f0260cdbaa143ab0c0feb9"},
    ),
    # 40 branches, each mean one multinomial draw over them
    "khinchin-dim40": (
        ("khinchin", "--n-seeds", "2", "--dim", "40", "--n-small", "1000", "--n-big", "150000",
         "--seed", "3"),
        0,
        {"result.json": "d8c21bc484eda4ebd0f685176805dc5a770ada5d05514d6fed6950fb8f91bd75"},
    ),
    # two seeds' median errors put the ratio at 6.76, far from
    # sqrt(n_big / n_small) = 22.9; the chi-square rate check does not read it
    "khinchin-split": (
        ("khinchin", "--n-seeds", "2", "--dim", "4", "--n-small", "1000", "--n-big", "524293",
         "--seed", "5"),
        0,
        {"result.json": "cce5ac72a4f62b73feae0fc9839e433f8cb5ed87843d92ad2685e9b0c5721089"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    argv, code, digests = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "run"]) == code
    assert _digests(tmp_path / "run") == digests


def _digests(directory) -> dict:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in directory.iterdir()}


def _replay(name, tmp_path, **env_changes):
    """Run golden `name` through `python -m aqm.cli`; each change sets a variable, None unsets it."""
    argv, code, digests = GOLDEN[name]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aqm.__file__)))
    for key, value in env_changes.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    child = subprocess.run([sys.executable, "-m", "aqm.cli", *argv, "--out", "run"],
                           cwd=tmp_path, env=env)
    assert child.returncode == code
    assert _digests(tmp_path / "run") == digests


# The cases whose setup runs BLAS (QR, matrix products), replayed by
# the real entry point: with OPENBLAS_NUM_THREADS unset the CLI runs BLAS on
# one thread, and a user's 2 must write the same bytes at these sizes.
@pytest.mark.parametrize("openblas_threads", [None, "2"], ids=["unset", "2"])
@pytest.mark.parametrize("name", ["khinchin", "khinchin-dim40", "postulates",
                                  "postulates-dim32"])
def test_cli_process_writes_recorded_digests(name, openblas_threads, tmp_path):
    _replay(name, tmp_path, OPENBLAS_NUM_THREADS=openblas_threads)


# numpy's x86 baseline: no SIMD dispatch target beyond X86_V2 (SSE4.2).  Every
# golden, replayed by the real entry point, must write the same bytes under it
# as under the machine's own dispatch.
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digests_under_baseline_simd_dispatch(name, tmp_path):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH)
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy rejects NPY_DISABLE_CPU_FEATURES={BASELINE_DISPATCH!r}: "
                    f"{probe.stderr.strip()}")
    _replay(name, tmp_path, NPY_DISABLE_CPU_FEATURES=BASELINE_DISPATCH)
