"""Byte-identity guard: the sha256 of every file each subcommand writes.

Each run is small and writes to a relative --out inside a temporary working
directory, so the config echoed in result.json holds no absolute path.  A
refactor must leave every digest as it is; a change that alters outputs on
purpose re-records them and says so in CHANGES.md.
"""

import hashlib

import pytest

from aqm.cli import main

GOLDEN = {
    "two-slit-preset": (
        ("two-slit", "--preset", "symmetric64", "--n", "20000", "--seed", "7"),
        0,
        {
            "pattern.csv": "5053c325163f1724a244facc7aa058752304e602494bcb12ae5a2f1258659e0c",
            "result.json": "2ef2b4f053a3709132b0d5c2a228ac36cc00f954b4ed74696c8d715df4aa8a7c",
        },
    ),
    "two-slit-custom": (
        ("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20,21",
         "--n", "5000", "--seed", "1"),
        0,
        {
            "pattern.csv": "57f8eb6e03c22909ceddb6156a7e44afa4c40ad97600c806b814adb0c20e10e3",
            "result.json": "e765b4ac1b7b14e53f1064d389bbac2b3828b5d116d656041ff4f6d2ac441644",
        },
    ),
    # four chunks of particles, the last one 3 events long; its counts are
    # those recorded before the particles were chunked
    "two-slit-chunks": (
        ("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20,21",
         "--n", "200003", "--seed", "3"),
        0,
        {
            "pattern.csv": "2f46ddc18deca8ec7c470d3aed3f02b250fa36c09e08a0bb2751eb1ff26fd30a",
            "result.json": "992ef80bcc4eba2f47305867bd4d555febcd305ad4a62496d3808e877fb1c6c0",
        },
    ),
    "two-slit-split-violation": (
        ("two-slit", "--n-sites", "32", "--slit-a", "4,5", "--slit-b", "20",
         "--n", "1000", "--seed", "1"),
        2,
        {"result.json": "6e58e24ca8e1c695bade66ae680cc99058ceb98bb1f527a2f01bacacb8c494d2"},
    ),
    "delayed-choice-events": (
        ("delayed-choice", "--m4", "delayed-random", "--n", "2000", "--seed", "1",
         "--write-events"),
        0,
        {
            "events.csv": "66af57e1c14961dd83dd37a7d97edb25fb00220239f344fd7f2af81e526dff84",
            "result.json": "64d1eb0af6f43d9a02b00daa9d10b60ae66c6a203188f3767ba48a5188d48eff",
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
            "result.json": "c27b331b71a110f258138b2cfb1db30476d5ca09b508b42367c2641f0815bb08",
        },
    ),
    # one sub-ensemble each, and both
    "delayed-choice-present": (
        ("delayed-choice", "--m4", "present", "--n", "3000", "--seed", "4"),
        0,
        {"result.json": "f3e5436fb3ac6fae2cb3e4d21fb31c012a29ac51a9fdff2edc0875631d2d2252"},
    ),
    "delayed-choice-absent": (
        ("delayed-choice", "--m4", "absent", "--n", "3000", "--seed", "4"),
        0,
        {"result.json": "513f1658a96f7b74a5033ffa132aaa8cfb8ca87c357f4b9cbe80b97ca2d74325"},
    ),
    "delayed-choice-alternating": (
        ("delayed-choice", "--m4", "delayed-alternating", "--n", "3000", "--seed", "4"),
        0,
        {"result.json": "6ec99be26ac4be3efc6682f20a5fe297e736cb81f99d8926130993cf1ab5bf79"},
    ),
    "postulates": (
        ("postulates", "--dim", "4", "--trials", "10", "--seed", "3"),
        0,
        {"result.json": "21b82c1091350b6415382f8550ac96ebaebdf26576717e3df95a5d03fa5cc9cb"},
    ),
    "khinchin": (
        ("khinchin", "--n-seeds", "4", "--n-small", "1000", "--n-big", "10000", "--seed", "2"),
        0,
        {"result.json": "94a537fed6432d28ac4b70123e24a78fab39e63e1f74e50535cbb40f54410322"},
    ),
    # several draw chunks per call, and 40 branches: the bisecting sampler
    "khinchin-dim40": (
        ("khinchin", "--n-seeds", "2", "--dim", "40", "--n-small", "1000", "--n-big", "150000",
         "--seed", "3"),
        0,
        {"result.json": "9c29fc71245eff5e7fe9cf11fc28d2cd0c4663f271e5a325fd16623e1517e6e1"},
    ),
    # n_big is 8 chunks and 5 draws: 9 chunks on the thread pool, the last
    # not a whole number of Philox blocks
    "khinchin-split": (
        ("khinchin", "--n-seeds", "2", "--dim", "4", "--n-small", "1000", "--n-big", "524293",
         "--seed", "5"),
        0,
        {"result.json": "b39a1ee9289f170142eae6d737834bb6417e3b6abdc54239b94154bd9e219976"},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    argv, code, digests = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "run"]) == code
    written = (tmp_path / "run").iterdir()
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in written} == digests
