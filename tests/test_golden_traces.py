"""Pinned trace bytes: four tiny CLI invocations against recorded digests.

Each invocation writes its traces and its aggregate into a fresh
directory, and the SHA-256 of every file written must equal the digest
recorded for it.  A change that claims byte-identical traces is checked
here on an S=1 ``sweep-m``, a ``spectral-full`` run on a frozen instance,
a logistic ``compare`` over a sparse dataset and a logistic ``compare``
whose ``spectral-full`` run calls the full-index estimators.  A second set of
digests covers each trace with its ``f_full`` column cut out, so that a
change to how the reported objective is computed, which moves the first
set, cannot hide a change to a cost, step or gradient column.

The bits of a floating-point reduction depend on the numpy build and
the BLAS kernels it picks, so the digests hold only for the numpy
version, BLAS library and machine architecture they were recorded with;
on any other the test skips and says which one differs.
"""

import hashlib
import os
import platform

import numpy as np
import pytest

from specsum.cli import main
from specsum.harness import generate_instance

PINNED = {"numpy": "2.4.6", "blas": "scipy-openblas", "machine": "x86_64"}


def _environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def _sparse_dataset(path):
    """60 rows of 5 features at about half density, every value repr'd."""
    rng = np.random.default_rng(11)
    w = rng.standard_normal(5)
    lines = []
    for _ in range(60):
        a = rng.standard_normal(5) * (rng.random(5) < 0.5)
        label = 1 if float(a @ w) + 0.3 * rng.standard_normal() > 0 else 0
        feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(a) if v)
        lines.append(f"{label} {feats}".rstrip())
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _sweep(tmp_path):
    return ["sweep-m", "--n", "6", "--N", "40", "--problem-seed", "3",
            "--m-grid", "1,3", "--seeds", "0,1", "--maxiter", "40"]


def _spectral_full(tmp_path):
    inst = generate_instance("quadratic", 4, 12, 5, str(tmp_path / "inst.npz"))
    return ["run", "--instance", inst, "--method", "spectral-full", "--maxiter", "30"]


def _logistic_compare(tmp_path):
    data = _sparse_dataset(tmp_path / "data.txt")
    return ["compare", "--dataset", data, "--methods",
            "slises-ais,slises-uni,sgd,svrg-bb", "--seeds", "0", "--maxiter", "20",
            "--S", "3"]


def _logistic_full(tmp_path):
    # the full-index logistic estimators: every spectral-full value and
    # gradient call reads all 60 rows
    data = _sparse_dataset(tmp_path / "data.txt")
    return ["compare", "--dataset", data, "--methods", "spectral-full,slises-mod",
            "--seeds", "0", "--maxiter", "20", "--S", "3"]


INVOCATIONS = {"sweep-m": _sweep, "spectral-full": _spectral_full,
               "logistic-compare": _logistic_compare, "logistic-full": _logistic_full}

DIGESTS = {
    "logistic-compare": {
        "compare.csv": "0cdaf275028bff897535aa3c0d09c3d2cdaede71997a3c744994a70a4b46355e",
        "sgd_seed0.csv": "27946c8e657b51f71d1899f919bb46a640a6c4ff06f84c8a4e3422b46d5e9773",
        "slises-ais-m3_seed0.csv": "1511be0b8d99f299e8aadd6ebe774ebca3117c7865fd83579734ae9dffab5be4",
        "slises-uni-m3_seed0.csv": "295bcc4876dd9c1ac18c68f25b1f8f15b2d2281f3c851509c3775224f5a076ae",
        "svrg-bb_seed0.csv": "0993847b85e488540177cb8e1ecf05a4d9a0ede54e51d87eea1b16a49213b28a",
    },
    "logistic-full": {
        "compare.csv": "44d9da8bab5f2657ebcf3c6e85192283a2efe836b99b83fc89c5acf51b2cb216",
        "slises-mod-m3-d0.1_seed0.csv": "fac217baf4c36ce20d543eb1be0011c5e4898fe9a1856c7b4d5c50a389027cfe",
        "spectral-full_seed0.csv": "04edc8b2e4043cf43e319c85b7c49342eb6682a7581352197ee563d6581e8bc5",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "1548f0e0bbad1d0f8df12f6084b395e358a8e8f535cee00da8842b701f6efa13",
    },
    "sweep-m": {
        "m=1_seed0.csv": "78788fd03fc25603caf9ddbc285916031e81fdc338db702a1b402616b75a182a",
        "m=1_seed1.csv": "3b84525e83416e20a0d5c22afbcfac46c469df857951e16f8a465beabdf1b30b",
        "m=3_seed0.csv": "fae247e71485ea1af53d919af9e362c5bdd126d2788d8f8d7643cfd72cf44a4d",
        "m=3_seed1.csv": "4b1af062d8d2ef9315dcd5e4df62ee85c851e2738671d6625f5ffa011dd0597a",
        "sweep_m.csv": "e3835e644c412cd72c5c3a928b9fad607f3f87e72d5a4e6b3862d6bb8d1eebc1",
    },
}


# The traces without their f_full column: every cost, step and gradient
# column.  A change to how reported values are computed may move the
# digests above but must leave these.
COST_DIGESTS = {
    "logistic-compare": {
        "sgd_seed0.csv": "094b3bb83cb449ef244f4417d28d17ed305870b3aeb2b4f0a8f01cc4737ff7c0",
        "slises-ais-m3_seed0.csv": "2a0f921dbad52bbad1a971604e9034f356cde36fa1e937fc2d021db5151c102b",
        "slises-uni-m3_seed0.csv": "59d2c0aac7cc5feb72860926fc0fbb3ed266dd057f41f5f61db61342ca477582",
        "svrg-bb_seed0.csv": "01ab8e9b0bd4e7c5215e1f13ad661d46c160c89be90b5ebe473f9d28ecb38379",
    },
    "logistic-full": {
        "slises-mod-m3-d0.1_seed0.csv": "f40c615f0c40e37c87085759a2d99646d29c4f54680f3f73b0b170e97480ec3a",
        "spectral-full_seed0.csv": "beace7d890afc2897455c630561435ce7c467a1a44d43341a97471126b0de966",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "6b369fcbd847d442a06eaf2d8fa1f79a0656db092af0f1d1820336c136fd754f",
    },
    "sweep-m": {
        "m=1_seed0.csv": "47c6422b1f30a5d7e0a8bc5a4783cb179296f2b91ed01338c1e586b9a635681c",
        "m=1_seed1.csv": "ebec5e9753f238c2e24975bcf28977cc9178695d2556479cadf9edc57968dcf8",
        "m=3_seed0.csv": "83f60936f66585bd87021216d63c798965031e37bf78b07d97ff945b398e0dc9",
        "m=3_seed1.csv": "7e39bc5fe299dde02bf5e4163e74fd9105b8282e4aff042ee5b5966272250193",
    },
}


def without_f_full(data):
    """A file's bytes with the ``f_full`` column cut from its CSV rows;
    None for a file without that column (an aggregate)."""
    lines = data.decode().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].rstrip("\n").split(",")
    if "f_full" not in columns:
        return None
    j = columns.index("f_full")
    rows = [",".join(c for i, c in enumerate(line.rstrip("\n").split(",")) if i != j) + "\n"
            for line in lines[head:]]
    return "".join(lines[:head] + rows).encode()


def written_files(name, tmp_path):
    """The bytes of every file one invocation writes, keyed by file name."""
    out = tmp_path / "out"
    assert main(INVOCATIONS[name](tmp_path) + ["--out", str(out)]) == 0
    return {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def pinned_environment():
    env = _environment()
    differs = {k: v for k, v in env.items() if v != PINNED[k]}
    if differs:
        pytest.skip(f"digests were recorded with {PINNED}; this host has {differs}")


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_trace_bytes_match_the_recorded_digests(name, tmp_path, pinned_environment):
    files = written_files(name, tmp_path)
    assert {f: sha256(data) for f, data in files.items()} == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_traces_without_f_full_match_the_recorded_digests(name, tmp_path,
                                                         pinned_environment):
    cut = {f: without_f_full(data) for f, data in written_files(name, tmp_path).items()}
    assert {f: sha256(data) for f, data in cut.items() if data is not None} == COST_DIGESTS[name]
