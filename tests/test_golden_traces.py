"""Pinned trace bytes: six tiny CLI invocations against recorded digests.

Each invocation writes its traces and its aggregate into a fresh
directory, and the SHA-256 of every file written must equal the digest
recorded for it.  A change that claims byte-identical traces is checked
here on an S=1 ``sweep-m``, a ``spectral-full`` run on a frozen instance,
a logistic ``compare`` over a sparse dataset, a logistic ``compare``
whose ``spectral-full`` run calls the full-index estimators, a
logistic ``compare`` whose runs hold across report chunks, and a
``compare`` of the epoch baselines over eight epochs on a frozen
instance.  A second set of digests covers each trace with its
``f_full`` column cut out, and a third
with both reported columns, ``f_full`` and ``grad_norm_full``, cut out, so
that a change to how the reported objective or gradient norm is computed,
which moves the first sets, cannot hide a change to a cost or step column.

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


def _logistic_held(tmp_path):
    # both runs hold at the rounding floor across a chunk of REPORT_CHUNK
    # rows: spectral-full from row 27, slises-uni from row 54 with a held
    # search at each redraw; row 64 is reported alone
    data = _sparse_dataset(tmp_path / "data.txt")
    return ["compare", "--dataset", data, "--methods", "spectral-full,slises-uni",
            "--seeds", "0", "--maxiter", "64", "--S", "60", "--m", "5", "--lambda", "1e-1"]


def _epoch_baselines(tmp_path):
    # 8 epochs of 4 updates: svrg-bb takes the spectral ratio from its
    # second epoch on, sgd-bb and sgd-bb-smooth from their third
    inst = generate_instance("quadratic", 4, 12, 5, str(tmp_path / "inst.npz"))
    return ["compare", "--instance", inst, "--methods", "svrg-bb,sgd-bb,sgd-bb-smooth",
            "--seeds", "0,1", "--p", "4", "--maxiter", "30"]


INVOCATIONS = {"sweep-m": _sweep, "spectral-full": _spectral_full,
               "logistic-compare": _logistic_compare, "logistic-full": _logistic_full,
               "logistic-held": _logistic_held, "epoch-baselines": _epoch_baselines}

DIGESTS = {
    "epoch-baselines": {
        "compare.csv": "c5b3646163051a1bdd767bd537b4662b809eebebdb4bac0c78821c0058e188dc",
        "sgd-bb-smooth_seed0.csv": "294ef7a773c359ec368812c7c0cbf5b4211f188fce161eab1e29ae2bd17d32e5",
        "sgd-bb-smooth_seed1.csv": "8be43ba7535471e111d1db2ae1eb0bcd946182304f82738347351e683b9c13b7",
        "sgd-bb_seed0.csv": "e85f8562ceadfa9f1eb745daa892fde095f8e4398e5134d67466c68247fd9bb4",
        "sgd-bb_seed1.csv": "88045f504a7d3f5b8efdf17cef0e6a33dceefa32cf39bbc3a1c26cc1738e923b",
        "svrg-bb_seed0.csv": "964f0cad72d2b75bf8bdfc554a27f352d2339576ebf2fc9e0b80198e3db873fa",
        "svrg-bb_seed1.csv": "37175f5b258219245d8e670c8aef7335082c091936d4a2fb629b5dbd3b29fbff",
    },
    "logistic-compare": {
        "compare.csv": "d6704194a6ffefdc2209add67f1ec23e935d6f0fbe25727292753d8de7a6def2",
        "sgd_seed0.csv": "736bae266bc202716f2d1fbabd061ee9836585e7d2200fe5125e7a1b842ead51",
        "slises-ais-m3_seed0.csv": "0271204fd0816d53ac2663154ecf5ea1ccdda320ec8299ced4d0d449127abba9",
        "slises-uni-m3_seed0.csv": "0a2d69945e966f6d41949b46b76dd368c80e9f1d907bdd32711b3679d0aacaf5",
        "svrg-bb_seed0.csv": "4ed291d0af3d4ae98e1becfc4d1a83d46409f1b721107964fb116fcff0e578c2",
    },
    "logistic-full": {
        "compare.csv": "94817b4284ee9759dd5ce98698752cbbcccbef9164a189ee7628ef2eeb980829",
        "slises-mod-m3-d0.1_seed0.csv": "0a01c596e16836d7ff8bcf52228b16bfaa50c6fa17fd083ed4debd4af64c0106",
        "spectral-full_seed0.csv": "02cd82f0b0012d9c4a275c25df89d252a712a2bcbd315f4a2fc4888e99a56cc0",
    },
    "logistic-held": {
        "compare.csv": "043c7e9adf0d1ab0beac97e1fc9eb0db6c21dba5975e7d6a8602503e56169628",
        "slises-uni-m5_seed0.csv": "d82578341375ed1cb6a41f255ef95ba8533b7e4471efcee556fc85e20f3a321a",
        "spectral-full_seed0.csv": "6db648b0d9533f973bf1fb1c1793b3c944e069e0b7c2d37253272987ec4fc927",
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


# The traces without their f_full column: every cost, step and reported
# gradient column.  A change to how the reported objective is computed may
# move the digests above but must leave these.
COST_DIGESTS = {
    "epoch-baselines": {
        "sgd-bb-smooth_seed0.csv": "a3a3683d21be2a43586a8974c307c60cc2b366d86fac784d3f680b34131ab11b",
        "sgd-bb-smooth_seed1.csv": "ffe92217b47ae2faa2f138b92afdf82c7f934e5db9b0c1046b23c58e123092c2",
        "sgd-bb_seed0.csv": "4b25e045d635329b0cad127e2a76a339078c0541dd3b7ec7f32d286edbe17214",
        "sgd-bb_seed1.csv": "a66acb88509b3c30fa853df7f75390d92be1df4d5d11b3adf352be90caa290a0",
        "svrg-bb_seed0.csv": "44571cd5609652ddad6f598f3bf1e286757be9b84c7e058fb5cc23e1e204dca4",
        "svrg-bb_seed1.csv": "9082cb4f27ebdceee4dded8630b2f0c9925532bceb39d965eeeeb4a48e07ef06",
    },
    "logistic-compare": {
        "sgd_seed0.csv": "2700e703ee2178a0f7925576e0593420da74253a84fd793aa17c0e846453f029",
        "slises-ais-m3_seed0.csv": "81c0a8dc9c37b7572e1e7815d5cef7756deb51a9dafc06de6051a220fc9fd130",
        "slises-uni-m3_seed0.csv": "7f2a991f120345c4f164edee0f019a2b9125334d598ada09b1ab09f2cc6381db",
        "svrg-bb_seed0.csv": "efedc5de65e4ede643fce39bdc04f49ad65ce4403e17e75dfd38c782a37e1d3d",
    },
    "logistic-full": {
        "slises-mod-m3-d0.1_seed0.csv": "b3afe1d0c7d323c566ada3db9a96d73e638bc72590ef3f259bf283970e279c8f",
        "spectral-full_seed0.csv": "9bf5ca058205b8366cda0840f7b8cfaf9f9e9274fc2997ee7286deb0c7bd5e6d",
    },
    "logistic-held": {
        "slises-uni-m5_seed0.csv": "af874bcd18e965aaf6a2909c4804a7fcd4c96fa09d6fa599e908f77105a4a392",
        "spectral-full_seed0.csv": "6d420b6d79ad8bb64e0a035bd5790e61814b0506b83f1c291d97e3a8919134d1",
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


# The traces without either reported column, f_full or grad_norm_full:
# every cost and step column.  A change to how a row is reported may move
# both sets above but must leave these.
STEP_DIGESTS = {
    "epoch-baselines": {
        "sgd-bb-smooth_seed0.csv": "c82e83eebe61bdd044e0f84fd5568191bacd60d707ee063c6d4a6ed4af5c592d",
        "sgd-bb-smooth_seed1.csv": "7f0576a664713e151c767bed8b36849eab682501155cc0ff006b7cddda713edc",
        "sgd-bb_seed0.csv": "6bfbdd730f44015db97309f85860bba911d9e1b8ca199096ea96fd3635983470",
        "sgd-bb_seed1.csv": "3f34c724b6ffd6fae5b499d353b2199a6ff30fb9d85c9140c283460c1f6bac08",
        "svrg-bb_seed0.csv": "44139f5c0215ca9a9d302b2feaa5c9c33f32f925e2026a63215f2f868018a80d",
        "svrg-bb_seed1.csv": "b623c5e4889ce6045f5d1888204b64a8c0b32abe1f99478e9d7604af6e499a88",
    },
    "logistic-compare": {
        "sgd_seed0.csv": "3152334cd056dcf61ddf433d24b31d23dd61867924e4475dbb3c68304646db7a",
        "slises-ais-m3_seed0.csv": "aef690bc0573525d54a27efe42f7158b7586aee0a75d87dad05a009c33d45a35",
        "slises-uni-m3_seed0.csv": "0dfa11f2f0a845764b370b352254166550f5ffb1de7447e6f6cabe43e15d3cd4",
        "svrg-bb_seed0.csv": "756025271b64d3c48e0fb27265754726aa7472ae8d702e050e6f01468e0314d5",
    },
    "logistic-full": {
        "slises-mod-m3-d0.1_seed0.csv": "6e7c7f126bdbb1240405623b8cb6e09c329143b2f8998aa954e31d4efd769c73",
        "spectral-full_seed0.csv": "d400b14bb34e16a7e1fb7e32808f0f695303e2d70d6746c018f6791222a1fbbf",
    },
    "logistic-held": {
        "slises-uni-m5_seed0.csv": "f90b715cfe3abf7199dc4d4f3300a2384422d73674634678ced98197a5a7fa54",
        "spectral-full_seed0.csv": "7ea66bb759ce225648b55c035aff1d5af06f66eab976e1ef00e81b6a0cde4c96",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "c246df7fcb6de2f31af85145a7967af0eacbb28d2eb4bd0ea6defa7eda573ff7",
    },
    "sweep-m": {
        "m=1_seed0.csv": "318a38f7fb33f740ac85226803e457bd24b03752cf719d93145d82f474034adc",
        "m=1_seed1.csv": "6bced3ea8d62f500fead69716ebf93a832d427da02ce01a7aa6f3bbb9c7edc83",
        "m=3_seed0.csv": "6dad6669bf42ecb15f3b8706b3120463cb35a268e71aefb7839e089d6ae1f24d",
        "m=3_seed1.csv": "3487d717e09b090b0262820ecae26c43ec940ec159b933fd5aed2fc90be130cd",
    },
}


def without_columns(data, *names):
    """A file's bytes with the columns ``names`` cut from its CSV rows;
    None for a file without them (an aggregate)."""
    lines = data.decode().splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].rstrip("\n").split(",")
    if not set(names) <= set(columns):
        return None
    cut = {columns.index(name) for name in names}
    rows = [",".join(c for i, c in enumerate(line.rstrip("\n").split(",")) if i not in cut)
            + "\n" for line in lines[head:]]
    return "".join(lines[:head] + rows).encode()


def written_files(name, tmp_path):
    """The bytes of every file one invocation writes, keyed by file name."""
    out = tmp_path / "out"
    assert main(INVOCATIONS[name](tmp_path) + ["--out", str(out)]) == 0
    return {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# the columns each digest set cuts from every trace before hashing
CUT_COLUMNS = {"DIGESTS": (), "COST_DIGESTS": ("f_full",),
               "STEP_DIGESTS": ("f_full", "grad_norm_full")}


def digests(files, columns):
    """SHA-256 of each file with ``columns`` cut; files without them are left out."""
    if columns:
        files = {f: without_columns(data, *columns) for f, data in files.items()}
    return {f: sha256(data) for f, data in files.items() if data is not None}


@pytest.fixture
def pinned_environment():
    env = _environment()
    differs = {k: v for k, v in env.items() if v != PINNED[k]}
    if differs:
        pytest.skip(f"digests were recorded with {PINNED}; this host has {differs}")


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_trace_bytes_match_the_recorded_digests(name, tmp_path, pinned_environment):
    assert digests(written_files(name, tmp_path), ()) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_traces_without_f_full_match_the_recorded_digests(name, tmp_path,
                                                         pinned_environment):
    assert digests(written_files(name, tmp_path), ("f_full",)) == COST_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_traces_without_reported_columns_match_the_recorded_digests(name, tmp_path,
                                                                   pinned_environment):
    cut = digests(written_files(name, tmp_path), ("f_full", "grad_norm_full"))
    assert cut == STEP_DIGESTS[name]


if __name__ == "__main__":
    # Print the three digest sets of the current tree, to paste over the
    # ones above once a declared change of bits has been checked:
    #     PYTHONPATH=src python tests/test_golden_traces.py
    import contextlib
    import io
    import pathlib
    import tempfile

    files = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name in sorted(INVOCATIONS):
            (pathlib.Path(tmp) / name).mkdir()
            files[name] = written_files(name, pathlib.Path(tmp) / name)
    print(f"# recorded with {_environment()}")
    for set_name, columns in CUT_COLUMNS.items():
        print(f"{set_name} = {{")
        for name in sorted(files):
            print(f"    {name!r}: {{")
            for f, digest in digests(files[name], columns).items():
                print(f"        {f!r}: {digest!r},")
            print("    },")
        print("}")
