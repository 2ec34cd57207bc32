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
from dataclasses import fields

import numpy as np
import pytest

from specsum.cli import _from_flags, build_parser, main
from specsum.harness import ExperimentSpec, generate_instance, read_trace, run_single
from specsum.solvers import SolverConfig

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
        "compare.csv": "f1ec00e2f28eddb1d52b20d9627e6dec0b2bbfcaa3b2e7d47fa0aee1de12972e",
        "sgd-bb-smooth_seed0.csv": "1c7dae446c4b2d79b9663e6c9e69d057ed45c95b7818ece2c4c191cfea53115b",
        "sgd-bb-smooth_seed1.csv": "f85a0b7aea59b167358173d9118133751670bfe81d7dbd9e70e0d6847a2500c0",
        "sgd-bb_seed0.csv": "f24633b53a50827d2a51c3c164f667288099cca33412794c97e229f2a7545626",
        "sgd-bb_seed1.csv": "a4f3b3902daf0e79cff26978c14583749f9e10c2acf9b353f7d1650ec375035e",
        "svrg-bb_seed0.csv": "05c82fa9ef9a4072287a86fa8be514185a991a017712a3560f79282df8c5b15b",
        "svrg-bb_seed1.csv": "55d8175e17afc14cb653eb9e0406acea3c68dd564f13fe257dd2eeb3378d20db",
    },
    "logistic-compare": {
        "compare.csv": "dcc1f03e92be78e61b421ac7592124056c3e9512c13ae97669fd1ae673f2a1e2",
        "sgd_seed0.csv": "818fbeddfc1b207429ea8b8ca38b99cc6f215fa96932b3adbf0c2cd6751b3691",
        "slises-ais-m3_seed0.csv": "fb90718ff712ad30778389ed9c01b78dd35525db7586149ed1fd8f0dbb9bc63d",
        "slises-uni-m3_seed0.csv": "945ede1642a89a3a74549f9f6efadda55d8159d376791c11130003781a796383",
        "svrg-bb_seed0.csv": "e7dd30f2f51c29269613b175ed91fa3e50b786e8f16d71209d210b0d145bec18",
    },
    "logistic-full": {
        "compare.csv": "6ed8e932a7009ac4255935062af9a85a2778d9598bfac5b7e1adbaae2849c703",
        "slises-mod-m3-d0.1_seed0.csv": "4277dcbeae1d96d3e0dd1a5ed7da2eb127b7fb11b93a255353e1536bbbaaf945",
        "spectral-full_seed0.csv": "df86b5e678c7937cb22929a7e373aa570f77c3736d0b8f477d1a3464371961da",
    },
    "logistic-held": {
        "compare.csv": "ebbd5d3ed259cd98261369cc317ea7876d52e62b2853ef665e04b89f30ac80b4",
        "slises-uni-m5_seed0.csv": "5af1c9a6db6591f845a210d1ad0d1a496cef84b14dba5230e1abbce1ed7d1927",
        "spectral-full_seed0.csv": "5824a1a6b21fe6d68eb931538263275f933687562a1b80c266e2e670dec6ebff",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "a139ee84500a5fb5267bebc444e3cdc9ecf93680c4030b33b927981ec5b1e506",
    },
    "sweep-m": {
        "m=1_seed0.csv": "0f1e9e3336104c81f29b37b8024ac3752f3bfce339f0de67b507c54b5f25223d",
        "m=1_seed1.csv": "c3a7572cbce03e0555e2155bc14e6ad0185143860fc8a0c029b7bbc0df6a3591",
        "m=3_seed0.csv": "0c797ac61229dd3f877407279d70229aaaf4cd43eec1634152891ecfc680d2f8",
        "m=3_seed1.csv": "5211ab56ebd6a4ad0567f514df81da17a6434f9caeaaf3ae928abdd53b080844",
        "sweep_m.csv": "8a440837dfc49ad4272cee16dee895ff442bf85fe16c084b27f4ff0518b96294",
    },
}


# The traces without their f_full column: every cost, step and reported
# gradient column.  A change to how the reported objective is computed may
# move the digests above but must leave these.
COST_DIGESTS = {
    "epoch-baselines": {
        "sgd-bb-smooth_seed0.csv": "9a682714bfc40ab54a86d3516f26ba27e65165401f7a76122fc13c9d6f840ae7",
        "sgd-bb-smooth_seed1.csv": "0f1d882ebcbc28733c88e00ecdd949d59d57457c2778a4481a2e163f4a78f5cc",
        "sgd-bb_seed0.csv": "803938328cc4177ae4eaab3e9a13efee9648cd3e64e08d4328c45da59d186dc1",
        "sgd-bb_seed1.csv": "d22749daee81a28902a7dc536bf084a224bcab12e752cb6a1d48068bb3cd0a41",
        "svrg-bb_seed0.csv": "d159f9fd3922031a6c2a0e426e29abefcc904dae51e621bc2c003d104e60c9fb",
        "svrg-bb_seed1.csv": "06f25e2d34570ea0756629202a42a68f84ae0e3ef7f58d1cc76520f827c85399",
    },
    "logistic-compare": {
        "sgd_seed0.csv": "d17d0cb689a29209283eceaa1d411aed05322f8249ed93b92664525e4775815f",
        "slises-ais-m3_seed0.csv": "c0631739da18776c78d5ffc6251c1e4dbd7ca60fbf698baebab87f1f37838840",
        "slises-uni-m3_seed0.csv": "450e3a314aed0cdafa2cef49816e6b8c7f96fa0ee725f54b35b2c4b985ff49e5",
        "svrg-bb_seed0.csv": "57e2cfac5404c85f4de49c8d70cd5f84288853ccb68884f2652db72a2ca935fa",
    },
    "logistic-full": {
        "slises-mod-m3-d0.1_seed0.csv": "85c97e07e3a74287ba0b55faa0040810804d1aecea7b72c0d9db352ca8676ddf",
        "spectral-full_seed0.csv": "9c4eca16959a57fc3ece29f6909404451d10832b73cb6723c0f0e01e66fde356",
    },
    "logistic-held": {
        "slises-uni-m5_seed0.csv": "c3290944f445f113227d0f24d3a11a2d0f385b14d641ac6a22b1085fe1f8c6e2",
        "spectral-full_seed0.csv": "5a66ad61d822834291f5f2344667c0e7c8bb77b4f04f9540c0fe50b23880b2eb",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "5b8d9cb9668433a1ead8f7fd0d34ed114dcedd3554a57026d8f318fbc6f1d852",
    },
    "sweep-m": {
        "m=1_seed0.csv": "d38d244ee5a72e81526f074448d559f48aa2de7a14b01b788413accf872d2fa1",
        "m=1_seed1.csv": "2207bc5b7d18ed383966a852ac5ddd6c20a402edfd7fd8ded7deba0ba4dacd8b",
        "m=3_seed0.csv": "f7f9c01cfec6b30e8e57ff2038db183e12333638d7cc066bd91bbf90406d5700",
        "m=3_seed1.csv": "c78e2b0f96e08436501b7278e35641fc17d28dd1b26f8f4154dfe4e40fba5c3c",
    },
}


# The traces without either reported column, f_full or grad_norm_full:
# every cost and step column.  A change to how a row is reported may move
# both sets above but must leave these.
STEP_DIGESTS = {
    "epoch-baselines": {
        "sgd-bb-smooth_seed0.csv": "6385af377bc900b9a9999e69bce13d8727d35ff1baf4f0b9c9ea6d642476cb14",
        "sgd-bb-smooth_seed1.csv": "f7af87c6b15bf58fa86d3a72f9afaefb3833fb9e3f700d376df3ab739ff75efa",
        "sgd-bb_seed0.csv": "bd203849310ec0dfae8118a274e72ea4ef09a01a8e53e8f0d81354bb3d24a884",
        "sgd-bb_seed1.csv": "3abbfd9cf10f420cea738ac69f1cd8e33c286c879dad5c8db2a5b082d066ecf0",
        "svrg-bb_seed0.csv": "fb3481907cd6b9128b0b5c27e9f387b606331df80b86201fd00ec9a5be2b1c84",
        "svrg-bb_seed1.csv": "365a09b6aa6d81e68c09ca1681b778986a4aa1bf66a5042f4a2f1beeec2e2edb",
    },
    "logistic-compare": {
        "sgd_seed0.csv": "571ecf8a107f8908ca3a56d2d6dbc45a1b966ba81c0a65a63898e78650c85fe7",
        "slises-ais-m3_seed0.csv": "1abdd2a68727fdbd9e701adf1a2654b388117b561a48fcb66a4d82de57fb4a5a",
        "slises-uni-m3_seed0.csv": "5ce8a1d734d0d1f60d61da715a688baab50601cd8e79f4e6f0a1fcb7c7cbde0f",
        "svrg-bb_seed0.csv": "45a76d9c34494d7c8c17139d38adf6f2e4bbd479b7811d5d9ecc5348609c38aa",
    },
    "logistic-full": {
        "slises-mod-m3-d0.1_seed0.csv": "27a715e7b56c020b939696b6d97b077aa679dcde7f68e0b18e5748c92105c015",
        "spectral-full_seed0.csv": "26927ba211e826c0817faf8ffe2d3532c1c1b99a17d260708239799a30373da5",
    },
    "logistic-held": {
        "slises-uni-m5_seed0.csv": "18fbf1914d947eade9ffbcfb192983c460dd8ebb1314ce1481cf353c3e36bedb",
        "spectral-full_seed0.csv": "d63bdeaf6cdc696227f4a15ab63862aca883bfe848e1a7fc8b64d0e728e4f865",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "659d950d9685806bb26619b4d9708c25c75521fa39548ac63ea4054b9494d263",
    },
    "sweep-m": {
        "m=1_seed0.csv": "e89cedb18f90ace047429209ea5244e24bc711abaae1591d11e8e05ac5f0538d",
        "m=1_seed1.csv": "f7886507d1a9203083ee677844aedfba1c4fa363b1f0a3f4a2f24e859a0d782f",
        "m=3_seed0.csv": "236c625610929100132b495b16dabc06df9899ac625096408dd81d43ee26cf08",
        "m=3_seed1.csv": "e03b10209f8b322624cfe290f3e305750cac33b40de1cccecbad5dd1d647ebc5",
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


def config_from_header(header):
    """The SolverConfig a trace header names; a field it does not write, or
    writes empty (None), keeps its default."""
    types = {f.name: f.type for f in fields(SolverConfig)}
    return SolverConfig(**{key: bool(int(val)) if types[key] is bool else types[key](val)
                           for key, val in header.items() if key in types and val})


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_each_run_is_rebuilt_from_its_trace_header(name, tmp_path):
    # a header writes every field its method reads, so the config it names
    # runs the same rows; each config of a compare or sweep draws from the
    # seed stream of its aggregate column
    files = written_files(name, tmp_path)
    argv = INVOCATIONS[name](tmp_path)
    args = build_parser()[0].parse_args(argv)
    problem = _from_flags(ExperimentSpec, args).build_problem()
    out = tmp_path / "out"
    aggregate = {"compare": "compare.csv", "sweep-m": "sweep_m.csv"}.get(argv[0])
    columns = list(read_trace(str(out / aggregate))[1])[1:] if aggregate else []
    traces = [f for f in files if f != aggregate]
    assert traces
    for f in traces:
        cfg = config_from_header(read_trace(str(out / f))[0])
        stream = columns.index(cfg.label) if columns else 0
        path, _ = run_single(problem, cfg, cfg.seed, str(tmp_path / "rebuilt"), stream)
        assert os.path.basename(path) == f
        with open(path, "rb") as fh:
            assert fh.read() == files[f]


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
            print(f'    "{name}": {{')
            for f, digest in digests(files[name], columns).items():
                print(f'        "{f}": "{digest}",')
            print("    },")
        print("}")
