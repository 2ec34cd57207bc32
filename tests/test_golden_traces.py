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
        "compare.csv": "c5b3646163051a1bdd767bd537b4662b809eebebdb4bac0c78821c0058e188dc",
        "sgd-bb-smooth_seed0.csv": "382fac721f0783d474df47c3539a9971c1c8c68830ef06a0f3439fa35e7c3a77",
        "sgd-bb-smooth_seed1.csv": "078a4855615d07f56fb4ae4cc441a6aaacb154c587a9f078b767d699f056bf8a",
        "sgd-bb_seed0.csv": "84b64cf2fe90cc42bb1d523a2652871bbd51e5197c483f0e77be0fd86328bf91",
        "sgd-bb_seed1.csv": "1c4de27f29d9e10dc21011e15b5b0da782d22985f1c57ed9cde521fc09bd2848",
        "svrg-bb_seed0.csv": "cbc0ffb43e0197e0830ee3dc16588e09c8fa84b188fb065edd7613c113eb8fe1",
        "svrg-bb_seed1.csv": "d17a78c05d0dfee4abe7582ad3f76df98909e6f39b79b918a5b28df425b0b42c",
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
        "spectral-full_seed0.csv": "2c653833ead6a1cd34e6b62c9973526ab2a95e4d8063392b2d54ad67c6479672",
    },
    "sweep-m": {
        "m=1_seed0.csv": "11a255ecbc01dcb1443b0cdafe6e051729754c28f43479e9826edd76cb923a4b",
        "m=1_seed1.csv": "fdf01b5a9f339376340669db380dcfaff7e1d15034a350532ae21d858688a1d1",
        "m=3_seed0.csv": "16af884b372c1dcba15b4bb298894756a248c2bd6bd95abfc6ae08ff50c5a34d",
        "m=3_seed1.csv": "8cdb7d41a20088367d970cc895f608d8819df8a702924a508b49ab2aacc994c8",
        "sweep_m.csv": "808a103bfa80eef06fa51d24e6aa60a0dc479bef884a9a21b888d83b22ff2c10",
    },
}


# The traces without their f_full column: every cost, step and reported
# gradient column.  A change to how the reported objective is computed may
# move the digests above but must leave these.
COST_DIGESTS = {
    "epoch-baselines": {
        "sgd-bb-smooth_seed0.csv": "4cc66bd7f5bab6e1a4b4c26024451d9bcaa75ac5980412f0268e2d3e6ab48d41",
        "sgd-bb-smooth_seed1.csv": "4ff7dc7008bfa22aa8a096c44ac6da57e14be2775cee42bad80ed68e064a5dd2",
        "sgd-bb_seed0.csv": "01e5f7183690457f4e0220e561fe3c2cd7a39541e520666f2a54e3cbb0b72e09",
        "sgd-bb_seed1.csv": "5759890b7b50962929ecce1918f3b656f288bbba343fb8f1366c233bd1864d07",
        "svrg-bb_seed0.csv": "eb6f42e24efe54985793546d3eb4ff3289643b4d988ac21097582b13f21b2c2d",
        "svrg-bb_seed1.csv": "600c85c6647ac7a40160e1b087a124d58353b8be736d38b1c5bb4b959f84627d",
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
        "spectral-full_seed0.csv": "4a75d0783640329adc503bf919f65e3519a0df0ea5284acef5b086d902af1a77",
    },
    "sweep-m": {
        "m=1_seed0.csv": "1e70e5f590d7b54154864beb8c75ced1e16372ecde03a22ff9aca2673906a2ad",
        "m=1_seed1.csv": "954a249fd4b6e6f6b453112339522fd2b69cbcfc8090fc828205fe2810655f87",
        "m=3_seed0.csv": "548a436b1435d59f10e1e573c75c8f6a5158d442f0b0a291197fdd3603096393",
        "m=3_seed1.csv": "2bcc1fe43c3e0e03c118dd69130cd497c8d8c75d0b7cfa2c47bb56e45d91712d",
    },
}


# The traces without either reported column, f_full or grad_norm_full:
# every cost and step column.  A change to how a row is reported may move
# both sets above but must leave these.
STEP_DIGESTS = {
    "epoch-baselines": {
        "sgd-bb-smooth_seed0.csv": "48ff12a1db982613a1cb33a9fe32e37f03f36052c55e48f31a73e4da56c342fa",
        "sgd-bb-smooth_seed1.csv": "0cf33bcd11443b0918b270fac0cd63ce2fc1bdce2bad5c3deb90541448e66542",
        "sgd-bb_seed0.csv": "21101a1a3033f3a80736631b67cadae6d9ae16abd122ed947d8428d0ec85a675",
        "sgd-bb_seed1.csv": "a268c73bf4c64b31e7fb1e3c0134869267890704a4f75b31197a15a9e316024f",
        "svrg-bb_seed0.csv": "1340487e9fce9911a9aaeefc4b5df4b26af9b71380c09902ac4ccc08c0b64392",
        "svrg-bb_seed1.csv": "86f01f9d860bf8d67f76b01312bb66d534f10564230ece9168cdcef0275c16d8",
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
        "spectral-full_seed0.csv": "ae3df4374d2665ee86ebc3b597871acae63723834b741a0c7c2f90ac530911b4",
    },
    "sweep-m": {
        "m=1_seed0.csv": "2d620ec46bc704bb29ee4f6e71289a9f470d52155ea56906c129333f66a749c8",
        "m=1_seed1.csv": "411cfaaec8d2e482bd98f42209ff0d54738a70b74d736f8cbf3bb2e51918b818",
        "m=3_seed0.csv": "550305022cede9350a0480e02ecd2441d81f1520aacefb0384e3e997a13c2a13",
        "m=3_seed1.csv": "7fd0813ab1a3689424c09f490930aee2bf679fc724baa2df1b0e2203767662b3",
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
