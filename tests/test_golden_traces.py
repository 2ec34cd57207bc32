"""Pinned trace bytes: nine tiny CLI invocations against recorded digests.

Each invocation writes its traces and its aggregate into a fresh
directory, and the SHA-256 of every file written must equal the digest
recorded for it.  A change that claims byte-identical traces is checked
here on an S=1 ``sweep-m``; a ``spectral-full`` run on a frozen instance;
a logistic ``compare`` over a sparse dataset; a logistic ``compare``
whose ``spectral-full`` run calls the full-index estimators; a logistic
``compare`` whose runs hold at the rounding floor; a logistic
``compare`` whose report stacks read their dataset in several blocks of
rows; a ``compare`` of the epoch baselines over eight epochs on a frozen
instance; a ``compare`` on a stiff frozen instance whose
``slises-modified`` run diverges and ends at its sentinel row; and a
quadratic ``compare`` at S=3 whose ``spectral-full`` and ``slises``
gradients sum the products of several indices.  A second set of digests
covers each trace with its ``f_full`` column cut out, and a third with
both reported columns, ``f_full`` and ``grad_norm_full``, cut out, so
that a change to how the reported objective or gradient norm is
computed, which moves the first sets, cannot hide a change to a cost or
step column.

The bits of a floating-point reduction depend on the numpy build and
the BLAS kernels it picks, so the digests hold only for the numpy
version, BLAS library and machine architecture they were recorded with;
on any other the test skips and says which one differs.
"""

import contextlib
import hashlib
import os
import platform
from dataclasses import fields

import numpy as np
import pytest

from specsum.cli import _from_flags, build_parser, main
from specsum.harness import ExperimentSpec, generate_instance, read_trace, run_single
from specsum.problems import generate_quadratic
from specsum.solvers import SolverConfig

PINNED = {"numpy": "2.4.6", "blas": "scipy-openblas", "machine": "x86_64"}


def _environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"numpy": np.__version__, "blas": blas, "machine": platform.machine()}


def _sparse_dataset(path, rows=60):
    """``rows`` rows of 5 features at about half density, every value
    repr'd; the first 60 rows are the same for any ``rows``."""
    rng = np.random.default_rng(11)
    w = rng.standard_normal(5)
    lines = []
    for _ in range(rows):
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
    # both runs hold at the rounding floor: spectral-full from row 27,
    # slises-uni from row 54 with a held search at each redraw; held rows
    # are not queued, so at REPORT_CHUNK = 64 each run reports the rows
    # before its hold, 27 and 54, in one stack when it returns
    data = _sparse_dataset(tmp_path / "data.txt")
    return ["compare", "--dataset", data, "--methods", "spectral-full,slises-uni",
            "--seeds", "0", "--maxiter", "64", "--S", "60", "--m", "5", "--lambda", "1e-1"]


def _logistic_blocks(tmp_path):
    # 1537 = 3*512 + 1 rows: a full stack of REPORT_CHUNK = 64 rows reads
    # them in blocks of _REPORT_BLOCK // 64 = 512, the last of one row;
    # each run's last 7 rows and every one-row report read one block
    data = _sparse_dataset(tmp_path / "data.txt", rows=1537)
    return ["compare", "--dataset", data, "--methods", "slises-uni,sgd,svrg-bb",
            "--seeds", "0", "--maxiter", "70", "--S", "10"]


def _epoch_baselines(tmp_path):
    # 8 epochs of 4 updates: svrg-bb takes the spectral ratio from its
    # second epoch on, sgd-bb and sgd-bb-smooth from their third
    inst = generate_instance("quadratic", 4, 12, 5, str(tmp_path / "inst.npz"))
    return ["compare", "--instance", inst, "--methods", "svrg-bb,sgd-bb,sgd-bb-smooth",
            "--seeds", "0,1", "--p", "4", "--maxiter", "30"]


def _stiff_divergence(tmp_path):
    # the stiff instance of the CLI divergence tests, A scaled by 1e3: the
    # slises-modified run with AIS and m=2 ends at its sentinel row
    P = generate_quadratic(5, 20, np.random.default_rng(0))
    inst = str(tmp_path / "stiff.npz")
    np.savez(inst, A=P.A * 1e3, b=P.b, lipschitz=P.lipschitz * 1e3, seed=0)
    return ["compare", "--instance", inst, "--methods", "slises-modified,sgd",
            "--sampler", "ais", "--m", "2", "--seeds", "0"]


def _quadratic_batch(tmp_path):
    # several-index quadratic gradients: spectral-full on all 40 indices,
    # slises on batches of 3; the batch gradient sums the value's products,
    # whose bits the smaller spectral-full instance above does not see
    inst = generate_instance("quadratic", 20, 40, 5, str(tmp_path / "inst.npz"))
    return ["compare", "--instance", inst, "--methods", "spectral-full,slises-uni",
            "--seeds", "0", "--S", "3", "--maxiter", "30"]


INVOCATIONS = {"sweep-m": _sweep, "spectral-full": _spectral_full,
               "logistic-compare": _logistic_compare, "logistic-full": _logistic_full,
               "logistic-held": _logistic_held, "logistic-blocks": _logistic_blocks,
               "epoch-baselines": _epoch_baselines,
               "stiff-divergence": _stiff_divergence, "quadratic-batch": _quadratic_batch}


def _overflow_allowed(name):
    """Silence numpy's floating-point warnings for an invocation that
    diverges on purpose; any other invocation must raise none."""
    return np.errstate(all="ignore") if name == "stiff-divergence" else contextlib.nullcontext()

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
    "logistic-blocks": {
        "compare.csv": "e8ace224fc9689494bc7ad8228b2d95a1cd5a21d13294c17e81c6b9c5e84c570",
        "sgd_seed0.csv": "e01d3068d7ddca26c268c6501f61439d91a541b34efe6d4f7353911182e3f783",
        "slises-uni-m3_seed0.csv": "7d5becb5c7b734288915d14a5763ebdacb9035ebf470da185766e294fa73dd36",
        "svrg-bb_seed0.csv": "708cc40a6d873c89bd604421fc0fe64486e35e4d6b674a44e4ffae5a1bf0f069",
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
    "quadratic-batch": {
        "compare.csv": "8bd410bd6073d85972c09c8ef8b5772a7437def99667f332de38b67a8255baa1",
        "slises-uni-m3_seed0.csv": "acc4eee545ea31d0b93f2938bfcfb6f258a9a7b76e460565875a221f1ab0d98d",
        "spectral-full_seed0.csv": "bf8e9178e1c3bbc20e57b4be2971800bd42990c05157936da2e5346b1ba6d772",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "a139ee84500a5fb5267bebc444e3cdc9ecf93680c4030b33b927981ec5b1e506",
    },
    "stiff-divergence": {
        "compare.csv": "fbe953ea3e71c0e1d7c484f8d9df4744e82702c79d5d556a6d12265c3d6fe316",
        "sgd_seed0.csv": "5408666e6d6105fd510ad1ec4979014eeef99095f7f3b618df961f88c5b84481",
        "slises-mod-m2-d0.1_seed0.csv": "d62d40eaed808d1a87711fd7c0630e81ec0c8eab2da4bb4dd7d5c9187c92acb7",
    },
    "sweep-m": {
        "m=1_seed0.csv": "cf4bda83b85ab24fc1a8609c51ea64989c586724cef2cdc593953055036f0b17",
        "m=1_seed1.csv": "bfe59aebcc431c6e3060c970b65f99cbbc39e4597447e45e1e90663d6e14a5b6",
        "m=3_seed0.csv": "a20a3fb0579ca6083d3c068aa9c70c1b98fc0ed00e92cdffba563f5d5e2eca61",
        "m=3_seed1.csv": "50c3e039845339ba09446b1f52be3f594f663c0d5bda4498651cebc3c67ec695",
        "sweep_m.csv": "1e0e59af0bad45f13cdb18780159261a1d1167c468e2a3cb94aba448769b42af",
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
    "logistic-blocks": {
        "sgd_seed0.csv": "6250e052a2431eb1472d3c732e8f88794c3727a943984d9034c3e804c1d357f6",
        "slises-uni-m3_seed0.csv": "8909e2bb6226beb932926964b91ab3a789b735e43685dc35c4212c9cda39ad75",
        "svrg-bb_seed0.csv": "431e3770eb3ad5dba7c7edff55983234fed48487f679382cd5b776de8d04a7ed",
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
    "quadratic-batch": {
        "slises-uni-m3_seed0.csv": "5882a9c5e25a96f4bbd54bc559831bd88959eeafb65103575dedebf9599331cf",
        "spectral-full_seed0.csv": "d0938dd56dc61c38668bac8413df634e4383f7b7b245d9d7ef890671f3796a1a",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "5b8d9cb9668433a1ead8f7fd0d34ed114dcedd3554a57026d8f318fbc6f1d852",
    },
    "stiff-divergence": {
        "sgd_seed0.csv": "9d6d91a420fcf517f50e8ad8e5b6ee8242e477263ece844d763ac1485a55aa21",
        "slises-mod-m2-d0.1_seed0.csv": "1347c67bf030c869c81d1f35c467ea62d3c30adb8e62b3d8693f81d7139b38c7",
    },
    "sweep-m": {
        "m=1_seed0.csv": "0979eae613d9a6b6c2389ef84093339fc3df082d0003d264800c4d8c5f597530",
        "m=1_seed1.csv": "e31cef8c292440d3810d22b3a7a73112a68caaf29f2b5d9132598f01a3af87d4",
        "m=3_seed0.csv": "449ca7d25dfbd1296c8f1aca309b000745e3ff929c39223a73e7f1d617b76198",
        "m=3_seed1.csv": "d24a5869222590d5f8d183475da32155d99a584f90c35e017a4c362bf1a40407",
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
    "logistic-blocks": {
        "sgd_seed0.csv": "25b8c03678cad47e281ff904f50bd7d0481d3e6f8583493ea5b3e80ca7cb8902",
        "slises-uni-m3_seed0.csv": "352663f97346062d572bddd61a90f4f23ab8cc6479e7949e1aa23be25d58321f",
        "svrg-bb_seed0.csv": "1425afc2de574f88c670ebe3c4f183371cd93be130c2d06df7b2e0311d23e898",
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
    "quadratic-batch": {
        "slises-uni-m3_seed0.csv": "7e9a1177829b45714ee08bfb1c0003eb68c4c72043c0bb47957c519319727fc5",
        "spectral-full_seed0.csv": "1a88c881f4081c3a845e76a80e8c3d6897ab24afdb99868792bb28c7b00ae338",
    },
    "spectral-full": {
        "spectral-full_seed0.csv": "659d950d9685806bb26619b4d9708c25c75521fa39548ac63ea4054b9494d263",
    },
    "stiff-divergence": {
        "sgd_seed0.csv": "e1026ecdedc53828d039545d3b32f1148957b5a7af33872ed7048142588595bc",
        "slises-mod-m2-d0.1_seed0.csv": "a2c77e0dbfd9f75b37c5f12777759415c73b062999b117992d872ec330f07dd8",
    },
    "sweep-m": {
        "m=1_seed0.csv": "33c2d3d7da53a04a1ef649deeb073c597435623daffec16bd29577d4175039e0",
        "m=1_seed1.csv": "2048388962097945e8cb414644add911a8ba0885751aad59bc08935cde2cb794",
        "m=3_seed0.csv": "ee4a7c4e1da58b23f02847d2644d130b151d0556282a8556e1a8316bd0aeb1af",
        "m=3_seed1.csv": "26057ac0965664f6a70af752c5a9264716168c6d09a648cd48870b38e27ef949",
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
    with _overflow_allowed(name):
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
        with _overflow_allowed(name):
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
