"""Command line contract: subcommands, config precedence, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specsum.cli import main
from specsum.harness import ExperimentSpec, generate_instance, read_trace
from specsum.problems import generate_quadratic


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("inst") / "quad.npz")
    assert main(["generate", "--n", "3", "--N", "6", "--seed", "2",
                 "--out", path]) == 0
    return path


class TestGenerate:
    def test_requires_dimensions_and_out(self, tmp_path):
        assert main(["generate", "--n", "3", "--N", "6"]) == 1

    def test_writes_instance(self, instance):
        assert os.path.exists(instance)

    def test_config_file_supplies_dimensions_and_out(self, tmp_path, capsys):
        out = tmp_path / "cfg.npz"
        cfgfile = tmp_path / "gen.cfg"
        cfgfile.write_text(f"n = 2\nN = 4\nseed = 3\nout = {out}\n")
        assert main(["generate", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().out.strip() == str(out)
        with np.load(out) as data:
            assert data["A"].shape == (4, 2, 2) and int(data["seed"]) == 3


class TestRun:
    def test_run_writes_trace(self, instance, tmp_path, capsys):
        out = str(tmp_path / "runs")
        rc = main(["run", "--instance", instance, "--method", "slises",
                   "--m", "2", "--maxiter", "6", "--seed", "4", "--out", out])
        assert rc == 0
        path = capsys.readouterr().out.strip()
        header, rows = read_trace(path)
        assert header["method"] == "slises"
        assert int(header["m"]) == 2
        assert len(rows["k"]) == 7

    def test_flag_overrides_config_file_overrides_default(self, instance, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("maxiter = 5\nm = 4\nsampler = ais\n")
        out = str(tmp_path / "r")
        rc = main(["run", "--instance", instance, "--config", str(cfgfile),
                   "--maxiter", "7", "--seed", "0", "--out", out])
        assert rc == 0
        header, rows = read_trace(capsys.readouterr().out.strip())
        assert len(rows["k"]) == 8  # CLI flag wins
        assert header["m"] == "4"  # config file beats the default 3
        assert header["sampler"] == "ais"
        assert header["eta"] == "0.0001"  # untouched default

    def test_switch_in_config_file(self, instance, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("no-reuse = yes\nmaxiter = 4\n")
        rc = main(["run", "--instance", instance, "--config", str(cfgfile),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        header, rows = read_trace(capsys.readouterr().out.strip())
        assert header["reuse"] == "0" and header["damping"] == "1"
        assert len(rows["k"]) == 5

    @pytest.mark.parametrize("value,reuse", [("1", "0"), ("TRUE", "0"), ("Yes", "0"),
                                             ("on", "0"), ("0", "1"), ("false", "1"),
                                             ("No", "1"), ("OFF", "1")])
    def test_switch_values_in_config_file(self, instance, tmp_path, capsys, value, reuse):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"no-reuse = {value}\nmaxiter = 4\n")
        assert main(["run", "--instance", instance, "--config", str(cfgfile),
                     "--out", str(tmp_path / "r")]) == 0
        header, _ = read_trace(capsys.readouterr().out.strip())
        assert header["reuse"] == reuse

    @pytest.mark.parametrize("line", ["no-reuse = ture", "no-damping = of", "no-reuse ="])
    def test_misspelled_switch_value_is_refused(self, instance, tmp_path, capsys, line):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(line + "\n")
        out = tmp_path / "refused"
        assert main(["run", "--instance", instance, "--config", str(cfgfile),
                     "--out", str(out)]) == 1
        key, _, value = line.partition("=")
        assert f"{cfgfile}: {key.strip()} = {value.strip()!r} is not one of" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_no_damping_is_refused_by_a_method_that_ignores_it(self, tmp_path, capsys):
        # only slises reads damping; elsewhere the header said damping = 0
        # above the rows of the damped run
        for argv in (["run", "--method", "spectral-full"],
                     ["sweep-m", "--method", "slises-modified", "--m-grid", "2,3"]):
            out = tmp_path / "refused"
            assert main([*argv, "--n", "4", "--N", "20", "--maxiter", "5", "--no-damping",
                         "--out", str(out)]) == 1
            method = argv[2]
            assert capsys.readouterr().err == (
                f"specsum: --no-damping applies only to slises, not to method {method!r}\n")
            assert not out.exists()
        assert main(["run", "--n", "4", "--N", "20", "--maxiter", "5", "--no-damping",
                     "--out", str(tmp_path / "r")]) == 0
        header, _ = read_trace(capsys.readouterr().out.strip())
        assert header["label"] == "slises-uni-m3-nodamp" and header["damping"] == "0"

    def test_keys_without_a_flag_are_ignored(self, instance, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("m-grid = 1,2\nmethods = sgd\nfrobnicate = 3\nmaxiter = 4\n")
        rc = main(["run", "--instance", instance, "--config", str(cfgfile),
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        header, _ = read_trace(capsys.readouterr().out.strip())
        assert header["method"] == "slises" and header["m"] == "3"

    def test_family_key_is_not_read_without_a_flag(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("family = rosenbrock\n")
        rc = main(["run", "--n", "3", "--N", "5", "--maxiter", "4",
                   "--config", str(cfgfile), "--out", str(tmp_path / "r")])
        assert rc == 0

    def test_no_reuse_flag(self, instance, tmp_path, capsys):
        out = str(tmp_path / "r")
        main(["run", "--instance", instance, "--maxiter", "6", "--out", out])
        base, _ = read_trace(capsys.readouterr().out.strip())
        main(["run", "--instance", instance, "--maxiter", "6", "--no-reuse",
              "--out", out])
        noreuse, rows = read_trace(capsys.readouterr().out.strip())
        assert base["reuse"] == "1" and noreuse["reuse"] == "0"

    def test_dataset_run(self, tmp_path, capsys):
        data = tmp_path / "toy.txt"
        data.write_text("1 1:0.5 2:1.0\n0 1:1.5\n1 2:2.0\n")
        rc = main(["run", "--dataset", str(data), "--lambda", "1e-3",
                   "--maxiter", "5", "--S", "2", "--out", str(tmp_path / "r")])
        assert rc == 0
        header, _ = read_trace(capsys.readouterr().out.strip())
        assert header["problem"].startswith("logistic")

    def test_sparse_dataset_whose_first_row_has_no_features(self, tmp_path, capsys):
        # a lone label is a sparse row with every feature zero
        data = tmp_path / "zero_row_first.txt"
        data.write_text("1\n-1 1:0.5 2:1.0\n1 2:2.0\n")
        rc = main(["run", "--dataset", str(data), "--maxiter", "3", "--S", "2",
                   "--out", str(tmp_path / "r")])
        assert rc == 0
        header, rows = read_trace(capsys.readouterr().out.strip())
        assert header["problem"].startswith("logistic")
        assert len(rows["k"]) == 4

    def test_generated_problem_run(self, tmp_path, capsys):
        rc = main(["run", "--n", "3", "--N", "5", "--problem-seed", "9",
                   "--maxiter", "4", "--out", str(tmp_path / "r")])
        assert rc == 0

    @pytest.mark.parametrize("method, draws", [("spectral-full", False), ("sgd", True)])
    def test_numpy_random_is_imported_only_by_a_run_that_draws(self, instance, tmp_path,
                                                               method, draws):
        # a fresh process, so that nothing else has imported numpy.random;
        # importing it with specsum or in the problem's build would only move
        # its cost, so the check covers the whole invocation
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import specsum.cli; "
                  "rc = specsum.cli.main(sys.argv[2:]); "
                  "print(rc, 'numpy.random' in sys.modules)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script, src, "run", "--instance", instance,
             "--method", method, "--maxiter", "30", "--out", str(tmp_path / "r")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", str(draws)]

    def test_repeat_invocation_byte_identical(self, instance, tmp_path):
        out = str(tmp_path / "same")
        argv = ["run", "--instance", instance, "--method", "slises",
                "--sampler", "ais", "--maxiter", "8", "--seed", "3", "--out", out]
        assert main(argv) == 0
        trace = Path(out, "slises-ais-m3_seed3.csv")
        first = trace.read_bytes()
        assert main(argv) == 0
        second = trace.read_bytes()
        assert first == second


class TestSweepAndCompare:
    def test_sweep_m(self, instance, tmp_path, capsys):
        # a repeated m or seed, or an invalid m after a valid one, is
        # refused before any file is written
        for grid, seeds in (("3,3", "0"), ("1,2", "0,0"), ("1,0", "0")):
            out = tmp_path / "refused"
            assert main(["sweep-m", "--instance", instance, "--m-grid", grid,
                         "--seeds", seeds, "--maxiter", "5", "--out", str(out)]) == 1
            assert not out.exists()
        rc = main(["sweep-m", "--instance", instance, "--m-grid", "1,2",
                   "--seeds", "0,1", "--maxiter", "5", "--out", str(tmp_path / "s")])
        assert rc == 0
        _, rows = read_trace(capsys.readouterr().out.strip())
        assert set(rows) == {"cum_evals", "m=1", "m=2"}

    def test_compare(self, instance, tmp_path, capsys):
        # two tokens of one label, a repeated or negative seed, or an
        # invalid config after a valid one (slises-mod needs m > 1; NaN
        # fails every numeric check) is refused before any file is written
        for methods, extra, named in (
                ("slises-uni,slises-mod,slises-uniform", [], "compare: run label slises-uni-m3 "),
                ("slises-uni,slises-uniform,slises-mod,slises-mod-nodamp,"
                 "spectral-full-nodamp", [], "method token 'slises-mod-nodamp'"),
                ("slises-uni,sgd", ["--seeds", "0,0"], "compare: run seed 0 "),
                ("slises-uni,sgd", ["--seeds", "0,-1"], "compare: seeds must be >= 0"),
                ("slises-uni,slises-mod", ["--m", "1"],
                 "compare: run slises-mod-m1-d0.1: slises-modified needs m > 1"),
                ("slises-uni,slises-ais", ["--eps", "nan"], "compare: run slises-uni-m3: eps "),
                ("slises-uni,slises-mod", ["--delta", "nan"],
                 "compare: run slises-mod-m3-dnan: slises-modified needs delta > 0")):
            out = tmp_path / "refused"
            assert main(["compare", "--instance", instance, "--methods", methods,
                         "--maxiter", "5", "--out", str(out), *extra]) == 1
            assert named in capsys.readouterr().err
            assert not out.exists()
        rc = main(["compare", "--instance", instance,
                   "--methods", "slises-ais,sgd,svrg-bb",
                   "--seeds", "0", "--maxiter", "5", "--out", str(tmp_path / "c")])
        assert rc == 0
        _, rows = read_trace(capsys.readouterr().out.strip())
        assert set(rows) == {"cum_evals", "slises-ais-m3", "sgd", "svrg-bb"}

    def test_diverging_ais_run_leaves_the_others(self, tmp_path, capsys):
        # a stiff instance on which slises-modified with AIS and m=2 diverges
        P = generate_quadratic(5, 20, np.random.default_rng(0))
        stiff = str(tmp_path / "stiff.npz")
        np.savez(stiff, A=P.A * 1e3, b=P.b, lipschitz=P.lipschitz * 1e3, seed=0)
        out = tmp_path / "c"
        with np.errstate(all="ignore"):
            rc = main(["compare", "--instance", stiff, "--methods", "slises-modified,sgd",
                       "--sampler", "ais", "--m", "2", "--seeds", "0", "--out", str(out)])
        assert rc == 0
        _, agg = read_trace(capsys.readouterr().out.strip())
        assert set(agg) == {"cum_evals", "slises-mod-m2-d0.1", "sgd"}
        _, rows = read_trace(str(out / "slises-mod-m2-d0.1_seed0.csv"))
        assert len(rows["k"]) < 101 and not np.isfinite(rows["f_full"][-1])
        assert np.all(np.isfinite(rows["f_full"][:-1]))
        assert os.path.exists(out / "sgd_seed0.csv")

    def test_diverged_run_carries_its_sentinel_in_the_aggregate(self, tmp_path, capsys):
        # the stiff instance above; the aggregate held the last finite value,
        # 3.1e302, from the sentinel's cost to the end of the grid
        P = generate_quadratic(5, 20, np.random.default_rng(0))
        stiff = str(tmp_path / "stiff.npz")
        np.savez(stiff, A=P.A * 1e3, b=P.b, lipschitz=P.lipschitz * 1e3, seed=0)
        out = tmp_path / "c"
        with np.errstate(all="ignore"):
            assert main(["compare", "--instance", stiff, "--methods",
                         "slises-modified,slises-uni", "--sampler", "ais", "--m", "2",
                         "--seeds", "0", "--out", str(out)]) == 0
        _, agg = read_trace(capsys.readouterr().out.strip())
        _, rows = read_trace(str(out / "slises-mod-m2-d0.1_seed0.csv"))
        assert rows["f_full"][-1] == np.inf
        after = agg["cum_evals"] >= rows["cum_evals"][-1]
        column = agg["slises-mod-m2-d0.1"]
        assert after.any() and np.all(column[after] == np.inf)
        assert np.all(np.isfinite(column[~after]))
        assert np.all(np.isfinite(agg["slises-uni-m2"]))

    def test_shared_no_damping_reaches_only_slises(self, instance, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["compare", "--instance", instance, "--methods", "slises-uni,spectral-full",
                     "--no-damping", "--seeds", "0", "--maxiter", "5", "--out", str(out)]) == 0
        _, rows = read_trace(capsys.readouterr().out.strip())
        assert set(rows) == {"cum_evals", "slises-uni-m3-nodamp", "spectral-full"}
        header, _ = read_trace(str(out / "spectral-full_seed0.csv"))
        assert "damping" not in header  # spectral-full does not read it

    def test_nodamp_token(self, instance, tmp_path, capsys):
        rc = main(["compare", "--instance", instance,
                   "--methods", "slises-uni,slises-uni-nodamp",
                   "--seeds", "0", "--maxiter", "5", "--out", str(tmp_path / "d")])
        assert rc == 0
        _, rows = read_trace(capsys.readouterr().out.strip())
        assert "slises-uni-m3-nodamp" in rows
        # only slises reads damping: elsewhere each -nodamp run would
        # overwrite the trace of its damped twin
        out = tmp_path / "refused"
        assert main(["compare", "--n", "4", "--N", "20", "--methods",
                     "slises-mod,slises-mod-nodamp,spectral-full,spectral-full-nodamp",
                     "--seeds", "0", "--maxiter", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "specsum: method token 'slises-mod-nodamp': -nodamp applies only to slises tokens\n")
        assert not out.exists()


class TestExitCodes:
    def test_usage_errors(self, instance, tmp_path):
        assert main(["frobnicate"]) == 1
        assert main(["run", "--instance", instance, "--method", "adam",
                     "--out", str(tmp_path)]) == 1
        assert main(["run", "--out", str(tmp_path)]) == 1  # no problem source
        assert main(["compare", "--instance", instance, "--methods", "foo",
                     "--seeds", "0", "--out", str(tmp_path)]) == 1
        # a solver or problem parameter out of range is refused before any
        # file is written
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5\n0 1:1.5\n")
        out = tmp_path / "refused"
        for extra in (["--method", "sgd", "--eta0", "nan"], ["--method", "svrg-bb", "--eta0", "-1"],
                      ["--method", "sgd-bb", "--beta", "-1"], ["--lambda", "nan"],
                      ["--lambda", "inf"], ["--lambda", "-1"]):
            assert main(["run", "--dataset", str(data), "--maxiter", "5",
                         "--out", str(out), *extra]) == 1
            assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--n", "0", "--N", "5"], "n and N must be positive"),
        (["sweep-m", "--n", "4", "--N", "-2"], "n and N must be positive"),
        (["generate", "--n", "0", "--N", "5"], "n and N must be positive"),
        (["run"], "give a problem source: --instance, --dataset or --n and --N"),
        (["compare", "--n", "4"], "give a problem source: --instance, --dataset or --n and --N"),
        (["generate", "--n", "4", "--N", "5", "--out", ""], "generate needs --n, --N and --out FILE"),
    ])
    def test_a_size_of_zero_is_given_not_missing(self, tmp_path, capsys, argv, message):
        # a size of 0 or below reaches the generator's own check
        out = tmp_path / "refused"
        flag = [] if "--out" in argv else ["--out", str(out)]
        assert main([*argv, *flag]) == 1
        assert capsys.readouterr().err == f"specsum: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--method", "adam"], "unknown method 'adam'"),
        (["run", "--method", "sgd", "--no-damping"],
         "--no-damping applies only to slises, not to method 'sgd'"),
        (["run", "--method", "svrg-bb", "--eta0", "nan"], "eta0 must be finite and positive"),
        (["sweep-m", "--m-grid", "0,3"], "sweep-m: run m=0: m must be >= 1"),
        (["sweep-m", "--seeds", "0,0"],
         "sweep-m: run seed 0 is repeated; every run needs its own trace file"),
        (["compare", "--methods", "slises-bogus"], "unknown method token 'slises-bogus'"),
        (["compare", "--methods", "sgd-nodamp"],
         "method token 'sgd-nodamp': -nodamp applies only to slises tokens"),
        (["compare", "--methods", "slises-uni,slises-mod", "--m", "1"],
         "compare: run slises-mod-m1-d0.1: slises-modified needs m > 1"),
        (["compare", "--seeds", "0,-1"], "compare: seeds must be >= 0, got -1"),
        # sgd does not read eta0, so no value of it is checked for sgd
        (["run", "--method", "sgd", "--eta0", "nan"],
         "--eta0 applies only to svrg-bb, sgd-bb, sgd-bb-smooth, not to method 'sgd'"),
    ])
    def test_usage_errors_are_refused_before_the_problem_is_built(
            self, monkeypatch, tmp_path, capsys, argv, message):
        def build_problem(spec):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(ExperimentSpec, "build_problem", build_problem)
        out = tmp_path / "refused"
        assert main([*argv, "--dataset", str(tmp_path / "never-read.txt"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"specsum: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["run", "--method", "sgd", "--sampler", "ais", "--m", "7"], "",
         "--m applies only to slises, slises-modified, not to method 'sgd'"),
        (["run", "--method", "sgd"], "sampler = ais\n",
         "--sampler applies only to slises, slises-modified, not to method 'sgd'"),
        (["run", "--method", "slises"], "delta = 0.5\n",
         "--delta applies only to slises-modified, not to method 'slises'"),
        (["run", "--method", "spectral-full", "--seed", "3"], "",
         "--seed applies only to slises, slises-modified, sgd, svrg-bb, sgd-bb, "
         "sgd-bb-smooth, not to method 'spectral-full'"),
        (["run", "--method", "svrg-bb", "--beta", "0.5"], "",
         "--beta applies only to sgd-bb, sgd-bb-smooth, not to method 'svrg-bb'"),
        (["run", "--method", "sgd", "--S", "0", "--eta", "0.3"], "",
         "need 1 <= S <= N, got S=0"),
        (["sweep-m", "--method", "sgd"], "",
         "--m-grid applies only to slises, slises-modified, not to method 'sgd'"),
        (["sweep-m", "--method", "sgd", "--m-grid", "1,3"], "m = 9\n",
         "--m-grid applies only to slises, slises-modified, not to method 'sgd'"),
        (["sweep-m", "--eta0", "0.1"], "",
         "--eta0 applies only to svrg-bb, sgd-bb, sgd-bb-smooth, not to method 'slises'"),
    ], ids=["run-m", "run-file-sampler", "run-file-delta", "run-seed", "run-beta",
            "value-checks-first", "sweep-method", "sweep-file-m", "sweep-eta0"])
    def test_a_value_the_method_does_not_read_is_refused(self, monkeypatch, tmp_path, capsys,
                                                         argv, config, message):
        def build_problem(spec):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(ExperimentSpec, "build_problem", build_problem)
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "refused"
        assert main([*argv, "--dataset", str(tmp_path / "never-read.txt"),
                     "--config", str(cfgfile), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"specsum: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--methods", "slises-uni,sgd", "--eta0", "nan"],
         "--eta0 applies only to svrg-bb, sgd-bb, sgd-bb-smooth, "
         "not to methods 'slises', 'sgd'"),
        (["--methods", "slises-uni,sgd", "--eta0", "0.1"],
         "--eta0 applies only to svrg-bb, sgd-bb, sgd-bb-smooth, "
         "not to methods 'slises', 'sgd'"),
        (["--methods", "slises-uni,svrg-bb", "--eta0", "nan"],
         "compare: run svrg-bb: eta0 must be finite and positive"),
        (["--methods", "spectral-full,sgd", "--S", "7"],
         "compare: run sgd: need 1 <= S <= N, got S=7"),
    ], ids=["unread-bad-value", "unread-value", "read-bad-value", "S-past-N"])
    def test_compare_refuses_a_value_in_the_name_of_a_method_that_reads_it(
            self, tmp_path, capsys, argv, message):
        # a value is checked for the methods that read it, and a flag that
        # none of the methods reads is refused
        out = tmp_path / "refused"
        assert main(["compare", "--n", "3", "--N", "6", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"specsum: {message}\n"
        assert not out.exists()

    def test_compare_takes_a_flag_that_one_of_its_methods_reads(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["compare", "--n", "3", "--N", "6", "--methods", "spectral-full,sgd",
                     "--S", "2", "--maxiter", "5", "--out", str(out)]) == 0
        header, _ = read_trace(str(out / "sgd_seed0.csv"))
        assert header["S"] == "2"
        assert "S" not in read_trace(str(out / "spectral-full_seed0.csv"))[0]

    def test_sweep_m_takes_m_from_its_grid_only(self, instance, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep-m", "--instance", instance, "--m", "5",
                     "--out", str(out)]) == 1
        assert not out.exists()
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("m = 5\n")  # names no flag of sweep-m, so it is ignored
        assert main(["sweep-m", "--instance", instance, "--m-grid", "1,2", "--maxiter", "4",
                     "--config", str(cfgfile), "--out", str(out)]) == 0
        capsys.readouterr()
        for m in (1, 2):
            header, _ = read_trace(str(out / f"m={m}_seed0.csv"))
            assert header["m"] == str(m)

    # a missing dataset is an I/O error (2) once the problem is built, so
    # exit 1 shows that the refusal came first
    @pytest.mark.parametrize("argv, message", [
        (["run", "--method", "sgd", "--seed", "-1"], "seeds must be >= 0, got -1"),
        (["run", "--method", "svrg-bb", "--seed", "-1"], "seeds must be >= 0, got -1"),
        (["sweep-m", "--seeds", ","], "sweep-m: --seeds is empty, so there is nothing to run"),
        (["sweep-m", "--m-grid", ","], "sweep-m: --m-grid is empty, so there is nothing to run"),
        (["compare", "--methods", ","], "compare: --methods is empty, so there is nothing to run"),
        # spectral-full never draws, so it reads no seed
        (["run", "--method", "spectral-full", "--seed", "-1"],
         "--seed applies only to slises, slises-modified, sgd, svrg-bb, sgd-bb, "
         "sgd-bb-smooth, not to method 'spectral-full'"),
    ])
    def test_refused_before_a_missing_dataset_is_read(self, tmp_path, capsys, argv, message):
        out = tmp_path / "refused"
        assert main([*argv, "--dataset", str(tmp_path / "nonexistent"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"specsum: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep-m"], ["compare", "--methods", "sgd"]])
    @pytest.mark.parametrize("source, config, flags", [
        (["--instance", "never.npz", "--dataset", "never.txt"], "",
         "--instance and --dataset"),
        (["--dataset", "never.txt", "--n", "3", "--N", "8"], "", "--dataset and --n and --N"),
        (["--N", "8"], "instance = never.npz\n", "--instance and --N"),
    ], ids=["instance-dataset", "dataset-generated", "config-instance-N"])
    def test_ambiguous_problem_source_is_refused(self, monkeypatch, tmp_path, capsys,
                                                 command, source, config, flags):
        # the named files do not exist, so exit 1 shows that none was opened
        def build_problem(spec):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(ExperimentSpec, "build_problem", build_problem)
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "source.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "refused"
        assert main([*command, *source, "--config", str(cfgfile), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"specsum: give one problem source, not {flags}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep-m"], ["compare", "--methods", "sgd"]])
    @pytest.mark.parametrize("source, config, message", [
        (["--dataset", "never.txt", "--lambda", "-1"], "",
         "--lambda must be finite and nonnegative, got -1.0"),
        (["--dataset", "never.txt", "--lambda", "inf"], "",
         "--lambda must be finite and nonnegative, got inf"),
        (["--n", "3", "--N", "5", "--lambda", "-1"], "",
         "--lambda must be finite and nonnegative, got -1.0"),
        (["--n", "3", "--N", "5", "--problem-seed", "-4"], "",
         "--problem-seed must be >= 0, got -4"),
        (["--n", "3", "--N", "5", "--lambda", "1e-3"], "",
         "--lambda applies only to a --dataset problem"),
        (["--n", "3", "--N", "5"], "lambda = 1e-3\n",
         "--lambda applies only to a --dataset problem"),
        (["--dataset", "never.txt", "--problem-seed", "7"], "",
         "--problem-seed applies only to a generated problem (--n and --N)"),
        (["--instance", "never.npz"], "problem-seed = 7\n",
         "--problem-seed applies only to a generated problem (--n and --N)"),
    ], ids=["negative-lambda", "infinite-lambda", "negative-lambda-generated",
            "negative-problem-seed", "lambda-generated", "config-lambda-generated",
            "problem-seed-dataset", "config-problem-seed-instance"])
    def test_a_problem_flag_is_checked_before_the_problem_is_built(
            self, monkeypatch, tmp_path, capsys, command, source, config, message):
        # the named files do not exist, so exit 1 shows that none was opened
        def build_problem(spec):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(ExperimentSpec, "build_problem", build_problem)
        monkeypatch.chdir(tmp_path)
        cfgfile = tmp_path / "problem.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "refused"
        assert main([*command, *source, "--config", str(cfgfile), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"specsum: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [(["--seed", "-1"], ""), ([], "seed = -1\n")],
                             ids=["flag", "config"])
    def test_generate_refuses_a_negative_seed(self, tmp_path, capsys, flags, config):
        cfgfile = tmp_path / "generate.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "never.npz"
        assert main(["generate", "--n", "3", "--N", "4", *flags, "--config", str(cfgfile),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "specsum: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_sample_larger_than_the_problem_is_refused_after_the_build(
            self, instance, tmp_path, capsys):
        for argv, prefix in ((["run"], ""), (["sweep-m"], "sweep-m: run m=1: "),
                             (["compare", "--methods", "sgd"], "compare: run sgd: ")):
            assert main([*argv, "--instance", instance, "--S", "7",
                         "--out", str(tmp_path / "refused")]) == 1
            assert capsys.readouterr().err == f"specsum: {prefix}need 1 <= S <= N, got S=7\n"

    @pytest.mark.parametrize("line", ["m = abc", "sampler = halton", "maxiter"])
    def test_bad_config_value_is_a_usage_error(self, instance, tmp_path, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n")
        assert main(["run", "--instance", instance, "--config", str(cfgfile),
                     "--out", str(tmp_path)]) == 1

    def test_missing_config_file_is_an_io_error(self, instance, tmp_path):
        assert main(["run", "--instance", instance, "--config",
                     str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 2
        assert main(["generate", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_io_errors(self, tmp_path):
        assert main(["run", "--instance", str(tmp_path / "missing.npz"),
                     "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("1 oops\n")
        assert main(["run", "--dataset", str(bad), "--out", str(tmp_path)]) == 2
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["run", "--dataset", str(empty), "--out", str(tmp_path)]) == 2
        wide = tmp_path / "wide.txt"  # no feature matrix is that wide
        wide.write_text("1 9223372036854775808:1\n")
        assert main(["run", "--dataset", str(wide), "--out", str(tmp_path)]) == 2

    def test_failed_rename_leaves_the_target_and_no_temp_file(self, instance, tmp_path):
        # a directory holds the trace's name, so the rename over it fails
        out = tmp_path / "runs"
        target = out / "slises-uni-m3_seed0.csv"
        target.mkdir(parents=True)
        (target / "kept.txt").write_text("kept\n")
        assert main(["run", "--instance", instance, "--maxiter", "3",
                     "--out", str(out)]) == 2
        assert [p.name for p in out.iterdir()] == [target.name]
        assert [p.name for p in target.iterdir()] == ["kept.txt"]
        assert (target / "kept.txt").read_text() == "kept\n"

    def test_module_entry_point_passes_the_exit_code(self, instance, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"# a comment, then a blank line\n\ninstance = {instance}\n"
                           "maxiter = 4\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "specsum", "run", "--config", str(cfgfile),
                "--out", str(tmp_path / "r")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        _, rows = read_trace(proc.stdout.strip())
        assert len(rows["k"]) == 5
        proc = subprocess.run([*argv, "--seed", "-1"], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "specsum: seeds must be >= 0, got -1\n"

    @pytest.mark.parametrize("text", ["1 1:nan 2:1.0\n0 1:1.0\n", "1,nan,1.0\n0,1.0,2.0\n"])
    def test_nonfinite_dataset_is_an_io_error(self, tmp_path, text):
        data = tmp_path / "nan.txt"
        data.write_text(text)
        assert main(["run", "--dataset", str(data), "--out", str(tmp_path)]) == 2

    def test_overflowing_dataset_is_an_io_error(self, tmp_path, capsys):
        # every value is finite, but the second row's squared norm overflows
        data = tmp_path / "huge.txt"
        data.write_text("1 1:0.5 2:1.0\n0 1:1e200\n1 2:0.25\n")
        out = tmp_path / "out"
        assert main(["compare", "--dataset", str(data), "--methods", "slises-uni,sgd,svrg-bb",
                     "--maxiter", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "specsum: line 2: squared feature norm overflows\n"
        assert not out.exists()

    @pytest.mark.parametrize("arrays", [
        {"A": np.full((3, 2, 2), np.nan), "b": np.ones((3, 2)), "lipschitz": 1.0, "seed": 0},
        {"A": np.tile(np.eye(2), (3, 1, 1)), "lipschitz": 1.0, "seed": 0},
    ])
    def test_malformed_instance_is_an_io_error(self, tmp_path, capsys, arrays):
        inst = str(tmp_path / "bad.npz")
        np.savez(inst, **arrays)
        out = tmp_path / "out"
        assert main(["compare", "--instance", inst, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"specsum: {inst}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_overflowing_instance_is_a_numerical_fault(self, tmp_path, capsys, command):
        # every entry is finite, but the mean matrix overflows
        inst = generate_instance("quadratic", 3, 8, 0, str(tmp_path / "inst.npz"))
        with np.load(inst) as data:
            arrays = dict(data)
        np.savez(inst, **{**arrays, "A": arrays["A"] * 1e306})
        out = tmp_path / "out"
        assert main([command, "--instance", inst, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "specsum: numerical fault: _mean_A of the quadratic instance is not finite\n"
        assert not out.exists()

    def test_singular_instance_is_a_numerical_fault(self, tmp_path, capsys):
        inst = str(tmp_path / "zero.npz")
        np.savez(inst, A=np.zeros((3, 2, 2)), b=np.ones((3, 2)), lipschitz=1.0, seed=0)
        assert main(["run", "--instance", inst, "--out", str(tmp_path)]) == 3
        assert "numerical fault" in capsys.readouterr().err
