"""Trace persistence, aggregation math, frozen instances."""

import gc
import math
import pickle
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_logistic
from specsum.cli import _method_config
from specsum.harness import (
    TRACE_COLUMNS,
    ExperimentSpec,
    _fmt,
    aggregate_curves,
    compare_methods,
    generate_instance,
    load_instance,
    read_trace,
    rng_for_run,
    run_single,
    sweep_m,
    trace_curve,
    write_aggregate,
    write_trace,
)
from specsum.problems import DatasetFormatError, batch_value, generate_quadratic
from specsum.solvers import METHODS, IterationRecord, RunTrace, SolverConfig, run_solver


@pytest.fixture(scope="module")
def tiny_problem():
    return generate_quadratic(3, 6, np.random.default_rng(100))


class TestTraceRoundTrip:
    def test_values_survive_text(self, tiny_problem, tmp_path):
        cfg = SolverConfig(method="slises", m=2, S=1, maxiter=9)
        path, trace = run_single(tiny_problem, cfg, seed=3, out_dir=str(tmp_path))
        header, rows = read_trace(path)
        assert header["gamma_min"] == "1e-08"
        assert header["seed"] == "3"
        assert header["problem"] == tiny_problem.label
        assert int(header["N"]) == tiny_problem.N
        assert len(rows["k"]) == cfg.maxiter + 1
        for j, rec in enumerate(trace.records):
            assert rows["f_full"][j] == rec.f_full  # bit-exact through repr
            assert rows["cum_evals"][j] == rec.cum_evals
            assert rows["gamma_k"][j] == rec.gamma or (
                np.isnan(rows["gamma_k"][j]) and np.isnan(rec.gamma))

    def test_numpy_float_fields_are_written_as_floats(self, tiny_problem, tmp_path):
        # a numpy float's repr is np.float64(0.0001), which read back as text
        cfg = SolverConfig(eta=np.float64(1e-4), gamma_min=np.float32(0.5), maxiter=3)
        path, _ = run_single(tiny_problem, cfg, seed=0, out_dir=str(tmp_path))
        header, _ = read_trace(path)
        assert header["eta"] == "0.0001"
        assert header["gamma_min"] == repr(float(np.float32(0.5))) == "0.5"
        assert _fmt(np.float64(1e-4)) == _fmt(1e-4)

    def test_rerun_byte_identical(self, tiny_problem, tmp_path):
        cfg = SolverConfig(method="slises", sampler="ais", maxiter=7)
        p1, _ = run_single(tiny_problem, cfg, seed=5, out_dir=str(tmp_path / "a"))
        p2, _ = run_single(tiny_problem, cfg, seed=5, out_dir=str(tmp_path / "b"))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_distinct_streams_differ(self, tiny_problem, tmp_path):
        cfg = SolverConfig(method="slises", maxiter=7)
        _, t0 = run_single(tiny_problem, cfg, seed=5, out_dir=str(tmp_path), stream=0)
        _, t1 = run_single(tiny_problem, cfg, seed=5, out_dir=str(tmp_path), stream=1)
        assert not all(np.array_equal(r0.indices, r1.indices)
                       for r0, r1 in zip(t0.records, t1.records, strict=True))

    def test_writer_and_curve_keep_rows_past_a_sentinel(self, tmp_path):
        # the driver ends a trace at its sentinel; the harness keeps every
        # record it is given, here a row after a hand-made sentinel
        recs = [
            IterationRecord(0, False, np.nan, np.nan, np.nan, 0, 0, 0, 5.0, 1.0),
            IterationRecord(0, True, 1.0, 1.0, 1.0, 1, 2, 1, np.inf, np.inf),
            IterationRecord(1, False, 1.0, 1.0, 1.0, 1, 3, 2, 7.0, 2.0),
        ]
        trace = RunTrace(header={"method": "slises"}, records=recs, final_x=np.zeros(1))
        path = write_trace(trace, str(tmp_path / "t.csv"))
        _, rows = read_trace(path)
        assert list(rows["cum_evals"]) == [0.0, 2.0, 3.0]
        assert list(rows["f_full"]) == [5.0, np.inf, 7.0]
        evals, f = trace_curve(trace)
        assert list(evals) == [0.0, 2.0, 3.0]
        assert list(f) == [5.0, np.inf, 7.0]


# floats that repr spells in every way it can: nan, signed infinities and
# zeros, subnormals and the largest finite values; ints past int64
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e16, 1e-7]),
)
INTS = st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 10**40))
RECORDS = st.builds(
    IterationRecord, k=INTS, resampled=st.booleans(), c=FLOATS, gamma=FLOATS,
    alpha=FLOATS, lsp_trials=INTS, cum_evals=INTS, grad_pass_cost=INTS,
    f_full=FLOATS, grad_norm_full=FLOATS)
FIELDS = ("k", "resampled", "c", "gamma", "alpha", "lsp_trials", "cum_evals",
          "grad_pass_cost", "f_full", "grad_norm_full")


def data_lines(path):
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]


class TestRowFormatting:
    """Each written row is the ``_fmt`` of its fields, joined by commas."""

    @given(st.lists(RECORDS, min_size=1, max_size=6))
    def test_trace_rows(self, tmp_path_factory, records):
        path = str(tmp_path_factory.mktemp("t") / "t.csv")
        write_trace(RunTrace(header={"method": "slises"}, records=records,
                             final_x=np.zeros(1)), path)
        expected = [",".join(_fmt(getattr(rec, f)) for f in FIELDS) for rec in records]
        assert data_lines(path) == [",".join(TRACE_COLUMNS)] + expected

    @given(st.integers(1, 6).flatmap(lambda rows: st.tuples(
        st.one_of(st.lists(FLOATS, min_size=rows, max_size=rows).map(np.array),
                  st.lists(st.integers(-2**63, 2**63 - 1), min_size=rows,
                           max_size=rows).map(lambda v: np.array(v, dtype=np.int64))),
        st.lists(st.lists(FLOATS, min_size=rows, max_size=rows).map(np.array),
                 min_size=1, max_size=3))))
    def test_aggregate_rows(self, tmp_path_factory, drawn):
        grid, cols = drawn
        columns = {f"c{j}": c for j, c in enumerate(cols)}
        path = str(tmp_path_factory.mktemp("a") / "a.csv")
        write_aggregate(path, grid, columns, {"experiment": "compare"})
        expected = [",".join([_fmt(float(g))] + [_fmt(float(c[i])) for c in cols])
                    for i, g in enumerate(grid)]
        assert data_lines(path) == [",".join(["cum_evals"] + list(columns))] + expected


class TestAggregation:
    def test_lvcf_median_hand_computed(self):
        c1 = (np.array([0.0, 2.0, 5.0]), np.array([10.0, 8.0, 6.0]))
        c2 = (np.array([0.0, 3.0]), np.array([9.0, 5.0]))
        grid, cols = aggregate_curves({"a": [c1, c2]}, how="median")
        assert list(grid) == [0.0, 2.0, 3.0, 5.0]
        assert list(cols["a"]) == [9.5, 8.5, 6.5, 5.5]

    def test_mean_and_per_run(self):
        c1 = (np.array([0.0, 1.0]), np.array([4.0, 2.0]))
        c2 = (np.array([0.0, 2.0]), np.array([8.0, 0.0]))
        _, mean_cols = aggregate_curves({"a": [c1, c2]}, how="mean")
        assert list(mean_cols["a"]) == [6.0, 5.0, 1.0]
        _, run_cols = aggregate_curves({"a": [c1, c2]}, how="per-run")
        assert set(run_cols) == {"a/run0", "a/run1"}

    def test_single_run_aggregate_is_the_curve(self, tiny_problem, tmp_path):
        cfg = SolverConfig(method="slises", m=3, maxiter=8)
        _, trace = run_single(tiny_problem, cfg, seed=1, out_dir=str(tmp_path))
        evals, f = trace_curve(trace)
        grid, cols = aggregate_curves({"x": [(evals, f)]}, how="median")
        lookup = dict(zip(grid, cols["x"]))
        for e, v in zip(evals, f):
            assert lookup[e] == v

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            aggregate_curves({"a": []}, how="mode")

    def test_a_sentinel_is_carried_forward(self):
        # a diverged curve ends at its sentinel, which holds to the end of the
        # grid: a median is inf once most seeds diverged and nan once it
        # holds a nan, a mean is inf once any seed did
        finite = (np.array([0.0, 2.0, 6.0]), np.array([5.0, 4.0, 3.0]))
        inf = (np.array([0.0, 4.0]), np.array([5.0, np.inf]))
        nan = (np.array([0.0, 4.0]), np.array([5.0, np.nan]))
        curves = {"one": [finite, finite, inf], "most": [finite, inf, inf], "nan": [finite, nan]}
        grid, median = aggregate_curves(curves, how="median")
        assert list(grid) == [0.0, 2.0, 4.0, 6.0]
        assert list(median["one"]) == [5.0, 4.0, 4.0, 3.0]
        assert list(median["most"]) == [5.0, 5.0, np.inf, np.inf]
        assert list(median["nan"][:2]) == [5.0, 4.5] and np.isnan(median["nan"][2:]).all()
        _, mean = aggregate_curves(curves, how="mean")
        assert list(mean["one"][2:]) == [np.inf, np.inf]

    @given(st.lists(st.tuples(
        st.lists(st.integers(0, 5), min_size=0, max_size=4),
        st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
        st.sampled_from([None, math.inf, math.nan])), min_size=1, max_size=4))
    def test_aggregate_is_each_runs_last_value_on_the_union_grid(self, drawn):
        # costs rise from 0 by drawn steps, some of 0; a run may end at a sentinel
        curves = []
        for steps, values, sentinel in drawn:
            evals = np.cumsum([0, *steps]).astype(np.float64)
            f = np.array(values[:evals.size], dtype=np.float64)
            if sentinel is not None:
                f[-1] = sentinel
            curves.append((evals, f))
        grid, runs = aggregate_curves({"a": curves}, how="per-run")
        assert list(grid) == sorted({e for evals, _ in curves for e in evals})
        for i, (evals, f) in enumerate(curves):
            expected = [next(v for e, v in zip(evals[::-1], f[::-1]) if e <= g) for g in grid]
            np.testing.assert_array_equal(runs[f"a/run{i}"], expected)
            if not np.isfinite(f[-1]):
                held = runs[f"a/run{i}"][grid >= evals[-1]]
                assert np.all(held == f[-1]) or np.all(np.isnan(held) & np.isnan(f[-1]))
        stacked = np.vstack(list(runs.values()))
        for how, reduce in (("median", np.median), ("mean", np.mean)):
            _, cols = aggregate_curves({"a": curves}, how=how)
            np.testing.assert_array_equal(cols["a"], reduce(stacked, axis=0))

    def test_duplicate_budget_keeps_latest_value(self):
        # two records at the same evaluation count: the later state wins
        c = (np.array([0.0, 0.0, 1.0]), np.array([7.0, 5.0, 3.0]))
        grid, cols = aggregate_curves({"a": [c]}, how="median")
        assert list(grid) == [0.0, 1.0]
        assert list(cols["a"]) == [5.0, 3.0]


class TestExperiments:
    def test_sweep_m_writes_one_column_per_m(self, tiny_problem, tmp_path):
        base = SolverConfig(method="slises", S=1, maxiter=6)
        # a repeated m or seed, or an invalid m after a valid one, runs nothing
        for m_values, seeds in (([3, 3], [0]), ([1, 3], [0, 0]), ([1, 0], [0])):
            out = tmp_path / "refused"
            with pytest.raises(ValueError):
                sweep_m(tiny_problem, base, m_values, seeds, out_dir=str(out))
            assert not out.exists()
        paths, agg = sweep_m(tiny_problem, base, [1, 3], seeds=[0, 1],
                             out_dir=str(tmp_path))
        assert len(paths) == 4
        header, rows = read_trace(agg)
        assert set(rows) == {"cum_evals", "m=1", "m=3"}
        assert header["aggregation"] == "median"

    def test_compare_methods_columns(self, tiny_problem, tmp_path):
        uni = SolverConfig(method="slises", sampler="uniform", maxiter=5)
        # one label twice, one seed twice, or an invalid config after a
        # valid one: refused before the first run writes its trace
        for configs, seeds in (([uni, replace(uni, seed=7)], [0]), ([uni], [1, 1]),
                               ([uni, replace(uni, method="slises-modified", m=1)], [0])):
            out = tmp_path / "refused"
            with pytest.raises(ValueError):
                compare_methods(tiny_problem, configs, seeds, out_dir=str(out))
            assert not out.exists()
        configs = [SolverConfig(method="slises", sampler="ais", maxiter=5),
                   SolverConfig(method="sgd", maxiter=5)]
        paths, agg = compare_methods(tiny_problem, configs, seeds=[0],
                                     out_dir=str(tmp_path))
        header, rows = read_trace(agg)
        assert set(rows) == {"cum_evals", "slises-ais-m3", "sgd"}
        assert len(paths) == 2

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: generate_quadratic(3, 6, np.random.default_rng(100)),
                     id="quadratic"),
        pytest.param(lambda: make_logistic(3, 6, seed=100), id="logistic")])
    @pytest.mark.parametrize("S", [1, 2])
    def test_a_compare_only_reads_its_problem(self, build, S, tmp_path):
        # the runs of a grid share the problem: every method leaves its
        # attributes and the bytes of its arrays as they were
        P = build()
        before = pickle.dumps(vars(P))
        configs = [SolverConfig(method=method, S=S, m=2, maxiter=8) for method in METHODS]
        compare_methods(P, configs + [SolverConfig(sampler="ais", S=S, m=2, maxiter=8)],
                        seeds=[0, 1], out_dir=str(tmp_path))
        assert pickle.dumps(vars(P)) == before

    def test_experiment_spec_builds_problems(self, tmp_path):
        spec = ExperimentSpec(n=3, N=5, problem_seed=1)
        P = spec.build_problem()
        assert (P.N, P.n) == (5, 3)
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5\n0 2:1.0\n")
        spec = ExperimentSpec(dataset=str(data), lam=1e-3)
        Q = spec.build_problem()
        assert Q.N == 2 and Q.lam == 1e-3
        with pytest.raises(ValueError):
            ExperimentSpec().build_problem()

    def test_problem_labels_name_their_draw(self, tmp_path):
        # a generated quadratic takes the label of its frozen twin
        P = ExperimentSpec(n=3, N=5, problem_seed=7).build_problem()
        twin = load_instance(generate_instance("quadratic", 3, 5, 7, str(tmp_path / "q.npz")))
        assert P.label == twin.label == "quadratic-n3-N5-seed7"
        data = tmp_path / "d.txt"
        data.write_text("1 1:0.5\n0 2:1.0\n")
        Q = ExperimentSpec(dataset=str(data), lam=1e-3).build_problem()
        assert Q.label == "logistic-n2-N2-lam0.001"


class TestInstances:
    def test_round_trip_bit_exact(self, tmp_path):
        path = generate_instance("quadratic", 4, 7, seed=11,
                                 path=str(tmp_path / "inst.npz"))
        P = load_instance(path)
        Q = generate_quadratic(4, 7, np.random.default_rng(11))
        assert np.array_equal(P.A, Q.A)
        assert np.array_equal(P.b, Q.b)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-5, 35, 4)
            i = int(rng.integers(7))
            assert batch_value(P, [i], x) == batch_value(Q, [i], x)
        assert "seed11" in P.label

    def test_extension_added(self, tmp_path):
        path = generate_instance("quadratic", 2, 3, seed=0,
                                 path=str(tmp_path / "inst"))
        assert path.endswith(".npz")
        assert load_instance(path).N == 3

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_instance("logistic", 2, 3, 0, str(tmp_path / "x.npz"))


def _instance_arrays():
    P = generate_quadratic(3, 4, np.random.default_rng(2))
    return {"A": P.A, "b": P.b, "lipschitz": P.lipschitz, "seed": 2}


def _with(**changes):
    arrays = _instance_arrays()
    arrays.update(changes)
    return {k: v for k, v in arrays.items() if v is not None}


class TestMalformedInstances:
    """A malformed frozen instance is rejected when it is loaded, naming the file."""

    @pytest.mark.parametrize("arrays, message", [
        (_with(A=None), "missing A"),
        (_with(b=None), "missing b"),
        (_with(lipschitz=None, seed=None), "missing lipschitz, seed"),
        (_with(A=np.zeros((4, 3, 2))), "expected A (N, n, n)"),
        (_with(b=np.zeros((4, 2))), "expected A (N, n, n)"),
        (_with(b=np.zeros(12)), "expected A (N, n, n)"),
        (_with(A=np.zeros((0, 3, 3)), b=np.zeros((0, 3))), "expected A (N, n, n)"),
        (_with(lipschitz=np.ones(2)), "scalar"),
        (_with(A=np.full((4, 3, 3), np.nan)), "A holds a non-numeric or non-finite value"),
        (_with(b=np.full((4, 3), -np.inf)), "b holds a non-numeric or non-finite value"),
        (_with(lipschitz=np.inf), "lipschitz holds a non-numeric or non-finite value"),
        (_with(seed=np.nan), "seed holds a non-numeric or non-finite value"),
        (_with(A=np.full((4, 3, 3), "a")), "A holds a non-numeric or non-finite value"),
    ])
    def test_bad_arrays_rejected(self, tmp_path, arrays, message):
        path = str(tmp_path / "bad.npz")
        np.savez(path, **arrays)
        with pytest.raises(DatasetFormatError) as err:
            load_instance(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    @pytest.mark.parametrize("name, content", [
        ("text.npz", b"A = 1\n"),
        ("empty.npz", b""),
        ("truncated.npz", None),
        ("array.npy", None),
    ])
    def test_non_npz_file_rejected(self, tmp_path, name, content):
        path = tmp_path / name
        if name == "truncated.npz":
            np.savez(str(path), **_instance_arrays())
            content = path.read_bytes()[:64]
        if name == "array.npy":
            np.save(str(path), np.ones(3))
        else:
            path.write_bytes(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DatasetFormatError, match="not an .npz archive"):
                load_instance(str(path))
            gc.collect()  # a file left open warns when it is collected
        assert [w.message for w in caught if w.category is ResourceWarning] == []

    def test_unreadable_array_rejected(self, tmp_path):
        objects = str(tmp_path / "objects.npz")
        np.savez(objects, **_with(seed=np.array([2], dtype=object).reshape(())))
        corrupt = tmp_path / "corrupt.npz"
        np.savez(str(corrupt), **_instance_arrays())
        raw = bytearray(corrupt.read_bytes())
        raw[200] ^= 0xFF  # inside A's data: its CRC no longer matches
        corrupt.write_bytes(bytes(raw))
        for path in (objects, str(corrupt)):
            with pytest.raises(DatasetFormatError, match="unreadable array"):
                load_instance(path)

    def test_well_formed_instance_still_loads(self, tmp_path):
        path = str(tmp_path / "ok.npz")
        np.savez(path, **_instance_arrays())
        P = load_instance(path)
        assert np.array_equal(P.A, _instance_arrays()["A"]) and P.label.endswith("seed2")


class TestGenerationSpeed:
    def test_benchmark_size_instance_generates_quickly(self):
        # 1000 eigendecompositions of 100x100 matrices, well under a minute
        import time

        t0 = time.time()
        P = generate_quadratic(100, 1000, np.random.default_rng(0))
        assert time.time() - t0 < 60.0
        assert (P.N, P.n) == (1000, 100)


class TestRngStreams:
    def test_streams_reproducible_and_independent(self):
        a1 = rng_for_run(7, 0).integers(0, 1000, 5)
        a2 = rng_for_run(7, 0).integers(0, 1000, 5)
        b = rng_for_run(7, 1).integers(0, 1000, 5)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    @pytest.mark.parametrize("token", ["slises-ais", "slises-uni", "slises-mod",
                                       "spectral-full", "sgd", "svrg-bb", "sgd-bb",
                                       "sgd-bb-smooth"])
    def test_generator_built_at_the_first_draw_keeps_the_stream(self, tiny_problem,
                                                                tmp_path, token):
        # run_single hands the driver a factory; a generator built before the
        # run must give the same records
        cfg = _method_config(token, SolverConfig(m=2, S=2, maxiter=12, seed=7))
        _, lazy = run_single(tiny_problem, cfg, seed=7, out_dir=str(tmp_path))
        eager = run_solver(tiny_problem, cfg, rng_for_run(7, 0))
        assert lazy.records == eager.records
        assert all(np.array_equal(a.indices, b.indices)
                   for a, b in zip(lazy.records, eager.records, strict=True))
