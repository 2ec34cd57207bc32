"""Problem oracles: generator recipe, gradients, estimators, ingestion."""

import itertools
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import problems
from specsum.problems import (
    DatasetFormatError,
    EvalMeter,
    LogisticProblem,
    QuadraticProblem,
    batch_gradient,
    batch_value,
    component_gradient_norms,
    detect_format,
    full_gradient,
    full_value,
    generate_quadratic,
    load_dataset,
    logistic_problem,
)
from specsum.solvers import REPORT_CHUNK, SolverConfig, run_solver

from conftest import make_logistic


def central_diff(f, x, h):
    g = np.empty(x.size)
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestQuadraticGenerator:
    def test_eigenvalues_within_bounds(self):
        P = generate_quadratic(6, 15, np.random.default_rng(7))
        for Ai in P.A:
            w = np.linalg.eigvalsh(Ai)
            assert w[0] >= 1.0 - 1e-9
            assert w[-1] <= 101.0 + 1e-9

    def test_matrices_exactly_symmetric(self):
        P = generate_quadratic(5, 8, np.random.default_rng(3))
        for Ai in P.A:
            assert np.array_equal(Ai, Ai.T)

    def test_b_entries_in_range(self):
        P = generate_quadratic(4, 30, np.random.default_rng(11))
        assert np.all(P.b >= 1.0) and np.all(P.b <= 31.0)

    def test_component_minimizer(self):
        P = generate_quadratic(5, 6, np.random.default_rng(0))
        for i in range(P.N):
            assert batch_value(P, [i], P.b[i]) == 0.0
            assert np.allclose(P.component_gradient(i, P.b[i]), 0.0)

    def test_global_minimizer_solves_normal_equations(self):
        # oracle: the gradient of the exact solve must vanish
        P = generate_quadratic(2, 3, np.random.default_rng(42))
        assert np.linalg.norm(full_gradient(P, P.minimizer)) <= 1e-10
        assert full_value(P, P.minimizer) == P.optimal_value

    def test_lipschitz_is_largest_eigenvalue(self):
        P = generate_quadratic(4, 10, np.random.default_rng(5))
        top = max(np.linalg.eigvalsh(Ai)[-1] for Ai in P.A)
        assert P.lipschitz == pytest.approx(top, rel=1e-12)

    @given(n=st.integers(1, 12), N=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_replayed_draws(self, n, N, seed):
        # each component draws b_i, then d_i, then C_i; A_i = Q_i D_i Q_i'
        # with Q_i orthonormal has the spectrum of d_i
        P = generate_quadratic(n, N, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        for i in range(N):
            b = rng.uniform(1.0, 31.0, size=n)
            d = rng.uniform(1.0, 101.0, size=n)
            rng.standard_normal((n, n))
            assert np.array_equal(P.b[i], b)
            np.testing.assert_allclose(np.linalg.eigvalsh(P.A[i]), np.sort(d),
                                       rtol=1e-12, atol=0)

    def test_seed_reproducibility(self):
        P1 = generate_quadratic(4, 5, np.random.default_rng(9))
        P2 = generate_quadratic(4, 5, np.random.default_rng(9))
        assert np.array_equal(P1.A, P2.A) and np.array_equal(P1.b, P2.b)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_quadratic(0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_quadratic(3, 0, np.random.default_rng(0))


class TestValuesAndGradients:
    def test_full_value_is_mean_of_components(self):
        rng = np.random.default_rng(1)
        P = generate_quadratic(5, 12, rng)
        Q = make_logistic(4, 9, seed=2)
        for prob in (P, Q):
            x = rng.standard_normal(prob.n) * 3
            mean = sum(batch_value(prob, [i], x) for i in range(prob.N)) / prob.N
            assert full_value(prob, x) == pytest.approx(mean, rel=1e-12)

    def test_batch_with_full_index_set_matches_full(self):
        rng = np.random.default_rng(2)
        P = generate_quadratic(4, 7, rng)
        Q = make_logistic(4, 9, seed=2)
        for prob, x in ((P, rng.uniform(0, 30, P.n)), (Q, rng.standard_normal(Q.n) * 3)):
            sample = np.arange(prob.N)
            f = full_value(prob, x)
            assert batch_value(prob, sample, x) == pytest.approx(f, rel=1e-12)
            assert batch_gradient(prob, sample, x) == pytest.approx(full_gradient(prob, x),
                                                                    rel=1e-10)

    def test_single_component_batch(self):
        rng = np.random.default_rng(3)
        P = generate_quadratic(4, 6, rng)
        x = rng.uniform(0, 30, P.n)
        meter = EvalMeter()
        v = batch_value(P, [2], x, meter)
        dx = x - P.b[2]
        assert v == pytest.approx(0.5 * dx @ P.A[2] @ dx, rel=1e-14)
        assert meter.count == 1

    def test_component_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        quad = [generate_quadratic(5, 8, rng) for _ in range(3)]
        logi = [make_logistic(5, 8, seed=s) for s in range(3)]
        for pool, scale in ((quad, 15.0), (logi, 2.0)):
            for _ in range(40):
                prob = pool[rng.integers(len(pool))]
                i = int(rng.integers(prob.N))
                x = rng.standard_normal(prob.n) * scale
                h = 1e-6 * (1 + np.linalg.norm(x))
                g = prob.component_gradient(i, x)
                fd = central_diff(lambda y: batch_value(prob, [i], y), x, h)
                assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        P = generate_quadratic(4, 9, rng)
        Q = make_logistic(4, 9, seed=6)
        for prob in (P, Q):
            for _ in range(5):
                sample = rng.choice(prob.N, size=3, replace=False)
                x = rng.standard_normal(prob.n) * 4
                h = 1e-6 * (1 + np.linalg.norm(x))
                g = batch_gradient(prob, sample, x)
                fd = central_diff(lambda y: prob.batch_value(sample, y), x, h)
                assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_uniform_estimator_unbiased_by_enumeration(self):
        # exhaustive oracle over all size-S subsets of a tiny problem
        rng = np.random.default_rng(6)
        P = generate_quadratic(3, 6, rng)
        x = rng.uniform(0, 30, P.n)
        for S in (1, 2, 3):
            subsets = list(itertools.combinations(range(P.N), S))
            g = sum(batch_gradient(P, list(s), x) for s in subsets)
            g /= len(subsets)
            full = full_gradient(P, x)
            assert np.linalg.norm(g - full) <= 1e-12 * max(1.0, np.linalg.norm(full))
            v = sum(batch_value(P, list(s), x) for s in subsets) / len(subsets)
            assert v == pytest.approx(full_value(P, x), rel=1e-12)


class TestMeter:
    def test_batch_value_charges_sample_size(self):
        rng = np.random.default_rng(7)
        P = generate_quadratic(3, 10, rng)
        x = rng.uniform(0, 30, P.n)
        meter = EvalMeter()
        batch_value(P, [1, 4, 7], x, meter)
        assert meter.count == 3
        batch_value(P, [0], x, meter)
        assert meter.count == 4

    def test_gradient_column_charges_sample_size_and_N(self):
        rng = np.random.default_rng(9)
        P = generate_quadratic(3, 10, rng)
        x = rng.uniform(0, 30, P.n)
        meter = EvalMeter()
        batch_gradient(P, [2, 5], x, meter)
        assert meter.grad_count == 2
        full_gradient(P, x, meter)
        assert meter.grad_count == 2 + P.N
        batch_value(P, [1], x, meter)
        assert (meter.count, meter.grad_count) == (1, 2 + P.N)

    @pytest.mark.parametrize("family", ["quadratic", "logistic"])
    def test_component_gradient_norms_charge_gradient_units(self, family):
        rng = np.random.default_rng(10)
        P = (generate_quadratic(3, 10, rng) if family == "quadratic"
             else make_logistic(3, 10, seed=10))
        x = rng.standard_normal(P.n) * 5
        batch = np.array([4, 0, 4, 9])
        meter = EvalMeter()
        norms = component_gradient_norms(P, batch, x, meter)
        expected = [np.linalg.norm(P.component_gradient(i, x)) for i in batch]
        assert norms.tobytes() == np.array(expected).tobytes()
        assert (meter.count, meter.grad_count) == (0, 4)
        listed = component_gradient_norms(P, [4, 0, 4, 9], x, meter)
        assert listed.tobytes() == norms.tobytes()
        assert (meter.count, meter.grad_count) == (0, 8)

    def test_gradient_and_reporting_are_free(self):
        rng = np.random.default_rng(8)
        P = generate_quadratic(3, 10, rng)
        x = rng.uniform(0, 30, P.n)
        meter = EvalMeter()
        for _ in range(5):
            batch_gradient(P, [2, 5], x)
        full_value(P, x)
        full_gradient(P, x)
        assert meter.count == 0


_COORDINATE = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))


class TestOneIndexPoint:
    """The estimators at one (batch, iterate), of one index or several,
    share what they compute through the caller's point, and no result
    depends on it."""

    @given(first=st.sampled_from(["value", "gradient"]),
           idx=st.lists(st.integers(-4, 3), min_size=1, max_size=3),
           x=st.lists(_COORDINATE, min_size=3, max_size=3))
    def test_a_pair_at_a_fresh_point_is_the_point_less_calls(self, first, idx, x):
        # a value then a gradient, or a gradient then a value, sharing one
        # fresh point, has the bytes of the two calls without a point
        P = generate_quadratic(3, 4, np.random.default_rng(21))
        idx, x, point = np.array(idx), np.array(x), {}
        estimators = {"value": lambda **kw: np.float64(batch_value(P, idx, x, **kw)),
                      "gradient": lambda **kw: batch_gradient(P, idx, x, **kw)}
        order = [first, "gradient" if first == "value" else "value"]
        with np.errstate(all="ignore"):
            got = [estimators[kind](point=point) for kind in order]
            ref = [estimators[kind]() for kind in order]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
        assert np.float64(point["value"]).tobytes() == got[order.index("value")].tobytes()
        assert {"dx", "Adx"} <= set(point)  # every quadratic batch keeps its products

    def test_a_slises_run_takes_one_product_per_iteration_and_redraw(self):
        # m=5, S=1: a redraw's gradient and its base value share one product,
        # and so do the last trial and the next gradient on the same batch
        P = generate_quadratic(8, 60, np.random.default_rng(3))
        products = []

        class CountingA(np.ndarray):
            # A_i of a one-index call is a view of this class: count its products
            def __matmul__(self, other):
                products.append(other)
                return np.asarray(self) @ other

        P.A = P.A.view(CountingA)
        records = run_solver(P, SolverConfig(method="slises", m=5, S=1, maxiter=200)).records[1:]
        assert [r.lsp_trials for r in records] == [1] * 200  # one trial each
        redraws = sum(r.resampled for r in records)
        assert redraws == 40
        assert len(products) == 200 + redraws

    @pytest.mark.parametrize("method, S", [("spectral-full", None), ("slises", 3)])
    def test_a_run_takes_one_product_stack_per_trial_and_redraw(self, method, S):
        # every trial and every redraw (k=0 included) takes its batch's
        # products once; a gradient at an accepted trial takes the trial's
        P = generate_quadratic(6, 30, np.random.default_rng(4))
        stacks = []

        class CountingA(np.ndarray):
            # A and each batch of it: count every ufunc (matmul) and every
            # other numpy function (einsum) that takes one
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                stacks.append(ufunc)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

            def __array_function__(self, func, types, args, kwargs):
                stacks.append(func)
                return func(*(np.asarray(a) if isinstance(a, CountingA) else a
                              for a in args), **kwargs)

        P.A = P.A.view(CountingA)
        cfg = SolverConfig(method=method, m=5, S=S or 1, maxiter=60)
        records = run_solver(P, cfg).records[1:]
        trials = sum(r.lsp_trials for r in records)
        redraws = sum(r.resampled for r in records) if S else 1  # spectral-full: k=0
        gradients = records[-1].grad_pass_cost // (S or P.N)
        assert (redraws, gradients) == ((12, 60) if S else (1, 40))
        assert len(stacks) == redraws + trials


class TestLogistic:
    def test_value_at_origin_is_log2(self):
        P = make_logistic(4, 7, seed=9, lam=0.0)
        assert full_value(P, np.zeros(4)) == pytest.approx(np.log(2.0), rel=1e-14)
        assert batch_value(P, [3], np.zeros(4)) == pytest.approx(np.log(2.0), rel=1e-14)

    def test_hand_evaluated_gradient(self):
        # a=(1,0), label +1, x=0: gradient is -a*sigmoid(0) = (-0.5, 0)
        P = LogisticProblem(np.array([[1.0, 0.0]]), np.array([1.0]), lam=0.0)
        g = P.component_gradient(0, np.zeros(2))
        assert g == pytest.approx([-0.5, 0.0], abs=1e-15)

    def test_default_regularization(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:0.5\n0 1:1.5\n")
        P = logistic_problem(load_dataset(str(f), "sparse"))
        assert P.lam == 1e-4

    def test_lipschitz_bound(self):
        feats = np.array([[1.0, 2.0], [3.0, 0.0]])
        P = LogisticProblem(feats, np.array([1.0, -1.0]), lam=1e-4)
        assert P.lipschitz == pytest.approx(1e-4 + 9.0 / 4.0, rel=1e-14)

    def test_overflowing_squared_row_norm_raises(self):
        feats = np.array([[1e200, 1.0], [0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(problems.NonFiniteInstanceError,
                               match="^lipschitz of the logistic instance is not finite$"):
                LogisticProblem(feats, np.array([1.0, -1.0]), 1e-4)

    def test_lipschitz_has_the_bits_of_the_whole_matrix_sum(self):
        # rows squared a block at a time, the last block short
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((3001, 50)) * rng.uniform(0.0, 100.0, size=(3001, 1))
        P = LogisticProblem(feats, np.where(rng.random(3001) > 0.5, 1.0, -1.0), 1e-4)
        assert P.lipschitz == 1e-4 + 0.25 * float(np.max(np.sum(feats**2, axis=1)))

    def test_constructor_makes_no_temporary_the_size_of_the_features(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((20000, 50))
        labels = np.where(rng.random(20000) > 0.5, 1.0, -1.0)
        tracemalloc.start()
        try:
            LogisticProblem(feats, labels, 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * feats.nbytes

    def test_large_arguments_stay_finite(self):
        P = make_logistic(3, 5, seed=10)
        x = np.full(3, 1e4)
        assert np.isfinite(full_value(P, x))
        assert np.all(np.isfinite(full_gradient(P, x)))

    def test_negative_regularization_rejected(self):
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="^regularization must be finite and nonnegative"):
                LogisticProblem(np.ones((2, 2)), np.array([1.0, -1.0]), lam=lam)


class TestDatasetLoader:
    def test_sparse_row(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:0.5 3:2.0\n")
        data = load_dataset(str(f), "sparse-index-value")
        assert data.N == 1 and data.n >= 3
        assert data.labels[0] == 1.0
        assert np.array_equal(data.features[0], [0.5, 0.0, 2.0])

    def test_nonpositive_label_maps_to_minus_one(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 2:1.0\n")
        data = load_dataset(str(f), "sparse")
        assert data.labels[0] == -1.0

    def test_two_valued_labels_larger_is_positive(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:1.0\n2 1:2.0\n1 1:3.0\n")
        data = load_dataset(str(f), "sparse")
        assert np.array_equal(data.labels, [-1.0, 1.0, -1.0])

    def test_dense_shape(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,0.5,2.0\n-1,1.0,0.0\n1,0.0,3.0\n")
        data = load_dataset(str(f), "dense-delimited")
        assert data.N == 3 and data.n == 2
        assert np.array_equal(data.labels, [1.0, -1.0, 1.0])

    @pytest.mark.parametrize("sep", [" ", "\t", ","])
    def test_dense_delimiters(self, tmp_path, sep):
        f = tmp_path / "d.txt"
        f.write_text(sep.join(["1", "0.5", "2.0"]) + "\n" + sep.join(["0", "1.0", "3.5"]) + "\n")
        data = load_dataset(str(f), "dense")
        assert data.N == 2 and data.n == 2
        assert data.features[1, 1] == 3.5

    def test_malformed_line_reports_lineno(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:0.5\n1 oops\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(str(f), "sparse")

    def test_dense_ragged_row_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1,0.5,2.0\n1,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(str(f), "dense")

    @pytest.mark.parametrize("text,line", [
        ("1 1:0.5\n1 1:nan 2:1.0\n", "line 2"),
        ("1 1:0.5\n0 2:inf\n", "line 2"),
        ("nan 1:0.5\n1 1:1.0\n", "line 1"),
    ])
    def test_sparse_nonfinite_values_rejected(self, tmp_path, text, line):
        f = tmp_path / "d.txt"
        f.write_text(text)
        with pytest.raises(DatasetFormatError, match=line):
            load_dataset(str(f), "sparse")

    @pytest.mark.parametrize("text,line", [
        ("1,0.5,2.0\n1,nan,1.0\n", "line 2"),
        ("1,-inf,2.0\n1,0.5,1.0\n", "line 1"),
        ("1,0.5,2.0\n\ninf,0.5,1.0\n", "line 3"),
    ])
    def test_dense_nonfinite_values_rejected(self, tmp_path, text, line):
        f = tmp_path / "d.txt"
        f.write_text(text)
        with pytest.raises(DatasetFormatError, match=line):
            load_dataset(str(f), "dense")

    @pytest.mark.parametrize("fmt, text, message", [
        ("sparse", "1 1:0.5\n0 1:1e200 2:1.0\n1 2:0.25\n",
         "line 2: squared feature norm overflows"),
        ("dense", "1,0.5,1e160\n0,1e160,1.0\n", "line 1: squared feature norm overflows"),
        # the first bad row is named, whichever way it is bad
        ("sparse", "1 1:0.5\n1 1:1e200\n1 1:nan\n", "line 2: squared feature norm overflows"),
        ("sparse", "1 1:nan\n1 1:1e200\n", "line 1: non-finite label or feature value"),
    ])
    def test_overflowing_squared_row_norm_rejected(self, tmp_path, fmt, text, message):
        f = tmp_path / "d.txt"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DatasetFormatError) as err:
                load_dataset(str(f), fmt)
        assert str(err.value) == message

    def test_largest_finite_squared_row_norm_accepted(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:1e154 2:1.0\n0 1:1.0\n")
        P = logistic_problem(load_dataset(str(f), "sparse"))
        assert np.isfinite(P.lipschitz)

    def test_zero_feature_index_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 0:0.5\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(str(f), "sparse")

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("\n\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(str(f), "sparse")

    def test_unknown_format_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 1:0.5\n")
        with pytest.raises(ValueError):
            load_dataset(str(f), "parquet")

    def test_format_detection(self, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("1 1:0.5\n")
        d = tmp_path / "d.txt"
        d.write_text("1,0.5\n")
        assert detect_format(str(s)) == "sparse-index-value"
        assert detect_format(str(d)) == "dense-delimited"

    @pytest.mark.parametrize("text, fmt", [
        ("\n1\n-1 1:0.5 2:1.0\n", "sparse-index-value"),
        ("1 \n0\n1\t0.5\n", "dense-delimited"),
        ("1\n0,0.5,1.0\n", "dense-delimited"),
        ("1\n-1\n", "dense-delimited"),
    ])
    def test_format_detection_skips_lone_labels(self, tmp_path, text, fmt):
        f = tmp_path / "d.txt"
        f.write_text(text)
        assert detect_format(str(f)) == fmt


class TestNonFiniteInstance:
    @pytest.mark.parametrize("A, b, name", [
        (np.full((8, 2, 2), 1e308), np.ones((8, 2)), "_mean_A"),
        (np.ones((2, 1, 1)), np.full((2, 1), 1e308), "_mean_Ab"),
        (np.ones((1, 1, 1)), np.full((1, 1), 1e200), "_const"),
    ])
    def test_overflowing_aggregate_is_named(self, A, b, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(problems.NonFiniteInstanceError, match=f"^{name} "):
                QuadraticProblem(A, b, lipschitz=1.0)

    def test_non_finite_minimizer_is_named(self):
        with patch.object(QuadraticProblem, "_solve_minimizer",
                          return_value=np.array([np.inf])):
            with pytest.raises(problems.NonFiniteInstanceError, match="^minimizer "):
                QuadraticProblem(np.ones((1, 1, 1)), np.ones((1, 1)), lipschitz=1.0)


# ---------------------------------------------------------------------------
# report(x) against the full-index estimators

SIZES = st.sampled_from([1, 9, 41])


def wide_margin_problem(N, lam, seed, margins, n=4):
    """Logistic problem whose margins -y_i a_i'x at the returned x are
    ``margins``, up to rounding."""
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((N, n))
    labels = np.where(rng.random(N) > 0.5, 1.0, -1.0)
    x = rng.standard_normal(n)
    x[0] = 1.0 + abs(x[0])
    feats[:, 0] = (-labels * np.asarray(margins) - feats[:, 1:] @ x[1:]) / x[0]
    return LogisticProblem(feats, labels, lam), x


class TestReport:
    @given(N=SIZES, lam=st.sampled_from([0.0, 1e-4]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_logistic_bits(self, N, lam, seed, data):
        # the report is the charged full-index estimators, bit for bit:
        # the SVRG-BB snapshot takes its gradient from the report
        margins = data.draw(st.lists(st.floats(-800.0, 800.0), min_size=N, max_size=N))
        P, x = wide_margin_problem(N, lam, seed, margins)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (f,), (g,) = P.report(x[None])
            assert f == batch_value(P, np.arange(N), x)
            assert np.array_equal(g, batch_gradient(P, np.arange(N), x))

    @given(N=SIZES, seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    def test_quadratic_bits(self, N, seed, scale):
        # the report's aggregates agree with the full-index estimators to
        # rounding: every term either sums is at most L*R^2 in value and
        # L*R in gradient, R = ||x|| + max_i ||b_i||
        rng = np.random.default_rng(seed)
        P = generate_quadratic(4, N, rng)
        x = rng.standard_normal(4) * scale
        R = np.linalg.norm(x) + np.max(np.linalg.norm(P.b, axis=1))
        every = np.arange(N)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (f,), (g,) = P.report(x[None])
            assert abs(f - batch_value(P, every, x)) <= 1e-12 * P.lipschitz * R * R
            assert np.max(np.abs(g - batch_gradient(P, every, x))) <= 1e-12 * P.lipschitz * R

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_a_row_does_not_depend_on_the_other_rows_of_its_stack(self, kind):
        # a diverging run's sentinel and the rows computed past it share a
        # stack with finite rows: inf, NaN and overflowing rows leave the
        # finite rows' bits as a stack of finite rows gives them
        rng = np.random.default_rng(7)
        P = generate_quadratic(5, 12, rng) if kind == "quadratic" else make_logistic(5, 30, 7)
        X = 10.0 * rng.standard_normal((REPORT_CHUNK, 5))
        mixed = X.copy()
        mixed[2], mixed[15], mixed[7] = np.inf, -np.inf, np.nan
        mixed[9, 3] = np.nan
        mixed[11] = 1e200  # finite, but its value overflows
        bad = [2, 7, 9, 11, 15]
        finite = np.setdiff1d(np.arange(REPORT_CHUNK), bad)
        with np.errstate(all="ignore"):
            f, G = P.report(mixed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ref_f, ref_G = P.report(X)
        assert not np.any(np.isfinite(f[bad]))
        assert f[finite].tobytes() == ref_f[finite].tobytes()
        assert G[finite].tobytes() == ref_G[finite].tobytes()

    def test_overflowed_value_is_inf_not_minus_inf(self):
        # f >= 0 on an SPD instance, but past overflow x'Mx's fused products
        # keep the first term's -inf although the later terms are +inf
        P = QuadraticProblem(np.array([[[1.0, -0.9], [-0.9, 1.0]]]), np.zeros((1, 2)))
        with np.errstate(over="ignore"):
            f, _ = P.report(np.array([[4e154, 5e154], [2.0, 0.0]]))
        assert f[0] == np.inf and f[1] == 2.0


# ---------------------------------------------------------------------------
# block reader against the row-by-row reading it replaced


def reference_load(path, fmt):
    """Features and labels of a well-formed file, read line by line and
    token by token; a repeated index keeps its last value."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if fmt == "sparse":
        rows = []
        for line in lines:
            toks = line.split()
            pairs = [tok.split(":", 1) for tok in toks[1:]]
            rows.append((float(toks[0]), [(int(i), float(v)) for i, v in pairs]))
        n = max((j for _, pairs in rows for j, _ in pairs), default=0)
        feats = np.zeros((len(rows), n))
        raw = np.empty(len(rows))
        for r, (label, pairs) in enumerate(rows):
            raw[r] = label
            for j, v in pairs:
                feats[r, j - 1] = v
    else:
        delim = "," if "," in lines[0] else "\t" if "\t" in lines[0] else None
        arr = np.array([[float(t) for t in line.split(delim) if t != ""] for line in lines])
        feats, raw = arr[:, 1:].copy(), arr[:, 0].copy()
    values = sorted(set(raw))
    if len(values) == 2:
        return feats, np.where(raw == values[1], 1.0, -1.0)
    return feats, np.where(raw > 0, 1.0, -1.0)


LABEL_TEXT = st.sampled_from(["1", "-1", "0", "2", "+1", "1.0", "-0.5", "3"])
VALUE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-999, 999).map(str),
    st.floats(-1e6, 1e6).map("{:+.6g}".format),
)
BLANKS = st.sampled_from(["", "", "\n", "  \n", "\t\r\n"])
ENDS = st.sampled_from(["\n", "\r\n"])
# small blocks put rows on both sides of block boundaries
BLOCK_CHARS = st.one_of(st.integers(1, 120), st.just(problems._BLOCK_CHARS))


@st.composite
def sparse_files(draw):
    """Rows with unsorted and repeated indices, label-only rows, runs of
    spaces and tabs, blank lines and CRLF endings."""
    out = []
    for _ in range(draw(st.integers(1, 12))):
        pairs = draw(st.lists(st.tuples(st.integers(1, 12), VALUE_TEXT), max_size=6))
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        row = sep.join([draw(LABEL_TEXT)] + [f"{j}:{v}" for j, v in pairs])
        out.append(draw(BLANKS) + draw(st.sampled_from(["", " ", "\t"])) + row + draw(ENDS))
    return "".join(out)


@st.composite
def dense_files(draw):
    """Rows of one width; comma rows may hold spaces and empty fields."""
    delim = draw(st.sampled_from([",", "\t", " "]))
    joins = {",": [",", ", ", ",,", " ,"], "\t": ["\t", "\t\t", "\t "], " ": [" ", "  "]}
    width = draw(st.integers(2, 5))
    out = []
    for _ in range(draw(st.integers(1, 12))):
        toks = [draw(LABEL_TEXT)] + [draw(VALUE_TEXT) for _ in range(width - 1)]
        row = draw(st.sampled_from(joins[delim])).join(toks)
        if delim == ",":
            row += draw(st.sampled_from(["", ","]))
        out.append(draw(BLANKS) + row + draw(ENDS))
    return "".join(out)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parity") / "data.txt"


def load_in_blocks(path, fmt, block_chars):
    with patch.object(problems, "_BLOCK_CHARS", block_chars):
        return load_dataset(str(path), fmt)


def overflow_message(path, feats):
    """The error for the first row whose squared norm overflows, or None."""
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(~np.isfinite(np.sum(feats**2, axis=1)))
    if not bad.size:
        return None
    with open(path) as fh:
        linenos = [i for i, ln in enumerate(fh, start=1) if ln.strip()]
    return f"line {linenos[bad[0]]}: squared feature norm overflows"


class TestBlockReaderParity:
    """Finite values whose squares overflow are drawn too: then the file
    must be rejected, naming the first such row."""

    @given(text=sparse_files(), block_chars=BLOCK_CHARS)
    def test_sparse_arrays_equal_the_row_by_row_reading(self, data_file, text, block_chars):
        data_file.write_bytes(text.encode())
        feats, labels = reference_load(data_file, "sparse")
        if message := overflow_message(data_file, feats):
            with pytest.raises(DatasetFormatError) as err:
                load_in_blocks(data_file, "sparse", block_chars)
            assert str(err.value) == message
            return
        got = load_in_blocks(data_file, "sparse", block_chars)
        assert got.features.shape == feats.shape and got.features.flags.c_contiguous
        assert got.features.tobytes() == feats.tobytes()
        assert got.labels.tobytes() == labels.tobytes()
        assert (got.N, got.n) == feats.shape

    @given(text=dense_files(), block_chars=BLOCK_CHARS)
    def test_dense_arrays_equal_the_row_by_row_reading(self, data_file, text, block_chars):
        data_file.write_bytes(text.encode())
        feats, labels = reference_load(data_file, "dense")
        if message := overflow_message(data_file, feats):
            with pytest.raises(DatasetFormatError) as err:
                load_in_blocks(data_file, "dense", block_chars)
            assert str(err.value) == message
            return
        got = load_in_blocks(data_file, "dense", block_chars)
        assert got.features.shape == feats.shape and got.features.flags.c_contiguous
        assert got.features.tobytes() == feats.tobytes()
        assert got.labels.tobytes() == labels.tobytes()

    def test_last_repeated_index_wins_across_unsorted_rows(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 3:1.0 1:2.0 3:-0.0\n-1 2:5.0 2:6.0 1:7.0\n1\n")
        for block_chars in (1, 1 << 18):
            data = load_in_blocks(f, "sparse", block_chars)
            assert data.features.tobytes() == np.array(
                [[2.0, 0.0, -0.0], [7.0, 6.0, 0.0], [0.0, 0.0, 0.0]]).tobytes()


# nine rows padded to one length, read three rows to a block
PADDED = 24
THREE_ROWS = 3 * (PADDED + 1) - 1


def padded_file(path, rows):
    path.write_text("".join(row.ljust(PADDED) + "\n" for row in rows))
    return path


class TestBlockReaderErrors:
    @pytest.mark.parametrize("row, message", [
        ("1 oops", "not enough values to unpack (expected 2, got 1)"),
        ("1 0:1", "feature index must be >= 1"),
        ("1 1:2:3", "could not convert string to float: '2:3'"),
        ("1 :5", "invalid literal for int() with base 10: ''"),
        ("1 3:", "could not convert string to float: ''"),
        ("abc 1:2", "could not convert string to float: 'abc'"),
    ])
    @pytest.mark.parametrize("lineno", [1, 3, 4, 6, 7, 9])
    def test_sparse_message_and_line(self, tmp_path, row, message, lineno):
        rows = ["1 1:0.5 2:0.25"] * 9
        rows[lineno - 1] = row
        f = padded_file(tmp_path / "d.txt", rows)
        for block_chars in (THREE_ROWS, 1 << 18):
            with pytest.raises(DatasetFormatError) as err:
                load_in_blocks(f, "sparse", block_chars)
            assert str(err.value) == f"line {lineno}: malformed sparse row: {message}"

    @pytest.mark.parametrize("row, message", [
        ("1,abc", "malformed dense row: could not convert string to float: 'abc'"),
        ("1, ,0.5", "malformed dense row: could not convert string to float: ' '"),
        ("1", "expected label plus at least one feature"),
        ("1,,", "expected label plus at least one feature"),
        ("1,0.5,0.5", "expected 2 columns, got 3"),
    ])
    @pytest.mark.parametrize("lineno", [3, 4, 6, 7, 9])
    def test_dense_message_and_line(self, tmp_path, row, message, lineno):
        rows = ["1,0.5"] * 9
        rows[lineno - 1] = row
        f = padded_file(tmp_path / "d.txt", rows)
        for block_chars in (THREE_ROWS, 1 << 18):
            with pytest.raises(DatasetFormatError) as err:
                load_in_blocks(f, "dense", block_chars)
            assert str(err.value) == f"line {lineno}: {message}"

    def test_ragged_rows_that_fill_a_block_exactly_are_rejected(self, tmp_path):
        rows = ["1,0.5"] * 9
        rows[3:5] = ["1,0.5,0.5", "1"]
        f = padded_file(tmp_path / "d.txt", rows)
        for block_chars in (THREE_ROWS, 1 << 18):
            with pytest.raises(DatasetFormatError) as err:
                load_in_blocks(f, "dense", block_chars)
            assert str(err.value) == "line 4: expected 2 columns, got 3"

    @pytest.mark.parametrize("fmt, early, late, message", [
        ("sparse", "1 1:nan", "1 oops",
         "line 8: malformed sparse row: not enough values to unpack (expected 2, got 1)"),
        ("dense", "1,inf", "1,0.5,2", "line 8: expected 2 columns, got 3"),
    ])
    def test_malformed_row_is_reported_before_an_earlier_nonfinite_value(
            self, tmp_path, fmt, early, late, message):
        good = "1 1:0.5" if fmt == "sparse" else "1,0.5"
        rows = [good, early] + [good] * 5 + [late, good]
        f = padded_file(tmp_path / "d.txt", rows)
        for block_chars in (THREE_ROWS, 1 << 18):
            with pytest.raises(DatasetFormatError) as err:
                load_in_blocks(f, fmt, block_chars)
            assert str(err.value) == message
        rows[7] = good
        padded_file(f, rows)
        with pytest.raises(DatasetFormatError, match="^line 2: non-finite"):
            load_in_blocks(f, fmt, THREE_ROWS)

    def test_undecodable_byte_after_a_malformed_row_is_reported_first(self, tmp_path):
        f = tmp_path / "d.txt"
        # the bad byte lies beyond the first chunk the text layer decodes
        f.write_bytes(b"1 oops\n" + b"1 1:0.5\n" * 4000 + b"1 1:\xff\n")
        for block_chars in (THREE_ROWS, 1 << 18):
            with pytest.raises(UnicodeDecodeError):
                load_in_blocks(f, "sparse", block_chars)

    def test_index_too_wide_for_any_matrix_fails_after_every_row_is_read(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 99999999999999999999:1\n" + "1 1:0.5\n" * 9)
        with pytest.raises(DatasetFormatError, match="^line 1: feature index 99999999999999999999 "
                           "is too large for a feature matrix: Maximum allowed dimension exceeded$"):
            load_in_blocks(f, "sparse", THREE_ROWS)
        f.write_text("1 99999999999999999999:1\n" + "1 1:0.5\n" * 8 + "1 oops\n")
        with pytest.raises(DatasetFormatError, match="^line 10: "):
            load_in_blocks(f, "sparse", THREE_ROWS)
        # the first line holding the widest index is named, in any block
        for wide in ("9223372036854775808", "99999999999999999999"):
            rows = ["1 1:0.5 2:0.25"] * 9
            rows[4] = f"1 2:0.5 {wide}:1"
            rows[7] = f"0 {wide}:2"
            padded_file(f, rows)
            for block_chars in (THREE_ROWS, 1 << 18):
                with pytest.raises(DatasetFormatError, match=f"^line 5: feature index {wide} "):
                    load_in_blocks(f, "sparse", block_chars)

    def test_index_too_wide_to_allocate_names_its_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("-1 1:0.5\n-1 100000000000:1\n")
        zeros = np.zeros

        def refuse_wide(shape, *args, **kwargs):
            if shape[-1] >= 100000000000:
                raise MemoryError("Unable to allocate 1.46 TiB")
            return zeros(shape, *args, **kwargs)

        with patch.object(np, "zeros", refuse_wide):
            with pytest.raises(DatasetFormatError, match="^line 2: feature index 100000000000 "
                               "is too large for a feature matrix: Unable to allocate"):
                load_in_blocks(f, "sparse", 1 << 18)


# ---------------------------------------------------------------------------
# the bulk sparse converter against the row-by-row reader on one block

# text fragments feature tokens are made of, among them spellings that
# int() or float() take and numpy's text parser refuses
HOSTILE = st.sampled_from([
    "0", "1", "7", "9", "٣", "１", "_", "+", "-", ".", "e", "E-", "e+", "inf", "nan", "Infinity",
    "iNF", "-NaN", "#", '"', "'", "\x00", "0x", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "1e308", "1e999", "4e-324",
])
HALF = st.lists(HOSTILE, max_size=4).map("".join)
HOSTILE_TOKEN = st.tuples(HALF, st.sampled_from([":", ":", ":", "", "::"]), HALF).map("".join)
GOOD_TOKEN = st.tuples(st.integers(1, 12), VALUE_TEXT).map(lambda p: f"{p[0]}:{p[1]}")


@st.composite
def sparse_blocks(draw):
    """One block's stripped, non-blank lines, as the block reader yields
    them; about half the blocks hold hostile text."""
    hostile = draw(st.booleans())
    labels = st.one_of(LABEL_TEXT, HALF.filter(bool)) if hostile else LABEL_TEXT
    tokens = st.one_of(GOOD_TOKEN, HOSTILE_TOKEN.filter(bool)) if hostile else GOOD_TOKEN
    return [" ".join([draw(labels)] + draw(st.lists(tokens, max_size=4)))
            for _ in range(draw(st.integers(1, 6)))]


def bulk_accepts(lines):
    """Whether the bulk converter takes ``lines`` rather than refusing the
    block the way ``_parse_sparse`` catches; a block it takes must read
    as ``_sparse_rows`` reads it, bit for bit."""
    try:
        got = problems._sparse_bulk(lines)
    except (ValueError, OverflowError, Warning):
        return False
    want = problems._sparse_rows(np.arange(1, len(lines) + 1), lines)
    for a, b in zip(got[:4], want[:4], strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[4] == want[4]
    return True


class TestSparseBulkConverter:
    @settings(max_examples=300)
    @given(lines=sparse_blocks())
    def test_refuses_or_equals_the_row_by_row_reading(self, lines):
        bulk_accepts(lines)

    @pytest.mark.parametrize("lines, accepted", [
        (["1 1.0:5"], False),
        (["1 1_0:5"], False),
        (["1 5:1_0"], False),
        (["1 ٣:2"], False),
        (["1 -1:5"], False),
        (["1 9223372036854775808:1"], False),
        (["1 1:2:3"], False),
        (["1 3:0.5"], True),
        (["1", "-1", "0"], True),
        (["-1 1:-nan 2:1e999 3:4e-324", "1", "+1 07:-0.0"], True),
    ])
    def test_fixed_blocks(self, lines, accepted):
        assert bulk_accepts(lines) == accepted

    def test_a_block_that_warns_is_read_row_by_row(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1 3:0.5 1:2.0\n-1 2:0.25\n")
        loadtxt = np.loadtxt

        def warn_and_misread(*args, **kwargs):
            pairs = loadtxt(*args, **kwargs)
            pairs["v"] += 1.0
            warnings.warn("integer field spelled as a float", DeprecationWarning, stacklevel=2)
            return pairs

        with patch.object(np, "loadtxt", warn_and_misread):
            with pytest.raises(DeprecationWarning):
                problems._sparse_bulk(["1 3:0.5"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # as without the suite's "error" filter
                got = load_dataset(str(f), "sparse")
        feats, labels = reference_load(f, "sparse")
        assert got.features.tobytes() == feats.tobytes()
        assert got.labels.tobytes() == labels.tobytes()

    def test_a_file_written_as_the_benchmark_writes_takes_the_bulk_path(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(400):
            cols = rng.choice(30, size=rng.integers(0, 12)) + 1  # unsorted, repeated
            vals = rng.standard_normal(cols.size) * 10.0 ** rng.integers(-8, 8, cols.size)
            label = "1" if rng.random() < 0.5 else "-1"
            rows.append(" ".join([label] + [f"{j}:{float(v)!r}" for j, v in zip(cols, vals)]))
        rows[5] = "-1"
        f = tmp_path / "d.txt"
        f.write_bytes("".join(row + "\r\n" for row in rows).encode())

        def refuse(*args):
            raise AssertionError("a well-formed block was read row by row")

        feats, labels = reference_load(f, "sparse")
        with patch.object(problems, "_sparse_rows", refuse):
            for block_chars in (1000, problems._BLOCK_CHARS):
                got = load_in_blocks(f, "sparse", block_chars)
                assert got.features.tobytes() == feats.tobytes()
                assert got.labels.tobytes() == labels.tobytes()
