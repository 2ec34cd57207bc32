"""Problem oracles: generator recipe, gradients, estimators, ingestion."""

import itertools

import numpy as np
import pytest

from specsum.problems import (
    DatasetFormatError,
    EvalMeter,
    LogisticProblem,
    batch_gradient,
    batch_value,
    detect_format,
    full_gradient,
    full_value,
    generate_quadratic,
    load_dataset,
    logistic_problem,
)
from specsum.sampling import SampleBatch

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
            assert P.component_value(i, P.b[i]) == 0.0
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
            mean = sum(prob.component_value(i, x) for i in range(prob.N)) / prob.N
            assert full_value(prob, x) == pytest.approx(mean, rel=1e-12)

    def test_batch_with_full_index_set_matches_full(self):
        rng = np.random.default_rng(2)
        P = generate_quadratic(4, 7, rng)
        x = rng.uniform(0, 30, P.n)
        sample = SampleBatch(np.arange(P.N))
        assert batch_value(P, sample, x) == pytest.approx(full_value(P, x), rel=1e-12)
        assert batch_gradient(P, sample, x) == pytest.approx(full_gradient(P, x), rel=1e-10)

    def test_single_component_batch(self):
        rng = np.random.default_rng(3)
        P = generate_quadratic(4, 6, rng)
        x = rng.uniform(0, 30, P.n)
        meter = EvalMeter()
        v = batch_value(P, SampleBatch([2]), x, meter)
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
                fd = central_diff(lambda y: prob.component_value(i, y), x, h)
                assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_batch_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        P = generate_quadratic(4, 9, rng)
        Q = make_logistic(4, 9, seed=6)
        for prob in (P, Q):
            for _ in range(5):
                sample = SampleBatch(rng.choice(prob.N, size=3, replace=False))
                x = rng.standard_normal(prob.n) * 4
                h = 1e-6 * (1 + np.linalg.norm(x))
                g = batch_gradient(prob, sample, x)
                fd = central_diff(lambda y: prob.batch_value(sample.indices, y), x, h)
                assert np.linalg.norm(g - fd) <= 1e-6 * max(1.0, np.linalg.norm(g))

    def test_uniform_estimator_unbiased_by_enumeration(self):
        # exhaustive oracle over all size-S subsets of a tiny problem
        rng = np.random.default_rng(6)
        P = generate_quadratic(3, 6, rng)
        x = rng.uniform(0, 30, P.n)
        for S in (1, 2, 3):
            subsets = list(itertools.combinations(range(P.N), S))
            g = sum(batch_gradient(P, SampleBatch(list(s)), x) for s in subsets)
            g /= len(subsets)
            full = full_gradient(P, x)
            assert np.linalg.norm(g - full) <= 1e-12 * max(1.0, np.linalg.norm(full))
            v = sum(batch_value(P, SampleBatch(list(s)), x) for s in subsets) / len(subsets)
            assert v == pytest.approx(full_value(P, x), rel=1e-12)


class TestMeter:
    def test_batch_value_charges_sample_size(self):
        rng = np.random.default_rng(7)
        P = generate_quadratic(3, 10, rng)
        x = rng.uniform(0, 30, P.n)
        meter = EvalMeter()
        batch_value(P, SampleBatch([1, 4, 7]), x, meter)
        assert meter.count == 3
        batch_value(P, SampleBatch([0]), x, meter)
        assert meter.count == 4

    def test_gradient_and_reporting_are_free(self):
        rng = np.random.default_rng(8)
        P = generate_quadratic(3, 10, rng)
        x = rng.uniform(0, 30, P.n)
        meter = EvalMeter()
        for _ in range(5):
            batch_gradient(P, SampleBatch([2, 5]), x)
        full_value(P, x)
        full_gradient(P, x)
        assert meter.count == 0


class TestLogistic:
    def test_value_at_origin_is_log2(self):
        P = make_logistic(4, 7, seed=9, lam=0.0)
        assert full_value(P, np.zeros(4)) == pytest.approx(np.log(2.0), rel=1e-14)
        assert P.component_value(3, np.zeros(4)) == pytest.approx(np.log(2.0), rel=1e-14)

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

    def test_large_arguments_stay_finite(self):
        P = make_logistic(3, 5, seed=10)
        x = np.full(3, 1e4)
        assert np.isfinite(full_value(P, x))
        assert np.all(np.isfinite(full_gradient(P, x)))

    def test_negative_regularization_rejected(self):
        with pytest.raises(ValueError):
            LogisticProblem(np.ones((2, 2)), np.array([1.0, -1.0]), lam=-1.0)


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
