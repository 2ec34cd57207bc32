"""The kernels read full-index calls in place with the bits of a gather."""

import tracemalloc
import warnings

import numpy as np
import pytest

from specsum import kernels


def random_inputs(seed, n=5, N=9):
    rng = np.random.default_rng(seed)
    A = rng.uniform(1, 5, size=(N, n, n))
    A = 0.5 * (A + A.transpose(0, 2, 1))
    b = rng.uniform(1, 31, size=(N, n))
    feats = rng.standard_normal((N, n))
    labels = np.where(rng.random(N) > 0.5, 1.0, -1.0)
    x = rng.standard_normal(n) * 3
    S = int(rng.integers(1, N + 1))
    idx = rng.choice(N, size=S, replace=True).astype(np.int64)
    return A, b, feats, labels, x, idx


class TestBackendSelection:
    def test_default_backend(self):
        assert kernels.BACKEND == "numpy"


# The kernels as formulas over gathered rows: the reference whose
# bits the in-place full-index path must reproduce.


def gathered_quad_value(A, b, idx, x):
    dx = x[None, :] - b[idx]
    return 0.5 * float(np.einsum("ij,ijk,ik->", dx, A[idx], dx)) / idx.size


def gathered_quad_gradient(A, b, idx, x):
    dx = x[None, :] - b[idx]
    return np.einsum("ijk,ik->j", A[idx], dx) / idx.size


def gathered_logistic_value(feats, labels, lam, idx, x):
    z = -labels[idx] * (feats[idx] @ x)
    return float(np.mean(np.logaddexp(0.0, z))) + 0.5 * lam * float(x @ x)


def gathered_logistic_gradient(feats, labels, lam, idx, x):
    z = -labels[idx] * (feats[idx] @ x)
    sig = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                   np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
    coef = -labels[idx] * sig
    return (coef @ feats[idx]) / idx.size + lam * x


def index_sets(N, rng):
    dup = rng.integers(0, N, size=N)
    dup[-1] = dup[0]
    return {
        "arange": np.arange(N, dtype=np.int64),
        "permutation": rng.permutation(N).astype(np.int64),
        "duplicates": dup.astype(np.int64),
        "subsample": rng.choice(N, size=max(1, N // 2), replace=False).astype(np.int64),
    }


def wide_margin_inputs(seed, n=4, N=41):
    # z_i = -y_i a_i'x spread over [-800, 800], past where exp(|z|) overflows
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((N, n))
    labels = np.where(rng.random(N) > 0.5, 1.0, -1.0)
    x = rng.standard_normal(n)
    z = np.linspace(-800.0, 800.0, N)
    feats[:, 0] = (-labels * z - feats[:, 1:] @ x[1:]) / x[0]
    return feats, labels, x


class TestFullIndexBits:
    @pytest.mark.parametrize("N", [1, 9])
    @pytest.mark.parametrize("which", ["arange", "permutation", "duplicates", "subsample"])
    def test_quadratic_kernels_match_gather(self, N, which):
        for seed in range(5):
            A, b, _, _, x, _ = random_inputs(seed, N=N)
            idx = index_sets(N, np.random.default_rng(seed))[which]
            assert (kernels.quad_value(A, b, idx, x)
                    == gathered_quad_value(A, b, idx, x))
            assert np.array_equal(kernels.quad_gradient(A, b, idx, x),
                                  gathered_quad_gradient(A, b, idx, x))

    @pytest.mark.parametrize("N", [1, 9, 41])
    @pytest.mark.parametrize("which", ["arange", "permutation", "duplicates", "subsample"])
    def test_logistic_kernels_match_gather(self, N, which):
        for seed in range(5):
            feats, labels, x = wide_margin_inputs(seed, N=N)
            idx = index_sets(N, np.random.default_rng(seed))[which]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                v = kernels.logistic_value(feats, labels, 1e-4, idx, x)
                g = kernels.logistic_gradient(feats, labels, 1e-4, idx, x)
            assert v == gathered_logistic_value(feats, labels, 1e-4, idx, x)
            assert np.array_equal(g, gathered_logistic_gradient(feats, labels, 1e-4, idx, x))


class TestFullIndexInPlace:
    """A full-index call must not copy the data it reads."""

    @staticmethod
    def peak_bytes(kernel, *args):
        kernel(*args)  # warm-up outside the trace
        tracemalloc.start()
        try:
            kernel(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kernel", [kernels.quad_value, kernels.quad_gradient])
    def test_quadratic(self, kernel):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((250, 20, 20))
        b = rng.standard_normal((250, 20))
        peak = self.peak_bytes(kernel, A, b, np.arange(250), rng.standard_normal(20))
        assert peak < 0.5 * A.nbytes

    @pytest.mark.parametrize("kernel", [kernels.logistic_value,
                                        kernels.logistic_gradient])
    def test_logistic(self, kernel):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((20000, 50))
        labels = np.where(rng.random(20000) > 0.5, 1.0, -1.0)
        peak = self.peak_bytes(kernel, feats, labels, 1e-4, np.arange(20000),
                               rng.standard_normal(50))
        assert peak < 0.5 * feats.nbytes

    def test_logistic_report(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((20000, 50))
        labels = np.where(rng.random(20000) > 0.5, 1.0, -1.0)
        peak = self.peak_bytes(kernels.logistic_report, feats, labels, 1e-4,
                               rng.standard_normal(50))
        assert peak < 0.5 * feats.nbytes
