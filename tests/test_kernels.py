"""Backend parity: the numba kernels and numpy twins must agree; the
numpy kernels read full-index calls in place with the bits of a gather."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from specsum import kernels

HAVE_NUMBA = hasattr(kernels, "quad_value_numba")


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


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestBackendParity:
    def test_quadratic_kernels_agree(self):
        for seed in range(20):
            A, b, _, _, x, idx = random_inputs(seed)
            v1 = kernels.quad_value_numpy(A, b, idx, x)
            v2 = kernels.quad_value_numba(A, b, idx, x)
            assert v1 == pytest.approx(v2, rel=1e-12)
            g1 = kernels.quad_gradient_numpy(A, b, idx, x)
            g2 = kernels.quad_gradient_numba(A, b, idx, x)
            np.testing.assert_allclose(g1, g2, rtol=1e-12)

    def test_logistic_kernels_agree(self):
        for seed in range(20):
            _, _, feats, labels, x, idx = random_inputs(seed)
            v1 = kernels.logistic_value_numpy(feats, labels, 1e-4, idx, x)
            v2 = kernels.logistic_value_numba(feats, labels, 1e-4, idx, x)
            assert v1 == pytest.approx(v2, rel=1e-12)
            g1 = kernels.logistic_gradient_numpy(feats, labels, 1e-4, idx, x)
            g2 = kernels.logistic_gradient_numba(feats, labels, 1e-4, idx, x)
            np.testing.assert_allclose(g1, g2, rtol=1e-12, atol=1e-15)

    def test_logistic_extreme_arguments(self):
        _, _, feats, labels, _, idx = random_inputs(0)
        for scale in (1e3, 1e5):
            x = np.full(feats.shape[1], scale)
            v1 = kernels.logistic_value_numpy(feats, labels, 1e-4, idx, x)
            v2 = kernels.logistic_value_numba(feats, labels, 1e-4, idx, x)
            assert np.isfinite(v1) and v1 == pytest.approx(v2, rel=1e-12)


class TestBackendSelection:
    def test_default_backend(self):
        assert kernels.BACKEND in ("numba", "numpy")

    def test_env_flag_forces_numpy(self):
        code = ("import specsum.kernels as k; "
                "assert k.BACKEND == 'numpy'; "
                "assert k.quad_value is k.quad_value_numpy; print('ok')")
        env = dict(os.environ, SPECSUM_BACKEND="numpy")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"

    def test_bad_env_flag_rejected(self):
        code = "import specsum.kernels"
        env = dict(os.environ, SPECSUM_BACKEND="fortran")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode != 0

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_numpy_backend_reproduces_solver_results(self):
        # a short run under each backend converges to the same region
        code = (
            "import numpy as np\n"
            "from specsum.problems import generate_quadratic\n"
            "from specsum.solvers import SolverConfig, run_solver\n"
            "P = generate_quadratic(3, 6, np.random.default_rng(0))\n"
            "tr = run_solver(P, SolverConfig(method='slises', m=3, maxiter=10, seed=1))\n"
            "print(tr.records[-1].cum_evals, repr(tr.records[-1].f_full))\n"
        )
        outs = []
        for backend in ("numba", "numpy"):
            env = dict(os.environ, SPECSUM_BACKEND=backend)
            res = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            evals, f = res.stdout.split()
            outs.append((int(evals), float(f)))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == pytest.approx(outs[1][1], rel=1e-9)


# The numpy kernels as formulas over gathered rows: the reference whose
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
            assert (kernels.quad_value_numpy(A, b, idx, x)
                    == gathered_quad_value(A, b, idx, x))
            assert np.array_equal(kernels.quad_gradient_numpy(A, b, idx, x),
                                  gathered_quad_gradient(A, b, idx, x))

    @pytest.mark.parametrize("N", [1, 9, 41])
    @pytest.mark.parametrize("which", ["arange", "permutation", "duplicates", "subsample"])
    def test_logistic_kernels_match_gather(self, N, which):
        for seed in range(5):
            feats, labels, x = wide_margin_inputs(seed, N=N)
            idx = index_sets(N, np.random.default_rng(seed))[which]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                v = kernels.logistic_value_numpy(feats, labels, 1e-4, idx, x)
                g = kernels.logistic_gradient_numpy(feats, labels, 1e-4, idx, x)
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

    @pytest.mark.parametrize("kernel", [kernels.quad_value_numpy, kernels.quad_gradient_numpy])
    def test_quadratic(self, kernel):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((250, 20, 20))
        b = rng.standard_normal((250, 20))
        peak = self.peak_bytes(kernel, A, b, np.arange(250), rng.standard_normal(20))
        assert peak < 0.5 * A.nbytes

    @pytest.mark.parametrize("kernel", [kernels.logistic_value_numpy,
                                        kernels.logistic_gradient_numpy])
    def test_logistic(self, kernel):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((20000, 50))
        labels = np.where(rng.random(20000) > 0.5, 1.0, -1.0)
        peak = self.peak_bytes(kernel, feats, labels, 1e-4, np.arange(20000),
                               rng.standard_normal(50))
        assert peak < 0.5 * feats.nbytes
