"""The kernels read ascending index runs in place with the bits of a gather."""

import tracemalloc
import warnings

import numpy as np
import pytest

from specsum import kernels, solvers
from specsum.problems import LogisticProblem, batch_gradient, generate_quadratic


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
# bits the in-place path for ascending runs must reproduce.


def gathered_quad_value(A, b, idx, x):
    dx = x[None, :] - b[idx]
    Adx = np.matmul(A[idx], dx[:, :, None])[:, :, 0]
    return 0.5 * float(np.vdot(dx, Adx)) / idx.size


def gathered_quad_gradient(A, b, idx, x):
    if idx.size == 1:  # one index: the matrix-vector product A_i (x-b_i)
        return A[idx][0] @ (x - b[idx][0])
    # several: the value's products, summed over the batch
    dx = x[None, :] - b[idx]
    return np.matmul(A[idx], dx[:, :, None])[:, :, 0].sum(axis=0) / idx.size


def gathered_logistic_value(feats, labels, lam, idx, x):
    # np.logaddexp(0, z) evaluates the same loss formula
    z = -labels[idx] * (feats[idx] @ x)
    loss = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(loss)) + 0.5 * lam * float(x @ x)


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


def wide_margin_inputs(seed, n=4, N=41, span=800.0):
    # z_i = -y_i a_i'x spread over [-span, span]; at the default span, past
    # where exp(|z|) overflows
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((N, n))
    labels = np.where(rng.random(N) > 0.5, 1.0, -1.0)
    x = rng.standard_normal(n)
    z = np.linspace(-span, span, N)
    feats[:, 0] = (-labels * z - feats[:, 1:] @ x[1:]) / x[0]
    return feats, labels, x


def run_index(N, S, where):
    """The ascending run of S indices at the start, middle or end of 0..N-1."""
    lo = {"start": 0, "middle": (N - S) // 2, "end": N - S}[where]
    return np.arange(lo, lo + S, dtype=np.int64)


RUNS = [(S, where) for S in (1, 2, "N") for where in ("start", "middle", "end")]


class TestFullIndexBits:
    """Full-index calls and any run lo..lo+S-1, read in place, give the
    bits of the gathered formula."""

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
                v = kernels.logistic_value(feats, -labels, 1e-4, idx, x)
                g = kernels.logistic_gradient(feats, -labels, 1e-4, idx, x)
            assert v == gathered_logistic_value(feats, labels, 1e-4, idx, x)
            assert np.array_equal(g, gathered_logistic_gradient(feats, labels, 1e-4, idx, x))

    @pytest.mark.parametrize("S, where", RUNS)
    @pytest.mark.parametrize("n", [1, 5, 7, 20])
    def test_quadratic_runs(self, n, S, where):
        for seed in range(3):
            A, b, _, _, x, _ = random_inputs(seed, n=n, N=9)
            idx = run_index(9, 9 if S == "N" else S, where)
            assert (kernels.quad_value(A, b, idx, x)
                    == gathered_quad_value(A, b, idx, x))
            assert np.array_equal(kernels.quad_gradient(A, b, idx, x),
                                  gathered_quad_gradient(A, b, idx, x))

    @pytest.mark.parametrize("S, where", RUNS)
    @pytest.mark.parametrize("n", [2, 5, 7, 50])
    def test_logistic_runs(self, n, S, where):
        for seed in range(3):
            feats, labels, x = wide_margin_inputs(seed, n=n)
            N = labels.size
            idx = run_index(N, N if S == "N" else S, where)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                v = kernels.logistic_value(feats, -labels, 1e-4, idx, x)
                g = kernels.logistic_gradient(feats, -labels, 1e-4, idx, x)
            assert v == gathered_logistic_value(feats, labels, 1e-4, idx, x)
            assert np.array_equal(g, gathered_logistic_gradient(feats, labels, 1e-4, idx, x))

    @pytest.mark.parametrize("n", [2, 5, 7, 50])
    def test_logistic_report(self, n):
        for seed in range(3):
            feats, labels, x = wide_margin_inputs(seed, n=n)
            full = np.arange(labels.size)
            (v,), (g,) = kernels.logistic_report(feats, -labels, 1e-4, x[None])
            assert v == gathered_logistic_value(feats, labels, 1e-4, full, x)
            assert np.array_equal(g, gathered_logistic_gradient(feats, labels, 1e-4, full, x))

    @pytest.mark.parametrize("n", [1, 5, 7, 20, 50, 100])
    def test_runs_at_random_offsets(self, n):
        rng = np.random.default_rng(n)
        A, b, feats, labels, x, _ = random_inputs(n, n=n, N=20)
        for _ in range(20):
            S = int(rng.integers(1, 9))
            idx = np.arange(S) + int(rng.integers(0, 21 - S))
            assert (kernels.quad_value(A, b, idx, x)
                    == gathered_quad_value(A, b, idx, x))
            assert np.array_equal(kernels.quad_gradient(A, b, idx, x),
                                  gathered_quad_gradient(A, b, idx, x))
            assert (kernels.logistic_value(feats, -labels, 1e-4, idx, x)
                    == gathered_logistic_value(feats, labels, 1e-4, idx, x))
            assert np.array_equal(kernels.logistic_gradient(feats, -labels, 1e-4, idx, x),
                                  gathered_logistic_gradient(feats, labels, 1e-4, idx, x))

    def test_index_sets_that_are_no_runs_keep_numpy_indexing(self):
        A, b, feats, labels, x, _ = random_inputs(0, N=9)
        for idx in (np.array([9]), np.array([8, 9])):
            with pytest.raises(IndexError):
                kernels.quad_gradient(A, b, idx, x)
            with pytest.raises(IndexError):
                kernels.logistic_value(feats, -labels, 1e-4, idx, x)
        # not runs, though the ends are S-1 apart; [-1, 0] wraps to rows 8, 0
        for idx in (np.array([-1, 0]), np.array([2, 4, 3, 5]), np.array([1, 1, 3, 4])):
            assert np.array_equal(kernels.quad_gradient(A, b, idx, x),
                                  gathered_quad_gradient(A, b, idx, x))
            assert (kernels.logistic_value(feats, -labels, 1e-4, idx, x)
                    == gathered_logistic_value(feats, labels, 1e-4, idx, x))


def ulps(a, b):
    """|a - b| in units in the last place of ``b``; ``b`` finite."""
    return np.abs(a - b) / np.spacing(np.abs(b))


class TestReportedLoss:
    """Every logistic loss is max(z, 0) + log1p(exp(-|z|)), so the report
    carries the estimator's bits; the value kernels stay within rounding
    of the formulas they replaced, np.logaddexp(0, z) for the logistic
    loss and the three-operand einsum for the quadratic value."""

    def test_elements_match_logaddexp_to_two_ulp(self):
        rng = np.random.default_rng(0)
        z = np.concatenate([np.linspace(-800.0, 800.0, 4001), rng.uniform(-40.0, 40.0, 4000),
                            [0.0, -0.0, np.inf, -np.inf, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = kernels._log1p_exp(z, np.exp(-np.abs(z)))
        with np.errstate(invalid="ignore"):  # logaddexp flags a nan margin
            ref = np.logaddexp(0.0, z)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.array_equal(got[~finite], ref[~finite], equal_nan=True)
        assert ulps(got[finite], ref[finite]).max() <= 2

    # N = 20000 is the benchmark's dataset, whose one-row reports (the
    # svrg-bb snapshot's among them) read one block of data rows
    @pytest.mark.parametrize("span", [1.0, 5.0, 800.0])
    @pytest.mark.parametrize("N", [1, 3, 1001, 20000])
    @pytest.mark.parametrize("n", [2, 50])
    def test_report_matches_the_full_index_estimators(self, n, N, span):
        for seed in range(10):
            feats, labels, x = wide_margin_inputs(seed, n=n, N=N, span=span)
            full = np.arange(labels.size)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                (v,), (g,) = kernels.logistic_report(feats, -labels, 1e-4, x[None])
                assert v == kernels.logistic_value(feats, -labels, 1e-4, full, x)
                assert np.array_equal(g, kernels.logistic_gradient(feats, -labels, 1e-4, full, x))

    @pytest.mark.parametrize("span", [1.0, 5.0, 800.0])
    @pytest.mark.parametrize("N", [1, 3, 1001])
    @pytest.mark.parametrize("n", [2, 50])
    def test_logistic_value_matches_logaddexp(self, n, N, span):
        for seed in range(10):
            feats, labels, x = wide_margin_inputs(seed, n=n, N=N, span=span)
            idx = np.random.default_rng(seed).integers(0, N, size=N)
            z = -labels[idx] * (feats[idx] @ x)
            ref = float(np.mean(np.logaddexp(0.0, z))) + 0.5e-4 * float(x @ x)
            assert ulps(kernels.logistic_value(feats, -labels, 1e-4, idx, x), ref) <= 4

    @pytest.mark.parametrize("n", [1, 5, 7, 20, 50, 100])
    def test_quad_value_matches_einsum(self, n):
        # within a few units of eps times the sum of the products'
        # magnitudes, which is the result's ulp when nothing cancels
        for seed in range(20):
            A, b, _, _, x, idx = random_inputs(seed, n=n, N=9)
            dx = x[None, :] - b[idx]
            ref = 0.5 * float(np.einsum("ij,ijk,ik->", dx, A[idx], dx)) / idx.size
            scale = 0.5 * float(np.einsum("ij,ijk,ik->", abs(dx), abs(A[idx]), abs(dx))) / idx.size
            got = kernels.quad_value(A, b, idx, x)
            assert abs(got - ref) <= 4 * n * np.finfo(float).eps * scale

    @pytest.mark.parametrize("idx", [[0], [0, 1], [0, 2]], ids=["one-index", "run", "gather"])
    def test_quad_value_past_overflow_is_inf_not_minus_inf(self, idx):
        # x'Ax >= 0 for an SPD A, but past overflow vdot keeps its first -inf
        # product, which a line search would take for a decrease
        A = np.tile([[1.0, -0.9], [-0.9, 1.0]], (3, 1, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernels.quad_value(A, np.zeros((3, 2)), np.array(idx), np.array([4e154, 5e154]))
        assert got == np.inf


def one_row_quad_value(A, b, i, x):
    # the batch formula over the one-row stack A[i:i+1], -inf taken as inf
    r = slice(i, i + 1 or None)
    dx = x[None, :] - b[r]
    Adx = np.matmul(A[r], dx[:, :, None])[:, :, 0]
    v = 0.5 * float(np.vdot(dx, Adx)) / 1
    return np.inf if v == -np.inf else v


def one_row_quad_gradient(A, b, i, x):
    # the matrix-vector product the value shares
    return A[i] @ (x - b[i])


class TestSingleRowQuadratic:
    """A one-index quadratic call reads A_i as one 2-D matrix: the value
    keeps the bytes of the batch formula over the one-row stack, and the
    gradient is the matrix-vector product A_i (x-b_i), for every
    dimension across the SIMD tails, at the first, last and a negative
    index, and at non-finite iterates."""

    N = 4

    @staticmethod
    def assert_same_bytes(A, b, i, x):
        idx = np.array([i], dtype=np.int64)
        with np.errstate(all="ignore"):
            got_v, ref_v = kernels.quad_value(A, b, idx, x), one_row_quad_value(A, b, i, x)
            got_g, ref_g = kernels.quad_gradient(A, b, idx, x), one_row_quad_gradient(A, b, i, x)
        assert np.float64(got_v).tobytes() == np.float64(ref_v).tobytes()
        assert got_g.dtype == ref_g.dtype and got_g.shape == ref_g.shape
        assert got_g.tobytes() == ref_g.tobytes()

    @pytest.mark.parametrize("n", range(1, 131))
    def test_finite_iterates(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((self.N, n, n))
        A = A + A.transpose(0, 2, 1)
        b = rng.standard_normal((self.N, n))
        for i in (0, 2, self.N - 1, -1, -self.N):
            for scale in (1e-3, 1.0, 1e3):
                self.assert_same_bytes(A, b, i, rng.standard_normal(n) * scale)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 16, 17, 100, 129])
    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, 1e308])
    def test_non_finite_iterates(self, n, special):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((self.N, n, n))
        b = rng.standard_normal((self.N, n))
        for where in {0, n // 2, n - 1}:
            x = rng.standard_normal(n)
            x[where] = special
            for i in (1, -1):
                self.assert_same_bytes(A, b, i, x)


def same_bits(a, b):
    """``a`` and ``b`` equal bit for bit, except for the sign of a NaN
    (``repr`` prints ``nan`` either way, so no trace can show it)."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


SPECIAL_MARGINS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 709.0, -709.0,
                   745.2, -745.2, 1e308, -1e308]


def margin_inputs(z, labels):
    """Rows whose margins -y_i a_i'x are exactly ``z``, at x = (1, 0); the
    gradient's second entry is then the mean of -y_i sigmoid(z_i)."""
    return np.column_stack([-labels * z, np.ones(z.size)]), np.array([1.0, 0.0])


class TestPinnedLogisticFormulas:
    """Value, gradient and report keep the bits of the gathered formulas,
    whose margins are out of place and whose sigmoid goes through
    np.where, in place and gathered, at every special margin and at
    random ones; only a NaN's sign may differ."""

    @staticmethod
    def assert_same_bits(feats, labels, idx, x, lam=1e-4):
        with np.errstate(all="ignore"):
            assert same_bits(kernels.logistic_value(feats, -labels, lam, idx, x),
                             gathered_logistic_value(feats, labels, lam, idx, x))
            assert same_bits(kernels.logistic_gradient(feats, -labels, lam, idx, x),
                             gathered_logistic_gradient(feats, labels, lam, idx, x))
            full = np.arange(labels.size)
            (v,), (g,) = kernels.logistic_report(feats, -labels, lam, x[None])
            assert same_bits(v, gathered_logistic_value(feats, labels, lam, full, x))
            assert same_bits(g, gathered_logistic_gradient(feats, labels, lam, full, x))

    @pytest.mark.parametrize("label", [1.0, -1.0])
    @pytest.mark.parametrize("z", SPECIAL_MARGINS)
    def test_each_special_margin_alone(self, z, label):
        labels = np.array([label])
        feats, x = margin_inputs(np.array([z]), labels)
        for lam in (0.0, 1e-4):
            self.assert_same_bits(feats, labels, np.array([0]), x, lam)

    @pytest.mark.parametrize("which", ["arange", "permutation", "duplicates", "subsample"])
    def test_specials_among_random_margins(self, which):
        rng = np.random.default_rng(3)
        finite = rng.standard_normal(20) * 10.0 ** rng.integers(-3, 4, size=20)
        # every special together, then each one alone among finite
        # margins, so that an inf or nan mean cannot hide the others
        for specials in [SPECIAL_MARGINS] + [[z] for z in SPECIAL_MARGINS]:
            z = np.concatenate([finite, specials])
            rng.shuffle(z)
            labels = np.where(rng.random(z.size) > 0.5, 1.0, -1.0)
            feats, x = margin_inputs(z, labels)
            self.assert_same_bits(feats, labels, index_sets(z.size, rng)[which], x)

    @pytest.mark.parametrize("S, where", RUNS)
    @pytest.mark.parametrize("span", [1.0, 40.0, 800.0])
    def test_random_margins(self, S, where, span):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            feats, labels, x = wide_margin_inputs(seed, n=7, N=41, span=span)
            order = rng.permutation(41)  # margins in random order
            feats, labels = feats[order], labels[order]
            self.assert_same_bits(feats, labels, run_index(41, 41 if S == "N" else S, where), x)
            self.assert_same_bits(feats, labels, index_sets(41, rng)["duplicates"], x)


class TestStackedReport:
    """Each row of a stack is reported as a one-row stack would be, up to
    the order the two matrix products sum in.  A margin of n products
    then moves by at most about n eps times the sum of their magnitudes,
    A_i = |a_i|'|x|; the loss moves by at most as much as its margin and
    the sigmoid by a quarter of it; and a gradient entry, a sum of N
    terms, moves by at most about N eps times the mean of |a_ij|, plus
    what its slopes moved.  The bounds below take four times each."""

    @staticmethod
    def assert_rows_agree(feats, labels, lam, X):
        eps = np.finfo(float).eps
        N, n = feats.shape
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f, G = kernels.logistic_report(feats, -labels, lam, X)
            for x, f_row, g_row in zip(X, f, G, strict=True):
                (v,), (g,) = kernels.logistic_report(feats, -labels, lam, x[None])
                A = np.abs(feats) @ np.abs(x)
                assert abs(f_row - v) <= 4 * eps * (n * A.mean() + abs(v))
                tol = 4 * eps * ((n * A + N) @ np.abs(feats) / N + np.abs(lam * x))
                assert np.all(np.abs(g_row - g) <= tol)

    @pytest.mark.parametrize("c", [2, 3, 8, solvers.REPORT_CHUNK])
    @pytest.mark.parametrize("span", [1.0, 40.0, 800.0])
    @pytest.mark.parametrize("N, n", [(1, 2), (41, 7), (1001, 50), (20000, 50)])
    def test_rows_agree_with_one_row_stacks(self, N, n, span, c):
        feats, labels, x = wide_margin_inputs(c, n=n, N=N, span=span)
        rng = np.random.default_rng(c)
        X = x * rng.uniform(0.5, 1.5, size=(c, 1)) + rng.standard_normal((c, n))
        self.assert_rows_agree(feats, labels, 1e-4, X)

    @pytest.mark.parametrize("c", [2, 3, 8, solvers.REPORT_CHUNK])
    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("span", [1.0, 800.0])
    def test_rows_agree_across_a_block_edge(self, span, extra, c):
        # a stack of c rows reads _REPORT_BLOCK // c data rows at a time: one
        # row fewer is one block, one more leaves a last block of one row;
        # each one-row stack reads all N rows in one block
        N = kernels._REPORT_BLOCK // c + extra
        feats, labels, x = wide_margin_inputs(c, n=7, N=N, span=span)
        rng = np.random.default_rng(c)
        X = x * rng.uniform(0.5, 1.5, size=(c, 1)) + rng.standard_normal((c, 7))
        self.assert_rows_agree(feats, labels, 1e-4, X)

    @pytest.mark.parametrize("span", [1.0, 800.0])
    def test_one_row_past_a_block_agrees_with_the_estimators(self, span):
        # N = _REPORT_BLOCK + 1 rows: the one-row report sums two blocks,
        # the estimators all rows at once
        eps = np.finfo(float).eps
        N, n = kernels._REPORT_BLOCK + 1, 3
        feats, labels, x = wide_margin_inputs(0, n=n, N=N, span=span)
        full = np.arange(N)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            (f,), (G,) = kernels.logistic_report(feats, -labels, 1e-4, x[None])
            v = kernels.logistic_value(feats, -labels, 1e-4, full, x)
            g = kernels.logistic_gradient(feats, -labels, 1e-4, full, x)
        A = np.abs(feats) @ np.abs(x)
        assert abs(f - v) <= 4 * eps * (n * A.mean() + abs(v))
        assert np.all(np.abs(G - g) <= 4 * eps * ((n * A + N) @ np.abs(feats) / N
                                                  + np.abs(1e-4 * x)))

    @pytest.mark.parametrize("N", [1, 41, kernels._REPORT_BLOCK + 1])
    def test_empty_stack(self, N):
        feats, labels, _ = wide_margin_inputs(0, n=3, N=N)
        f, G = kernels.logistic_report(feats, -labels, 1e-4, np.empty((0, 3)))
        assert f.shape == (0,) and G.shape == (0, 3)

    @pytest.mark.parametrize("c", [2, 3, 8, solvers.REPORT_CHUNK])
    @pytest.mark.parametrize("n", [1, 20, 100])
    def test_quadratic_rows_have_the_bits_of_one_row_stacks(self, n, c):
        # the quadratic report takes one matrix-vector product per row, so
        # a row of a stack keeps its one-row bits exactly (the gemm X @ M'
        # sums in other orders); rows at the corners of the box max|x| <= r,
        # just inside them, at the minimizer and in between, mixed in stacks;
        # at r = 1e150 and n = 100, x'Mx comes within a factor 1e5 of overflow
        P = generate_quadratic(n, 4, np.random.default_rng(n))
        rng = np.random.default_rng(c)
        r = 1e150
        signs = np.where(rng.random((c, n)) < 0.5, -1.0, 1.0)
        pool = np.concatenate([r * signs, -r * signs * rng.uniform(0.9, 1.0, size=(c, n)),
                               np.tile(P.minimizer, (c, 1)),
                               P.minimizer + 30.0 * rng.standard_normal((c, n))])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for X in (pool.reshape(4, c, n), rng.permutation(pool).reshape(4, c, n)):
                for stack in X:
                    f, G = P.report(stack)
                    for x, f_row, g_row in zip(stack, f, G, strict=True):
                        (v,), (g,) = P.report(x[None])
                        assert f_row == v
                        assert np.array_equal(g_row, g)


def pre_fold_report(feats, labels, lam, X):
    """The logistic report as it was before the label sign was folded into
    the chain: margins y*z then negated, and slopes sig*y then negated, on
    the report's own blocks of data rows, each block's sums added to the
    first block's."""
    step = max(1, kernels._REPORT_BLOCK // max(1, len(X)))
    sums, grads = [], []
    for lo in range(0, labels.size, step):
        F, y = feats[lo:lo + step], labels[lo:lo + step]
        z = X @ F.T
        z *= y
        np.negative(z, out=z)
        e = np.exp(-np.abs(z))
        loss = np.log1p(e) + np.maximum(z, 0.0)
        sums.append(np.add.reduce(loss, axis=1))
        sig = np.exp(np.minimum(z, 0.0)) / (e + 1.0)
        sig *= y
        grads.append(np.negative(sig) @ F)
    f = sum(sums[1:], sums[0]) / labels.size
    f += [0.5 * lam * float(x @ x) for x in X]
    G = sum(grads[1:], grads[0]) / labels.size
    G += lam * X
    return f, G


class TestFoldedLabelSign:
    """Each row of a REPORT_CHUNK stack keeps the bits of the chain that
    negated after multiplying by the labels; only a NaN's sign may differ."""

    @staticmethod
    def assert_same_bits(feats, labels, X, lam=1e-4):
        with np.errstate(all="ignore"):
            f, G = kernels.logistic_report(feats, -labels, lam, X)
            ref_f, ref_G = pre_fold_report(feats, labels, lam, X)
        assert same_bits(f, ref_f)
        assert same_bits(G, ref_G)

    @pytest.mark.parametrize("span", [1.0, 40.0, 800.0])
    @pytest.mark.parametrize("N, n", [(41, 7), (1001, 50), (20000, 50)])
    def test_random_margins(self, N, n, span):
        feats, labels, x = wide_margin_inputs(N, n=n, N=N, span=span)
        rng = np.random.default_rng(N)
        c = solvers.REPORT_CHUNK
        X = x * rng.uniform(0.5, 1.5, size=(c, 1)) + rng.standard_normal((c, n))
        self.assert_same_bits(feats, labels, X)

    @pytest.mark.parametrize("lam", [0.0, 1e-4])
    def test_special_margins(self, lam):
        # every special together, then each one alone among finite margins;
        # the stack's first row (1, 0) has exactly these margins, and the
        # others scale and shift them
        rng = np.random.default_rng(5)
        finite = rng.standard_normal(20) * 10.0 ** rng.integers(-3, 4, size=20)
        for specials in [SPECIAL_MARGINS] + [[z] for z in SPECIAL_MARGINS]:
            z = np.concatenate([finite, specials])
            rng.shuffle(z)
            labels = np.where(rng.random(z.size) > 0.5, 1.0, -1.0)
            feats, x = margin_inputs(z, labels)
            X = np.vstack([x, rng.standard_normal((solvers.REPORT_CHUNK - 1, 2))])
            self.assert_same_bits(feats, labels, X, lam)


class TestFullIndexInPlace:
    """A full-index or single-row call must not copy the data it reads."""

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
                               rng.standard_normal((1, 50)))
        assert peak < 0.5 * feats.nbytes

    # the S=1 call of the default batch size, at a row other than the first;
    # the logistic gradient's n-vectors allocate a row's worth of their own,
    # so it cannot show the copy
    @pytest.mark.parametrize("kernel", ["quad_value", "quad_gradient", "logistic_value"])
    def test_single_row_call_copies_no_row(self, kernel):
        rng = np.random.default_rng(0)
        if kernel.startswith("quad"):
            A = rng.standard_normal((30, 100, 100))
            args, row = (A, rng.standard_normal((30, 100))), A[0].nbytes
        else:
            feats = rng.standard_normal((30, 2000))
            args = (feats, np.where(rng.random(30) > 0.5, 1.0, -1.0), 1e-4)
            row = feats[0].nbytes
        x = rng.standard_normal(args[0].shape[-1])
        peak = self.peak_bytes(getattr(kernels, kernel), *args, np.array([17]), x)
        assert peak < row


class TestLogisticBufferPeaks:
    """Traced peaks in arrays of N floats: the report of one row of a
    dataset that fits one block holds at most four at a time and a
    full-index gradient at most three (five each while the margins were
    built out of place).  A stack's report holds at most four arrays of
    ``_REPORT_BLOCK`` floats, whatever N."""

    N = 20000

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(0)
        labels = np.where(rng.random(self.N) > 0.5, 1.0, -1.0)
        return LogisticProblem(rng.standard_normal((self.N, 50)), labels, 1e-4)

    def test_report(self, problem):
        x = np.random.default_rng(1).standard_normal((1, 50))
        peak = TestFullIndexInPlace.peak_bytes(problem.report, x)
        assert peak < 4.5 * 8 * self.N

    @pytest.mark.parametrize("c", [1, 2, 8, solvers.REPORT_CHUNK])
    def test_report_of_a_stack(self, problem, c):
        # a block's margins, its e, its losses and one temporary, plus the
        # stack's gradients, a block's and lam * X: 4.0 blocks and the three
        # (c, n) arrays at c=2, 8 and 64, 2.4 blocks at c=1 (N rows)
        X = np.random.default_rng(1).standard_normal((c, 50))
        peak = TestFullIndexInPlace.peak_bytes(problem.report, X)
        assert peak < 8 * (4.25 * kernels._REPORT_BLOCK + 3 * c * 50)

    def test_report_of_a_stack_does_not_grow_with_N(self):
        # at N = 200000 a stack of margins would take 10 times the memory
        # it takes at N = 20000; a block's takes the same
        X = np.random.default_rng(1).standard_normal((solvers.REPORT_CHUNK, 10))
        peaks = []
        for N in (20000, 200000):
            rng = np.random.default_rng(0)
            labels = np.where(rng.random(N) > 0.5, 1.0, -1.0)
            P = LogisticProblem(rng.standard_normal((N, 10)), labels, 1e-4)
            peaks.append(TestFullIndexInPlace.peak_bytes(P.report, X))
        assert peaks[0] == peaks[1]

    def test_full_index_gradient(self, problem):
        x = np.random.default_rng(1).standard_normal(50)
        peak = TestFullIndexInPlace.peak_bytes(batch_gradient, problem, np.arange(self.N), x)
        assert peak < 3.5 * 8 * self.N
