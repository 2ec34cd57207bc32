"""Finite-sum problem oracles and dataset ingestion.

A problem is the average of N smooth component functions.  Two families
are provided: sums of strictly convex quadratics with a controlled
eigenvalue spectrum, and L2-regularized logistic regression over a
labeled dataset.  Component, subsample-averaged and full values and
gradients are exposed, together with the evaluation meter used by the
benchmark cost model (one unit per component inside each estimator
*value* call; gradients are free, and full values computed for
reporting are never charged).
"""

from dataclasses import dataclass

import numpy as np

from . import kernels

SPARSE_FORMAT = "sparse-index-value"
DENSE_FORMAT = "dense-delimited"


class DatasetFormatError(ValueError):
    """Raised for unreadable, empty, or malformed dataset files."""


class EvalMeter:
    """Cumulative function-evaluation units.

    Charged ``S`` units each time a size-``S`` subsample value estimate
    is computed.  Gradient estimates and reporting-only full values do
    not touch the meter.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def charge(self, units):
        self.count += int(units)


def _as_rng(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


class FiniteSumProblem:
    """Oracle for f(x) = (1/N) * sum_i f_i(x).

    Attributes
    ----------
    N, n : int
        Component count and dimension.
    lipschitz : float or None
        A gradient Lipschitz constant valid for every component (hence
        for every subsample average), when known.
    minimizer, optimal_value : ndarray / float or None
        Known exact solution, when available.
    label : str
        Problem name used in trace headers.

    Subclasses also provide vectorized ``batch_value(indices, x)``,
    ``batch_gradient(indices, x)``, ``full_value(x)`` and
    ``full_gradient(x)``.
    """

    N = 0
    n = 0
    lipschitz = None
    minimizer = None
    optimal_value = None
    label = "finite-sum"

    def component_value(self, i, x):
        raise NotImplementedError

    def component_gradient(self, i, x):
        raise NotImplementedError


class QuadraticProblem(FiniteSumProblem):
    """Average of components f_i(x) = 0.5*(x-b_i)' A_i (x-b_i).

    ``A`` has shape (N, n, n) with each slice symmetric positive
    definite; ``b`` has shape (N, n).  Full values and gradients use
    precomputed aggregates (mean matrix, mean A_i b_i and a constant),
    so reporting costs O(n^2) regardless of N.
    """

    def __init__(self, A, b, lipschitz=None, label="quadratic"):
        A = np.ascontiguousarray(A, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        if A.ndim != 3 or A.shape[1] != A.shape[2] or b.shape != A.shape[:2]:
            raise ValueError("A must be (N, n, n) and b (N, n)")
        self.A = A
        self.b = b
        self.N, self.n = b.shape
        self.label = label
        Ab = np.einsum("ijk,ik->ij", A, b)
        self._mean_A = A.mean(axis=0)
        self._mean_Ab = Ab.mean(axis=0)
        self._const = 0.5 * float(np.einsum("ij,ij->", b, Ab)) / self.N
        if lipschitz is None:
            lipschitz = max(float(np.linalg.eigvalsh(Ai)[-1]) for Ai in A)
        self.lipschitz = float(lipschitz)
        self.minimizer = self._solve_minimizer()
        self.optimal_value = self.full_value(self.minimizer)

    def _solve_minimizer(self):
        # (sum A_i) x = sum A_i b_i, with one refinement step to push the
        # residual down to rounding level.
        M = self._mean_A
        rhs = self._mean_Ab
        x = np.linalg.solve(M, rhs)
        x += np.linalg.solve(M, rhs - M @ x)
        return x

    def component_value(self, i, x):
        x = np.asarray(x, dtype=np.float64)
        dx = x - self.b[i]
        return 0.5 * float(dx @ (self.A[i] @ dx))

    def component_gradient(self, i, x):
        x = np.asarray(x, dtype=np.float64)
        return self.A[i] @ (x - self.b[i])

    def batch_value(self, indices, x):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return float(kernels.quad_value(self.A, self.b, idx, x))

    def batch_gradient(self, indices, x):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return kernels.quad_gradient(self.A, self.b, idx, x)

    def full_value(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * float(x @ (self._mean_A @ x)) - float(x @ self._mean_Ab) + self._const

    def full_gradient(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._mean_A @ x - self._mean_Ab


class LogisticProblem(FiniteSumProblem):
    """L2-regularized logistic regression over labeled feature rows.

    f_i(x) = log(1 + exp(-y_i * a_i'x)) + 0.5*lam*||x||^2 with labels
    y_i in {-1, +1}.
    """

    def __init__(self, features, labels, lam, label="logistic"):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("features must be (N, n) with one label per row")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if lam < 0:
            raise ValueError("regularization must be nonnegative")
        self.features = features
        self.labels = labels
        self.lam = float(lam)
        self.N, self.n = features.shape
        self.label = label
        self.lipschitz = self.lam + 0.25 * float(np.max(np.sum(features**2, axis=1)))
        self._all = np.arange(self.N, dtype=np.int64)

    def component_value(self, i, x):
        x = np.asarray(x, dtype=np.float64)
        z = -self.labels[i] * float(self.features[i] @ x)
        return float(np.logaddexp(0.0, z)) + 0.5 * self.lam * float(x @ x)

    def component_gradient(self, i, x):
        x = np.asarray(x, dtype=np.float64)
        z = -self.labels[i] * float(self.features[i] @ x)
        if z >= 0:
            sig = 1.0 / (1.0 + np.exp(-z))
        else:
            e = np.exp(z)
            sig = e / (1.0 + e)
        return (-self.labels[i] * sig) * self.features[i] + self.lam * x

    def batch_value(self, indices, x):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return float(kernels.logistic_value(self.features, self.labels, self.lam, idx, x))

    def batch_gradient(self, indices, x):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return kernels.logistic_gradient(self.features, self.labels, self.lam, idx, x)

    def full_value(self, x):
        return self.batch_value(self._all, x)

    def full_gradient(self, x):
        return self.batch_gradient(self._all, x)


# ---------------------------------------------------------------------------
# problem construction


def generate_quadratic(n, N, rng):
    """Random sum-of-quadratics instance.

    For each component: b_i entries i.i.d. Uniform[1, 31]; A_i =
    Q_i D_i Q_i' with D_i diagonal i.i.d. Uniform[1, 101] and Q_i the
    orthonormal eigenvector matrix of the symmetrized standard-normal
    matrix 0.5*(C_i + C_i').  The gradient Lipschitz constant is the
    largest drawn eigenvalue; the minimizer solves (sum A_i) x =
    sum A_i b_i.

    Draw order per component is fixed (b_i, then D_i, then C_i) so a
    seeded generator reproduces the instance exactly.
    """
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    rng = _as_rng(rng)
    A = np.empty((N, n, n))
    b = np.empty((N, n))
    lip = 0.0
    for i in range(N):
        b[i] = rng.uniform(1.0, 31.0, size=n)
        d = rng.uniform(1.0, 101.0, size=n)
        C = rng.standard_normal((n, n))
        _, Q = np.linalg.eigh(0.5 * (C + C.T))
        M = (Q * d) @ Q.T
        A[i] = 0.5 * (M + M.T)
        lip = max(lip, float(d.max()))
    return QuadraticProblem(A, b, lipschitz=lip, label=f"quadratic-n{n}-N{N}")


def logistic_problem(data, lam=1e-4):
    """Build an L2-regularized logistic regression problem from records."""
    if data.N < 1:
        raise ValueError("dataset is empty")
    return LogisticProblem(data.features, data.labels, lam,
                           label=f"logistic-n{data.n}-N{data.N}")


# ---------------------------------------------------------------------------
# dataset ingestion


@dataclass
class DatasetRecords:
    """Parsed dataset rows with labels already normalized to {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray
    n: int
    N: int


def _normalize_labels(raw):
    values = sorted(set(raw))
    if len(values) == 2:
        # two-valued column: larger value is the positive class
        lo, hi = values
        return np.where(np.asarray(raw) == hi, 1.0, -1.0)
    return np.where(np.asarray(raw) > 0, 1.0, -1.0)


def _parse_sparse(lines):
    rows = []
    max_idx = 0
    for lineno, line in lines:
        toks = line.split()
        try:
            label = float(toks[0])
            pairs = []
            for tok in toks[1:]:
                istr, vstr = tok.split(":", 1)
                j = int(istr)
                if j < 1:
                    raise ValueError("feature index must be >= 1")
                pairs.append((j, float(vstr)))
        except (ValueError, IndexError) as exc:
            raise DatasetFormatError(f"line {lineno}: malformed sparse row: {exc}") from exc
        rows.append((label, pairs))
        if pairs:
            max_idx = max(max_idx, max(j for j, _ in pairs))
    feats = np.zeros((len(rows), max_idx))
    raw = np.empty(len(rows))
    for r, (label, pairs) in enumerate(rows):
        raw[r] = label
        for j, v in pairs:
            feats[r, j - 1] = v
    return feats, raw


def _parse_dense(lines):
    first = lines[0][1]
    if "," in first:
        delim = ","
    elif "\t" in first:
        delim = "\t"
    else:
        delim = None  # any whitespace
    rows = []
    width = None
    for lineno, line in lines:
        toks = [t for t in line.split(delim) if t != ""]
        try:
            vals = [float(t) for t in toks]
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: malformed dense row: {exc}") from exc
        if len(vals) < 2:
            raise DatasetFormatError(f"line {lineno}: expected label plus at least one feature")
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise DatasetFormatError(f"line {lineno}: expected {width} columns, got {len(vals)}")
        rows.append(vals)
    arr = np.asarray(rows)
    return arr[:, 1:].copy(), arr[:, 0].copy()


def detect_format(path):
    """Guess the file format from the first data line (':' means sparse)."""
    with open(path) as fh:
        for line in fh:
            if line.strip():
                return SPARSE_FORMAT if ":" in line else DENSE_FORMAT
    raise DatasetFormatError(f"{path}: empty dataset file")


def load_dataset(path, format):
    """Parse a dataset file into :class:`DatasetRecords`.

    ``format`` is ``"sparse-index-value"`` (rows ``label idx:val ...``
    with 1-based indices) or ``"dense-delimited"`` (label in the first
    column, delimiter auto-detected among comma/space/tab).  Raw labels
    are normalized to {-1, +1}: a two-valued label column maps its
    larger value to +1, otherwise positive labels map to +1.  A
    non-finite label or feature value raises :class:`DatasetFormatError`
    naming its line.
    """
    aliases = {"sparse": SPARSE_FORMAT, SPARSE_FORMAT: SPARSE_FORMAT,
               "dense": DENSE_FORMAT, DENSE_FORMAT: DENSE_FORMAT}
    if format not in aliases:
        raise ValueError(f"unknown dataset format {format!r}")
    fmt = aliases[format]
    with open(path) as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise DatasetFormatError(f"{path}: empty dataset file")
    if fmt == SPARSE_FORMAT:
        feats, raw = _parse_sparse(lines)
    else:
        feats, raw = _parse_dense(lines)
    finite = np.isfinite(raw) & np.isfinite(feats).all(axis=1)
    if not finite.all():
        lineno = lines[int(np.argmin(finite))][0]
        raise DatasetFormatError(f"line {lineno}: non-finite label or feature value")
    labels = _normalize_labels(raw)
    N, n = feats.shape
    return DatasetRecords(features=feats, labels=labels, n=n, N=N)


# ---------------------------------------------------------------------------
# estimator entry points used by the solvers


def batch_value(problem, sample, x, meter=None):
    """Subsample-averaged value; charges ``S`` units to the meter."""
    v = problem.batch_value(sample.indices, x)
    if meter is not None:
        meter.charge(len(sample.indices))
    return v


def batch_gradient(problem, sample, x):
    """Subsample-averaged gradient; never touches the meter."""
    return problem.batch_gradient(sample.indices, x)


def full_value(problem, x):
    """Exact mean value over all components (reporting only, unmetered)."""
    return problem.full_value(x)


def full_gradient(problem, x):
    """Exact mean gradient over all components (reporting only, unmetered)."""
    return problem.full_gradient(x)
