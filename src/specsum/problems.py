"""Finite-sum problem oracles and dataset ingestion.

A problem is the average of N smooth component functions.  Two families
are provided: sums of strictly convex quadratics with a controlled
eigenvalue spectrum, and L2-regularized logistic regression over a
labeled dataset.  A problem is evaluated in two places only: its
subsample-averaged ``batch_value``/``batch_gradient``, which are the
:mod:`specsum.kernels` estimators, and its ``report(X)``, the full values
and gradients of a stack of iterates.  A component gradient is the
gradient estimator on a one-index batch.  The estimator entry points at
the end of this module take a batch as its index array and are the only
code that charges the cost meter, when they are handed one; that
includes the component gradient norms that refresh the AIS scores.
``full_value`` and ``full_gradient`` there are the two halves of
``report`` for a one-row stack; only the full gradient, the SVRG-BB
snapshot, is charged.  For a one-row stack whose data fits one block of
the report, N <= ``kernels._REPORT_BLOCK``, the logistic report carries
the bits of the charged estimators ``batch_value`` and ``batch_gradient``
on the full index; for a larger dataset it agrees with them to rounding,
as the quadratic report does (see :mod:`specsum.kernels`).
"""

import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from . import kernels

SPARSE_FORMAT = "sparse-index-value"
DENSE_FORMAT = "dense-delimited"


class DatasetFormatError(ValueError):
    """Raised for unreadable, empty, or malformed dataset files."""


class NonFiniteInstanceError(ArithmeticError):
    """Raised when an aggregate of a problem instance is not finite."""


@dataclass(slots=True)
class EvalMeter:
    """The two cumulative cost columns of a run.

    ``count`` (``cum_evals``) is charged ``S`` units per size-``S``
    subsample value estimate; ``grad_count`` (``grad_pass_cost``) is
    charged ``S`` per size-``S`` gradient estimate and ``N`` per full
    gradient pass.  Values and gradients computed for reporting are
    never charged.
    """

    count: int = 0
    grad_count: int = 0


def _require_finite(kind, **quantities):
    for name, value in quantities.items():
        if not np.all(np.isfinite(value)):
            raise NonFiniteInstanceError(f"{name} of the {kind} instance is not finite")


def check_regularization(lam, name="regularization"):
    """Refuse a regularization weight outside [0, inf), naming it ``name``."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {lam}")


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

    Subclasses provide vectorized ``batch_value(indices, x, point=None)``
    and ``batch_gradient(indices, x, point=None)``, which may keep what
    they share in ``point``, the caller's dict for (indices, x), so that
    a value and a gradient there, in either order, have the bits of the
    two calls without it; ``component_gradient(i, x)`` (the gradient
    estimator on ``[i]``; each subclass defines its own, which
    ``perfbench/tracer.py`` wraps per class); and ``report(X) -> (f, G)``:
    the full values, shape (c,), and gradients, shape (c, n), of the c
    trace rows whose iterates ``X`` stacks.  The report need only agree
    with the estimators on the full index within rounding: for a one-row
    stack whose data fits one block of the report (N <=
    ``kernels._REPORT_BLOCK`` rows) the logistic report is
    ``batch_value`` and ``batch_gradient`` on the full index, bit for
    bit, and for a larger dataset it agrees with them to rounding; the
    quadratic report uses precomputed aggregates and differs from both
    estimators in the last bits.  A quadratic row of a stack has the bits
    of its one-row report; a logistic row takes the rounding of the
    matrix-matrix products and of the sum over its stack's blocks.
    A row's report depends on its own iterate only: a row whose value
    overflows or is NaN leaves the bits of the other rows of its stack,
    so the driver can report a diverging run's rows together and end its
    trace at the first non-finite one (see :mod:`specsum.solvers`).
    """

    N = 0
    n = 0
    lipschitz = None
    minimizer = None
    optimal_value = None
    label = "finite-sum"


class QuadraticProblem(FiniteSumProblem):
    """Average of components f_i(x) = 0.5*(x-b_i)' A_i (x-b_i).

    ``A`` has shape (N, n, n) with each slice symmetric positive
    definite; ``b`` has shape (N, n).  ``report`` uses precomputed
    aggregates (mean matrix M, mean A_i b_i and a constant), so reporting
    costs O(n^2) per row regardless of N.  It takes one matrix-vector
    product Mx per row of the stack, so each row has the bits of its
    one-row report.  An aggregate or a minimizer that is not finite (the
    data overflow when summed) raises :class:`NonFiniteInstanceError`.

    Its estimators keep the products A_i (x-b_i) of their batch, of any
    size, in their ``point``, so a value and a gradient there compute
    them once (the point rule of :mod:`specsum.kernels`).
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
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            Ab = np.einsum("ijk,ik->ij", A, b)
            self._mean_A = A.mean(axis=0)
            self._mean_Ab = Ab.mean(axis=0)
            self._const = 0.5 * float(np.einsum("ij,ij->", b, Ab)) / self.N
        _require_finite("quadratic", _mean_A=self._mean_A, _mean_Ab=self._mean_Ab,
                        _const=self._const)
        if lipschitz is None:
            lipschitz = max(float(np.linalg.eigvalsh(Ai)[-1]) for Ai in A)
        self.lipschitz = float(lipschitz)
        self.minimizer = self._solve_minimizer()
        _require_finite("quadratic", minimizer=self.minimizer)
        self.optimal_value = full_value(self, self.minimizer)

    def _solve_minimizer(self):
        # (sum A_i) x = sum A_i b_i, with one refinement step to push the
        # residual down to rounding level.
        M = self._mean_A
        rhs = self._mean_Ab
        x = np.linalg.solve(M, rhs)
        x += np.linalg.solve(M, rhs - M @ x)
        return x

    def component_gradient(self, i, x):
        return self.batch_gradient(np.array([i]), x)

    def batch_value(self, indices, x, point=None):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return kernels.quad_value(self.A, self.b, idx, x, point=point)

    def batch_gradient(self, indices, x, point=None):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return kernels.quad_gradient(self.A, self.b, idx, x, point=point)

    def report(self, X):
        X = np.asarray(X, dtype=np.float64)
        # one matrix-vector product per row, so that each row has the bits
        # of its one-row report (a matrix-matrix product sums in other orders)
        MX = np.matmul(X[:, None, :], self._mean_A.T)[:, 0, :]
        f = 0.5 * np.vecdot(X, MX) - np.vecdot(X, self._mean_Ab) + self._const
        # f >= 0 on an SPD instance; past overflow the fused products of
        # vecdot can keep a first -inf term, which is still an overflow
        f[f == -np.inf] = np.inf
        return f, MX - self._mean_Ab


class LogisticProblem(FiniteSumProblem):
    """L2-regularized logistic regression over labeled feature rows.

    f_i(x) = log(1 + exp(-y_i * a_i'x)) + 0.5*lam*||x||^2 with labels
    y_i in {-1, +1}.  ``lipschitz`` is lam + max_i ||a_i||^2 / 4; one
    that is not finite (a feature whose square overflows) raises
    :class:`NonFiniteInstanceError`.  The problem keeps the negated
    labels ``neg_labels``, the form the logistic kernels take.  Its
    estimators ignore ``point``.
    """

    def __init__(self, features, labels, lam, label="logistic"):
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ValueError("features must be (N, n) with one label per row")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        check_regularization(lam)
        self.features = features
        self.neg_labels = -labels
        self.lam = float(lam)
        self.N, self.n = features.shape
        self.label = label
        self.lipschitz = self.lam + 0.25 * float(np.max(_squared_row_norms(features)))
        _require_finite("logistic", lipschitz=self.lipschitz)

    def component_gradient(self, i, x):
        return self.batch_gradient(np.array([i]), x)

    def batch_value(self, indices, x, point=None):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return float(kernels.logistic_value(self.features, self.neg_labels, self.lam, idx, x))

    def batch_gradient(self, indices, x, point=None):
        idx = np.asarray(indices, dtype=np.int64)
        x = np.asarray(x, dtype=np.float64)
        return kernels.logistic_gradient(self.features, self.neg_labels, self.lam, idx, x)

    def report(self, X):
        X = np.asarray(X, dtype=np.float64)
        return kernels.logistic_report(self.features, self.neg_labels, self.lam, X)


# ---------------------------------------------------------------------------
# problem construction

# Matrix elements squared at a time by _squared_row_norms.
_NORM_BLOCK = 1 << 16


def _squared_row_norms(features):
    """Squared Euclidean norm of each row of ``features``.

    The rows are squared and summed a block at a time, so no temporary
    the size of the matrix is made.  Each row's sum does not depend on
    the blocking.  A norm that overflows is inf, without a warning.
    """
    sq = np.empty(features.shape[0])
    step = max(1, _NORM_BLOCK // max(1, features.shape[1]))
    with np.errstate(over="ignore"):  # the callers check
        for lo in range(0, sq.size, step):
            sq[lo:lo + step] = np.sum(features[lo:lo + step] ** 2, axis=1)
    return sq


def generate_quadratic(n, N, rng):
    """Random sum-of-quadratics instance.

    For each component: b_i entries i.i.d. Uniform[1, 31]; A_i =
    Q_i D_i Q_i' with D_i diagonal i.i.d. Uniform[1, 101] and Q_i the Q
    factor of ``qr(C_i)`` for a standard-normal n x n matrix C_i.  That
    factor is Haar-distributed on O(n) up to the signs of its columns
    (Mezzadri, "How to generate random matrices from the classical
    compact groups", Notices AMS 2007), and Q_i D_i Q_i' does not see
    those signs, so each A_i is a Haar rotation of D_i.  The gradient
    Lipschitz constant is the largest drawn eigenvalue; the minimizer
    solves (sum A_i) x = sum A_i b_i.

    ``rng`` is a ``numpy.random.Generator``.  Draw order per component is
    fixed (b_i, then D_i, then C_i) so a seeded generator reproduces the
    instance exactly.
    """
    if n < 1 or N < 1:
        raise ValueError("n and N must be positive")
    A = np.empty((N, n, n))
    b = np.empty((N, n))
    lip = 0.0
    for i in range(N):
        b[i] = rng.uniform(1.0, 31.0, size=n)
        d = rng.uniform(1.0, 101.0, size=n)
        C = rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(C)
        M = (Q * d) @ Q.T
        A[i] = 0.5 * (M + M.T)
        lip = max(lip, float(d.max()))
    return QuadraticProblem(A, b, lipschitz=lip, label=f"quadratic-n{n}-N{N}")


def logistic_problem(data, lam=1e-4):
    """Build an L2-regularized logistic regression problem from records."""
    if data.N < 1:
        raise ValueError("dataset is empty")
    return LogisticProblem(data.features, data.labels, lam,
                           label=f"logistic-n{data.n}-N{data.N}-lam{float(lam)!r}")


# ---------------------------------------------------------------------------
# dataset ingestion

# Characters of text read and converted at a time.  A block's strings are
# freed before the next block is read.
_BLOCK_CHARS = 1 << 18

# one sparse feature token, idx:val, as numpy's text parser converts it
_PAIR = np.dtype([("i", np.int64), ("v", np.float64)])

_INT64_MAX = np.iinfo(np.int64).max


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


def _read_blocks(fh, linenos):
    """Yield the stripped non-blank lines of ``fh`` a block at a time.

    A block holds whole lines totalling about ``_BLOCK_CHARS`` characters.
    Each is yielded with an array of its line numbers, and that same array
    is appended to ``linenos``.
    """
    lineno = 0
    while raw := fh.readlines(_BLOCK_CHARS):
        nums, lines = [], []
        for lineno, line in enumerate(map(str.strip, raw), start=lineno + 1):
            if line:
                nums.append(lineno)
                lines.append(line)
        if lines:
            linenos.append(np.array(nums))
            yield linenos[-1], lines


def _sparse_bulk(lines):
    """One block of sparse rows, its feature tokens converted in C.

    Raises ValueError, OverflowError or a Warning for any block the
    row-by-row reader must look at.  ``np.loadtxt`` refuses a token
    without exactly one ``:``, an index that is not a signed run of ASCII
    digits within int64, and a value ``PyOS_string_to_double`` (which
    ``float`` calls) does not take whole: ``int`` and ``float`` accept
    what it accepts, with the same bits.  A warning refuses the block
    (numpy 1.23 took a float-spelled index with a DeprecationWarning).
    """
    heads = list(map(str.split, lines, repeat(None), repeat(1)))
    labels = np.array(list(map(float, map(itemgetter(0), heads))))
    toks = " ".join([h[1] for h in heads if len(h) == 2]).split()
    pairs = np.empty(0, _PAIR)
    if toks:  # loadtxt warns on no data
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = np.loadtxt(toks, delimiter=":", dtype=_PAIR, comments=None, ndmin=1)
    cols, vals = pairs["i"], pairs["v"]
    if cols.size and cols.min() < 1:
        raise ValueError("feature index must be >= 1")
    # a label holds no ':' (float rejects it), so ':' counts the features
    counts = np.array(list(map(str.count, lines, repeat(":"))))
    return labels, counts, cols, vals, int(cols.max()) if cols.size else 0


def _sparse_rows(nums, lines):
    """One block of sparse rows, read row by row; names the first bad line."""
    labels, counts, idx, vals = [], [], [], []
    for lineno, line in zip(nums, lines):
        toks = line.split()
        try:
            labels.append(float(toks[0]))
            for tok in toks[1:]:
                istr, vstr = tok.split(":", 1)
                j = int(istr)
                if j < 1:
                    raise ValueError("feature index must be >= 1")
                idx.append(j)
                vals.append(float(vstr))
        except ValueError as exc:
            raise DatasetFormatError(f"line {lineno}: malformed sparse row: {exc}") from exc
        counts.append(len(toks) - 1)
    hi = max(idx, default=0)
    # no matrix is that wide: np.zeros raises once every line is read
    cols = np.array(idx, dtype=np.int64 if hi <= _INT64_MAX else object)
    return np.array(labels), np.array(counts), cols, np.array(vals), hi


def _parse_sparse(blocks):
    """Feature matrix and raw labels of the sparse rows in ``blocks``."""
    parsed = []
    for nums, lines in blocks:
        try:
            parsed.append((nums, *_sparse_bulk(lines)))
        except (ValueError, OverflowError, Warning):
            parsed.append((nums, *_sparse_rows(nums, lines)))
    n = max(hi for *_, hi in parsed)
    rows = sum(labels.size for _, labels, *_ in parsed)
    try:
        feats = np.zeros((rows, n))
    except (ValueError, MemoryError) as exc:  # too wide to index, or to hold
        nums, _, counts, cols, _, _ = next(p for p in parsed if p[-1] == n)
        lineno = np.repeat(nums, counts)[np.argmax(cols == n)]
        raise DatasetFormatError(
            f"line {lineno}: feature index {n} is too large for a feature matrix: {exc}") from exc
    flat = feats.reshape(-1)
    start = 0
    for _, labels, counts, cols, vals, _ in parsed:
        at = np.repeat(np.arange(start, start + labels.size) * n, counts) + (cols - 1)
        if not (np.diff(at) > 0).all():
            # numpy does not say which write to a repeated position lands
            # last, so keep the row's last value for each position here
            at, last = np.unique(at[::-1], return_index=True)
            vals = vals[::-1][last]
        flat[at] = vals
        start += labels.size
    return feats, np.concatenate([labels for _, labels, *_ in parsed])


def _dense_rows(nums, lines, delim, width):
    """One block of dense rows, read row by row; names the first bad line."""
    rows = []
    for lineno, line in zip(nums, lines):
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
    return np.array(rows)


def _parse_dense(blocks):
    """Feature matrix and raw labels of the dense rows in ``blocks``."""
    parsed = []
    for nums, lines in blocks:
        if not parsed:  # the first row fixes the delimiter; None is any whitespace
            delim = "," if "," in lines[0] else "\t" if "\t" in lines[0] else None
        width = parsed[0].shape[1] if parsed else None
        parsed.append(_dense_rows(nums, lines, delim, width))
    return (np.concatenate([p[:, 1:] for p in parsed]),
            np.concatenate([p[:, 0] for p in parsed]))


def detect_format(path):
    """Guess the file format from the data lines (':' means sparse).

    The guess reads the first line with more than one token: a lone
    label is a sparse row whose features are all zero, and no dense row
    has one column.  When every line has one token, the first decides.
    """
    first = None
    with open(path) as fh:
        for line in fh:
            if len(line.replace(",", " ").split()) > 1:
                return SPARSE_FORMAT if ":" in line else DENSE_FORMAT
            if first is None and line.strip():
                first = line
    if first is None:
        raise DatasetFormatError(f"{path}: empty dataset file")
    return SPARSE_FORMAT if ":" in first else DENSE_FORMAT


def load_dataset(path, format):
    """Parse a dataset file into :class:`DatasetRecords`.

    ``format`` is ``"sparse-index-value"`` (rows ``label idx:val ...``
    with 1-based indices) or ``"dense-delimited"`` (label in the first
    column, delimiter auto-detected among comma/space/tab).  Raw labels
    are normalized to {-1, +1}: a two-valued label column maps its
    larger value to +1, otherwise positive labels map to +1.  A
    malformed row raises :class:`DatasetFormatError` naming its line;
    so does, once every row is parsed, the first row with a non-finite
    label or feature value or a squared norm that overflows.

    The file is read in blocks of whole lines, about 256k characters
    each, so memory is the feature matrix plus one block's strings and,
    for sparse rows, a 16-byte (index, value) pair per stored entry.
    ``np.loadtxt`` converts a sparse block's ``idx:val`` tokens; a block
    it refuses, or warns on, is read row by row by ``int`` and ``float``,
    which name the first bad line.  Dense rows are converted one at a time.
    """
    aliases = {"sparse": SPARSE_FORMAT, SPARSE_FORMAT: SPARSE_FORMAT,
               "dense": DENSE_FORMAT, DENSE_FORMAT: DENSE_FORMAT}
    if format not in aliases:
        raise ValueError(f"unknown dataset format {format!r}")
    parse = _parse_sparse if aliases[format] == SPARSE_FORMAT else _parse_dense
    linenos = []
    with open(path) as fh:
        blocks = _read_blocks(fh, linenos)
        first = next(blocks, None)
        if first is None:
            raise DatasetFormatError(f"{path}: empty dataset file")
        try:
            feats, raw = parse(chain([first], blocks))
        except DatasetFormatError:
            for _ in fh:  # decode the rest: an undecodable byte is reported first
                pass
            raise
    ok = np.isfinite(raw) & np.isfinite(_squared_row_norms(feats))
    if not ok.all():
        j = np.argmin(ok)
        lineno = np.concatenate(linenos)[j]
        if np.isfinite(raw[j]) and np.isfinite(feats[j]).all():
            raise DatasetFormatError(f"line {lineno}: squared feature norm overflows")
        raise DatasetFormatError(f"line {lineno}: non-finite label or feature value")
    labels = _normalize_labels(raw)
    N, n = feats.shape
    return DatasetRecords(features=feats, labels=labels, n=n, N=N)


# ---------------------------------------------------------------------------
# estimator entry points; each charges ``meter`` when one is passed
# (trace reporting calls each problem's uncharged ``report`` instead).
# ``indices`` is the batch: an index array, or any sequence of indices.


def batch_value(problem, indices, x, meter=None, *, point=None):
    """Subsample-averaged value; charges ``S`` value units, and records
    it as ``"value"`` in ``point``, the caller's dict for (indices, x)."""
    v = problem.batch_value(indices, x, point=point)
    if meter is not None:
        meter.count += len(indices)
    if point is not None:
        point["value"] = v
    return v


def batch_gradient(problem, indices, x, meter=None, *, point=None):
    """Subsample-averaged gradient at the caller's ``point`` dict for
    (indices, x); charges ``S`` gradient units."""
    g = problem.batch_gradient(indices, x, point=point)
    if meter is not None:
        meter.grad_count += len(indices)
    return g


def component_gradient_norms(problem, indices, x, meter=None):
    """``np.linalg.norm`` of each listed component gradient, one
    ``component_gradient`` call per index; charges ``S`` gradient units."""
    norms = np.array([np.linalg.norm(problem.component_gradient(i, x)) for i in indices])
    if meter is not None:
        meter.grad_count += len(indices)
    return norms


def full_value(problem, x):
    """Exact mean value over all components, the report of the one-row
    stack ``[x]``; never charged."""
    return float(problem.report(np.asarray(x)[None])[0][0])


def full_gradient(problem, x, meter=None):
    """Exact mean gradient over all components, the report of the one-row
    stack ``[x]``; charges ``N`` gradient units."""
    g = problem.report(np.asarray(x)[None])[1][0]
    if meter is not None:
        meter.grad_count += problem.N
    return g
