"""Experiment runner: trace persistence, sweeps and method comparisons.

Traces are CSV files with '#'-prefixed header lines recording the full
configuration, the seed and the problem metadata.  Every numeric field
is written with shortest round-trip formatting, so reading a trace back
reproduces the run bit for bit.  Aggregates place runs on the shared
axis of cumulative function evaluations (never iterations): the union
of all evaluation counts forms the grid, each curve is stepped onto it
by carrying its last value forward, and the per-seed curves are reduced
by median (default) or mean.

A run whose reported objective turns non-finite writes that row (the
float's own 'inf'/'nan' text acts as the sentinel) and its trace and
curve end there; the aggregate carries the sentinel forward from its
evaluation count, so a median or mean over seeds never shows a diverged
run as a finite plateau.  Other runs in the batch are unaffected.

``sweep_m`` and ``compare_methods`` run one protocol and differ only in
their configs and the experiment they name.  Before the first run every
config is validated and every run named, as ``<label>_seed<seed>.csv``:
a repeated label or seed is refused, so no run overwrites another, and
so are a negative seed and an empty list of configs or seeds.  The
cells of the (config x seed) grid then run one after another and are
independent: problem oracles are immutable and shared read-only, every
run owns its generator and meter, and each config gets its own seed
stream.  Traces, aggregates and frozen instances are written atomically
(temp + rename).
"""

import contextlib
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, replace

import numpy as np

from .problems import (
    DatasetFormatError,
    QuadraticProblem,
    detect_format,
    generate_quadratic,
    load_dataset,
    logistic_problem,
)
from .solvers import run_solver

TRACE_COLUMNS = (
    "k", "resampled", "c_k", "gamma_k", "alpha_k", "lsp_trials",
    "cum_evals", "grad_pass_cost", "f_full", "grad_norm_full",
)

AGGREGATIONS = ("per-run", "median", "mean")

# experiment -> the command-line flag that lists its configs
GRID_FLAGS = {"sweep-m": "--m-grid", "compare": "--methods"}


@dataclass
class ExperimentSpec:
    """Problem source, output directory and seed reduction of an experiment."""

    n: int = None
    N: int = None
    problem_seed: int = 0
    instance: str = None
    dataset: str = None
    lam: float = 1e-4
    out_dir: str = "runs"
    aggregation: str = "median"

    def __post_init__(self):
        # a frozen instance, a dataset or a generated (n, N) quadratic: one only
        flags = [f"--{name}" for name in ("instance", "dataset", "n", "N")
                 if getattr(self, name) is not None]
        if len(flags) > 1 and flags != ["--n", "--N"]:
            raise ValueError(f"give one problem source, not {' and '.join(flags)}")

    def build_problem(self):
        if self.instance:
            return load_instance(self.instance)
        if self.dataset:
            records = load_dataset(self.dataset, detect_format(self.dataset))
            return logistic_problem(records, self.lam)
        if not self.n or not self.N:
            raise ValueError("generated problems need both n and N")
        problem = generate_quadratic(self.n, self.N, np.random.default_rng(self.problem_seed))
        problem.label += f"-seed{self.problem_seed}"  # the label of its frozen twin
        return problem


def rng_for_run(seed, stream=0):
    """Deterministic generator; distinct streams are independent.  Its
    first call in a process imports ``numpy.random``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# trace persistence


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer, np.bool_)):  # a bool is an int
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # a numpy float's repr names its type
    return str(v)


@contextlib.contextmanager
def _atomic_write(path, mode="w"):
    """A temp file beside ``path``, renamed over it when the block succeeds."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace(trace, path):
    """Write one run as CSV, each field as ``_fmt`` spells it; returns the path."""
    lines = [f"# {key} = {_fmt(val)}" for key, val in trace.header.items()]
    lines.append(",".join(TRACE_COLUMNS))
    for r in trace.records:
        lines.append(f"{r.k},{r.resampled:d},{r.c!r},{r.gamma!r},{r.alpha!r},"
                     f"{r.lsp_trials},{r.cum_evals},{r.grad_pass_cost},"
                     f"{r.f_full!r},{r.grad_norm_full!r}")
        if not math.isfinite(r.f_full):
            break  # the curve ends at the divergence sentinel
    with _atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_trace(path):
    """Parse a trace CSV into (header dict of strings, column arrays)."""
    header = {}
    rows = []
    columns = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                header[key.strip()] = val.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(tok) if tok else np.nan
                             for tok in line.split(",")])
    if columns is None:
        raise DatasetFormatError(f"{path}: not a trace file")
    data = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(columns))
    return header, {name: data[:, j] for j, name in enumerate(columns)}


def run_single(problem, config, seed, out_dir, stream=0):
    """Execute one (config, seed) cell and persist its trace.

    The run gets a factory of its generator, ``rng_for_run(seed, stream)``,
    which its driver calls at the first draw: a run that never draws
    builds none.
    """
    cfg = replace(config, seed=int(seed))
    trace = run_solver(problem, cfg, lambda: rng_for_run(seed, stream))
    name = f"{cfg.display_label()}_seed{seed}.csv"
    return write_trace(trace, os.path.join(out_dir, name)), trace


# ---------------------------------------------------------------------------
# aggregation


def trace_curve(trace):
    """(cum_evals, f_full) pairs of a run, ending at its sentinel row, the
    first non-finite f, as the written trace does."""
    evals = np.array([r.cum_evals for r in trace.records], dtype=np.float64)
    f = np.array([r.f_full for r in trace.records], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        evals, f = evals[: bad[0] + 1], f[: bad[0] + 1]
    return evals, f


def _lvcf(evals, values, grid):
    idx = np.searchsorted(evals, grid, side="right") - 1
    idx = np.clip(idx, 0, evals.size - 1)
    return values[idx]


def aggregate_curves(curves_by_label, how="median"):
    """Align curves on the union evaluation grid and reduce per label.

    ``curves_by_label`` maps a column label to a list of (evals, f)
    curves (one per seed).  Returns (grid, columns) where columns maps
    output labels to arrays over the grid.
    """
    if how not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {how!r}")
    all_evals = [c[0] for curves in curves_by_label.values() for c in curves]
    if not all_evals:
        raise ValueError("nothing to aggregate")
    grid = np.unique(np.concatenate(all_evals))
    columns = {}
    for label, curves in curves_by_label.items():
        stacked = np.vstack([_lvcf(e, f, grid) for e, f in curves])
        if how == "median":
            columns[label] = np.median(stacked, axis=0)
        elif how == "mean":
            columns[label] = stacked.mean(axis=0)
        else:
            for i, row in enumerate(stacked):
                columns[f"{label}/run{i}"] = row
    return grid, columns


def write_aggregate(path, grid, columns, header=None):
    lines = [f"# {key} = {_fmt(val)}" for key, val in (header or {}).items()]
    lines.append(",".join(["cum_evals"] + list(columns)))
    cols = [np.asarray(c, dtype=np.float64).tolist() for c in columns.values()]
    for row in zip(np.asarray(grid, dtype=np.float64).tolist(), *cols):
        lines.append(",".join(map(repr, row)))
    with _atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# experiment protocols


def check_grid(experiment, configs, seeds, N=None):
    """Refuse the (config x seed) grid unless every config is valid, against
    the component count ``N`` when it is given, and every run has its own
    name; returns the runs' labels.  Only the checks against ``N`` need the
    problem, so a caller may run the others before it builds one."""
    for flag, values in ((GRID_FLAGS[experiment], configs), ("--seeds", seeds)):
        if not len(values):
            raise ValueError(f"{experiment}: {flag} is empty, so there is nothing to run")
    labels = [cfg.display_label() for cfg in configs]
    for label, cfg in zip(labels, configs):
        try:
            cfg.validate(N)
        except ValueError as exc:
            raise ValueError(f"{experiment}: run {label}: {exc}") from exc
    if min(seeds, default=0) < 0:
        raise ValueError(f"{experiment}: seeds must be >= 0, got {min(seeds)}")
    for what, names in (("label", labels), ("seed", [int(s) for s in seeds])):
        repeated = sorted({x for x in names if names.count(x) > 1})
        if repeated:
            raise ValueError(f"{experiment}: run {what} {', '.join(map(str, repeated))} "
                             "is repeated; every run needs its own trace file")
    return labels


def _run_grid(experiment, problem, configs, seeds, out_dir, how):
    """Run the (config x seed) grid, one seed stream per config, and write
    its aggregate ``<experiment>.csv``; nothing runs unless the grid passes
    :func:`check_grid` against the problem's N."""
    labels = check_grid(experiment, configs, seeds, problem.N)
    paths = []
    curves = {label: [] for label in labels}
    for stream, (label, cfg) in enumerate(zip(labels, configs)):
        for seed in seeds:
            path, trace = run_single(problem, cfg, seed, out_dir, stream=stream)
            paths.append(path)
            curves[label].append(trace_curve(trace))
            del trace  # free its records before the next run or the aggregate
    grid, columns = aggregate_curves(curves, how)
    header = {"experiment": experiment, "problem": problem.label,
              "seeds": " ".join(str(s) for s in seeds), "aggregation": how}
    name = experiment.replace("-", "_") + ".csv"
    return paths, write_aggregate(os.path.join(out_dir, name), grid, columns, header)


def sweep_configs(base_config, m_values):
    """The configs of ``sweep_m``: the base config at each m."""
    return [replace(base_config, m=int(m), label=f"m={m}") for m in m_values]


def sweep_m(problem, base_config, m_values, seeds, out_dir, how="median"):
    """Runs of the base config for each m, reduced onto one aggregate."""
    configs = sweep_configs(base_config, m_values)
    return _run_grid("sweep-m", problem, configs, seeds, out_dir, how)


def compare_methods(problem, configs, seeds, out_dir, how="median"):
    """Runs of each config on the shared problem, one aggregate column each."""
    return _run_grid("compare", problem, configs, seeds, out_dir, how)


# ---------------------------------------------------------------------------
# frozen instances


def generate_instance(family, n, N, seed, path):
    """Generate and freeze a problem instance (quadratic family only)."""
    if family != "quadratic":
        raise ValueError("only quadratic instances can be generated")
    problem = generate_quadratic(n, N, np.random.default_rng(seed))
    if not path.endswith(".npz"):
        path = path + ".npz"
    with _atomic_write(path, "wb") as fh:
        np.savez(fh, A=problem.A, b=problem.b, lipschitz=problem.lipschitz, seed=seed)
    return path


_INSTANCE_KEYS = ("A", "b", "lipschitz", "seed")


def load_instance(path):
    """Reload a frozen instance bit-exactly.

    Raises :class:`DatasetFormatError` naming ``path`` when the file is
    not an ``.npz`` archive, lacks one of ``A``, ``b``, ``lipschitz``
    and ``seed``, holds ``A`` and ``b`` of shapes other than (N, n, n)
    and (N, n) with N, n >= 1, a ``lipschitz`` or ``seed`` that is not
    a scalar, an array that cannot be read, or a non-numeric or
    non-finite value.
    """
    # the file is ours to close: numpy leaves it open when a truncated
    # archive makes it raise
    with open(path, "rb") as fh:
        try:
            data = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise DatasetFormatError(f"{path}: not an .npz archive: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DatasetFormatError(f"{path}: not an .npz archive")
        with data:
            missing = [key for key in _INSTANCE_KEYS if key not in data.files]
            if missing:
                raise DatasetFormatError(f"{path}: missing {', '.join(missing)}")
            try:
                A, b, lip, seed = (data[key] for key in _INSTANCE_KEYS)
            except (ValueError, zipfile.BadZipFile) as exc:  # object arrays, bad CRC
                raise DatasetFormatError(f"{path}: unreadable array: {exc}") from exc
    N, n = b.shape if b.ndim == 2 else (0, 0)
    if N < 1 or n < 1 or A.shape != (N, n, n) or lip.shape != () or seed.shape != ():
        raise DatasetFormatError(
            f"{path}: expected A (N, n, n), b (N, n) with N, n >= 1 and scalar "
            f"lipschitz and seed, got {A.shape}, {b.shape}, {lip.shape}, {seed.shape}")
    for key, arr in zip(_INSTANCE_KEYS, (A, b, lip, seed)):
        if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
            raise DatasetFormatError(f"{path}: {key} holds a non-numeric or non-finite value")
    return QuadraticProblem(A, b, lipschitz=float(lip),
                            label=f"quadratic-n{n}-N{N}-seed{int(seed)}")
