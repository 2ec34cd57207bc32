"""Workload definitions: inputs generated from the workload seed, the
``specsum`` argument list each one runs, and the correctness gate that
every run's trace must pass.

Inputs are written to a work directory before any timer starts; the
program only ever sees those files and its flags.
"""

from dataclasses import dataclass, field

import numpy as np

# Relative optimality-gap tolerance per run label on the quadratic
# workloads: |f_final - f*| <= tol * (f_0 - f*).  The sweep's m=1 runs
# take the 1/||g|| anchor step (damped by 1/k) on every iteration and
# only close about 10% of the gap in 2000 iterations; the m >= 3 runs
# close more than 99.5% of it.  spectral-full reaches a zero gap by
# k ~ 10, so its tolerance sits at the rounding floor.
GAP_TOL = {
    "quad-sweep": {"m=1": 0.98, "*": 5e-2},
    "quad-fullbatch": {"*": 1e-12},
}


@dataclass
class Sizes:
    n: int
    N: int
    maxiter: int
    m_grid: tuple = ()
    n_seeds: int = 1
    S: int = 1


@dataclass
class Workload:
    name: str
    full: Sizes
    smoke: Sizes
    methods: tuple = ()
    why: str = ""


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "quad-sweep",
            full=Sizes(n=100, N=1000, maxiter=2000, m_grid=(1, 3, 5, 10), n_seeds=2),
            smoke=Sizes(n=6, N=40, maxiter=300, m_grid=(1, 3), n_seeds=2),
            why="Paper default S=1 sweep-m: per-iteration Python overhead in solvers, "
                "linesearch, steplength, sampling and single-row kernels; "
                "generate_quadratic is its setup."),
        Workload(
            "quad-fullbatch",
            full=Sizes(n=20, N=250, maxiter=250),
            smoke=Sizes(n=5, N=30, maxiter=20),
            why="spectral-full on a frozen instance: full-index kernels.quad_value "
                "with its A[idx] gather dominates, and line-search trials at the "
                "rounding floor show."),
        Workload(
            "logit-compare",
            full=Sizes(n=50, N=20000, maxiter=150, n_seeds=2, S=4),
            smoke=Sizes(n=10, N=400, maxiter=150, n_seeds=2, S=4),
            methods=("slises-ais", "slises-uni", "sgd", "svrg-bb"),
            why="compare on a parsed sparse dataset: full-batch trace reporting "
                "dominates, AIS draws are O(N), load_dataset is its setup."),
    )
}


@dataclass
class Prepared:
    """What one benchmark run hands to every invocation."""

    workload: str
    argv: list
    expected_runs: int
    maxiter: int
    gap_tol: dict = field(default_factory=dict)


def _solver_seeds(rng, count):
    return [int(s) for s in rng.choice(2**31 - 1, size=count, replace=False)]


def write_sparse_dataset(path, N, n, rng):
    """Gaussian features at ~50% density, labels from a noisy linear model.

    Features are scaled so that E||a_i||^2 = 1, the usual normalization
    of benchmark datasets, which keeps the 1/k SGD steps stable.  Values
    are written with ``repr(float(v))`` because the parser rejects a
    numpy scalar's repr.
    """
    w = 3.0 * rng.standard_normal(n)
    mask = rng.random((N, n)) < 0.5
    X = rng.standard_normal((N, n)) * mask / np.sqrt(0.5 * n)
    y = np.where(X @ w + rng.standard_normal(N) > 0.0, 1, -1)
    with open(path, "w") as fh:
        for i in range(N):
            cols = np.flatnonzero(mask[i])
            if cols.size == 0:  # a label-only first line would read as dense
                cols = np.array([0])
            pairs = " ".join(f"{j + 1}:{float(X[i, j])!r}" for j in cols)
            fh.write(f"{y[i]} {pairs}\n")


def prepare(workload, sizes, seed, work_dir):
    """Generate the inputs of one benchmark run; returns the invocation plan."""
    from specsum import harness  # imported late: run.py sets sys.path first

    rng = np.random.default_rng(seed)
    name = workload.name
    if name == "quad-sweep":
        seeds = _solver_seeds(rng, sizes.n_seeds)
        argv = ["sweep-m", "--n", str(sizes.n), "--N", str(sizes.N),
                "--problem-seed", str(seed),
                "--m-grid", ",".join(str(m) for m in sizes.m_grid),
                "--seeds", ",".join(str(s) for s in seeds),
                "--maxiter", str(sizes.maxiter)]
        runs = len(sizes.m_grid) * len(seeds)
    elif name == "quad-fullbatch":
        inst = harness.generate_instance("quadratic", sizes.n, sizes.N, seed,
                                         str(work_dir / "instance.npz"))
        argv = ["run", "--instance", inst, "--method", "spectral-full",
                "--maxiter", str(sizes.maxiter)]
        runs = 1
    elif name == "logit-compare":
        data = work_dir / "dataset.txt"
        write_sparse_dataset(data, sizes.N, sizes.n, rng)
        seeds = _solver_seeds(rng, sizes.n_seeds)
        argv = ["compare", "--dataset", str(data),
                "--methods", ",".join(workload.methods),
                "--seeds", ",".join(str(s) for s in seeds),
                "--maxiter", str(sizes.maxiter), "--S", str(sizes.S)]
        runs = len(workload.methods) * len(seeds)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Prepared(workload=name, argv=argv, expected_runs=runs, maxiter=sizes.maxiter,
                    gap_tol=GAP_TOL.get(name, {}))


def gate(columns, maxiter, f_star=None, gap_tol=None):
    """Correctness gate for one run's trace columns; returns a failure
    reason, or None when the run passes.

    The trace has maxiter + 1 rows, every f_full is finite, the final
    f_full is below the initial one and, when the optimum is known, the
    final gap is within ``gap_tol`` of the initial gap.
    """
    f = np.asarray(columns["f_full"], dtype=np.float64)
    if not np.all(np.isfinite(f)):
        return "non-finite f_full"
    if f.size != maxiter + 1:
        return f"{f.size} rows, expected {maxiter + 1}"
    if not f[-1] < f[0]:
        return f"final f_full {float(f[-1])!r} not below initial {float(f[0])!r}"
    if f_star is not None and gap_tol is not None:
        gap0, gap = f[0] - f_star, abs(f[-1] - f_star)
        if not gap <= gap_tol * gap0:
            return f"final gap {float(gap)!r} exceeds {gap_tol:g} x initial gap {float(gap0)!r}"
    return None


def gap_tolerance(gap_tol, label):
    return gap_tol.get(label, gap_tol.get("*"))
