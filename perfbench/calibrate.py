"""Host-speed reference loops, one per workload.

The benchmark's host is shared.  Besides taking CPU time away (steal,
which the benchmark leaves out by timing CPU time), for minutes at a
time other tenants slow every instruction of a single-threaded process
by up to 1.5x, and CPU time shows that as more CPU time.  Each loop
here repeats, on fixed inputs, the numpy operations that dominate one
workload.  It is written out in the benchmark itself, so no change to
``specsum`` changes it.  ``run.py`` times the loop's CPU time in its
own process between invocations, while no invocation runs, and divides
each invocation's times by the host's slowdown around it: loop time /
``REFERENCE_S``.
"""

import time

import numpy as np


def _quad_rows():
    """Single-row value and gradient calls with the solver's vector
    updates around them (n=100), as in an S=1 quadratic iteration."""
    rng = np.random.default_rng(0)
    n, rows = 100, 64
    A = rng.standard_normal((rows, n, n))
    b = rng.standard_normal((rows, n))

    def loop(rounds):
        x = np.zeros(n)
        for r in range(rounds):
            idx = np.array([r % rows])
            dx = x[None, :] - b[idx]
            v = 0.5 * float(np.einsum("ij,ijk,ik->", dx, A[idx], dx)) / idx.size
            g = np.einsum("ijk,ik->j", A[idx], dx) / idx.size
            x = x - 1e-6 * g + 1e-9 * v
            float(g @ g)
    return loop


def _quad_full():
    """Full-index value calls with their gather (N=250, n=20)."""
    rng = np.random.default_rng(0)
    N, n = 250, 20
    A = rng.standard_normal((N, n, n))
    b = rng.standard_normal((N, n))
    idx = np.arange(N)

    def loop(rounds):
        x = np.zeros(n)
        for _ in range(rounds):
            dx = x[None, :] - b[idx]
            float(np.einsum("ij,ijk,ik->", dx, A[idx], dx))
    return loop


def _logistic_full():
    """Full-batch logistic value and gradient (N=20000, n=50)."""
    rng = np.random.default_rng(0)
    N, n = 20000, 50
    feats = rng.standard_normal((N, n)) * (rng.random((N, n)) < 0.5)
    labels = np.where(rng.random(N) < 0.5, 1.0, -1.0)
    idx = np.arange(N)
    x = 0.01 * rng.standard_normal(n)

    def loop(rounds):
        for _ in range(rounds):
            z = -labels[idx] * (feats[idx] @ x)
            float(np.mean(np.logaddexp(0.0, z)))
            sig = np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z)))
            (-labels[idx] * sig) @ feats[idx]
    return loop


# (inputs and loop factory, rounds per pass): a pass takes about 0.3 s
LOOPS = {
    "quad-sweep": (_quad_rows, 8000),
    "quad-fullbatch": (_quad_full, 1200),
    "logit-compare": (_logistic_full, 100),
}

# the pass time of each loop on an idle host (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4, one BLAS thread); it sets the host speed that
# the reported times are scaled to
REFERENCE_S = {
    "quad-sweep": 0.30,
    "quad-fullbatch": 0.29,
    "logit-compare": 0.30,
}

_built = {}


def measure(workload):
    """CPU time of one pass of the workload's reference loop."""
    factory, rounds = LOOPS[workload]
    if workload not in _built:
        _built[workload] = factory()
        _built[workload](1)
    loop = _built[workload]
    t0 = time.process_time()
    loop(rounds)
    return time.process_time() - t0
