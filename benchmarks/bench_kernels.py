#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy twins.

Times the four batch oracles on representative shapes: single-index
batches (the default solver configuration hammers these), mid-size
batches, and full passes.  A full pass is timed twice: with the indices
0..N-1 in order, which reporting, `spectral-full` and the `svrg-bb`
snapshots pass and the numpy kernels read in place, and with a
permutation of them (a uniform draw with S = N), which they gather.
Run after `pip install -e .`:

    python benchmarks/bench_kernels.py
"""

import time

import numpy as np

from specsum import kernels


def _time(fn, *args, repeat=200):
    fn(*args)  # warm-up (numba compiles here)
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / repeat)
    return best


def main():
    rng = np.random.default_rng(0)
    rows = []
    for n, N in ((10, 1000), (100, 1000)):
        A = rng.uniform(1, 5, size=(N, n, n))
        A = 0.5 * (A + A.transpose(0, 2, 1))
        b = rng.uniform(1, 31, size=(N, n))
        feats = rng.standard_normal((N, n))
        labels = np.where(rng.random(N) > 0.5, 1.0, -1.0)
        x = rng.standard_normal(n)
        index_sets = (
            ("draw", rng.choice(N, size=1, replace=False)),
            ("draw", rng.choice(N, size=32, replace=False)),
            ("0..N-1", np.arange(N)),
            ("perm", rng.choice(N, size=N, replace=False)),
        )
        for kind, idx in index_sets:
            idx = idx.astype(np.int64)
            S = idx.size
            cases = [
                ("quad value", kernels.quad_value_numpy,
                 getattr(kernels, "quad_value_numba", None), (A, b, idx, x)),
                ("quad grad", kernels.quad_gradient_numpy,
                 getattr(kernels, "quad_gradient_numba", None), (A, b, idx, x)),
                ("logit value", kernels.logistic_value_numpy,
                 getattr(kernels, "logistic_value_numba", None),
                 (feats, labels, 1e-4, idx, x)),
                ("logit grad", kernels.logistic_gradient_numpy,
                 getattr(kernels, "logistic_gradient_numba", None),
                 (feats, labels, 1e-4, idx, x)),
            ]
            repeat = 200 if S < N else 20
            for name, f_np, f_nb, args in cases:
                t_np = _time(f_np, *args, repeat=repeat)
                t_nb = _time(f_nb, *args, repeat=repeat) if f_nb else np.nan
                rows.append((name, n, N, S, kind, t_np * 1e6, t_nb * 1e6))

    print(f"active backend: {kernels.BACKEND}")
    print(f"{'kernel':<12} {'n':>4} {'N':>5} {'S':>5} {'idx':>7} {'numpy us':>10} "
          f"{'numba us':>10} {'speedup':>8}")
    for name, n, N, S, kind, t_np, t_nb in rows:
        speed = t_np / t_nb if np.isfinite(t_nb) else np.nan
        print(f"{name:<12} {n:>4} {N:>5} {S:>5} {kind:>7} {t_np:>10.2f} {t_nb:>10.2f} "
              f"{speed:>8.2f}")


if __name__ == "__main__":
    main()
