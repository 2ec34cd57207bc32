"""Acceptance suite.

Each test prints one verdict line (run with ``pytest -s`` to see them
all) and asserts the criterion at its stated tolerance:

 1. line search accepts with the analytic step lower bound
 2. interpolation is exact on one-dimensional quadratics
 3. inverse spectral coefficients stay inside the subsampled spectrum
 4. importance-sampling probabilities decay toward uniform as 1/k**eps
 5. batch retention (m > 1) beats per-iteration redraw (m = 1)
 6. the subsampled spectral method beats 1/k stochastic gradient
 7. the full-batch method costs >= 100x more evaluations
 8. analytic gradients match central finite differences
 9. full-batch spectral run drives the gradient below 1e-6
10. the evaluation meter equals sample size times value calls
11. the modified variant's trace has the prescribed shape
12. long runs halve the distance to the known minimizer
13. repeated CLI invocations produce byte-identical traces
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from specsum.cli import main as cli_main
from specsum.harness import rng_for_run
from specsum.linesearch import ACCEPTED, ArmijoContext, armijo_holds, interp_candidate, lsp_search
from specsum.problems import (
    EvalMeter,
    QuadraticProblem,
    batch_gradient,
    batch_value,
    generate_quadratic,
)
from specsum.sampling import AisState, ais_probabilities
from specsum.solvers import SolverConfig, run_solver
from specsum.steplength import bb_coefficient

from conftest import make_logistic

ETA = 1e-4


def verdict(num, name, t0, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {name}: {status} ({time.time() - t0:.1f}s)"
          + (f"  {detail}" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


class ShadowProblem:
    """Counts solver-invoked estimator value calls, independent of the meter."""

    def __init__(self, inner):
        self._inner = inner
        self.value_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def batch_value(self, indices, x, point=None):
        self.value_calls += 1
        return self._inner.batch_value(indices, x, point=point)


@pytest.fixture(scope="module")
def quad_pool():
    rng = np.random.default_rng(11)
    return [generate_quadratic(5, 8, rng) for _ in range(10)]


@pytest.fixture(scope="module")
def logistic_pool():
    return [make_logistic(6, 10, seed=s) for s in range(10)]


@pytest.fixture(scope="module")
def big_instance():
    # shared by criteria 6 and 7
    return generate_quadratic(100, 1000, np.random.default_rng(20240))


@pytest.fixture(scope="module")
def slises_ais_runs(big_instance):
    runs = []
    for seed in range(20):
        cfg = SolverConfig(method="slises", sampler="ais", m=3, S=1,
                           maxiter=100, seed=seed)
        runs.append(run_solver(big_instance, cfg, rng_for_run(seed, 0)))
    return runs


def test_criterion_01_line_search_contract(quad_pool, logistic_pool):
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    bad = ""
    for t in range(1000):
        if t % 2 == 0:
            P = quad_pool[t % len(quad_pool)]
            x = rng.uniform(-2, 34, P.n)
        else:
            P = logistic_pool[t % len(logistic_pool)]
            x = rng.standard_normal(P.n) * 2.0
        S = int(rng.integers(1, P.N + 1))
        sample = rng.choice(P.N, size=S, replace=False)
        g = batch_gradient(P, sample, x)
        if np.linalg.norm(g) < 1e-10:
            continue
        gamma = 10.0 ** rng.uniform(-4, 4)
        d = -gamma * g
        meter = EvalMeter()
        phi0 = batch_value(P, sample, x, meter)
        ctx = ArmijoContext(phi0=phi0, dm=float(g @ d), eta=ETA, t=0.0)
        res = lsp_search(lambda a: batch_value(P, sample, x + a * d, meter), ctx)
        bound = 0.999 * min((1 - ETA) / (P.lipschitz * gamma), 0.01, 1.0)
        recheck = armijo_holds(batch_value(P, sample, x + res.alpha * d), ctx, res.alpha)
        if not (res.status == ACCEPTED and 0 < res.alpha <= 1
                and recheck and res.alpha >= bound):
            bad = f"case {t}: alpha={res.alpha} bound={bound} status={res.status}"
            break
        checked += 1
    verdict(1, "line search step lower bound", t0, not bad and checked >= 990, bad)


def test_criterion_02_interpolation_exactness():
    t0 = time.time()
    # hand-traceable case: phi(a) = (1-2a)^2 interpolates to exactly 0.5
    ok = interp_candidate(-4.0, 1.0, 1.0, 1.0) == 0.5
    # randomized 1-D quadratics through the full search machinery
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        P = QuadraticProblem(np.eye(3)[None] * rng.uniform(1, 5),
                             rng.uniform(1, 31, (1, 3)))
        x = rng.uniform(-5, 40, 3)
        sample = [0]
        g = batch_gradient(P, sample, x)
        v = rng.standard_normal(3)
        if v @ g > 0:
            v = -v
        H = P.A[0]
        target = float(rng.uniform(0.12, 0.45))
        scale = (-(v @ g) / (v @ H @ v)) / target
        d = v * scale  # exact line minimizer now sits at `target`
        ctx = ArmijoContext(phi0=batch_value(P, sample, x),
                            dm=float(g @ d), eta=ETA, t=0.0)
        res = lsp_search(lambda a: batch_value(P, sample, x + a * d), ctx)
        worst = max(worst, abs(res.alpha - target) / target)
        ok = ok and res.trials == 2
    ok = ok and worst <= 1e-12
    verdict(2, "interpolation exact on quadratics", t0, ok,
            f"worst rel err {worst:.2e}")


def test_criterion_03_spectral_coefficient_rayleigh_bound(quad_pool):
    t0 = time.time()
    rng = np.random.default_rng(103)
    worst = ""
    for t in range(500):
        P = quad_pool[t % len(quad_pool)]
        S = int(rng.integers(1, P.N + 1))
        sample = rng.choice(P.N, size=S, replace=False)
        x = rng.uniform(0, 32, P.n)
        s = rng.standard_normal(P.n)
        y = batch_gradient(P, sample, x + s) - batch_gradient(P, sample, x)
        inv_c = 1.0 / bb_coefficient(s, y)
        w = np.linalg.eigvalsh(P.A[sample].mean(axis=0))
        if not (w[0] * (1 - 1e-10) <= inv_c <= w[-1] * (1 + 1e-10)):
            worst = f"case {t}: 1/c={inv_c} spectrum=[{w[0]}, {w[-1]}]"
            break
    verdict(3, "inverse coefficient sweeps the subsampled spectrum", t0,
            not worst, worst)


def test_criterion_04_importance_probability_decay():
    t0 = time.time()
    rng = np.random.default_rng(104)
    ks = np.arange(1, 10_001, dtype=np.float64)
    ok = True
    for _ in range(1000):
        N = int(rng.integers(2, 9))
        pi = rng.uniform(0, 1, N)
        pi[rng.integers(N)] += 0.1
        eps = float(rng.uniform(0.2, 3.0))
        state = AisState(pi=pi, eps=eps)
        a = ks ** -eps
        w = state.pi / state.pi.sum()
        p = a[None, :] * w[:, None] + (1 - a[None, :]) / N
        if not (np.all(p >= 0)
                and np.all(np.abs(p.sum(axis=0) - 1.0) <= 1e-12)
                and np.all(np.abs(p - 1.0 / N) <= a[None, :])):
            ok = False
            break
        # the library output itself satisfies the same properties
        for k_spot in rng.integers(1, 10_001, size=10):
            q = ais_probabilities(state, int(k_spot))
            if not (np.all(q >= 0)
                    and abs(q.sum() - 1.0) <= 1e-12
                    and np.all(np.abs(q - 1.0 / N) <= float(k_spot) ** -eps)):
                ok = False
                break
        if not ok:
            break
    verdict(4, "probability decay envelope 1/k**eps", t0, ok)


def test_criterion_05_batch_retention_beats_redraw():
    t0 = time.time()
    P = generate_quadratic(10, 1000, np.random.default_rng(20240))
    medians = {}
    for stream, m in enumerate((1, 3, 5, 10)):
        finals = []
        for seed in range(20):
            cfg = SolverConfig(method="slises", sampler="ais", m=m, S=1,
                               maxiter=50, seed=seed)
            tr = run_solver(P, cfg, rng_for_run(seed, stream))
            finals.append(tr.records[-1].f_full)
        medians[m] = float(np.median(finals))
    ok = all(medians[m] < medians[1] for m in (3, 5, 10))
    verdict(5, "m>1 beats m=1 on the median final objective", t0, ok,
            " ".join(f"m={m}:{v:.4g}" for m, v in medians.items()))


def test_criterion_06_beats_sgd_at_equal_budget(big_instance, slises_ais_runs):
    t0 = time.time()
    sgd_runs = []
    for seed in range(20):
        cfg = SolverConfig(method="sgd", S=1, maxiter=100, seed=seed)
        sgd_runs.append(run_solver(big_instance, cfg, rng_for_run(seed, 1)))
    # SGD never evaluates the objective, so its budget is its gradient cost
    budget = float(np.median([t.records[-1].cum_evals + t.records[-1].grad_pass_cost
                              for t in sgd_runs]))
    at_budget = []
    for tr in slises_ais_runs:
        vals = [r.f_full for r in tr.records
                if r.cum_evals + r.grad_pass_cost <= budget]
        at_budget.append(vals[-1])
    med_slises = float(np.median(at_budget))
    med_sgd = float(np.median([t.records[-1].f_full for t in sgd_runs]))
    verdict(6, "lower objective than SGD at its final budget", t0,
            med_slises < med_sgd,
            f"budget={budget:.0f} slises={med_slises:.4g} sgd={med_sgd:.4g}")


def test_criterion_07_full_batch_costs_100x(big_instance, slises_ais_runs):
    t0 = time.time()
    full = run_solver(big_instance, SolverConfig(method="spectral-full",
                                                 maxiter=50, seed=0))
    full_evals = full.records[-1].cum_evals
    slises_evals = float(np.median([t.records[50].cum_evals
                                    for t in slises_ais_runs]))
    ratio = full_evals / slises_evals
    verdict(7, "full-batch evaluation cost >= 100x subsampled", t0,
            ratio >= 100.0, f"ratio={ratio:.0f}")


def test_criterion_08_gradient_correctness(quad_pool, logistic_pool):
    t0 = time.time()
    rng = np.random.default_rng(108)
    bad = ""
    for pool, scale in ((quad_pool, 15.0), (logistic_pool, 2.0)):
        for t in range(200):
            P = pool[t % len(pool)]
            i = int(rng.integers(P.N))
            x = rng.standard_normal(P.n) * scale
            h = 1e-6 * (1 + np.linalg.norm(x))
            g = P.component_gradient(i, x)
            fd = np.empty(P.n)
            for j in range(P.n):
                e = np.zeros(P.n)
                e[j] = h
                fd[j] = (batch_value(P, [i], x + e) - batch_value(P, [i], x - e)) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            if rel > 1e-6:
                bad = f"{P.label} i={i}: rel={rel:.2e}"
                break
        if bad:
            break
    verdict(8, "analytic gradients match finite differences", t0, not bad, bad)


def test_criterion_09_full_batch_convergence():
    t0 = time.time()
    P = generate_quadratic(50, 20, np.random.default_rng(7))
    tr = run_solver(P, SolverConfig(method="spectral-full", maxiter=500, seed=0))
    best = min(r.grad_norm_full for r in tr.records)
    verdict(9, "full-batch gradient reaches 1e-6", t0, best <= 1e-6,
            f"min grad norm {best:.2e}")


def test_criterion_10_meter_oracle(quad_pool):
    t0 = time.time()
    rng = np.random.default_rng(110)
    bad = ""
    for t in range(50):
        P = quad_pool[t % len(quad_pool)]
        method = ("slises", "slises", "slises-modified", "spectral-full")[t % 4]
        cfg = SolverConfig(
            method=method,
            m=int(rng.integers(2, 6)) if method != "slises" else int(rng.integers(1, 6)),
            S=int(rng.integers(1, 5)),
            maxiter=int(rng.integers(5, 26)),
            sampler=("uniform", "ais")[t % 2],
            reuse=bool(t % 3),
            delta=0.2,
            seed=t,
        )
        shadow = ShadowProblem(P)
        tr = run_solver(shadow, cfg, rng_for_run(t, 0))
        S_eff = P.N if method == "spectral-full" else cfg.S
        if tr.records[-1].cum_evals != S_eff * shadow.value_calls:
            bad = (f"case {t} ({method}, reuse={cfg.reuse}): "
                   f"meter={tr.records[-1].cum_evals} "
                   f"expected={S_eff * shadow.value_calls}")
            break
    verdict(10, "meter equals S x estimator value calls", t0, not bad, bad)


def test_criterion_11_modified_variant_trace_shape():
    t0 = time.time()
    P = generate_quadratic(8, 40, np.random.default_rng(9))
    delta = 0.1
    cfg = SolverConfig(method="slises-modified", m=3, S=1, delta=delta,
                       maxiter=200, seed=1)
    tr = run_solver(P, cfg)
    bad = ""
    for rec in tr.records[1:]:
        if rec.resampled:
            if not (rec.alpha == 1.0 and rec.lsp_trials == 0
                    and rec.gamma == 1.0 / max(rec.k, 1)):
                bad = f"redraw row k={rec.k}: alpha={rec.alpha} gamma={rec.gamma}"
                break
        else:
            if not rec.gamma <= cfg.gamma_max / max(rec.k, 1) ** (1 + delta):
                bad = f"inner row k={rec.k}: gamma={rec.gamma}"
                break
    verdict(11, "modified-variant trace shape", t0,
            not bad and len(tr.records) == 201, bad)


def test_criterion_12_distance_halves_on_strongly_convex():
    t0 = time.time()
    P = generate_quadratic(10, 100, np.random.default_rng(3))
    start = np.linalg.norm(P.minimizer)  # distance from x0 = 0
    finals = []
    for seed in range(10):
        cfg = SolverConfig(method="slises", m=3, S=1, maxiter=5000, seed=seed)
        tr = run_solver(P, cfg, rng_for_run(seed, 0))
        finals.append(np.linalg.norm(tr.final_x - P.minimizer))
    med = float(np.median(finals))
    verdict(12, "median distance to minimizer at least halves", t0,
            med <= 0.5 * start, f"start={start:.3g} final={med:.3g}")


def test_criterion_13_cli_determinism(tmp_path):
    t0 = time.time()
    inst = str(tmp_path / "inst.npz")
    assert cli_main(["generate", "--n", "4", "--N", "8", "--seed", "5",
                     "--out", inst]) == 0
    out = str(tmp_path / "runs")
    argv = ["run", "--instance", inst, "--method", "slises", "--sampler", "ais",
            "--m", "3", "--maxiter", "25", "--seed", "9", "--out", out]
    assert cli_main(argv) == 0
    trace_path = os.path.join(out, "slises-ais-m3_seed9.csv")
    first = Path(trace_path).read_bytes()
    assert cli_main(argv) == 0
    second = Path(trace_path).read_bytes()
    verdict(13, "repeated runs byte-identical", t0,
            first == second and len(first) > 0)
