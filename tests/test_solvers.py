"""Iteration drivers: hand traces, coefficient regimes, metering, replay."""

from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from conftest import make_logistic
from specsum.problems import (
    LogisticProblem,
    QuadraticProblem,
    batch_gradient,
    full_gradient,
    full_value,
    generate_quadratic,
)
from specsum import solvers
from specsum.linesearch import HELD, LspResult
from specsum.sampling import should_resample
from specsum.solvers import SAMPLERS, SolverConfig, make_solver, run_solver


def one_dim_problem(target):
    """f(x) = 0.5*(x - target)^2 as a single-component sum."""
    return QuadraticProblem(np.ones((1, 1, 1)), np.array([[target]]))


class CountingProblem:
    """Shadow wrapper counting solver-invoked estimator value calls."""

    def __init__(self, inner):
        self._inner = inner
        self.value_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def batch_value(self, indices, x):
        self.value_calls += 1
        return self._inner.batch_value(indices, x)


class TestTraceShape:
    @pytest.mark.parametrize("method", ["slises", "slises-modified", "spectral-full",
                                        "sgd", "svrg-bb", "sgd-bb", "sgd-bb-smooth"])
    def test_lengths_and_monotone_meter(self, method):
        P = generate_quadratic(4, 8, np.random.default_rng(0))
        cfg = SolverConfig(method=method, m=3, S=1, maxiter=12, seed=4)
        tr = run_solver(P, cfg)
        assert len(tr.records) == cfg.maxiter + 1
        evals = [r.cum_evals for r in tr.records]
        assert all(a <= b for a, b in zip(evals, evals[1:]))
        assert np.isnan(tr.records[0].alpha)
        assert tr.records[0].cum_evals == 0
        for rec in tr.records[1:]:
            assert 0 < rec.alpha <= 1

    def test_initial_record_reports_start_point(self):
        P = generate_quadratic(3, 5, np.random.default_rng(1))
        tr = run_solver(P, SolverConfig(maxiter=2, seed=0))
        assert tr.records[0].f_full == pytest.approx(full_value(P, np.zeros(3)), rel=1e-14)


class TestSlisesHandTrace:
    def test_single_component_unit_quadratic(self):
        # f(x) = 0.5*(x+1)^2 from x0=0: the redraw iteration anchors at
        # c=1/|g|=1, accepts the unit step onto the minimizer (slack 1),
        # then the BB iteration sees g=0 and later steps are stationary
        P = one_dim_problem(-1.0)
        cfg = SolverConfig(method="slises", m=3, S=1, maxiter=4, seed=0)
        tr = run_solver(P, cfg)

        r0 = tr.records[1]  # iteration k=0
        assert r0.resampled
        assert r0.c == 1.0 and r0.gamma == 1.0
        assert r0.alpha == 1.0 and r0.lsp_trials == 1
        assert r0.cum_evals == 2  # fresh base + one trial

        r1 = tr.records[2]  # k=1: s=-1, y=-1 so c=1; d=0 skips the search
        assert not r1.resampled
        assert r1.c == 1.0 and r1.gamma == 1.0
        assert r1.alpha == 1.0 and r1.lsp_trials == 0
        assert r1.cum_evals == 2

        r2 = tr.records[3]  # k=2: s=0 degenerates, anchor of g=0 is stationary
        assert np.isnan(r2.c) and np.isnan(r2.gamma)
        assert r2.alpha == 0.0 and r2.lsp_trials == 0

        assert tr.final_x == pytest.approx([-1.0])
        assert all(r.f_full == 0.0 for r in tr.records[2:])


class TestCoefficientRegime:
    def replay(self, P, cfg):
        """Step the driver, recomputing coefficients from recorded samples."""
        drv = make_solver(P, cfg, np.random.default_rng(cfg.seed))
        xs = []
        gs = []
        while drv.k < cfg.maxiter:
            xs.append(drv.x.copy())
            drv.step()
            rec = drv.records[-1]
            gs.append(batch_gradient(P, rec.indices, xs[-1]))
        return drv.records[1:], xs, gs

    def test_anchor_at_redraws_bb_between(self):
        P = generate_quadratic(4, 9, np.random.default_rng(2))
        cfg = SolverConfig(method="slises", m=3, S=2, maxiter=14, seed=5)
        records, xs, gs = self.replay(P, cfg)
        for k, rec in enumerate(records):
            assert rec.k == k
            assert rec.resampled == should_resample(k, cfg.m)
            if rec.resampled:
                assert rec.c == pytest.approx(1.0 / np.linalg.norm(gs[k]), rel=1e-12)
                assert rec.gamma == pytest.approx(
                    min(cfg.gamma_max, max(cfg.gamma_min, rec.c)) / max(k, 1), rel=1e-12)
            else:
                s = xs[k] - xs[k - 1]
                y = gs[k] - gs[k - 1]
                assert rec.c == pytest.approx(float(s @ s) / float(s @ y), rel=1e-10)

    def test_m_one_uses_bb_after_first_iteration(self):
        P = generate_quadratic(3, 8, np.random.default_rng(3))
        cfg = SolverConfig(method="slises", m=1, S=1, maxiter=8, seed=1)
        records, xs, gs = self.replay(P, cfg)
        assert all(rec.resampled for rec in records)
        assert records[0].c == pytest.approx(1.0 / np.linalg.norm(gs[0]), rel=1e-12)
        for k in range(1, len(records)):
            s = xs[k] - xs[k - 1]
            y = gs[k] - gs[k - 1]
            expected = float(s @ s) / float(s @ y)
            clipped = min(cfg.gamma_max, max(cfg.gamma_min, expected))
            assert records[k].c == pytest.approx(expected, rel=1e-10)
            assert records[k].gamma == pytest.approx(clipped / max(k, 1), rel=1e-10)

    def test_sample_persists_between_redraws(self):
        P = generate_quadratic(3, 12, np.random.default_rng(4))
        cfg = SolverConfig(method="slises", m=4, S=3, maxiter=17, seed=9)
        tr = run_solver(P, cfg)
        records = tr.records[1:]
        for k, rec in enumerate(records):
            if not rec.resampled:
                assert rec.indices is records[k - 1].indices

    def test_ais_sampler_runs_and_updates_scores(self):
        P = generate_quadratic(3, 10, np.random.default_rng(5))
        cfg = SolverConfig(method="slises", sampler="ais", m=2, S=2, maxiter=9, seed=3)
        drv = make_solver(P, cfg, np.random.default_rng(cfg.seed))
        assert np.all(drv.ais.pi == 1.0)
        trace = drv.run()
        # retired batches wrote their gradient norms into the scores
        changed = set(np.flatnonzero(drv.ais.pi != 1.0))
        assert changed
        assert changed <= {int(i) for rec in trace.records[1:] for i in rec.indices}
        assert np.all(drv.ais.pi > 0)


class TestModifiedVariant:
    def test_redraw_rows_take_unit_step_without_search(self):
        P = generate_quadratic(4, 10, np.random.default_rng(6))
        cfg = SolverConfig(method="slises-modified", m=3, delta=0.5, maxiter=30, seed=2)
        tr = run_solver(P, cfg)
        for rec in tr.records[1:]:
            if rec.resampled:
                assert rec.alpha == 1.0
                assert rec.lsp_trials == 0
                assert rec.gamma == 1.0 / max(rec.k, 1)
                assert np.isnan(rec.c)
            else:
                assert rec.gamma <= cfg.gamma_max / max(rec.k, 1) ** (1 + cfg.delta)

    def test_requires_m_greater_than_one(self):
        P = generate_quadratic(2, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            run_solver(P, SolverConfig(method="slises-modified", m=1))
        with pytest.raises(ValueError):
            run_solver(P, SolverConfig(method="slises-modified", m=3, delta=0.0))


class TestSpectralFull:
    def test_charges_whole_component_set_per_evaluation(self):
        P = generate_quadratic(3, 7, np.random.default_rng(7))
        shadow = CountingProblem(P)
        cfg = SolverConfig(method="spectral-full", maxiter=10, seed=0)
        tr = run_solver(shadow, cfg)
        assert tr.records[-1].cum_evals == P.N * shadow.value_calls
        assert tr.records[-1].cum_evals >= P.N * (cfg.maxiter + 1)

    def test_rows_share_one_full_index_array(self):
        P = generate_quadratic(3, 7, np.random.default_rng(7))
        tr = run_solver(P, SolverConfig(method="spectral-full", maxiter=6, seed=0))
        batch = tr.records[1].indices
        assert batch.dtype == np.int64 and np.array_equal(batch, np.arange(P.N))
        assert all(rec.indices is batch for rec in tr.records[1:])

    def test_deterministic_across_seeds(self):
        P = generate_quadratic(3, 6, np.random.default_rng(8))
        t1 = run_solver(P, SolverConfig(method="spectral-full", maxiter=8, seed=1))
        t2 = run_solver(P, SolverConfig(method="spectral-full", maxiter=8, seed=99))
        assert [r.f_full for r in t1.records] == [r.f_full for r in t2.records]

    def test_converges_on_easy_quadratic(self):
        P = generate_quadratic(5, 10, np.random.default_rng(9))
        tr = run_solver(P, SolverConfig(method="spectral-full", maxiter=120, seed=0))
        assert min(r.grad_norm_full for r in tr.records) <= 1e-6

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_holds_at_the_rounding_floor(self, seed):
        # once the slack 1/2^k falls below the rounding of phi0 the search
        # holds, and the run then stays at its point without a trial;
        # without the hold about 10,000 trials went to rounding noise
        P = generate_quadratic(20, 250, np.random.default_rng(seed))
        tr = run_solver(P, SolverConfig(method="spectral-full", maxiter=250, seed=0))
        assert sum(r.lsp_trials for r in tr.records) < 100
        first = next(i for i, r in enumerate(tr.records) if r.alpha == 0.0)
        held = tr.records[first]
        assert all(r.alpha == 0.0 and r.lsp_trials == 0 and r.f_full == held.f_full
                   and r.cum_evals == held.cum_evals
                   and r.grad_pass_cost == held.grad_pass_cost
                   for r in tr.records[first + 1:])
        assert abs(held.f_full - P.optimal_value) <= 1e-13 * abs(P.optimal_value)


def test_held_search_sticks_until_the_redraw(monkeypatch):
    # the search at k=1 holds after 2 trials; k=2 keeps the batch and
    # the point, so it neither searches nor computes a gradient
    contexts, search = [], solvers.lsp_search

    def lsp(phi, ctx):
        contexts.append(ctx)
        if len(contexts) == 2:
            return LspResult(0.0, 2, HELD, ctx.phi0)
        return search(phi, ctx)

    monkeypatch.setattr(solvers, "lsp_search", lsp)
    P = generate_quadratic(4, 9, np.random.default_rng(2))
    tr = run_solver(P, SolverConfig(method="slises", m=3, S=2, maxiter=4, seed=5))
    k0, k1, k2, k3 = tr.records[1:]
    assert (k1.alpha, k1.lsp_trials) == (0.0, 2) and np.isfinite(k1.gamma)
    assert k1.f_full == k0.f_full
    assert not k2.resampled and (k2.alpha, k2.lsp_trials) == (0.0, 0)
    assert np.isnan(k2.c) and np.isnan(k2.gamma)
    assert (k2.f_full, k2.cum_evals, k2.grad_pass_cost) == (
        k1.f_full, k1.cum_evals, k1.grad_pass_cost)
    assert k2.indices is k1.indices
    assert k3.resampled and k3.alpha > 0.0 and len(contexts) == 3


@pytest.mark.parametrize("method,cost", [("slises", [3, 3, 3, 4, 4]),
                                         ("spectral-full", [6, 6, 6, 6, 6])])
def test_stationary_estimator_holds_until_the_redraw(method, cost):
    # both components are 0.5*(x+1)^2: k=0 lands on the minimizer, k=1
    # takes the zero step, and from k=2 the batch gradient is 0, so no
    # coefficient exists; the iterate holds, charging no further gradient,
    # until the slises redraw at k=5 measures the new batch once
    P = QuadraticProblem(np.ones((2, 1, 1)), np.array([[-1.0], [-1.0]]))
    tr = run_solver(P, SolverConfig(method=method, m=5, S=1, maxiter=7, seed=0))
    rows = tr.records[3:]  # k = 2..6
    assert [r.grad_pass_cost for r in rows] == cost
    assert all(r.alpha == 0.0 and r.lsp_trials == 0 and np.isnan(r.c) and np.isnan(r.gamma)
               and r.f_full == 0.0 for r in rows)


def sparse_logistic(N, n, seed, lam):
    """The draws of the benchmark's sparse logistic dataset, without the file."""
    rng = np.random.default_rng(seed)
    w = 3.0 * rng.standard_normal(n)
    mask = rng.random((N, n)) < 0.5
    X = rng.standard_normal((N, n)) * mask / np.sqrt(0.5 * n)
    y = np.where(X @ w + rng.standard_normal(N) > 0.0, 1.0, -1.0)
    return LogisticProblem(X, y, lam)


@pytest.mark.parametrize("method", ["slises", "spectral-full"])
@pytest.mark.parametrize("build", [
    pytest.param(lambda: generate_quadratic(5, 30, np.random.default_rng(1)), id="quadratic"),
    pytest.param(lambda: sparse_logistic(100, 10, 3, 1e-2), id="logistic")])
def test_held_rows_report_the_row_that_reached_their_iterate(build, method):
    # these full-batch runs hold for more than a chunk; a held row (step 0) is
    # at the iterate of the last row that moved and carries its reported
    # bits, whatever stack reported that row (a logistic iterate reported
    # alone and in a stack can differ in the last bits), and is not reported
    P = build()
    reported = []
    report = P.report

    def counting_report(X):
        reported.append(len(X))
        return report(X)

    P.report = counting_report
    tr = run_solver(P, SolverConfig(method=method, m=5, S=P.N, maxiter=80, seed=0))
    source, held = tr.records[0], 0
    for rec in tr.records[1:]:
        if rec.alpha == 0.0:
            held += 1
            assert (rec.f_full, rec.grad_norm_full) == (source.f_full, source.grad_norm_full)
        else:
            source = rec
    assert held > solvers.REPORT_CHUNK
    assert sum(reported) == len(tr.records) - held


def count_reports(P):
    """Make ``P.report`` note the size of each stack it reports; returns the notes."""
    reported, report = [], P.report

    def counting_report(X):
        reported.append(len(X))
        return report(X)

    P.report = counting_report
    return reported


def test_held_row_after_a_flushed_chunk_takes_its_source_report(monkeypatch):
    # the 16th queued row (k=14) flushes the queue; the search at k=15 holds,
    # so that row and every later one find the queue empty and copy the
    # report of the row before them, which no report is made for again
    searches, search = [], solvers.lsp_search

    def lsp(phi, ctx):
        searches.append(ctx)
        if len(searches) == solvers.REPORT_CHUNK:
            return LspResult(0.0, 1, HELD, ctx.phi0)
        return search(phi, ctx)

    monkeypatch.setattr(solvers, "lsp_search", lsp)
    P = sparse_logistic(100, 10, 3, 1e-2)
    reported = count_reports(P)
    tr = run_solver(P, SolverConfig(method="spectral-full", maxiter=20, seed=0))
    source, held = tr.records[solvers.REPORT_CHUNK - 1], tr.records[solvers.REPORT_CHUNK:]
    assert all(r.alpha > 0.0 for r in tr.records[1:solvers.REPORT_CHUNK])
    assert reported == [solvers.REPORT_CHUNK]
    assert held[0].k == solvers.REPORT_CHUNK - 1 and len(searches) == solvers.REPORT_CHUNK
    for rec in held:
        assert rec.alpha == 0.0
        assert (rec.f_full.hex(), rec.grad_norm_full.hex()) == (
            source.f_full.hex(), source.grad_norm_full.hex())


def test_unsearched_step_moves_when_the_predicted_decrease_underflows(monkeypatch):
    # g = 1e-5 and a subnormal scale: d = -gamma*g is nonzero, but g'd
    # underflows to -0, so the step is the unit one, with no search
    gamma = 1e-315
    monkeypatch.setattr(solvers, "damp", lambda c, k, policy: gamma)
    P = one_dim_problem(-1e-5)
    tr = run_solver(P, SolverConfig(method="slises", m=3, S=1, maxiter=1, seed=0))
    rec = tr.records[1]
    d = -gamma * 1e-5
    assert d != 0.0 and 1e-5 * d == 0.0
    assert (rec.gamma, rec.alpha, rec.lsp_trials, rec.cum_evals) == (gamma, 1.0, 0, 0)
    assert rec.c == 1.0 / 1e-5
    assert tr.final_x.tolist() == [d]


def test_modified_redraw_on_a_zero_gradient_keeps_the_iterate():
    # both components are 0.5*(x+1)^2: the unit redraw step at k=0 lands on
    # the minimizer and k=1 takes the zero step; the redraw at k=2 measures a
    # zero gradient, so its unit step would not move, and the iterate keeps
    # its array: that row takes the previous report and is not reported again
    P = QuadraticProblem(np.ones((2, 1, 1)), np.array([[-1.0], [-1.0]]))
    reported = count_reports(P)
    drv = make_solver(P, SolverConfig(method="slises-modified", m=2, S=1, maxiter=3, seed=0))
    drv.step()
    drv.step()
    x = drv.x
    drv.step()
    drv._report()
    k1, k2 = drv.records[2:]
    assert drv.x is x and x.tolist() == [-1.0]
    assert k2.resampled and (k2.gamma, k2.alpha, k2.lsp_trials) == (0.5, 1.0, 0)
    assert np.isnan(k2.c)
    assert (k2.f_full, k2.grad_norm_full) == (k1.f_full, k1.grad_norm_full) == (0.0, 0.0)
    assert sum(reported) == 2  # x0 and the minimizer


@pytest.mark.parametrize("method,damping,exponent", [
    ("slises", True, 1.0), ("slises", False, 0.0), ("spectral-full", True, 0.0),
    ("slises-modified", True, 1.25), ("slises-modified", False, 1.25)])
def test_damping_exponent_per_method(method, damping, exponent):
    P = generate_quadratic(2, 4, np.random.default_rng(0))
    cfg = SolverConfig(method=method, damping=damping, delta=0.25)
    assert make_solver(P, cfg).policy.exponent == exponent


class TestSgd:
    def test_closed_form_first_step(self):
        # f(x) = 0.5*(x-2)^2 from x0=0: step size 1 lands on x1=2
        P = one_dim_problem(2.0)
        tr = run_solver(P, SolverConfig(method="sgd", S=1, maxiter=3, seed=0))
        assert tr.records[1].f_full == 0.0
        assert tr.final_x == pytest.approx([2.0])

    def test_predefined_steps_and_zero_cost(self):
        P = generate_quadratic(3, 9, np.random.default_rng(10))
        cfg = SolverConfig(method="sgd", S=2, maxiter=9, seed=6)
        tr = run_solver(P, cfg)
        for rec in tr.records[1:]:
            assert rec.gamma == 1.0 / max(rec.k, 1)
            assert rec.alpha == 1.0 and rec.lsp_trials == 0
            assert rec.cum_evals == 0
        assert tr.records[-1].grad_pass_cost == cfg.S * cfg.maxiter


class TestBbBaselines:
    def test_svrg_first_epoch_uses_eta0(self):
        P = generate_quadratic(3, 8, np.random.default_rng(11))
        cfg = SolverConfig(method="svrg-bb", maxiter=10, seed=0)
        tr = run_solver(P, cfg)  # p defaults to 2n=6
        for rec in tr.records[1:7]:
            assert rec.gamma == 0.01
        assert tr.records[7].gamma != 0.01  # second epoch switched to the BB ratio

    def test_svrg_step_size_from_snapshot_ratio(self):
        P = generate_quadratic(3, 8, np.random.default_rng(12))
        cfg = SolverConfig(method="svrg-bb", p=4, maxiter=9, seed=1)
        drv = make_solver(P, cfg, np.random.default_rng(cfg.seed))
        snaps = []
        grads = []
        while drv.k < cfg.maxiter:
            if drv.k % 4 == 0:
                snaps.append(drv.x.copy())
                grads.append(full_gradient(P, drv.x))
            drv.step()
        dx = snaps[1] - snaps[0]
        dg = grads[1] - grads[0]
        expected = float(dx @ dx) / float(dx @ dg) / 4
        assert drv.records[6].gamma == pytest.approx(expected, rel=1e-12)

    def test_svrg_grad_pass_accounting(self):
        P = generate_quadratic(3, 8, np.random.default_rng(13))
        cfg = SolverConfig(method="svrg-bb", p=5, S=1, maxiter=7, seed=2)
        tr = run_solver(P, cfg)
        # two epoch starts (k=0 and k=5) plus 2S per update
        assert tr.records[-1].grad_pass_cost == 2 * P.N + 2 * cfg.maxiter
        assert tr.records[-1].cum_evals == 0

    def test_sgd_bb_epoch_step_sizes(self):
        P = generate_quadratic(2, 6, np.random.default_rng(14))
        cfg = SolverConfig(method="sgd-bb", p=3, maxiter=12, seed=3)
        tr = run_solver(P, cfg)
        gammas = [r.gamma for r in tr.records[1:]]
        assert gammas[0:3] == [0.01] * 3  # eta0
        assert gammas[3:6] == [0.01] * 3  # eta1
        assert len(set(gammas[0:3])) == 1 and len(set(gammas[6:9])) == 1
        assert gammas[6] != 0.01

    def test_smoothing_changes_later_epochs_only(self):
        P = generate_quadratic(2, 6, np.random.default_rng(15))
        base = dict(p=3, maxiter=15, seed=4)
        plain = run_solver(P, SolverConfig(method="sgd-bb", **base))
        smooth = run_solver(P, SolverConfig(method="sgd-bb-smooth", **base))
        g_plain = [r.gamma for r in plain.records[1:]]
        g_smooth = [r.gamma for r in smooth.records[1:]]
        assert g_plain[:6] == g_smooth[:6]
        assert g_plain[6:] != g_smooth[6:]


def epoch_steps(monkeypatch, method, c, p=2, maxiter=8):
    """The step of each update of an epoch baseline whose every spectral
    ratio is ``c``, and the number of ratios the run took."""
    calls = []

    def fixed(s, y):
        calls.append((s, y))
        return c

    monkeypatch.setattr(solvers, "bb_coefficient", fixed)
    P = generate_quadratic(3, 8, np.random.default_rng(16))
    cfg = SolverConfig(method=method, p=p, maxiter=maxiter, seed=5, eta0=0.01, eta1=0.02)
    return [r.gamma for r in run_solver(P, cfg).records[1:]], len(calls)


DEGENERATE_RATIOS = [None, np.inf, -np.inf, 0.0, np.nan]


class TestEpochRatioRule:
    """svrg-bb takes c/p for a finite positive ratio c, sgd-bb |c|/p for a
    finite nonzero one; any other ratio keeps the previous step."""

    @pytest.mark.parametrize("c", DEGENERATE_RATIOS + [-0.05])
    def test_svrg_keeps_its_step(self, monkeypatch, c):
        # epochs open at k = 0, 2, 4, 6; the last three take a ratio
        gammas, calls = epoch_steps(monkeypatch, "svrg-bb", c)
        assert calls == 3
        assert gammas == [0.01] * 8

    def test_svrg_takes_a_positive_ratio(self, monkeypatch):
        gammas, _ = epoch_steps(monkeypatch, "svrg-bb", 0.05)
        assert gammas == [0.01] * 2 + [0.05 / 2] * 6

    @pytest.mark.parametrize("c", DEGENERATE_RATIOS)
    def test_sgd_bb_keeps_its_step(self, monkeypatch, c):
        # eta0 in epoch 0, eta1 in epoch 1; epochs 2 and 3 take a ratio
        gammas, calls = epoch_steps(monkeypatch, "sgd-bb", c)
        assert calls == 2
        assert gammas == [0.01] * 2 + [0.02] * 6

    @pytest.mark.parametrize("c", [0.05, -0.05])
    def test_sgd_bb_takes_the_ratio_magnitude(self, monkeypatch, c):
        gammas, _ = epoch_steps(monkeypatch, "sgd-bb", c)
        assert gammas == [0.01] * 2 + [0.02] * 2 + [0.05 / 2] * 4

    @pytest.mark.parametrize("c", DEGENERATE_RATIOS)
    def test_smoothing_averages_the_kept_step(self, monkeypatch, c):
        # the raw step stays eta1, so epoch e takes the geometric mean of
        # 2*eta1 .. e*eta1, divided by e
        gammas, _ = epoch_steps(monkeypatch, "sgd-bb-smooth", c)
        assert gammas[:4] == [0.01] * 2 + [0.02] * 2
        assert gammas[4:6] == [pytest.approx(0.02, rel=1e-15)] * 2
        assert gammas[6:] == [pytest.approx(0.02 * np.sqrt(6) / 3, rel=1e-15)] * 2


class TestMeterOracle:
    @pytest.mark.parametrize("method,reuse", [("slises", True), ("slises", False),
                                              ("slises-modified", True),
                                              ("spectral-full", True)])
    def test_meter_equals_sample_size_times_value_calls(self, method, reuse):
        P = generate_quadratic(3, 9, np.random.default_rng(16))
        shadow = CountingProblem(P)
        cfg = SolverConfig(method=method, m=3, S=2, maxiter=11, seed=7, reuse=reuse,
                           delta=0.2)
        if method == "spectral-full":
            expected_S = P.N
        else:
            expected_S = cfg.S
        tr = run_solver(shadow, cfg)
        assert tr.records[-1].cum_evals == expected_S * shadow.value_calls

    # generate_quadratic(3, 12), S=2, maxiter=13: S per stochastic
    # gradient, S per retired AIS batch (every redraw but the first), N per
    # full gradient; svrg-bb (p=2n=6) opens 3 epochs at k=0, 6, 12
    @pytest.mark.parametrize("method,sampler,m,expected", [
        ("slises", "uniform", 3, 2 * 13),
        ("slises", "ais", 3, 2 * (13 + 5 - 1)),
        ("slises-modified", "ais", 2, 2 * (13 + 7 - 1)),
        ("spectral-full", "uniform", 3, 12 * 13),
        ("svrg-bb", "uniform", 3, 2 * 2 * 13 + 12 * 3),
        ("sgd-bb", "uniform", 3, 2 * 13),
        ("sgd-bb-smooth", "uniform", 3, 2 * 13),
    ])
    def test_grad_pass_cost(self, method, sampler, m, expected):
        P = generate_quadratic(3, 12, np.random.default_rng(0))
        cfg = SolverConfig(method=method, sampler=sampler, m=m, S=2, maxiter=13)
        tr = run_solver(P, cfg)
        costs = [r.grad_pass_cost for r in tr.records]
        assert costs[0] == 0
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        assert costs[-1] == expected

    def test_no_reuse_charges_more(self):
        P = generate_quadratic(3, 9, np.random.default_rng(17))
        on = run_solver(P, SolverConfig(maxiter=12, seed=8, reuse=True))
        off = run_solver(P, SolverConfig(maxiter=12, seed=8, reuse=False))
        assert off.records[-1].cum_evals > on.records[-1].cum_evals
        # the iterates themselves are unaffected by the counting mode
        assert [r.f_full for r in on.records] == [r.f_full for r in off.records]


class TestDivergence:
    def test_run_ends_at_sentinel_row(self):
        # a stiff instance on which slises-modified with AIS and m=2 diverges
        P = generate_quadratic(5, 20, np.random.default_rng(0))
        stiff = QuadraticProblem(P.A * 1e3, P.b, lipschitz=P.lipschitz * 1e3)
        cfg = SolverConfig(method="slises-modified", sampler="ais", m=2, seed=0)
        with np.errstate(all="ignore"):
            tr = run_solver(stiff, cfg)
        f = np.array([r.f_full for r in tr.records])
        assert len(f) < cfg.maxiter + 1
        assert not np.isfinite(f[-1])
        assert np.all(np.isfinite(f[:-1]))

    def test_logistic_run_ends_at_sentinel_row(self):
        # features near 1e150 and a large step: the iterate grows past
        # 1e154, where ||x||^2 and the margins overflow, on row 34; the
        # rows before it are deferred and reported in chunks
        rng = np.random.default_rng(4)
        P = LogisticProblem(rng.standard_normal((12, 3)) * 1e150,
                            np.where(rng.random(12) > 0.5, 1.0, -1.0), 1e-4)
        cfg = SolverConfig(method="sgd-bb", S=2, maxiter=60, seed=3, eta0=100.0, eta1=100.0)
        with np.errstate(all="ignore"):
            tr = run_solver(P, cfg)
            drv = make_solver(P, cfg)  # a replay, for the iterate of each row
            xs = [drv.x]
            while drv.k < cfg.maxiter:
                drv.step()
                xs.append(drv.x)
        f = np.array([r.f_full for r in tr.records])
        assert len(tr.records) == 35 and tr.records[-1].k == 33
        assert (tr.records[-1].cum_evals, tr.records[-1].grad_pass_cost) == (0, 68)
        assert not np.isfinite(f[-1])
        assert np.all(np.isfinite(f[:-1]))
        assert np.array_equal(tr.final_x, xs[len(f) - 1])

    def test_quadratic_run_ends_at_sentinel_row(self):
        # the stiff instance above: sgd's iterate grows past the report
        # radius, about 3e150, and then past 1e154, where f overflows, on
        # row 44; the rows before it are deferred and reported in chunks
        P = generate_quadratic(5, 20, np.random.default_rng(0))
        stiff = QuadraticProblem(P.A * 1e3, P.b, lipschitz=P.lipschitz * 1e3)
        cfg = SolverConfig(method="sgd", seed=0)
        with np.errstate(all="ignore"):
            tr = run_solver(stiff, cfg)
            drv = make_solver(stiff, cfg)  # a replay, for the iterate of each row
            xs = [drv.x]
            while drv.k < cfg.maxiter:
                drv.step()
                xs.append(drv.x)
        f = np.array([r.f_full for r in tr.records])
        assert np.abs(xs[solvers.REPORT_CHUNK]).max() <= stiff.report_radius
        assert len(tr.records) == 45 and tr.records[-1].k == 43
        assert (tr.records[-1].cum_evals, tr.records[-1].grad_pass_cost) == (0, 44)
        assert not np.isfinite(f[-1])
        assert np.all(np.isfinite(f[:-1]))
        assert np.array_equal(tr.final_x, xs[len(f) - 1])

    def test_nan_iterate_is_reported_at_once(self):
        # sgd takes one gradient per step; after REPORT_CHUNK + 2 steps the
        # first REPORT_CHUNK rows are reported and three finite rows are
        # queued.  The next gradient is NaN: its row is reported as it is
        # appended, together with the queued rows, and the run ends on it
        steps = solvers.REPORT_CHUNK + 2

        class NanGradient:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def batch_gradient(self, indices, x):
                self.calls += 1
                g = self._inner.batch_gradient(indices, x)
                return g if self.calls <= steps else np.full_like(g, np.nan)

        P = NanGradient(generate_quadratic(4, 8, np.random.default_rng(0)))
        drv = make_solver(P, SolverConfig(method="sgd", maxiter=steps + 20, seed=1))
        for _ in range(steps):
            drv.step()
        queued = [r.f_full is None for r in drv.records]
        assert queued == [False] * solvers.REPORT_CHUNK + [True] * 3
        drv.step()
        assert np.isnan(drv.records[-1].f_full)
        assert not any(r.f_full is None for r in drv.records)
        tr = drv.run()
        assert len(tr.records) == steps + 2 and tr.records[-1].k == steps
        assert np.all(np.isfinite([r.f_full for r in tr.records[:-1]]))


class TestReplay:
    @pytest.mark.parametrize("method", ["slises", "slises-modified", "sgd",
                                        "svrg-bb", "sgd-bb-smooth"])
    def test_same_seed_bit_identical(self, method):
        P = generate_quadratic(3, 8, np.random.default_rng(18))
        cfg = SolverConfig(method=method, m=2, S=2, maxiter=10, seed=12,
                           sampler="ais" if method == "slises" else "uniform")
        t1 = run_solver(P, cfg)
        t2 = run_solver(P, cfg)
        assert np.array_equal(t1.final_x, t2.final_x)
        assert t1.records == t2.records
        assert all(np.array_equal(a.indices, b.indices)
                   for a, b in zip(t1.records, t2.records, strict=True))

    def test_stepwise_equals_run(self):
        P = generate_quadratic(3, 8, np.random.default_rng(19))
        cfg = SolverConfig(method="slises", m=3, S=1, maxiter=9, seed=2)
        whole = run_solver(P, cfg)
        drv = make_solver(P, cfg, np.random.default_rng(cfg.seed))
        for _ in range(cfg.maxiter):
            drv.step()
        drv._report()  # the rows still queued; run() reports them before it returns
        assert drv.records == whole.records
        assert all(np.array_equal(a.indices, b.indices)
                   for a, b in zip(drv.records, whole.records, strict=True))

    @pytest.mark.parametrize("method", ["slises", "spectral-full", "svrg-bb"])
    def test_quadratic_rows_carry_the_bits_of_one_row_reports(self, method):
        # rows reported in chunks of 8 write what the report of each
        # iterate alone gives, norm included
        P = generate_quadratic(6, 10, np.random.default_rng(20))
        cfg = SolverConfig(method=method, m=3, S=2, maxiter=21, seed=5)
        tr = run_solver(P, cfg)
        drv = make_solver(P, cfg)
        xs = [drv.x]
        while drv.k < cfg.maxiter:
            drv.step()
            xs.append(drv.x)
        assert [r.f_full for r in tr.records] == [full_value(P, x) for x in xs]
        assert ([r.grad_norm_full for r in tr.records]
                == [float(np.linalg.norm(full_gradient(P, x))) for x in xs])


# a valid value other than its default for each field some method does not read
OTHER_VALUES = {"m": 5, "S": 2, "eta": 0.3, "gamma_min": 1e-5, "gamma_max": 1e5,
                "delta": 0.5, "eps": 0.5, "seed": 9, "eta0": 0.05, "eta1": 0.07,
                "beta": 0.5, "p": 3, "reuse": False, "damping": False}


def trace_bits(trace):
    """Every column and batch of every row, and the final iterate, as bytes."""
    return [repr(astuple(rec)) for rec in trace.records], trace.final_x.tobytes()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: generate_quadratic(4, 10, np.random.default_rng(7)), id="quadratic"),
    pytest.param(lambda: make_logistic(4, 12, seed=8), id="logistic")])
@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("method", solvers.METHODS)
def test_a_field_the_method_does_not_read_moves_no_bit(build, sampler, method):
    # the table beside the drivers says what a method reads: any other
    # field, set to another valid value, leaves every row as it was
    P = build()
    base = SolverConfig(method=method, sampler=sampler, maxiter=16, seed=1)
    other = {**OTHER_VALUES, "sampler": "uniform" if sampler == "ais" else "ais"}
    reads = solvers._DRIVERS[method][1]
    unread = [f.name for f in fields(SolverConfig) if f.name not in (*reads, "method", "label")]
    want = trace_bits(run_solver(P, base))
    for name in unread:
        assert trace_bits(run_solver(P, replace(base, **{name: other[name]}))) == want, name


def test_the_header_writes_the_fields_its_method_reads():
    P = generate_quadratic(3, 6, np.random.default_rng(2))
    for method in solvers.METHODS:
        header = run_solver(P, SolverConfig(method=method, maxiter=2)).header
        names = [f.name for f in fields(SolverConfig)]
        read = [name for name in names if name in solvers._DRIVERS[method][1]]
        assert list(header) == ["method", "label", *read,
                                "problem", "N", "n", "lipschitz", "backend"]
    assert solvers.methods_reading("damping") == ["slises"]
    assert solvers.methods_reading("m") == ["slises", "slises-modified"]


class TestConfigValidation:
    def test_invalid_settings_rejected(self):
        P = generate_quadratic(2, 4, np.random.default_rng(20))
        bad = [dict(method="adam"), dict(eta=0.0), dict(eta=1.0), dict(maxiter=0),
               dict(S=0), dict(S=5), dict(m=0), dict(sampler="halton"),
               dict(eps=0.0), dict(eps=np.nan), dict(gamma_min=0.0), dict(gamma_max=0.5),
               dict(method="svrg-bb", p=0), dict(method="sgd-bb", p=-3),
               dict(method="slises-modified", delta=np.nan),
               dict(method="sgd", eta0=np.nan), dict(method="svrg-bb", eta0=-1.0),
               dict(method="svrg-bb", eta0=np.inf), dict(method="sgd-bb", eta1=0.0),
               dict(method="sgd-bb", beta=-1.0), dict(method="sgd-bb", beta=1.5),
               dict(method="sgd-bb-smooth", beta=np.nan)]
        for kw in bad:
            with pytest.raises(ValueError):
                run_solver(P, SolverConfig(**kw))

    def test_display_labels(self):
        assert SolverConfig().display_label() == "slises-uni-m3"
        assert SolverConfig(sampler="ais", m=5).display_label() == "slises-ais-m5"
        assert SolverConfig(damping=False).display_label() == "slises-uni-m3-nodamp"
        assert SolverConfig(method="sgd").display_label() == "sgd"
        assert SolverConfig(method="slises-modified", delta=0.1).display_label() \
            == "slises-mod-m3-d0.1"
        assert SolverConfig(label="xyz").display_label() == "xyz"
