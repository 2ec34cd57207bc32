"""SLiSeS and the baselines written plainly, to check the drivers of
``specsum.solvers`` against.

``reference_run`` has one loop for ``slises``, ``slises-modified`` and
``spectral-full``, as the paper's algorithm states them, with the
nonmonotone spectral step of Raydan (SIAM J. Optim. 7, 1997) that SLiSeS
extends; one for ``sgd``; one for ``svrg-bb``, Algorithm 1 of Tan, Ma,
Dai and Qian (NeurIPS 2016) with a size-S batch, an epoch of p updates
(2n by default) and the step size ``bb_coefficient / p`` of consecutive
snapshots when that step is finite and positive; and one for ``sgd-bb``
and ``sgd-bb-smooth``, their Algorithm 2 with a size-S batch, an epoch
of p updates (n by default), gradients averaged with weight beta (1/p by
default), the step size eta0 in the first epoch, eta1 in the second, and
from the third on ``|bb_coefficient| / p`` of consecutive epoch starts
and averaged gradients when that step is finite and positive (else the
previous one).  The smooth variant steps by the running geometric mean
of e * eta_e over the epochs e >= 2 so far, divided by e.  The loops
keep no array identity, no shared evaluation and no report queue, and
they call no driver: every batch value and gradient is recomputed by the
kernels, and each row is reported on its own.  Costs follow the cost
model: S value units per value estimate the algorithm pays for (with
``reuse`` the base value at a (batch, iterate) already measured by the
search that reached it is not paid again), S gradient units per gradient
estimate, N per full gradient, and S per retired AIS batch for the
component gradient norms that refresh its scores.
"""

import math

import numpy as np

from specsum import kernels, sampling
from specsum.linesearch import HELD, ArmijoContext, lsp_search
from specsum.problems import QuadraticProblem
from specsum.steplength import DampingPolicy, anchor_coefficient, bb_coefficient, damp


def _estimators(P):
    """The value and gradient kernels of ``P`` on (batch, x)."""
    if isinstance(P, QuadraticProblem):
        return (lambda idx, x: kernels.quad_value(P.A, P.b, idx, x),
                lambda idx, x: kernels.quad_gradient(P.A, P.b, idx, x))
    return (lambda idx, x: kernels.logistic_value(P.features, P.neg_labels, P.lam, idx, x),
            lambda idx, x: kernels.logistic_gradient(P.features, P.neg_labels, P.lam, idx, x))


def _reported(P, x):
    """f(x) and ||grad f(x)|| from the report of x alone."""
    f, G = P.report(x[None])
    return float(f[0]), float(np.linalg.norm(G[0]))


def _first_row(P, x):
    return [(0, False, math.nan, math.nan, math.nan, 0, 0, 0, *_reported(P, x),
             np.empty(0, dtype=np.int64))]


def reference_run(P, cfg):
    """Rows (k, resampled, c, gamma, alpha, trials, cum_evals,
    grad_pass_cost, f_full, grad_norm_full, batch), the pre-run row first,
    and the final iterate of ``cfg`` on ``P``.  The rows end at the first
    whose reported objective is not finite."""
    loops = {"sgd": _sgd, "svrg-bb": _svrg_bb, "sgd-bb": _sgd_bb, "sgd-bb-smooth": _sgd_bb}
    return loops.get(cfg.method, _slises)(P, cfg)


def _slises(P, cfg):
    value, gradient = _estimators(P)
    redraws = cfg.method != "spectral-full"
    modified = cfg.method == "slises-modified"
    if modified:
        exponent = 1.0 + cfg.delta
    else:
        exponent = 1.0 if redraws and cfg.damping else 0.0
    policy = DampingPolicy(cfg.gamma_min, cfg.gamma_max, exponent)
    ais = (sampling.AisState.uniform(P.N, eps=cfg.eps)
           if redraws and cfg.sampler == "ais" else None)
    rng = np.random.default_rng(cfg.seed)

    x = np.zeros(P.n)
    batch = None if redraws else np.arange(P.N)
    evals = grads = 0
    prev_x = prev_g = None
    held = False  # no step until the next redraw
    paid = False  # the value at (batch, x) was paid for by the search that reached x
    rows = _first_row(P, x)
    for k in range(cfg.maxiter):
        resampled = redraws and k % cfg.m == 0
        if resampled:
            if ais is None:
                batch = sampling.uniform_draw(P.N, cfg.S, rng)
            else:
                if batch is not None:
                    norms = [np.linalg.norm(gradient(np.array([i]), prev_x)) for i in batch]
                    grads += len(batch)
                    sampling.ais_update_scores(ais, batch, norms)
                batch = sampling.ais_draw(ais, max(k, 1), cfg.S, rng)
            held = paid = False
        S = len(batch)
        unit = modified and resampled
        c = gamma = math.nan
        alpha, trials = 0.0, 0
        if not held:
            g = gradient(batch, x)
            grads += S
            if unit:
                gamma = 1.0 / max(k, 1)
            elif k == 0 or (resampled and cfg.m > 1):
                c = anchor_coefficient(g)
            else:
                c = bb_coefficient(x - prev_x, g - prev_g)
                if c is None:
                    c = anchor_coefficient(g)
            prev_x, prev_g = x.copy(), g.copy()
            if c is None:
                c, held = math.nan, True
            else:
                if not unit:
                    gamma = damp(c, k, policy)
                d = -gamma * g
                dm = float(g.dot(d))
                if unit or dm >= 0.0:
                    alpha = 1.0
                    if np.any(d):
                        x = x + d
                        paid = False
                else:
                    phi0 = float(value(batch, x))
                    if not (cfg.reuse and paid):
                        evals += S
                    trials_at = []

                    def phi(a):
                        nonlocal evals
                        trials_at.append(x + a * d)
                        evals += S
                        return float(value(batch, trials_at[-1]))

                    res = lsp_search(phi, ArmijoContext(phi0, dm, cfg.eta, 0.5 ** k))
                    alpha, trials = res.alpha, res.trials
                    held = res.status == HELD
                    if not held:
                        x = trials_at[-1]
                    paid = True
        f, norm = _reported(P, x)
        rows.append((k, resampled, float(c), float(gamma), float(alpha), trials,
                     evals, grads, f, norm, batch))
        if not math.isfinite(f):
            break
    return rows, x


def _sgd(P, cfg):
    _, gradient = _estimators(P)
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(P.n)
    grads = 0
    rows = _first_row(P, x)
    for k in range(cfg.maxiter):
        batch = sampling.uniform_draw(P.N, cfg.S, rng)
        gamma = 1.0 / max(k, 1)
        x = x - gamma * gradient(batch, x)
        grads += cfg.S
        f, norm = _reported(P, x)
        rows.append((k, True, math.nan, gamma, 1.0, 0, 0, grads, f, norm, batch))
        if not math.isfinite(f):
            break
    return rows, x


def _svrg_bb(P, cfg):
    _, gradient = _estimators(P)
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p if cfg.p is not None else 2 * P.n
    eta = cfg.eta0 if cfg.eta0 is not None else 0.01
    x = np.zeros(P.n)
    snap = snap_g = None
    grads = 0
    rows = _first_row(P, x)
    for k in range(cfg.maxiter):
        if k % p == 0:
            # the full gradient at the new snapshot, from the problem's report
            prev_snap, prev_snap_g = snap, snap_g
            snap, snap_g = x.copy(), P.report(x[None])[1][0]
            grads += P.N
            if prev_snap is not None:
                c = bb_coefficient(snap - prev_snap, snap_g - prev_snap_g)
                if c is not None and 0.0 < c / p < math.inf:
                    eta = c / p
        batch = sampling.uniform_draw(P.N, cfg.S, rng)
        x = x - eta * (gradient(batch, x) - gradient(batch, snap) + snap_g)
        grads += 2 * cfg.S
        f, norm = _reported(P, x)
        rows.append((k, True, math.nan, eta, 1.0, 0, 0, grads, f, norm, batch))
        if not math.isfinite(f):
            break
    return rows, x


def _sgd_bb(P, cfg):
    _, gradient = _estimators(P)
    rng = np.random.default_rng(cfg.seed)
    p = cfg.p if cfg.p is not None else P.n
    beta = cfg.beta if cfg.beta is not None else 1.0 / p
    x = np.zeros(P.n)
    starts, averages = [], []  # each epoch's start, and each closed epoch's average
    ghat = None
    logs = []  # log(e * eta_e) of the epochs e >= 2 (smooth variant)
    grads = 0
    rows = _first_row(P, x)
    for k in range(cfg.maxiter):
        if k % p == 0:
            e = k // p
            if e > 0:
                averages.append(ghat)
            starts.append(x.copy())
            ghat = np.zeros(P.n)
            if e == 0:
                eta = cfg.eta0 if cfg.eta0 is not None else 0.01
            elif e == 1:
                eta = raw = cfg.eta1 if cfg.eta1 is not None else 0.01
            else:
                c = bb_coefficient(starts[-1] - starts[-2], averages[-1] - averages[-2])
                if c is not None and 0.0 < abs(c) / p < math.inf:
                    raw = abs(c) / p
                eta = raw
                if cfg.method == "sgd-bb-smooth":
                    logs.append(math.log(e * raw))
                    eta = math.exp(sum(logs) / len(logs)) / e
        batch = sampling.uniform_draw(P.N, cfg.S, rng)
        g = gradient(batch, x)
        x = x - eta * g
        ghat = beta * g + (1.0 - beta) * ghat
        grads += cfg.S
        f, norm = _reported(P, x)
        rows.append((k, True, math.nan, eta, 1.0, 0, 0, grads, f, norm, batch))
        if not math.isfinite(f):
            break
    return rows, x
