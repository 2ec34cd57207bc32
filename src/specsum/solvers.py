"""Iteration drivers for the subsampled spectral method and baselines.

Ownership.  No array is written after it is handed on: not an iterate,
a batch gradient, a batch, an epoch snapshot, nor an array a point
holds.  So the solve path keeps each of them by reference, and an
array's identity names its value: a driver moves its iterate by binding
a new array, and ``SpectralState``, an epoch's snapshot and the report
queue keep the arrays they are given.

All drivers share one tracing and metering scheme: a run that stays
finite executes ``maxiter`` iterations from x0 = 0 and produces a trace
with ``maxiter + 1`` records, the first being the pre-run state (step fields
NaN/zero) and the rest one record per iteration, labeled by the
iteration index k = 0..maxiter-1.  A run whose reported objective
turns non-finite stops at that row, so its trace ends at the divergence
sentinel.  The reported columns ``f_full`` and ``grad_norm_full`` come
from the problem's uncharged ``report``, which takes a stack of
iterates: a row is queued with its iterate, and the queue is reported
in one call once it holds ``REPORT_CHUNK`` rows and when ``run``
returns, at no other time.  A report ends the trace at its first row
whose objective is not finite: it deletes the rows after that sentinel
and makes the sentinel's iterate the run's final one.  A diverging run
so computes up to ``REPORT_CHUNK - 1`` iterations past its sentinel
and discards them; a row's report does not depend on the other rows of
its stack, so the run ends on the same row whatever the queue holds.
A row whose iterate is the previous row's own array (a held search, a
stationary estimator or a zero step) is not queued: it takes that row's
reported values once they are known, so an iterate is reported once,
and every row at it carries the same bits whichever stack reported it.
``REPORT_CHUNK`` is 16: a logistic report's cost per row
still falls past 16, but its stack of margins, 16 arrays of N floats,
is the largest that kept the peak resident memory of the benchmark's
logistic workload within 3% of a stack of 8 (stacks of 24 and 32 took
8-11% more).  Every column but
the two reported ones is set when its row is appended; ``records`` is
complete once ``run`` returns.  One cost meter per run, charged only by
the ``problems`` estimator entry points, keeps both cost columns:
``cum_evals`` counts S units per subsample value estimate computed by
the algorithm, and ``grad_pass_cost`` counts S per stochastic gradient
and N per full gradient pass, so methods that never evaluate function
values still expose their cost.  AIS runs also charge S per retired
batch for the component gradient norms that refresh its scores.  A
batch is the index array the sampler returns (``spectral-full`` holds
``arange(N)``); it is passed as is to the oracles and to the trace
records.  The SLiSeS driver hands its estimators one dict, its point,
per (batch, iterate): a redraw, an unsearched move and each search trial
start a new one, and the trial that becomes the iterate hands over its
own.  A run's generator is built at its first draw, from the
factory its driver is given, so a run that never draws (``spectral-full``)
never imports ``numpy.random``, which numpy 2 loads at its first use: that
import took 11-14 ms of CPU in a fresh process, about half of the
benchmark's ``spectral-full`` solve.

Methods
-------
slises
    Redraw the size-S batch every m-th iteration, keep it in between.
    Batch-redraw iterations (for m > 1) anchor the step coefficient at
    1/||g||; the others use the spectral ratio of same-batch gradient
    differences.  The clipped coefficient is damped by 1/k and the step
    is accepted through the nonmonotone line search with slack 1/2**k.
    A search held at the rounding floor takes no step, and the iterate
    then keeps its point and batch, without a search, until the next
    redraw; so does an iterate whose batch gradient leaves no
    coefficient (a stationary estimator), with no further gradient.
    The held search's row writes alpha 0 and the trials it spent; a
    stationary estimator's row and each later held row write c and
    gamma as NaN, alpha 0, no trial and unchanged costs.  A zero batch
    gradient in a BB iteration still has a coefficient when the iterate
    moved on the previous row: that row takes a zero step without a
    search (alpha 1), and the hold starts on the next row.
    An accepted or budget-exhausted search ends on its last trial,
    x0 + alpha*d, which becomes the iterate without being recomputed.
slises-modified
    Variant with measurable step sizes at redraw iterations: there the
    scale is exactly 1/k and the unit step is taken without any search;
    in between, the spectral coefficient is damped by 1/k**(1+delta).
    An unsearched unit step, this one or a step whose slope predicts no
    decrease, keeps the iterate's array when its direction is zero.
spectral-full
    Deterministic full-batch spectral method with the same line search
    and no damping (clip only); it never redraws, so once its search
    holds it stays at that point.
sgd
    Plain stochastic gradient with step 1/k, fresh uniform batch each
    iteration, no line search, no function evaluations.
svrg-bb / sgd-bb / sgd-bb-smooth
    Epoch-based baselines whose step size is the spectral ratio
    ``bb_coefficient`` of consecutive epoch snapshots, scaled by 1/p;
    svrg-bb adds a variance-reduction full gradient each epoch, sgd-bb
    replaces it with a recursively averaged stochastic gradient,
    optionally smoothing the step sizes with a running geometric mean.
    svrg-bb steps by c/p and sgd-bb by |c|/p of the ratio c when that
    step is finite and positive; any other ratio (a vanishing or
    non-finite snapshot difference, zero curvature, a negative ratio for
    svrg-bb, or a step that underflows to 0) keeps the previous step
    size.

Every spectral ratio, SLiSeS's and the epoch baselines', is
``steplength.bb_coefficient``, looked up as this module's global.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import problems, sampling
from .kernels import BACKEND
from .linesearch import HELD, ArmijoContext, lsp_search
from .steplength import (
    DampingPolicy,
    SpectralState,
    anchor_coefficient,
    bb_coefficient,
    damp,
)

SAMPLERS = ("uniform", "ais")

# Trace rows reported together, in one call to the problem's report
REPORT_CHUNK = 16


@dataclass
class SolverConfig:
    """Run parameters; defaults follow the benchmark configuration."""

    method: str = "slises"
    m: int = 3
    S: int = 1
    eta: float = 1e-4
    gamma_min: float = 1e-8
    gamma_max: float = 1e8
    delta: float = 0.1
    maxiter: int = 100
    sampler: str = "uniform"
    eps: float = 1.0
    seed: int = 0
    eta0: float = None
    eta1: float = None
    beta: float = None
    p: int = None
    reuse: bool = True
    damping: bool = True
    label: str = None

    def validate(self, N=None):
        """Refuse an unknown method, or a value out of range for a field
        the method reads (``S`` also against the component count ``N``,
        when it is given); a field the method does not read is not
        checked, since no value of it changes the run."""
        if self.method not in _DRIVERS:
            raise ValueError(f"unknown method {self.method!r}")
        reads = _DRIVERS[self.method][1]
        for name, ok, message in (
                ("sampler", self.sampler in SAMPLERS, f"unknown sampler {self.sampler!r}"),
                ("m", self.m >= 1, "m must be >= 1"),
                ("eta", 0 < self.eta < 1, "eta must be in (0, 1)"),
                ("maxiter", self.maxiter >= 1, "maxiter must be >= 1"),
                # numpy would refuse a negative seed only at the first draw
                ("seed", self.seed >= 0, f"seeds must be >= 0, got {self.seed}"),
                ("eps", self.eps > 0, "eps must be positive"),
                ("eta0", self.eta0 is None or 0 < self.eta0 < math.inf,
                 "eta0 must be finite and positive"),
                ("eta1", self.eta1 is None or 0 < self.eta1 < math.inf,
                 "eta1 must be finite and positive"),
                ("beta", self.beta is None or 0 < self.beta <= 1, "beta must be in (0, 1]"),
                ("p", self.p is None or self.p >= 1, "p must be >= 1"),
                ("S", 1 <= self.S and (N is None or self.S <= N),
                 f"need 1 <= S <= N, got S={self.S}"),
                ("delta", self.delta > 0, "slises-modified needs delta > 0")):
            if name in reads and not ok:
                raise ValueError(message)
        if self.method == "slises-modified" and self.m < 2:
            raise ValueError("slises-modified needs m > 1")
        if "gamma_min" in reads:
            DampingPolicy(self.gamma_min, self.gamma_max)

    def display_label(self):
        if self.label:
            return self.label
        if self.method == "slises":
            tag = "ais" if self.sampler == "ais" else "uni"
            name = f"slises-{tag}-m{self.m}"
            if not self.damping:
                name += "-nodamp"
            return name
        if self.method == "slises-modified":
            return f"slises-mod-m{self.m}-d{self.delta:g}"
        return self.method


@dataclass(slots=True)
class IterationRecord:
    """One trace row.  ``indices``, kept in memory only, is the row's batch
    array itself (see Ownership in the module docstring), so compare it
    with ``np.array_equal``.  ``f_full`` and ``grad_norm_full`` are
    None while the row waits for its driver's report."""

    k: int
    resampled: bool
    c: float
    gamma: float
    alpha: float
    lsp_trials: int
    cum_evals: int
    grad_pass_cost: int
    f_full: float
    grad_norm_full: float
    indices: np.ndarray = field(default=None, repr=False, compare=False)


@dataclass
class RunTrace:
    header: dict
    records: list
    final_x: np.ndarray


class _Driver:
    """Shared state, tracing and metering for all methods.

    ``rng`` is the run's ``numpy.random.Generator``, or a zero-argument
    factory that builds it; the factory is called at the first draw, so
    a run that never draws never builds one.
    """

    def __init__(self, problem, config, rng):
        self.problem = problem
        self.config = config
        self._rng = rng
        self.x = np.zeros(problem.n)
        self.meter = problems.EvalMeter()
        self.k = 0
        self.records = []
        self._queue = []  # the iterates of the queued rows
        self._waiting = []  # (record, queue slot) of every row not yet reported
        self._row_x = None  # the iterate of the last row appended
        self._diverged = False  # set by the report that ends the trace at its sentinel
        self._append_record(resampled=False, c=np.nan, gamma=np.nan,
                            alpha=np.nan, trials=0, indices=np.empty(0, dtype=np.int64))

    @property
    def rng(self):
        """The run's generator, built from its factory at the first draw."""
        if callable(self._rng):
            self._rng = self._rng()
        return self._rng

    def _append_record(self, resampled, c, gamma, alpha, trials, indices):
        rec = IterationRecord(
            k=self.k, resampled=resampled, c=float(c), gamma=float(gamma),
            alpha=float(alpha), lsp_trials=int(trials),
            cum_evals=self.meter.count, grad_pass_cost=self.meter.grad_count,
            f_full=None, grad_norm_full=None, indices=indices)
        self.records.append(rec)
        if self.x is self._row_x:
            # the previous row's iterate: this row takes that row's report,
            # now or once it is made
            if self._queue:
                self._waiting.append((rec, len(self._queue) - 1))
            else:
                prev = self.records[-2]
                rec.f_full, rec.grad_norm_full = prev.f_full, prev.grad_norm_full
            return
        self._row_x = self.x
        self._waiting.append((rec, len(self._queue)))
        self._queue.append(self.x)
        if len(self._queue) == REPORT_CHUNK:
            self._report()

    def _report(self):
        """Fill in the reported columns of the waiting rows, and end the
        trace at the first whose objective is not finite, the sentinel:
        the rows after it are deleted and its iterate becomes the run's."""
        if self._queue:
            f, G = self.problem.report(np.array(self._queue))
            # vecdot takes each row's dot as g @ g does: np.linalg.norm's bits
            f, norms = f.tolist(), np.sqrt(np.vecdot(G, G)).tolist()
            # the waiting rows are the last records, in order
            first = len(self.records) - len(self._waiting)
            for i, (rec, slot) in enumerate(self._waiting):
                rec.f_full = f[slot]
                rec.grad_norm_full = norms[slot]
                if not math.isfinite(f[slot]):
                    del self.records[first + i + 1:]
                    self.x = self._queue[slot]
                    self._diverged = True
                    break
            self._waiting.clear()
            self._queue.clear()

    def header(self):
        """The method, its label and the config fields it reads, in field
        order, then the problem's lines."""
        cfg, P = self.config, self.problem
        reads = _DRIVERS[cfg.method][1]
        return {
            "method": cfg.method, "label": cfg.display_label(),
            **{f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name in reads},
            "problem": P.label, "N": P.N, "n": P.n,
            "lipschitz": P.lipschitz, "backend": BACKEND,
        }

    def run(self):
        # stop after maxiter steps or once a report has found the sentinel,
        # at the latest REPORT_CHUNK - 1 steps after it
        while self.k < self.config.maxiter and not self._diverged:
            self.step()
        self._report()
        return RunTrace(header=self.header(), records=self.records, final_x=self.x)


class SlisesDriver(_Driver):
    """slises, slises-modified and spectral-full share this loop."""

    def __init__(self, problem, config, rng):
        super().__init__(problem, config, rng)
        cfg = self.config
        # the variant, fixed here: spectral-full keeps the whole index set,
        # slises-modified takes an unsearched 1/k step at each redraw
        self._redraws = cfg.method != "spectral-full"
        self._unit_redraw_steps = cfg.method == "slises-modified"
        if cfg.method == "slises-modified":
            exponent = 1.0 + cfg.delta
        else:  # exponent 0 leaves the clipped coefficient undamped
            exponent = 1.0 if self._redraws and cfg.damping else 0.0
        self.sample = None if self._redraws else np.arange(problem.N)
        self.policy = DampingPolicy(cfg.gamma_min, cfg.gamma_max, exponent)
        self.sstate = SpectralState()
        self.ais = (sampling.AisState.uniform(problem.N, eps=cfg.eps)
                    if cfg.sampler == "ais" and self._redraws else None)
        self._point = {}  # what the estimators share at (sample, x)
        self._held = False  # a search held at (sample, x): none until a redraw

    def _draw(self, k):
        cfg, P = self.config, self.problem
        if self.ais is None:
            return sampling.uniform_draw(P.N, cfg.S, self.rng)
        if self.sample is not None:
            # scores take the component gradient norms at the previous
            # iterate, for the indices of the batch being retired
            norms = problems.component_gradient_norms(
                P, self.sample, self.sstate.prev_x, self.meter)
            sampling.ais_update_scores(self.ais, self.sample, norms)
        return sampling.ais_draw(self.ais, max(k, 1), cfg.S, self.rng)

    def step(self):
        cfg, P, k = self.config, self.problem, self.k
        resampled = self._redraws and sampling.should_resample(k, cfg.m)
        if resampled:
            self.sample = self._draw(k)
            self._point = {}
            self._held = False
        unit = self._unit_redraw_steps and resampled
        c = gamma = np.nan
        alpha, trials = 0.0, 0
        # a held iterate takes no gradient and no step: the same point and
        # batch would only measure the same rounding noise
        if not self._held:
            g = problems.batch_gradient(P, self.sample, self.x, self.meter, point=self._point)
            if unit:
                gamma = 1.0 / max(k, 1)  # measurable scale, unit step, no search
            elif k == 0 or (resampled and cfg.m > 1):
                c = anchor_coefficient(g)  # a cross-batch difference reads no curvature
            else:
                c = bb_coefficient(self.x - self.sstate.prev_x, g - self.sstate.prev_g)
                if c is None:
                    c = anchor_coefficient(g)
            self.sstate.update(self.x, g)
            if c is None:
                # stationary estimator: hold the iterate until the next redraw
                c, self._held = np.nan, True
            else:
                gamma = gamma if unit else damp(c, k, self.policy)
                d = -gamma * g
                if unit or (dm := float(g.dot(d))) >= 0.0:
                    # no search: the unit step, which keeps the iterate's
                    # array when it would not move it
                    alpha = 1.0
                    if np.any(d):
                        self.x = self.x + d
                        self._point = {}
                else:
                    phi0 = self._point.get("value") if cfg.reuse else None
                    if phi0 is None:
                        phi0 = problems.batch_value(P, self.sample, self.x, self.meter,
                                                    point=self._point)
                    ctx = ArmijoContext(phi0=phi0, dm=dm, eta=cfg.eta, t=0.5 ** k)
                    x0, sample, meter = self.x, self.sample, self.meter
                    trial = trial_point = None

                    def phi(a):
                        nonlocal trial, trial_point
                        trial, trial_point = x0 + a * d, {}
                        return problems.batch_value(P, sample, trial, meter, point=trial_point)

                    res = lsp_search(phi, ctx)
                    alpha, trials = res.alpha, res.trials
                    self._held = res.status == HELD
                    if not self._held:  # a held search keeps x0
                        self.x, self._point = trial, trial_point
        self._append_record(resampled, c, gamma, alpha, trials, self.sample)
        self.k += 1


class SgdDriver(_Driver):
    """Stochastic gradient with predefined 1/k steps, no line search."""

    def step(self):
        cfg, P, k = self.config, self.problem, self.k
        sample = sampling.uniform_draw(P.N, cfg.S, self.rng)
        g = problems.batch_gradient(P, sample, self.x, self.meter)
        gamma = 1.0 / max(k, 1)
        self.x = self.x - gamma * g
        self._append_record(True, np.nan, gamma, 1.0, 0, sample)
        self.k += 1


class _EpochDriver(_Driver):
    """Epoch skeleton of the spectral-step baselines.

    Each iteration is one parameter update on a fresh uniform batch, so
    epoch ``k // p`` opens at every update k that p divides, through the
    subclass's ``_start_epoch``; p defaults to ``p_per_n`` times the
    dimension, and the step size ``_eta`` starts at eta0.
    """

    p_per_n = 1

    def __init__(self, problem, config, rng):
        super().__init__(problem, config, rng)
        self._p = config.p if config.p is not None else self.p_per_n * problem.n
        self._eta0 = config.eta0 if config.eta0 is not None else 0.01
        self._eta = self._eta0

    def _epoch_step(self, c, previous):
        """The step ``c / p`` of the ratio ``c`` when it is finite and
        positive; ``previous`` for any other ratio, ``None`` included."""
        step = math.nan if c is None else c / self._p
        return step if 0.0 < step < math.inf else previous

    def _next_batch(self):
        """Open an epoch every p-th update, then draw the update's batch."""
        if self.k % self._p == 0:
            self._start_epoch()
        return sampling.uniform_draw(self.problem.N, self.config.S, self.rng)


class SvrgBbDriver(_EpochDriver):
    """Variance-reduced steps with spectral epoch step sizes.

    Each epoch (p = 2n updates by default) opens with a full gradient at
    the snapshot; from the second epoch on the step size is
    ||dx||^2 / (dx'dg) / p over consecutive snapshots, when that step is
    finite and positive.
    """

    p_per_n = 2
    _snap = _snap_g = None  # previous snapshot and its full gradient

    def _start_epoch(self):
        snap = self.x
        snap_g = problems.full_gradient(self.problem, snap, self.meter)
        if self._snap is not None:
            c = bb_coefficient(snap - self._snap, snap_g - self._snap_g)
            self._eta = self._epoch_step(c, self._eta)
        self._snap, self._snap_g = snap, snap_g

    def step(self):
        P = self.problem
        sample = self._next_batch()
        g_x = problems.batch_gradient(P, sample, self.x, self.meter)
        g_snap = problems.batch_gradient(P, sample, self._snap, self.meter)
        self.x = self.x - self._eta * (g_x - g_snap + self._snap_g)
        self._append_record(True, np.nan, self._eta, 1.0, 0, sample)
        self.k += 1


class SgdBbDriver(_EpochDriver):
    """Spectral epoch step sizes without variance reduction.

    Within each epoch (p = n updates by default) a recursive average of the
    stochastic gradients is accumulated with weight beta; from the
    third epoch on the step size is ||dx||^2 / |dx'dg| / p over
    consecutive epoch starts and averaged gradients, when that step is
    finite and positive.  The smoothing variant replaces each step size
    by the running geometric mean of the de-trended sizes e * eta_e,
    divided by the epoch index.
    """

    def __init__(self, problem, config, rng):
        super().__init__(problem, config, rng)
        self._beta = config.beta if config.beta is not None else 1.0 / self._p
        self._eta1 = config.eta1 if config.eta1 is not None else 0.01
        self._smooth = config.method == "sgd-bb-smooth"
        self._eta_raw = self._eta0
        self._xt_prev = None
        self._ghat_prev = None
        self._acc = np.zeros(problem.n)
        self._log_sum = 0.0
        self._log_n = 0

    def _start_epoch(self):
        e = self.k // self._p
        xt = self.x
        if e == 1:
            self._eta = self._eta_raw = self._eta1
        elif e > 1:
            c = bb_coefficient(xt - self._xt_prev, self._acc - self._ghat_prev)
            self._eta_raw = self._epoch_step(None if c is None else abs(c), self._eta_raw)
            if self._smooth:
                self._log_sum += math.log(e * self._eta_raw)
                self._log_n += 1
                self._eta = math.exp(self._log_sum / self._log_n) / e
            else:
                self._eta = self._eta_raw
        self._xt_prev = xt
        self._ghat_prev = self._acc
        self._acc = np.zeros(self.problem.n)

    def step(self):
        sample = self._next_batch()
        g = problems.batch_gradient(self.problem, sample, self.x, self.meter)
        self.x = self.x - self._eta * g
        self._acc = self._beta * g + (1.0 - self._beta) * self._acc
        self._append_record(True, np.nan, self._eta, 1.0, 0, sample)
        self.k += 1


# method -> (driver, the SolverConfig fields it reads): a trace header
# writes only these, and the CLI refuses a value given for any other
_DRIVERS = {
    "slises": (SlisesDriver, ("m", "S", "eta", "gamma_min", "gamma_max", "maxiter",
                              "sampler", "eps", "seed", "reuse", "damping")),
    "slises-modified": (SlisesDriver, ("m", "S", "eta", "gamma_min", "gamma_max", "delta",
                                       "maxiter", "sampler", "eps", "seed", "reuse")),
    "spectral-full": (SlisesDriver, ("eta", "gamma_min", "gamma_max", "maxiter", "reuse")),
    "sgd": (SgdDriver, ("S", "maxiter", "seed")),
    "svrg-bb": (SvrgBbDriver, ("S", "maxiter", "seed", "eta0", "p")),
    "sgd-bb": (SgdBbDriver, ("S", "maxiter", "seed", "eta0", "eta1", "beta", "p")),
    "sgd-bb-smooth": (SgdBbDriver, ("S", "maxiter", "seed", "eta0", "eta1", "beta", "p")),
}

METHODS = tuple(_DRIVERS)


def methods_reading(name):
    """The methods whose driver reads the :class:`SolverConfig` field ``name``."""
    return [method for method, (_, reads) in _DRIVERS.items() if name in reads]


def make_solver(problem, config, rng=None):
    """Validate ``config`` and instantiate the driver for its method.

    ``rng`` is a generator or a zero-argument factory of one (see
    :class:`_Driver`).  Without it the run draws from a generator seeded
    by ``config.seed``, built at the first draw.
    """
    config.validate(problem.N)
    if rng is None:
        seed = config.seed
        rng = lambda: np.random.default_rng(seed)  # noqa: E731
    return _DRIVERS[config.method][0](problem, config, rng)


def run_solver(problem, config, rng=None):
    """Execute a full run and return its trace."""
    return make_solver(problem, config, rng).run()
