"""Nonmonotone Armijo line search with safeguarded interpolation.

Starting from the unit step, each trial alpha is tested against the
relaxed sufficient-decrease condition

    phi(alpha) <= phi(0) + eta * alpha * dm + t,

where dm is the directional derivative at the current point and t >= 0
is a forcing slack (summable across iterations, so the relaxation
vanishes).  While the trial step exceeds 0.1 a failed test is followed
by the quadratic-interpolation candidate, kept only if it lands inside
[0.1*alpha, 0.9*alpha]; at or below 0.1 the step is simply halved, and
interpolation is never revisited.

Once the predicted decrease plus slack, eta * alpha * |dm| + t, falls to
the rounding of a finite phi(0) (``ROUNDING * |phi(0)|``), the test can
only measure rounding noise, so the search stops without a step and
reports the status ``held`` (the eps*|f| relaxation of Hager & Zhang,
SIAM J. Optim. 16, 2005).  Above that floor the test is the one above.
"""

import math
from dataclasses import dataclass

import numpy as np

ACCEPTED = "accepted"
BUDGET_EXHAUSTED = "budget_exhausted"
HELD = "held"

MAX_TRIALS = 60  # halving floor ~9e-19; guards float pathologies only
ROUNDING = float(np.finfo(float).eps)  # relative rounding of phi(0)


@dataclass
class ArmijoContext:
    """Inputs of one search: base value, slope, constant and slack."""

    phi0: float
    dm: float
    eta: float
    t: float = 0.0


@dataclass
class LspResult:
    """Accepted step (0 when held), trial count and status."""

    alpha: float
    trials: int
    status: str
    phi_alpha: float = np.nan


def armijo_holds(phi_alpha, ctx, alpha):
    """Relaxed Armijo test; non-finite trial values count as failures."""
    return phi_alpha <= ctx.phi0 + ctx.eta * alpha * ctx.dm + ctx.t


def at_rounding_floor(ctx, alpha):
    """True when the predicted decrease plus slack at ``alpha`` is no more
    than the rounding of a finite phi(0)."""
    return ctx.eta * alpha * abs(ctx.dm) + ctx.t <= ROUNDING * abs(ctx.phi0) < math.inf


def interp_candidate(dm, alpha, phi_alpha, phi0):
    """Safeguarded quadratic-interpolation step after a failed trial.

    Returns the interpolation minimizer when it lies in
    [0.1*alpha, 0.9*alpha]; otherwise alpha/2.  A non-positive or
    non-finite denominator (possible when the failure was masked by a
    positive slack) also falls back to alpha/2.
    """
    denom = 2.0 * (phi_alpha - phi0 - alpha * dm)
    if not np.isfinite(denom) or denom <= 0.0:
        return 0.5 * alpha
    cand = -dm * alpha * alpha / denom
    if not np.isfinite(cand) or cand < 0.1 * alpha or cand > 0.9 * alpha:
        return 0.5 * alpha
    return cand


def lsp_search(phi, ctx, max_trials=MAX_TRIALS):
    """Find an accepted step in (0, 1] for the 1-D estimator ``phi``.

    ``phi(alpha)`` evaluates the subsample value at the trial point;
    whatever it costs is charged by ``phi`` itself.

    If ``max_trials`` tests all fail the last trial step is returned
    with status ``budget_exhausted``; the final trial value is reported
    either way so callers can reuse it as the next base value.  A trial
    step at the rounding floor is not tested: the search returns step 0,
    the trials spent and phi(0) with status ``held``.
    """
    alpha = 1.0
    trials = 0
    while True:
        if at_rounding_floor(ctx, alpha):
            return LspResult(0.0, trials, HELD, ctx.phi0)
        phi_a = float(phi(alpha))
        trials += 1
        if armijo_holds(phi_a, ctx, alpha):
            return LspResult(alpha, trials, ACCEPTED, phi_a)
        if trials >= max_trials:
            return LspResult(alpha, trials, BUDGET_EXHAUSTED, phi_a)
        if alpha > 0.1:
            alpha = interp_candidate(ctx.dm, alpha, phi_a, ctx.phi0)
        else:
            alpha = 0.5 * alpha
