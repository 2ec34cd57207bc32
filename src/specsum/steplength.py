"""Spectral step coefficients and the safeguarded, damped step scale.

The spectral (Barzilai-Borwein) coefficient ||s||^2 / (s'y) is computed
from the iterate step s and gradient difference y; its inverse is a
Rayleigh quotient of the subsampled Hessian when both gradients come
from the same batch.  ``bb_coefficient`` is the one implementation of
the ratio: SLiSeS takes it over consecutive iterates, and the epoch
baselines svrg-bb and sgd-bb over consecutive epoch snapshots.  At
batch-redraw iterations the solvers anchor the coefficient at 1/||g||
instead, since a gradient difference across batches carries no
curvature information.  The raw coefficient is then clipped into
[gamma_min, gamma_max] and divided by the iteration count (or a higher
power of it) to produce the diminishing step scale.

Degenerate measurements yield sentinels rather than exceptions:
``bb_coefficient`` returns ``inf`` for zero curvature (s'y == 0, which
the clip projects to gamma_max) and ``None`` when s vanishes or the
inputs are non-finite; ``anchor_coefficient`` returns ``None`` for a
(numerically) stationary gradient.  Callers decide what to do with
``None``.
"""

import math
from dataclasses import dataclass

import numpy as np

STATIONARY_NORM = 1e-14


@dataclass
class SpectralState:
    """Previous iterate and gradient, kept by reference for the next BB
    ratio (see Ownership in the :mod:`specsum.solvers` docstring)."""

    prev_x: np.ndarray = None
    prev_g: np.ndarray = None

    def update(self, x, g):
        self.prev_x, self.prev_g = x, g


@dataclass
class DampingPolicy:
    """Clip bounds and damping exponent for the step scale; exponent 0
    leaves the clipped coefficient undamped."""

    gamma_min: float = 1e-8
    gamma_max: float = 1e8
    exponent: float = 1.0

    def __post_init__(self):
        if not 0 < self.gamma_min <= 1 <= self.gamma_max:
            raise ValueError("need 0 < gamma_min <= 1 <= gamma_max")
        if not (self.exponent == 0 or self.exponent >= 1):
            raise ValueError("damping exponent must be 0 (undamped) or >= 1")


def bb_coefficient(s, y):
    """Spectral coefficient ||s||^2 / (s'y), or a sentinel.

    Returns ``inf`` when s'y == 0 and ``None`` when ||s|| == 0 or any
    input is non-finite.  Negative curvature gives a negative value;
    the damping clip maps it to gamma_min.
    """
    ss = float(s.dot(s))
    if not math.isfinite(ss) or ss == 0.0:
        return None
    sy = float(s.dot(y))
    if not math.isfinite(sy):
        return None
    if sy == 0.0:
        return math.inf
    return ss / sy


def anchor_coefficient(g):
    """Gradient-norm anchor 1/||g||, or ``None`` when stationary."""
    gn = math.sqrt(g.dot(g))  # np.linalg.norm's formula for a float vector
    if not math.isfinite(gn) or gn <= STATIONARY_NORM:
        return None
    return 1.0 / gn


def damp(c, k, policy):
    """Clip the coefficient and divide by max(k, 1)**exponent.

    ``inf`` clips to gamma_max, negative values to gamma_min.  Exponent
    0 divides by 1.0, which returns the clipped value unchanged.
    """
    if math.isnan(c):
        c = math.inf
    clipped = min(policy.gamma_max, max(policy.gamma_min, c))
    return clipped / max(k, 1) ** policy.exponent
