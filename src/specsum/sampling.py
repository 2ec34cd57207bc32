"""Subsample schedules and samplers.

The solvers redraw their index batch every ``m``-th iteration and reuse
it in between.  A batch is the int64 index array the generator draws;
the solvers pass it unchanged to the oracles and to their trace records.
Two samplers are provided: uniform over size-S subsets (without
replacement), and adaptive importance sampling whose nonuniform
component probabilities are built from stored gradient norms and decay
toward uniform at rate 1/k**eps.
"""

from dataclasses import dataclass

import numpy as np

SCORE_FLOOR = 1e-12


@dataclass
class AisState:
    """Per-component importance scores and the decay exponent.

    Scores start uniform (all ones by default) and are overwritten with
    component gradient norms as components get sampled; indices never
    sampled keep their initial score.
    """

    pi: np.ndarray
    eps: float = 1.0

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        if self.eps <= 0:
            raise ValueError("decay exponent must be positive")
        if np.any(self.pi < 0) or self.pi.sum() <= 0:
            raise ValueError("scores must be nonnegative with a positive sum")

    @classmethod
    def uniform(cls, N, eps=1.0):
        return cls(pi=np.ones(N), eps=eps)


def should_resample(k, m):
    """True iff iteration k redraws the batch (every m-th iteration)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return k % m == 0


def uniform_draw(N, S, rng):
    """Draw S distinct indices uniformly among size-S subsets of 0..N-1.

    One index (S=1) is drawn as the scalar ``rng.integers(N)``: it takes
    the generator's stream exactly as ``rng.choice(N, size=1,
    replace=False)`` does, so the array and the generator's next draw
    are the same, in a quarter of the time."""
    if not 1 <= S <= N:
        raise ValueError(f"need 1 <= S <= N, got S={S}, N={N}")
    if S == 1:
        return np.array([rng.integers(N)], dtype=np.int64)
    return rng.choice(N, size=S, replace=False)


def ais_probabilities(state, k):
    """Component probabilities at iteration k >= 1.

    p_j = (1/k**eps) * pi_j / sum(pi) + (1 - 1/k**eps) / N, which sums
    to one and satisfies |p_j - 1/N| <= 1/k**eps for every j.
    """
    if k < 1:
        raise ValueError("iteration counter must be >= 1")
    total = state.pi.sum()
    if total <= 0:
        raise ValueError("scores must have a positive sum")
    a = float(k) ** -float(state.eps)
    return a * (state.pi / total) + (1.0 - a) / state.pi.size


def ais_draw(state, k, S, rng):
    """Draw S indices i.i.d. (with replacement) from the decayed scores."""
    p = ais_probabilities(state, k)
    return rng.choice(state.pi.size, size=S, replace=True, p=p)


def ais_update_scores(state, previous_indices, gradient_norms):
    """Overwrite scores of the previously sampled indices.

    Each score becomes the component gradient norm at the previous
    iterate, clipped into [``SCORE_FLOOR``, max float / (2N)] so the sum
    of the N scores stays positive and finite; a non-finite norm (a
    diverging run) maps to the floor.  Duplicated indices keep the last
    value; all other scores are unchanged.
    """
    norms = np.asarray(gradient_norms, dtype=np.float64)
    if norms.shape != (len(previous_indices),):
        raise ValueError("one gradient norm per sampled index is required")
    ceiling = np.finfo(np.float64).max / (2 * state.pi.size)
    norms = np.clip(np.where(np.isfinite(norms), norms, SCORE_FLOOR), SCORE_FLOOR, ceiling)
    for i, gn in zip(previous_indices, norms):
        state.pi[i] = gn
