"""Line search: relaxed Armijo test, safeguarded interpolation, search loop."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from specsum.linesearch import (
    ACCEPTED,
    BUDGET_EXHAUSTED,
    HELD,
    MAX_TRIALS,
    ROUNDING,
    ArmijoContext,
    armijo_holds,
    at_rounding_floor,
    interp_candidate,
    lsp_search,
)


class TestArmijoHolds:
    def test_large_slack_accepts(self):
        ctx = ArmijoContext(phi0=0.5, dm=-1.0, eta=1e-4, t=1.0)
        assert armijo_holds(0.0, ctx, 1.0)  # 0 <= 0.5 - 1e-4 + 1

    def test_no_slack_requires_strict_decrease(self):
        ctx = ArmijoContext(phi0=0.5, dm=-1.0, eta=1e-4, t=0.0)
        assert not armijo_holds(0.5, ctx, 1.0)

    def test_boundary_equality_accepts(self):
        ctx = ArmijoContext(phi0=2.0, dm=-3.0, eta=0.1, t=0.25)
        rhs = 2.0 + 0.1 * 0.5 * -3.0 + 0.25
        assert armijo_holds(rhs, ctx, 0.5)

    def test_nonfinite_trial_fails(self):
        ctx = ArmijoContext(phi0=1.0, dm=-1.0, eta=1e-4, t=0.0)
        assert not armijo_holds(np.nan, ctx, 0.5)
        assert not armijo_holds(np.inf, ctx, 0.5)


class TestInterpCandidate:
    def test_exact_quadratic_minimizer(self):
        # phi(a) = (1-2a)^2: dm=-4, phi(1)=1=phi(0), minimizer 0.5
        assert interp_candidate(-4.0, 1.0, 1.0, 1.0) == 0.5

    def test_low_trigger_falls_back_to_half(self):
        # raw candidate 4/48 < 0.1
        assert interp_candidate(-4.0, 1.0, 21.0, 1.0) == 0.5

    def test_high_trigger_falls_back_to_half(self):
        # denominator 2*(2.1) gives raw 4/4.2 > 0.9
        assert interp_candidate(-4.0, 1.0, 1.0 - 4.0 + 2.1, 1.0) == 0.5

    def test_nonpositive_denominator_falls_back(self):
        # possible when a positive slack masked the failure
        assert interp_candidate(-4.0, 1.0, 1.0 - 4.0, 1.0) == 0.5
        assert interp_candidate(-4.0, 1.0, 1.0 - 5.0, 1.0) == 0.5

    def test_nonfinite_value_falls_back(self):
        assert interp_candidate(-4.0, 1.0, np.inf, 1.0) == 0.5
        assert interp_candidate(-4.0, 1.0, np.nan, 1.0) == 0.5

    def test_safeguard_window_scales_with_alpha(self):
        # same quadratic at trial step 0.5: the raw minimizer 0.5 sits
        # above 0.9*alpha, so the safeguard halves instead
        cand = interp_candidate(-4.0, 0.5, (1 - 2 * 0.5) ** 2, 1.0)
        assert cand == 0.25


def quad_phi(x, d):
    """phi(a) = (x + a*d)^2 with call recording."""
    calls = []

    def phi(a):
        calls.append(a)
        return (x + a * d) ** 2

    return phi, calls


class TestLspSearch:
    def test_hand_traced_two_trials(self):
        # phi(a) = (1-2a)^2, eta=1e-4, t=0: alpha=1 fails (1 > 0.9996),
        # interpolation lands on the exact minimizer 0.5, phi=0 accepts
        phi, calls = quad_phi(1.0, -2.0)
        ctx = ArmijoContext(phi0=1.0, dm=-4.0, eta=1e-4, t=0.0)
        res = lsp_search(phi, ctx)
        assert res.status == ACCEPTED
        assert res.alpha == 0.5
        assert res.trials == 2
        assert calls == [1.0, 0.5]
        assert res.phi_alpha == 0.0

    def test_large_slack_accepts_unit_step(self):
        phi, calls = quad_phi(1.0, -2.0)
        ctx = ArmijoContext(phi0=1.0, dm=-4.0, eta=1e-4, t=1.0)
        res = lsp_search(phi, ctx)
        assert res.status == ACCEPTED
        assert (res.alpha, res.trials) == (1.0, 1)

    def test_immediate_accept(self):
        ctx = ArmijoContext(phi0=1.0, dm=-1.0, eta=1e-4, t=0.0)
        res = lsp_search(lambda a: 0.5, ctx)
        assert (res.alpha, res.trials, res.status) == (1.0, 1, ACCEPTED)

    def test_budget_exhausted_returns_last_trial(self):
        # phi0 = 0 has no rounding floor, so every trial is tested
        ctx = ArmijoContext(phi0=0.0, dm=-1.0, eta=1e-4, t=0.0)
        res = lsp_search(lambda a: 2.0, ctx)
        assert res.status == BUDGET_EXHAUSTED
        assert res.trials == 60
        assert 0.0 < res.alpha < 1e-6

    def test_nonfinite_trials_count_as_failures(self):
        def phi(a):
            return np.inf if a > 0.02 else 0.0

        ctx = ArmijoContext(phi0=1.0, dm=-1.0, eta=1e-4, t=0.0)
        res = lsp_search(phi, ctx)
        assert res.status == ACCEPTED
        assert res.alpha <= 0.02

    def test_trials_strictly_decreasing_in_unit_interval(self):
        tested = []

        def phi(a):
            tested.append(a)
            return 1.0 if a > 1e-4 else 0.0

        ctx = ArmijoContext(phi0=1.0, dm=-1.0, eta=0.5, t=0.0)
        res = lsp_search(phi, ctx)
        assert res.status == ACCEPTED
        assert all(0 < a <= 1 for a in tested)
        assert all(a > b for a, b in zip(tested, tested[1:]))

    def test_halving_only_below_threshold(self):
        tested = []

        def phi(a):
            tested.append(a)
            return 1.0 if a > 1e-5 else 0.0

        ctx = ArmijoContext(phi0=1.0, dm=-1.0, eta=0.5, t=0.0)
        lsp_search(phi, ctx)
        below = [a for a in tested if a <= 0.1]
        for a, b in zip(below, below[1:]):
            assert b == 0.5 * a

    def test_accepted_step_satisfies_test_as_evaluated(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = float(rng.uniform(-3, 3)) or 1.0
            d = -x * float(rng.uniform(0.5, 4.0))
            phi, _ = quad_phi(x, d)
            dm = 2 * x * d
            ctx = ArmijoContext(phi0=x * x, dm=dm, eta=1e-4, t=float(rng.choice([0.0, 0.3])))
            res = lsp_search(phi, ctx)
            assert res.status == ACCEPTED
            assert armijo_holds(phi(res.alpha), ctx, res.alpha)


class TestRoundingFloor:
    def test_floor_is_the_rounding_of_phi0(self):
        ctx = ArmijoContext(phi0=-4.0, dm=-1.0, eta=0.5, t=0.0)
        assert at_rounding_floor(ctx, 8 * ROUNDING)
        assert not at_rounding_floor(ctx, 9 * ROUNDING)
        slack = ArmijoContext(phi0=-4.0, dm=-1.0, eta=0.5, t=4 * ROUNDING)
        assert not at_rounding_floor(slack, ROUNDING)

    def test_unit_step_at_the_floor_is_held_untried(self):
        phi, calls = quad_phi(1.0, -2.0)
        ctx = ArmijoContext(phi0=1e6, dm=-1e-6, eta=1e-4, t=1e-12)
        res = lsp_search(phi, ctx)
        assert (res.alpha, res.trials, res.status, res.phi_alpha) == (0.0, 0, HELD, 1e6)
        assert calls == []

    def test_hold_after_the_trials_above_the_floor(self):
        # eta*alpha*|dm| = 1e-14*alpha reaches 1*eps below alpha = 0.0222:
        # 1, 0.5, 0.25, 0.125, 0.0625 and 0.03125 are tested, 0.015625 is not
        tested = []

        def phi(a):
            tested.append(a)
            return 2.0

        ctx = ArmijoContext(phi0=1.0, dm=-1e-10, eta=1e-4, t=0.0)
        res = lsp_search(phi, ctx)
        assert (res.alpha, res.trials, res.status, res.phi_alpha) == (0.0, 6, HELD, 1.0)
        assert tested == [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]

    @pytest.mark.parametrize("phi0", [0.0, np.inf, -np.inf, np.nan])
    def test_no_floor_without_a_finite_nonzero_phi0(self, phi0):
        ctx = ArmijoContext(phi0=phi0, dm=-1e-100, eta=1e-4, t=0.0)
        assert not at_rounding_floor(ctx, 1e-100)
        assert lsp_search(lambda a: 0.0, ctx, max_trials=3).status != HELD


FINITE = st.floats(-1e6, 1e6)


class TestSearchPostconditions:
    @given(values=st.lists(st.floats(), min_size=1, max_size=8),
           phi0=FINITE, dm=st.floats(-1e6, 0.0), eta=st.floats(1e-6, 0.99),
           t=st.floats(0.0, 1e3), max_trials=st.integers(1, MAX_TRIALS))
    def test_status_trials_and_step(self, values, phi0, dm, eta, t, max_trials):
        # trial values cycle through arbitrary floats, nan and inf included
        trial = itertools.cycle(values)
        ctx = ArmijoContext(phi0=phi0, dm=dm, eta=eta, t=t)
        res = lsp_search(lambda a: next(trial), ctx, max_trials=max_trials)
        if res.status == HELD:
            # no step, phi0 kept; untried only when the unit step is at the floor
            assert (res.alpha, res.phi_alpha) == (0.0, phi0)
            assert 0 <= res.trials < max_trials
            assert (res.trials == 0) == at_rounding_floor(ctx, 1.0)
            return
        assert 1 <= res.trials <= max_trials
        assert 0.0 < res.alpha <= 1.0
        assert not at_rounding_floor(ctx, res.alpha)  # every tested step is above it
        if res.status == ACCEPTED:
            assert armijo_holds(res.phi_alpha, ctx, res.alpha)
        else:
            assert res.status == BUDGET_EXHAUSTED
            assert res.trials == max_trials
