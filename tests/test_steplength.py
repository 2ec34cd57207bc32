"""Spectral coefficients, anchors and the damped step scale."""

import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from specsum.problems import batch_gradient, generate_quadratic
from specsum.steplength import (
    DampingPolicy,
    anchor_coefficient,
    bb_coefficient,
    damp,
)

WIDE = DampingPolicy(gamma_min=1e-8, gamma_max=1e8)


class TestBbCoefficient:
    def test_identity_curvature(self):
        s = np.array([0.3, -2.0, 1.1])
        assert bb_coefficient(s, s) == pytest.approx(1.0, rel=1e-15)

    def test_hand_case(self):
        assert bb_coefficient(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == 0.5

    def test_negative_curvature(self):
        c = bb_coefficient(np.array([1.0, 1.0]), np.array([-1.0, -1.0]))
        assert c == -1.0

    def test_zero_curvature_is_inf(self):
        c = bb_coefficient(np.array([1.0, 0.0]), np.array([0.0, 3.0]))
        assert c == np.inf

    def test_zero_step_is_degenerate(self):
        assert bb_coefficient(np.zeros(3), np.ones(3)) is None

    def test_nonfinite_inputs_degenerate(self):
        assert bb_coefficient(np.array([np.nan, 1.0]), np.ones(2)) is None
        assert bb_coefficient(np.array([np.inf, 1.0]), np.ones(2)) is None
        assert bb_coefficient(np.ones(2), np.array([np.nan, 0.0])) is None


class TestAnchorCoefficient:
    def test_inverse_norm(self):
        assert anchor_coefficient(np.array([0.0, 4.0])) == 0.25
        assert anchor_coefficient(np.array([1.0, 0.0])) == 1.0

    def test_stationary_sentinel(self):
        assert anchor_coefficient(np.zeros(3)) is None
        assert anchor_coefficient(np.full(2, 1e-15)) is None

    def test_nonfinite_sentinel(self):
        assert anchor_coefficient(np.array([np.inf, 0.0])) is None


class TestDamp:
    def test_inside_bounds_divides_by_k(self):
        assert damp(5.0, 10, WIDE) == 0.5

    def test_negative_clips_to_floor(self):
        assert damp(-1.0, 10, WIDE) == pytest.approx(1e-9, rel=1e-15)

    def test_inf_clips_to_ceiling(self):
        assert damp(np.inf, 4, WIDE) == pytest.approx(1e8 / 4)

    def test_nan_treated_as_ceiling(self):
        assert damp(np.nan, 4, WIDE) == pytest.approx(1e8 / 4)

    def test_undamped_mode_keeps_clipped_value(self):
        policy = DampingPolicy(exponent=0.0)
        assert damp(5.0, 10, policy) == 5.0
        assert damp(-3.0, 10, policy) == policy.gamma_min

    def test_k_zero_uses_unit_divisor(self):
        assert damp(5.0, 0, WIDE) == 5.0
        assert damp(5.0, 1, WIDE) == 5.0

    def test_modified_exponent(self):
        policy = DampingPolicy(exponent=2.0)
        assert damp(5.0, 10, policy) == pytest.approx(0.05, rel=1e-15)

    def test_monotone_decay_in_k(self):
        vals = [damp(3.7, k, WIDE) for k in range(30)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_range_invariant_randomized(self):
        rng = np.random.default_rng(0)
        policy = DampingPolicy(gamma_min=1e-4, gamma_max=10.0, exponent=1.5)
        for _ in range(300):
            c = float(rng.standard_cauchy() * 10)
            k = int(rng.integers(0, 5000))
            g = damp(c, k, policy)
            kk = max(k, 1) ** 1.5
            assert policy.gamma_min / kk <= g <= policy.gamma_max / kk


    @given(c=st.floats(), k=st.integers(0, 10**9),
           gamma_min=st.floats(1e-300, 1.0),
           gamma_max=st.floats(1.0, 1e300),
           exponent=st.one_of(st.just(0.0), st.floats(1.0, 4.0)))
    def test_range_for_any_coefficient_and_policy(self, c, k, gamma_min, gamma_max,
                                                   exponent):
        policy = DampingPolicy(gamma_min=gamma_min, gamma_max=gamma_max,
                               exponent=exponent)
        g = damp(c, k, policy)
        assert np.isfinite(g)
        assert gamma_min / max(k, 1) ** exponent <= g <= gamma_max


class TestDampingPolicy:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            DampingPolicy(gamma_min=0.0)
        with pytest.raises(ValueError):
            DampingPolicy(gamma_min=2.0, gamma_max=3.0)
        with pytest.raises(ValueError):
            DampingPolicy(gamma_max=0.5)
        with pytest.raises(ValueError):
            DampingPolicy(exponent=0.5)


class TestSweepingSpectrum:
    def test_inverse_coefficient_in_subsampled_hessian_range(self):
        # with a fixed sample of a quadratic, y = H s exactly, so 1/c is
        # a Rayleigh quotient of the subsampled Hessian
        rng = np.random.default_rng(42)
        P = generate_quadratic(6, 10, rng)
        for _ in range(50):
            S = int(rng.integers(1, P.N + 1))
            sample = rng.choice(P.N, size=S, replace=False)
            x = rng.uniform(0, 32, P.n)
            s = rng.standard_normal(P.n)
            y = batch_gradient(P, sample, x + s) - batch_gradient(P, sample, x)
            c = bb_coefficient(s, y)
            H = P.A[sample].mean(axis=0)
            w = np.linalg.eigvalsh(H)
            assert 1.0 / c >= w[0] * (1 - 1e-10)
            assert 1.0 / c <= w[-1] * (1 + 1e-10)


class TestNorm:
    """``math.sqrt(g @ g)``, the norm of the anchor and of every trace row,
    has the bits of ``np.linalg.norm(g)``."""

    @given(st.lists(st.one_of(st.floats(allow_subnormal=True),
                              st.sampled_from([-0.0, 5e-324, 1e154, 1e200])),
                    min_size=1, max_size=200))
    def test_sqrt_of_dot_is_norm(self, values):
        g = np.array(values)
        with np.errstate(all="ignore"):  # inf and nan entries, overflowing squares
            ours, ref = math.sqrt(g @ g), float(np.linalg.norm(g))
        if math.isnan(ref):
            assert math.isnan(ours)
        else:
            assert struct.pack("<d", ours) == struct.pack("<d", ref)
