"""The drivers match the plain loops of ``tests/reference.py``."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_logistic
from reference import reference_run
from specsum.problems import generate_quadratic
from specsum.solvers import METHODS, SAMPLERS, SolverConfig, run_solver


@st.composite
def runs(draw):
    """A small quadratic or logistic problem and a config for it."""
    n, N = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    problem_seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        P = generate_quadratic(n, N, np.random.default_rng(problem_seed))
    else:
        P = make_logistic(n, N, seed=problem_seed, lam=draw(st.sampled_from([0.0, 1e-4, 0.1])))
    method = draw(st.sampled_from(METHODS))
    cfg = SolverConfig(
        method=method, m=draw(st.integers(2 if method == "slises-modified" else 1, 4)),
        S=draw(st.integers(1, N)), sampler=draw(st.sampled_from(SAMPLERS)),
        reuse=draw(st.booleans()), damping=draw(st.booleans()),
        seed=draw(st.integers(0, 2**16)), maxiter=draw(st.integers(1, 24)),
        eta0=draw(st.sampled_from([None, 0.1, 1.0, 10.0, 1e150])),  # 1e150 can diverge
        eta1=draw(st.sampled_from([None, 0.1, 1.0, 10.0, 1e150])),
        beta=draw(st.sampled_from([None, 0.1, 0.5, 1.0])),
        p=draw(st.one_of(st.none(), st.integers(1, 4))))
    return P, cfg


@settings(max_examples=200)
@given(run=runs())
def test_drivers_match_the_reference_loop(run):
    P, cfg = run
    with np.errstate(all="ignore"):  # a diverging run ends at its sentinel
        tr = run_solver(P, cfg)
        rows, x = reference_run(P, cfg)
    assert len(tr.records) == len(rows)
    for rec, row in zip(tr.records, rows, strict=True):
        got = (rec.k, rec.resampled, rec.c, rec.gamma, rec.alpha, rec.lsp_trials,
               rec.cum_evals, rec.grad_pass_cost)
        assert repr(got) == repr(row[:8])
        assert np.array_equal(rec.indices, row[10])
        for reported, expected in zip((rec.f_full, rec.grad_norm_full), row[8:10]):
            assert (reported == expected or math.isnan(reported) and math.isnan(expected)
                    or math.isclose(reported, expected, rel_tol=1e-9, abs_tol=1e-12))
    assert tr.final_x.tobytes() == x.tobytes()
