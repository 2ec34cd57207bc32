"""The solve path writes no array after it is handed on (the rule of the
``specsum.solvers`` docstring).

Every float64 array handed to an estimator kernel, a problem's ``report``
or a sampler, and every array those return, is marked read-only, so a
later write into it raises instead of changing a kept iterate, gradient,
batch or snapshot."""

import math

import numpy as np
import pytest

from conftest import make_logistic
from specsum import kernels, problems, sampling
from specsum.problems import generate_quadratic
from specsum.solvers import METHODS, SAMPLERS, SolverConfig, run_solver


def _freeze(value):
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)


def _read_only(fn):
    def wrapped(*args, **kwargs):
        for arg in (*args, *kwargs.values()):
            if isinstance(arg, np.ndarray) and arg.dtype == np.float64:
                arg.flags.writeable = False
        result = fn(*args, **kwargs)
        _freeze(result)
        return result

    return wrapped


@pytest.fixture(autouse=True)
def read_only_arrays(monkeypatch):
    for name in ("quad_value", "quad_gradient", "logistic_value", "logistic_gradient"):
        monkeypatch.setattr(kernels, name, _read_only(getattr(kernels, name)))
    for cls in (problems.QuadraticProblem, problems.LogisticProblem):
        monkeypatch.setattr(cls, "report", _read_only(cls.report))
    for name in ("uniform_draw", "ais_draw"):
        monkeypatch.setattr(sampling, name, _read_only(getattr(sampling, name)))


def small_problem(family):
    if family == "quadratic":
        return generate_quadratic(3, 6, np.random.default_rng(2))
    return make_logistic(3, 6, seed=2)


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("family", ["quadratic", "logistic"])
@pytest.mark.parametrize("method", METHODS)
def test_a_run_writes_no_handed_array(method, family, S, sampler, reuse):
    # p=4 opens several epochs; m=3 keeps batches across BB iterations
    cfg = SolverConfig(method=method, m=3, S=S, sampler=sampler, reuse=reuse,
                       maxiter=40, seed=1, p=4)
    tr = run_solver(small_problem(family), cfg)
    assert len(tr.records) == cfg.maxiter + 1


def test_a_diverging_run_writes_no_handed_array():
    cfg = SolverConfig(method="sgd-bb", S=1, maxiter=40, seed=0, eta0=1e150, p=4)
    with np.errstate(all="ignore"):
        tr = run_solver(small_problem("quadratic"), cfg)
    # the run ends at its sentinel, found by the report of its chunk
    assert len(tr.records) < cfg.maxiter + 1
    assert not math.isfinite(tr.records[-1].f_full)
