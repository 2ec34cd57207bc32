"""Subsampled spectral-gradient solvers and benchmark harness for
finite-sum minimization."""

from .kernels import BACKEND
from .linesearch import ArmijoContext, LspResult, armijo_holds, interp_candidate, lsp_search
from .problems import (
    DatasetFormatError,
    DatasetRecords,
    EvalMeter,
    FiniteSumProblem,
    LogisticProblem,
    NonFiniteInstanceError,
    QuadraticProblem,
    batch_gradient,
    batch_value,
    full_gradient,
    full_value,
    generate_quadratic,
    load_dataset,
    logistic_problem,
)
from .sampling import (
    AisState,
    SampleBatch,
    ais_draw,
    ais_probabilities,
    ais_update_scores,
    should_resample,
    uniform_draw,
)
from .solvers import IterationRecord, RunTrace, SolverConfig, make_solver, run_solver
from .steplength import DampingPolicy, SpectralState, anchor_coefficient, bb_coefficient, damp

__version__ = "0.1.0"
