"""One workload invocation in a fresh process: ``specsum.cli.main(argv)``.

Usage: ``python3 invoke.py '<json plan>'``, started by ``run.py``.  The
plan names the argument list, the output directory, the mode
(``plain`` or ``traced``) and the gate settings.  The last line of
standard output is one JSON record with the timings, the peak RSS, the
gate verdict and fingerprint of every run, and in traced mode the
per-layer metrics.

Both modes time ``ExperimentSpec.build_problem`` (set-up) and
``harness.run_single`` (one run) from outside; those are a handful of
calls per invocation.  Only the traced mode wraps the layers.

Set-up, solve and run times are CPU time of this process
(``time.process_time``), with wall time kept beside them.  The program
runs on one thread here (one BLAS thread), so its CPU time is the wall
time it would take on a host of its own: it leaves out the time the
hypervisor gives this vCPU to other tenants (steal), which on a shared
host changes an invocation's wall time by up to 60%.
"""

import contextlib
import importlib.util
import io
import json
import os
import resource
import sys
import time

import workloads


def _versions():
    import numpy as np

    from specsum import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "backend": kernels.BACKEND,
        "numba": importlib.util.find_spec("numba") is not None,
    }


class Probe:
    """Times set-up and each run from outside; keeps what the gate needs."""

    def __init__(self, harness):
        self.problem = None
        self.setup_s = self.setup_wall_s = 0.0
        self.runs = []  # (label, seed, path, cpu seconds) per completed run_single
        spec_cls = harness.ExperimentSpec
        build = spec_cls.build_problem
        run_single = harness.run_single

        def build_problem(spec):
            w0, t0 = time.perf_counter(), time.process_time()
            self.problem = build(spec)
            self.setup_s = time.process_time() - t0
            self.setup_wall_s = time.perf_counter() - w0
            return self.problem

        def timed_run_single(problem, config, seed, out_dir, stream=0):
            t0 = time.process_time()
            path, trace = run_single(problem, config, seed, out_dir, stream)
            self.runs.append((config.display_label(), int(seed), path,
                              time.process_time() - t0))
            return path, trace

        spec_cls.build_problem = build_problem
        harness.run_single = timed_run_single


def _gate_runs(probe, plan, harness):
    """Gate verdict and fingerprint per run."""
    f_star = getattr(probe.problem, "optimal_value", None)
    results = []
    for label, seed, path, seconds in probe.runs:
        _, cols = harness.read_trace(path)
        tol = workloads.gap_tolerance(plan["gap_tol"], label)
        results.append({
            "label": label, "seed": seed, "seconds": seconds,
            "failed": workloads.gate(cols, plan["maxiter"], f_star, tol),
            "rows": int(cols["k"].size),
            "cum_evals": int(cols["cum_evals"][-1]),
            "grad_pass_cost": int(cols["grad_pass_cost"][-1]),
            "lsp_trials": int(cols["lsp_trials"].sum()),
            "f_final": float(cols["f_full"][-1]),
            "evals": cols["cum_evals"],
        })
    return results


def _aggregate_failure(path, evals, harness):
    """The aggregate's grid is the union of the runs' evaluation counts
    and every reduced value is finite; returns a reason or None."""
    import numpy as np

    _, cols = harness.read_trace(path)
    grid = np.unique(np.concatenate(evals))
    if not np.array_equal(cols["cum_evals"], grid):
        return f"aggregate grid has {cols['cum_evals'].size} rows, expected {grid.size}"
    if not all(np.all(np.isfinite(v)) for v in cols.values()):
        return "non-finite aggregate value"
    return None


def main(plan):
    from specsum import cli, harness

    probe = Probe(harness)
    tracer = None
    if plan["mode"] == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    argv = plan["argv"] + ["--out", plan["out"]]
    stdout = io.StringIO()
    w0, t0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(stdout):
        rc = tracer.call(cli.main, argv) if tracer else cli.main(argv)
    invoke_s = time.process_time() - t0
    invoke_wall_s = time.perf_counter() - w0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs = _gate_runs(probe, plan, harness)
    evals = [r.pop("evals") for r in runs]
    aggregate = None
    if rc == 0 and plan["argv"][0] != "run":
        aggregate = _aggregate_failure(stdout.getvalue().strip(), evals, harness)
    record = {
        "mode": plan["mode"], "rc": rc,
        "invoke_s": invoke_s, "invoke_wall_s": invoke_wall_s,
        "setup_s": probe.setup_s, "solve_s": invoke_s - probe.setup_s,
        "solve_wall_s": invoke_wall_s - probe.setup_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "runs": runs,
        "aggregate_failed": aggregate,
        "problem_N": getattr(probe.problem, "N", 0),
        "env": _versions(),
    }
    if tracer is not None:
        layers, checks = tracer.layer_metrics()
        record["layers"] = layers
        record["checks"] = checks
    return record


if __name__ == "__main__":
    src = os.environ["PERFBENCH_SRC"]
    sys.path.insert(0, src)
    import specsum

    if not os.path.abspath(specsum.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"invoke: specsum imported from {specsum.__file__}, not {src}")
    print(json.dumps(main(json.loads(sys.argv[1]))))
