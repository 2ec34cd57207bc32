#!/usr/bin/env python3
"""specsum benchmark: one workload per run, end-to-end or per-layer.

    python3 perfbench/run.py --workload quad-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (``src/specsum`` must exist).
The benchmark generates the workload's inputs from ``--seed``, then
repeats the workload's ``specsum`` invocation, each one a single
in-process ``specsum.cli.main([...])`` call in a fresh Python process,
until ``--seconds`` are used up (one invocation at a time: a closed loop
with one client).  Every run's trace passes a correctness gate, and the
cost fingerprint of every invocation must repeat exactly.

``--trace 0`` reports the end-to-end metrics (see :func:`end_to_end`).
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of the traced ones.  ``--smoke``
shrinks every workload to toy sizes.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (runs of
the solver) and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
# before numpy is first imported: the reference loops run in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# a run, invocations included, ends within this many seconds
DEADLINE_S = 170.0
# no invocation starts past this point
HARD_STOP_S = 100.0

# per run, must repeat exactly between invocations of one run: the cost
# counts and the final objective (traces are bit-identical on re-run)
FINGERPRINT = ("label", "seed", "rows", "cum_evals", "grad_pass_cost", "lsp_trials",
               "f_final")


def metric_units(section):
    """Metric names and units of one BENCHMARK.json section."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def invoke(plan, timeout):
    """Run one invocation in a fresh process; returns its JSON record."""
    env = dict(os.environ, PERFBENCH_SRC=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    env.pop("SPECSUM_BACKEND", None)
    proc = subprocess.run([sys.executable, str(HERE / "invoke.py"), json.dumps(plan)],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"invocation exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(prepared, work, seconds, traced, t_begin):
    """Invocations until ``seconds`` are used; at least one of each mode.
    A pass of the workload's reference loop runs before the first
    invocation and after each one; every record gets ``host_factor``,
    the mean CPU time of the two passes around it over the loop's
    reference time."""
    modes = ("plain", "traced") if traced else ("plain",)
    reference = calibrate.REFERENCE_S[prepared.workload]
    records = []
    t_start = time.perf_counter()
    passes = [calibrate.measure(prepared.workload)]
    last = {}
    i = 0
    while True:
        mode = modes[i % len(modes)]
        elapsed = time.perf_counter() - t_start
        if i >= len(modes) and (elapsed + last.get(mode, 0.0) > seconds
                                or elapsed > HARD_STOP_S):
            break
        out = work / f"out-{i}"
        plan = {"mode": mode, "argv": prepared.argv, "out": str(out),
                "maxiter": prepared.maxiter, "gap_tol": prepared.gap_tol}
        t0 = time.perf_counter()
        record = invoke(plan, DEADLINE_S - (t0 - t_begin))
        shutil.rmtree(out, ignore_errors=True)
        passes.append(calibrate.measure(prepared.workload))
        record["host_factor"] = (passes[-2] + passes[-1]) / 2 / reference
        records.append(record)
        last[mode] = time.perf_counter() - t0
        i += 1
    return records


def check(records, prepared):
    """Attempted runs, failed runs and the reasons the run is not correct."""
    faults = []
    attempted = failed = 0
    reference = None
    for rec in records:
        attempted += prepared.expected_runs
        bad = [r for r in rec["runs"] if r["failed"]]
        failed += len(bad) + max(0, prepared.expected_runs - len(rec["runs"]))
        faults += [f"{r['label']} seed {r['seed']}: {r['failed']}" for r in bad]
        if rec["rc"] != 0:
            faults.append(f"specsum exited {rec['rc']}")
        if rec["aggregate_failed"]:
            faults.append(rec["aggregate_failed"])
        fp = [tuple(r[k] for k in FINGERPRINT) for r in rec["runs"]]
        if reference is None:
            reference = fp
        elif fp != reference:
            faults.append(f"{rec['mode']} invocation: run fingerprint differs")
    return attempted, failed, faults


def end_to_end(records, maxiter):
    """Medians over the invocations of the run of CPU times, each
    divided by the invocation's ``host_factor``; ms/iter pools every run
    of every invocation.  Peak RSS is not scaled."""
    def scaled(key):
        return [r[key] / r["host_factor"] for r in records]

    return {
        "setup_s": statistics.median(scaled("setup_s")),
        "solve_s": statistics.median(scaled("solve_s")),
        "ms_per_iter_p50": statistics.median(
            run["seconds"] / rec["host_factor"] for rec in records
            for run in rec["runs"]) / maxiter * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def per_layer(records, faults, units):
    """Per-layer metrics of the traced invocations, with the consistency
    checks between traced and untraced runs appended to ``faults``."""
    traced = [r for r in records if r["mode"] == "traced"]
    plain = [r for r in records if r["mode"] == "plain"]
    first = traced[0]["layers"]
    metrics = {name: statistics.median_low(r["layers"][name] for r in traced)
               for name in first}
    counts = [name for name in first if units[name] == "count"]
    for rec in traced:
        faults += [f"{name} differs between traced invocations"
                   for name in counts if rec["layers"][name] != first[name]]
        runs = rec["runs"]
        lay, chk = rec["layers"], rec["checks"]
        if lay["linesearch.trials"] != sum(r["lsp_trials"] for r in runs):
            faults.append("linesearch.trials differs from the traces' lsp_trials")
        if lay["solvers.iterations"] != sum(r["rows"] - 1 for r in runs):
            faults.append("solvers.iterations differs from the traces' rows")
        metered = lay["kernels.value.rows"] - rec["problem_N"] * chk["reporting_value_calls"]
        if metered != sum(r["cum_evals"] for r in runs):
            faults.append("metered kernels.value.rows differs from cum_evals")
        if abs(chk["self_sum_s"] - chk["root_s"]) > 0.01 * chk["root_s"]:
            faults.append("layer self times do not sum to the root span")
    metrics["cost.cum_evals"] = sum(r["cum_evals"] for r in traced[0]["runs"])
    metrics["cost.grad_pass_cost"] = sum(r["grad_pass_cost"] for r in traced[0]["runs"])
    solve_s = statistics.median(r["solve_s"] / r["host_factor"] for r in plain)
    metrics["trace.overhead_s"] = statistics.median(
        r["solve_s"] / r["host_factor"] for r in traced) - solve_s
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes")
    args = parser.parse_args(argv)

    t_begin = time.perf_counter()
    if not (SRC / "specsum" / "cli.py").is_file():
        print(f"perfbench: no specsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    units = metric_units("per_layer" if args.trace else "end_to_end")

    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prepared = workloads.prepare(wl, wl.smoke if args.smoke else wl.full,
                                     args.seed, work)
        records = measure(prepared, work, args.seconds, bool(args.trace), t_begin)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed, faults = check(records, prepared)
    if not all(rec["runs"] for rec in records):
        print(f"perfbench: an invocation completed no run: {faults}", file=sys.stderr)
        return 3
    if args.trace:
        values = per_layer(records, faults, units)
        reporting = values["problems.full_value.total_s"] + values["problems.full_gradient.total_s"]
        # span times are wall times of the traced invocations
        solve_s = statistics.median(r["solve_wall_s"] for r in records if r["mode"] == "traced")
        count_note = (f"{sum(r['mode'] == 'traced' for r in records)} traced invocations; "
                      f"share of traced wall solve time {solve_s:.4g} s: "
                      f"kernels.value {values['kernels.value.self_s'] / solve_s:.1%}, "
                      f"kernels.gradient {values['kernels.gradient.self_s'] / solve_s:.1%}, "
                      f"reporting {reporting / solve_s:.1%}")
    else:
        values = end_to_end(records, prepared.maxiter)
        count_note = (f"{len(records)} invocations; ms_per_iter_p50 is the median over "
                      f"{prepared.expected_runs} runs of each of them")

    env = records[0]["env"]
    print(f"# workload {wl.name} seed {args.seed}: {wl.why}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {count_note}")
    print("# solve wall s / cpu s / host_factor per invocation: " + " ".join(
        f"{r['mode'][0]}{r['solve_wall_s']:.4g}/{r['solve_s']:.4g}/{r['host_factor']:.3f}"
        for r in records))
    if any(r["invoke_s"] > 1.05 * r["invoke_wall_s"] for r in records):
        print("# WARN CPU time exceeds wall time: specsum ran more than one thread, "
              "so CPU time no longer stands for its wall time")
    for fault in dict.fromkeys(faults):
        print(f"# FAIL {fault}")
    for name, unit in units.items():
        print(f"{name:<36} {values[name]:>16.6g} {unit}")
    print(f"{'runs_failed':<36} {failed / attempted:>16.6g} share of {attempted} runs")
    result = {
        "correct": not faults and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
