"""The per-layer tracer of ``perfbench/`` still finds every layer it patches.

``perfbench/tracer.py`` wraps each driver class's own ``step`` and the
module-level oracle, sampler and line-search functions by name.  A
refactor that moves or renames one of them breaks the benchmark's
``--trace 1`` mode; this runs a short traced ``compare`` of every method
token in a fresh process and checks the iteration count it reports.  A
traced logistic ``compare`` on a sparse dataset checks the benchmark's
cross-checks of the kernel rows and line-search trials against the
traces' cost columns.
"""

import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
from tracer import Tracer
from specsum import cli, harness

inst = harness.generate_instance("quadratic", 3, 8, 0, os.path.join(out, "inst.npz"))
tracer = Tracer()
tracer.install()
argv = ["compare", "--instance", inst, "--methods",
        "slises-ais,slises-uni,slises-mod,spectral-full,sgd,svrg-bb,sgd-bb,sgd-bb-smooth",
        "--seeds", "0", "--maxiter", "5", "--out", os.path.join(out, "cmp")]
rc = tracer.call(cli.main, argv)
layers, _ = tracer.layer_metrics()
print(json.dumps({"rc": rc, "iterations": layers["solvers.iterations"],
                  "runs": layers["solvers.runs"]}))
"""


def test_traced_compare_counts_every_step(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"rc": 0, "iterations": 40, "runs": 8}


LOGISTIC_SCRIPT = r"""
import json, os, sys
root, data, out = sys.argv[1], sys.argv[2], sys.argv[3]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
from tracer import Tracer
from specsum import cli, harness

tracer = Tracer()
tracer.install()
argv = ["compare", "--dataset", data, "--methods",
        "slises-ais,slises-uni,spectral-full,sgd,svrg-bb",
        "--seeds", "0,1", "--maxiter", "6", "--S", "3", "--out", out]
rc = tracer.call(cli.main, argv)
layers, checks = tracer.layer_metrics()
traces = [harness.read_trace(path)[1] for path in tracer.trace_paths]
print(json.dumps({
    "rc": rc, "runs": layers["solvers.runs"],
    "value_rows": layers["kernels.value.rows"],
    "reporting_value_calls": checks["reporting_value_calls"],
    "trials": layers["linesearch.trials"],
    "cum_evals": sum(int(cols["cum_evals"][-1]) for cols in traces),
    "lsp_trials": sum(int(cols["lsp_trials"].sum()) for cols in traces),
    "traces": len(traces),
}))
"""


def test_traced_logistic_compare_meters_every_kernel_row(tmp_path):
    rng = np.random.default_rng(0)
    N = 30
    data = tmp_path / "data.txt"
    data.write_text("".join(
        f"{rng.choice([-1, 1])} " + " ".join(f"{j}:{rng.standard_normal():.6g}"
                                             for j in sorted(rng.choice(6, 3, replace=False) + 1))
        + "\n" for _ in range(N)))
    proc = subprocess.run(
        [sys.executable, "-c", LOGISTIC_SCRIPT, ROOT, str(data), str(tmp_path / "cmp")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    assert (r["rc"], r["runs"], r["traces"]) == (0, 10, 10)
    assert r["trials"] > 0 and r["cum_evals"] > 0
    assert r["value_rows"] - N * r["reporting_value_calls"] == r["cum_evals"]
    assert r["trials"] == r["lsp_trials"]
