"""Smoke test of the benchmark itself (toy sizes).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_unit(workload, trace, section):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])


def test_gate_counts_nonfinite_f_full_as_failed():
    good = {"f_full": [3.0, 2.0, 1.0]}
    bad = {"f_full": [3.0, float("nan"), 1.0]}
    assert workloads.gate(good, maxiter=2) is None
    assert workloads.gate(bad, maxiter=2) == "non-finite f_full"

    def record(columns):
        fp = {"label": "x", "seed": 0, "rows": 3, "cum_evals": 2,
              "grad_pass_cost": 2, "lsp_trials": 2, "f_final": 1.0}
        return {"mode": "plain", "rc": 0, "aggregate_failed": None,
                "runs": [dict(fp, failed=workloads.gate(columns, maxiter=2))]}

    plan = workloads.Prepared(workload="quad-sweep", argv=[], expected_runs=1, maxiter=2)
    attempted, failed, faults = run.check([record(good), record(bad)], plan)
    assert (attempted, failed) == (2, 1)
    assert any("non-finite" in f for f in faults)
