"""The per-layer tracer of ``perfbench/`` still finds every layer it patches.

``perfbench/tracer.py`` wraps each driver class's own ``step`` and the
module-level oracle, sampler and line-search functions by name.  A
refactor that moves or renames one of them breaks the benchmark's
``--trace 1`` mode; this runs a short traced ``compare`` of every method
token in a fresh process and checks the iteration count it reports.
"""

import json
import os
import subprocess
import sys

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
