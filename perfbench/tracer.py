"""Per-layer tracing of one ``specsum`` invocation, installed from outside.

Each public function of a ``specsum`` module is wrapped by replacing the
attribute its callers look up:

* ``solvers`` binds ``lsp_search``, ``damp``, ``bb_coefficient`` and
  ``anchor_coefficient`` by name, so those are replaced on ``solvers``;
* ``harness`` binds ``run_solver``, ``generate_quadratic``,
  ``load_dataset`` and ``logistic_problem`` by name, so those are
  replaced on ``harness``;
* ``problems`` reaches ``kernels.*`` through the module attribute, and
  ``solvers`` reaches ``problems.*`` and ``sampling.*`` the same way, so
  those are replaced on the defining module;
* methods (``component_gradient``, ``build_problem``, the drivers'
  ``step``, ``SpectralState.update``) are replaced on their class.

Helpers cheaper than the wrapper itself (``should_resample``,
``SampleBatch``) stay unwrapped; their time is charged to the caller.

A span is (name, start, end, parent).  Spans and counts are kept in
memory; :meth:`Tracer.layer_metrics` turns them into per-layer self
times and counts after the invocation ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans, so
the self times of all layers, the root's included, sum to the root span.
"""

import os
import time
from collections import defaultdict

import numpy as np

ROOT = "cli.main"


def _quad_note(prefix):
    # (A, b, idx, x): each row reads A_i and b_i, and numpy's fancy
    # indexing writes a gathered copy of both
    def note(counts, args, result):
        idx, n = args[-2].size, args[-1].size
        counts[prefix + ".rows"] += idx
        counts[prefix + ".bytes_computed"] += idx * 2 * (n * n + n) * 8
    return note


def _logistic_note(prefix):
    # (feats, labels, lam, idx, x): one feature row plus label and margin
    def note(counts, args, result):
        idx, n = args[-2].size, args[-1].size
        counts[prefix + ".rows"] += idx
        counts[prefix + ".bytes_computed"] += idx * (n * 8 + 16)
    return note


def _data_rows(path):
    with open(path) as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#")) - 1


class Tracer:
    """Span recorder; one per traced invocation."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = [-1]
        self.counts = defaultdict(float)
        self.trace_paths = []

    # -- recording --------------------------------------------------------

    def wrap(self, fn, name, note=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                note(counts, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, note=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, note))

    def call(self, fn, *args):
        """Run ``fn`` as the root span."""
        return self.wrap(fn, ROOT)(*args)

    # -- installation -----------------------------------------------------

    def install(self):
        from specsum import harness, kernels, linesearch, problems, sampling, solvers, steplength

        def lsp_note(counts, args, res):
            counts["linesearch.trials"] += res.trials
            if res.status == linesearch.ACCEPTED:
                counts["linesearch.accepted"] += 1
            else:
                counts["linesearch.budget_exhausted"] += 1

        def draw_note(counts, args, batch):
            counts["sampling.indices_drawn"] += len(batch)

        def trace_note(counts, args, path):
            self.trace_paths.append(path)

        for attr in ("sweep_m", "compare_methods", "run_single", "rng_for_run",
                     "trace_curve", "aggregate_curves", "write_aggregate",
                     "load_instance"):
            self.patch(harness, attr, f"harness.{attr}")
        self.patch(harness, "write_trace", "harness.write_trace", trace_note)
        self.patch(harness.ExperimentSpec, "build_problem", "harness.build_problem")
        for attr in ("generate_quadratic", "load_dataset", "logistic_problem",
                     "detect_format"):
            self.patch(harness, attr, f"problems.{attr}")
        self.patch(harness, "run_solver", "solvers.run_solver")
        for cls in (solvers.SlisesDriver, solvers.SgdDriver, solvers.SvrgBbDriver,
                    solvers.SgdBbDriver):
            self.patch(cls, "step", "solvers.step")
        self.patch(solvers, "lsp_search", "linesearch.lsp_search", lsp_note)
        for attr in ("damp", "bb_coefficient", "anchor_coefficient"):
            self.patch(solvers, attr, f"steplength.{attr}")
        self.patch(steplength.SpectralState, "update", "steplength.update")
        self.patch(sampling, "uniform_draw", "sampling.uniform_draw", draw_note)
        self.patch(sampling, "ais_draw", "sampling.ais_draw", draw_note)
        self.patch(sampling, "ais_update_scores", "sampling.ais_update_scores")
        for attr in ("batch_value", "batch_gradient", "full_value", "full_gradient"):
            self.patch(problems, attr, f"problems.{attr}")
        for cls in (problems.QuadraticProblem, problems.LogisticProblem):
            self.patch(cls, "component_gradient", "problems.component_gradient")
        for kind in ("value", "gradient"):
            name = f"kernels.{kind}"
            self.patch(kernels, f"quad_{kind}", name, _quad_note(name))
            self.patch(kernels, f"logistic_{kind}", name, _logistic_note(name))

    # -- reduction --------------------------------------------------------

    def span_table(self):
        """Per span name: [calls, total (inclusive) seconds, self seconds]."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parent = np.asarray(self.parents, dtype=np.int64)
        nested = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[nested], dur[nested])
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for name, d, s in zip(self.names, dur.tolist(), (dur - covered).tolist()):
            row = table[name]
            row[0] += 1
            row[1] += d
            row[2] += s
        return table

    def calls_under(self, child, parent):
        """Number of ``child`` spans whose parent span is ``parent``."""
        names = self.names
        return sum(1 for name, p in zip(names, self.parents)
                   if name == child and p >= 0 and names[p] == parent)

    def layer_metrics(self):
        """(metrics named as in BENCHMARK.json's ``per_layer``, checks)."""
        table = self.span_table()
        c = self.counts

        def calls(name):
            return table[name][0] if name in table else 0

        def total(*names):
            return sum(table[n][1] for n in names if n in table)

        def self_s(name):
            return table[name][2] if name in table else 0.0

        layer_self = defaultdict(float)
        for name, (_, _, s) in table.items():
            layer_self[name.split(".", 1)[0]] += s

        out = {}
        for p in ("kernels.value", "kernels.gradient"):
            busy = self_s(p)
            out[f"{p}.calls"] = calls(p)
            out[f"{p}.rows"] = int(c[p + ".rows"])
            out[f"{p}.self_s"] = busy
            out[f"{p}.bytes_computed"] = int(c[p + ".bytes_computed"])
            out[f"{p}.gbps_computed"] = c[p + ".bytes_computed"] / busy / 1e9 if busy else 0.0
        for p in ("problems.batch_value", "problems.batch_gradient"):
            out[f"{p}.calls"] = calls(p)
            out[f"{p}.self_s"] = self_s(p)
        for p in ("problems.full_value", "problems.full_gradient",
                  "problems.component_gradient"):
            out[f"{p}.calls"] = calls(p)
            out[f"{p}.total_s"] = total(p)
        out["problems.generate_quadratic_s"] = total("problems.generate_quadratic")
        out["problems.load_dataset_s"] = total("problems.load_dataset")

        iterations = calls("solvers.step")
        out["solvers.runs"] = calls("solvers.run_solver")
        out["solvers.iterations"] = iterations
        out["solvers.self_s"] = layer_self["solvers"]
        out["solvers.self_us_per_iter"] = (layer_self["solvers"] / iterations * 1e6
                                           if iterations else 0.0)

        trials = int(c["linesearch.trials"])
        out["linesearch.searches"] = calls("linesearch.lsp_search")
        out["linesearch.trials"] = trials
        out["linesearch.accept_ratio"] = c["linesearch.accepted"] / trials if trials else 0.0
        out["linesearch.budget_exhausted"] = int(c["linesearch.budget_exhausted"])
        out["linesearch.self_s"] = layer_self["linesearch"]

        out["steplength.calls"] = sum(row[0] for name, row in table.items()
                                      if name.startswith("steplength."))
        out["steplength.self_s"] = layer_self["steplength"]

        out["sampling.draws"] = calls("sampling.uniform_draw") + calls("sampling.ais_draw")
        out["sampling.indices_drawn"] = int(c["sampling.indices_drawn"])
        out["sampling.draw_s"] = total("sampling.uniform_draw")
        out["sampling.ais_draw_s"] = total("sampling.ais_draw")
        out["sampling.ais_update_s"] = total("sampling.ais_update_scores")

        out["harness.self_s"] = layer_self["harness"]
        out["harness.write_trace_s"] = total("harness.write_trace")
        out["harness.trace_rows"] = sum(_data_rows(p) for p in self.trace_paths)
        out["harness.trace_bytes"] = sum(os.path.getsize(p) for p in self.trace_paths)
        out["harness.aggregate_s"] = total("harness.aggregate_curves", "harness.write_aggregate")
        out["harness.load_instance_s"] = total("harness.load_instance")

        out["cli.self_s"] = layer_self["cli"]

        checks = {
            "root_s": total(ROOT),
            "self_sum_s": sum(layer_self.values()),
            # full-index value calls made for trace reporting, never metered
            "reporting_value_calls": self.calls_under("kernels.value", "problems.full_value"),
        }
        return out, checks
