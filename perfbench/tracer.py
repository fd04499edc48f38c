"""Per-layer tracing from outside the library.

Run as a script, it imports ``fairscore.cli``, wraps the public functions of
each layer module, calls ``fairscore.cli.main(argv)`` once in this process and
writes the recorded spans to a JSON file:

    python3 perfbench/tracer.py SPANS.json -- transform --config cfg.json

Each wrapper is rebound under every name that references the original in any
``fairscore.*`` module namespace, so calls between modules are traced too.
Spans stay in memory until the run ends. The library itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "fairscore"
LAYERS = ("cli", "population", "metrics", "interpolation", "empirical", "transport1d", "transportnd")

# Functions that the per-layer metrics name. A target that a later change
# renames or removes is reported as missing, and its metrics read 0.
TARGETS = (
    "cli.load_csv",
    "cli.run_transform",
    "cli.run_sweep",
    "population.build_population",
    "metrics.individual_fairness_error",
    "metrics.selection_rates",
    "metrics.group_fairness_error",
    "metrics.utility_loss",
    "metrics.build_report",
    "interpolation.interpolate_scores",
    "empirical.midranks",
    "empirical.empirical_from_samples",
    "transport1d.barycenter_1d",
    "transport1d.w2_distance",
    "transportnd.barycenter_fixed_support",
    "transportnd.sinkhorn_plan",
)

# Work counts, read only from return values.
COUNTS = {
    "population.build_population": lambda pop: {
        "records": len(pop.records),
        "groups": len(pop.groups),
    },
    "transportnd.sinkhorn_plan": lambda plan: {
        "iterations": int(plan.iterations_run),
        "converged": int(bool(plan.converged)),
        "cells": int(plan.matrix.size),
    },
    "transportnd.barycenter_fixed_support": lambda measure: {"support_size": len(measure)},
}


class Recorder:
    """Collects spans in memory: id, parent id, name, start/end (ns), counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        extract = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start_ns": time.perf_counter_ns(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            if extract is not None:
                try:
                    span["counts"] = extract(result)
                except (AttributeError, TypeError):
                    if f"{name}:counts" not in self.missing:
                        self.missing.append(f"{name}:counts")
            return result

        return traced


def instrument(recorder: Recorder) -> list[str]:
    """Wrap every public function of the layer modules; return the wrapped names."""
    wrappers: dict[int, object] = {}
    names = []
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or (layer, attr) == ("cli", "main"):
                continue
            wrappers[id(obj)] = recorder.wrap(f"{layer}.{attr}", obj)
            names.append(f"{layer}.{attr}")
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    recorder.missing.extend(t for t in TARGETS if t not in names)
    return names


def summarize(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, recomputed from its spans."""
    spans = trace["spans"]
    duration = {s["id"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[s["id"]]
    total = defaultdict(float)  # inclusive seconds per function
    self_s = defaultdict(float)  # seconds minus the time child spans cover
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in spans:
        name = s["name"]
        total[name] += duration[s["id"]]
        self_s[name] += duration[s["id"]] - child_time[s["id"]]
        calls[name] += 1
        for key, value in s.get("counts", {}).items():
            counts[f"{name}:{key}"] += value
    wall = trace["wall_ns"] / 1e9
    top_level = sum(duration[s["id"]] for s in spans if s["parent"] is None)

    sinkhorn = "transportnd.sinkhorn_plan"
    iterations = counts[f"{sinkhorn}:iterations"]
    return {
        "cli.load_csv.self_s": self_s["cli.load_csv"],
        "cli.emit_s": self_s["cli.run_transform"] + self_s["cli.run_sweep"],
        "population.build_population_s": total["population.build_population"],
        "population.records": counts["population.build_population:records"],
        "population.groups": counts["population.build_population:groups"],
        "metrics.individual_fairness_error_s": total["metrics.individual_fairness_error"],
        "metrics.individual_fairness_error.calls": calls["metrics.individual_fairness_error"],
        "metrics.selection_rates_s": total["metrics.selection_rates"],
        "metrics.group_fairness_error_s": total["metrics.group_fairness_error"],
        "metrics.utility_loss_s": total["metrics.utility_loss"],
        "metrics.build_report_s": total["metrics.build_report"],
        "metrics.build_report.calls": calls["metrics.build_report"],
        "interpolation.interpolate_scores_s": total["interpolation.interpolate_scores"],
        "interpolation.interpolate_scores.calls": calls["interpolation.interpolate_scores"],
        "empirical.midranks_s": total["empirical.midranks"],
        "empirical.midranks.calls": calls["empirical.midranks"],
        "empirical.empirical_from_samples_s": total["empirical.empirical_from_samples"],
        "empirical.empirical_from_samples.calls": calls["empirical.empirical_from_samples"],
        "transport1d.barycenter_1d_s": total["transport1d.barycenter_1d"],
        "transport1d.w2_distance_s": total["transport1d.w2_distance"],
        "transport1d.w2_distance.calls": calls["transport1d.w2_distance"],
        "transportnd.barycenter_fixed_support_s": total["transportnd.barycenter_fixed_support"],
        "transportnd.sinkhorn_plan_s": total[sinkhorn],
        "transportnd.sinkhorn_plan.calls": calls[sinkhorn],
        "transportnd.sinkhorn_iterations": iterations,
        "transportnd.sinkhorn_converged_frac": (
            counts[f"{sinkhorn}:converged"] / calls[sinkhorn] if calls[sinkhorn] else 0.0
        ),
        "transportnd.sinkhorn_s_per_iter": total[sinkhorn] / iterations if iterations else 0.0,
        "transportnd.sinkhorn_cells": counts[f"{sinkhorn}:cells"],
        "transportnd.support_size": counts["transportnd.barycenter_fixed_support:support_size"],
        "bench.inprocess_wall_s": wall,
        "bench.span_coverage": top_level / wall if wall > 0 else 0.0,
        "bench.missing_targets": len(trace["missing"]),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <fairscore arguments>", file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    recorder = Recorder()
    wrapped = instrument(recorder)
    start = time.perf_counter_ns()
    returncode = cli.main(cli_argv)
    wall_ns = time.perf_counter_ns() - start
    trace = {
        "returncode": returncode,
        "wall_ns": wall_ns,
        "wrapped": wrapped,
        "missing": recorder.missing,
        "spans": recorder.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
