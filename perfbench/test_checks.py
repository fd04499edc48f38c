"""Tests for the benchmark's output checker and tracer on small generated inputs."""

from __future__ import annotations

import csv
import dataclasses
import json
import subprocess
import sys

import pytest

import checks
import inputs
import run
import tracer

SMALL = {
    "transform-1d": {"rows": 2000},
    "sweep-1d-ties": {"rows": 2000},
    "transform-2d": {"rows": 2 * 5 * 5},
}


def _small_run(name: str, tmp_path, *, traced: bool = False):
    workload = dataclasses.replace(inputs.WORKLOADS[name], **SMALL[name])
    spec = inputs.generate(workload, seed=3, workdir=tmp_path)
    prefix = [tracer.__file__, str(tmp_path / "spans.json"), "--"] if traced else ["-m", "fairscore.cli"]
    proc = subprocess.run(
        [sys.executable, *prefix, *spec["argv"]], env=run.child_env(), capture_output=True, timeout=120
    )
    config = json.loads((tmp_path / "config.json").read_text())
    return workload, spec, config, proc.returncode


def _rewrite_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _perturb_last(rows, delta=1e-9):
    rows[10][-1] = repr(float(rows[10][-1]) + delta)


@pytest.mark.parametrize(
    "name, corrupt, expected",
    [
        ("transform-1d", _perturb_last, "closed-form reference"),
        ("transform-1d", lambda rows: rows.insert(1, rows.pop(5)), "row order"),
        ("transform-2d", lambda rows: rows[3].__setitem__(-1, "nan"), "not finite"),
        ("sweep-1d-ties", lambda rows: rows[1].__setitem__(1, "0.5"), "theta=0"),
        ("sweep-1d-ties", lambda rows: rows[3].__setitem__(2, "0.9"), "decay linearly"),
    ],
)
def test_checker_accepts_real_output_and_flags_corruption(tmp_path, name, corrupt, expected):
    workload, spec, config, returncode = _small_run(name, tmp_path)
    thetas = list(workload.params.get("thetas", ()))
    assert checks.check(config, workload.command, returncode, thetas) == []

    _rewrite_csv(spec["output"], corrupt)
    problems = checks.check(config, workload.command, returncode, thetas)
    assert any(expected in p for p in problems), problems


def test_checker_flags_nonzero_exit(tmp_path):
    workload, _, config, _ = _small_run("transform-2d", tmp_path)
    assert checks.check(config, workload.command, 2) == ["exit code 2"]


def test_same_seed_gives_same_inputs(tmp_path):
    workload = dataclasses.replace(inputs.WORKLOADS["sweep-1d-ties"], rows=500)
    a = inputs.generate(workload, seed=9, workdir=tmp_path / "a")["input"].read_bytes()
    b = inputs.generate(workload, seed=9, workdir=tmp_path / "b")["input"].read_bytes()
    c = inputs.generate(workload, seed=10, workdir=tmp_path / "c")["input"].read_bytes()
    assert a == b != c


def test_traced_run_records_nested_spans(tmp_path):
    _, spec, config, returncode = _small_run("transform-1d", tmp_path, traced=True)
    assert returncode == 0
    assert checks.check(config, "transform", 0) == []
    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["returncode"] == 0 and trace["missing"] == []
    ids = {s["id"] for s in trace["spans"]}
    assert all(s["parent"] is None or s["parent"] in ids for s in trace["spans"])
    assert any(s["parent"] is not None for s in trace["spans"])
    summary = tracer.summarize(trace)
    assert summary["bench.span_coverage"] >= 0.9
    assert summary["population.records"] == 2000
    assert summary["transportnd.sinkhorn_plan_s"] == 0.0


def test_count_from_changed_return_value_is_reported_missing():
    recorder = tracer.Recorder()
    traced = recorder.wrap("transportnd.sinkhorn_plan", lambda: object())
    traced()
    assert recorder.missing == ["transportnd.sinkhorn_plan:counts"]
    assert len(recorder.spans) == 1 and "counts" not in recorder.spans[0]
