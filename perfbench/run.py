"""fairscore benchmark.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs the real ``fairscore`` CLI from ``src/`` as one child process at a time on
inputs generated from ``--seed``, checks every output, and prints one line per
metric (median, quartiles, sample count) followed by a JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced runs. ``--trace 1``
alternates untraced runs with traced in-process runs (see tracer.py) and
reports the per-layer metrics. Full results, with run metadata and the spans
of one traced run, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
RESULTS = ROOT / "perfbench" / "results"

SETUP_SAMPLES = 5
MIN_LAPS = 3
HARD_LIMIT_S = 100.0  # keeps a whole run under 180 s when one lap is slow
TIMEOUT_S = 60.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("s_per_iter"):
        return "s/iter"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_coverage")):
        return "frac"
    return "count"


class Child:
    """Runs one child process to completion and reports its wall time and rusage."""

    def __init__(self, env: dict, logdir: Path):
        self.env = env
        self.logdir = logdir

    def run(self, argv: list[str]) -> dict:
        with open(self.logdir / "stdout.txt", "wb") as out, open(self.logdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err, cwd=ROOT)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "returncode": proc.returncode,
            "timed_out": wall >= TIMEOUT_S,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }

    def stderr_tail(self) -> str:
        return (self.logdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]


def child_env() -> dict:
    """The caller's environment, thread settings untouched, with src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_metadata(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        git_sha = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def file_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def warm_up(child: Child) -> None:
    """Import the CLI once, which also writes bytecode caches in a fresh checkout,
    and refuse to measure a fairscore other than the one under src/."""
    probe = child.logdir / "where.txt"
    code = f"import fairscore.cli, pathlib; pathlib.Path({str(probe)!r}).write_text(fairscore.__file__)"
    result = child.run([sys.executable, "-c", code])
    where = probe.read_text(encoding="utf-8") if probe.exists() else ""
    if result["returncode"] != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"fairscore.cli is not importable from {SRC}: {child.stderr_tail()}")


def measure_setup(child: Child) -> list[float]:
    """Wall time of a fresh interpreter importing the CLI module: the fixed cost per run."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        result = child.run([sys.executable, "-c", "import fairscore.cli"])
        if result["returncode"] != 0:
            raise RuntimeError(f"importing fairscore.cli failed: {child.stderr_tail()}")
        samples.append(result["wall_s"])
    return samples


class Checker:
    """Checks the first good output in full; later ones must be byte-identical to it."""

    def __init__(self, workload: inputs.Workload, spec: dict, child: Child):
        self.workload = workload
        self.config = json.loads(Path(spec["argv"][-1]).read_text(encoding="utf-8"))
        self.thetas = list(workload.params.get("thetas", ()))
        self.outputs = [spec["output"]] + ([spec["report"]] if spec["report"] else [])
        self.child = child
        self.reference_digest = None
        self.attempted = 0
        self.failures: list[dict] = []

    def accept(self, result: dict, label: str) -> bool:
        self.attempted += 1
        if result["timed_out"]:
            problems = [f"timed out after {TIMEOUT_S} s"]
        elif self.reference_digest is None or result["returncode"] != 0:
            problems = checks.check(
                self.config, self.workload.command, result["returncode"], self.thetas
            )
            if not problems:
                self.reference_digest = file_digest(self.outputs)
        elif file_digest(self.outputs) != self.reference_digest:
            problems = ["output differs from the first checked output"]
        else:
            problems = []
        if problems:
            self.failures.append(
                {"run": label, "problems": problems, "stderr": self.child.stderr_tail()}
            )
        result["output_mb"] = sum(p.stat().st_size for p in self.outputs if p.exists()) / 2**20
        for path in self.outputs:
            path.unlink(missing_ok=True)
        return not problems


def run_workload(workload: inputs.Workload, seed: int, seconds: int, trace: bool) -> dict:
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run_workload(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    spec = inputs.generate(workload, seed, workdir)
    child = Child(child_env(), workdir)
    warm_up(child)
    setup = measure_setup(child)
    checker = Checker(workload, spec, child)

    cli_argv = [sys.executable, "-m", "fairscore.cli", *spec["argv"]]
    spans_path = workdir / "spans.json"
    traced_argv = [sys.executable, tracer.__file__, str(spans_path), "--", *spec["argv"]]
    untraced, traced = [], []
    start = time.perf_counter()
    laps = 0
    while True:
        result = child.run(cli_argv)
        result["ok"] = checker.accept(result, f"untraced {laps}")
        untraced.append(result)
        if trace:
            result = child.run(traced_argv)
            spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
            if spans is not None:
                result["returncode"] = result["returncode"] or spans["returncode"]
            if checker.accept(result, f"traced {laps}") and spans is not None:
                traced.append(spans)
            spans_path.unlink(missing_ok=True)
        laps += 1
        next_end = (time.perf_counter() - start) * (laps + 1) / laps
        # stop when the next lap would end past the window (past the hard limit
        # while fewer than MIN_LAPS laps ran), or when every run fails
        if next_end > seconds and (laps >= MIN_LAPS or next_end > HARD_LIMIT_S):
            break
        if laps >= MIN_LAPS and not any(r["ok"] for r in untraced):
            break

    # time the good runs; if none was good the result is not correct anyway
    timed = [r for r in untraced if r["ok"]] or untraced
    walls = [r["wall_s"] for r in timed]
    stats = {
        "wall_s": quartiles(walls),
        "rows_per_s": quartiles([workload.rows / w for w in walls]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in timed]),
        "setup_s": quartiles(setup),
    }
    units = END_TO_END_UNITS
    if trace:
        empty = {"spans": [], "wall_ns": 0, "missing": list(tracer.TARGETS)}
        summaries = [tracer.summarize(t) for t in traced or [empty]]
        layers = {name: [s[name] for s in summaries] for name in summaries[0]}
        layers["cli.input_mb"] = [spec["input"].stat().st_size / 2**20]
        layers["cli.output_mb"] = [r["output_mb"] for r in timed]
        layers["cli.cpu_s"] = [r["cpu_s"] for r in timed]
        inprocess = statistics.median(layers["bench.inprocess_wall_s"])
        untraced_work = stats["wall_s"]["median"] - stats["setup_s"]["median"]
        layers["bench.trace_overhead_s"] = [inprocess - untraced_work]
        stats = {name: quartiles(values) for name, values in sorted(layers.items())}
        units = {name: per_layer_unit(name) for name in stats}

    return {
        "workload": workload.name,
        "why": workload.why,
        "rows": workload.rows,
        "trace": int(trace),
        "seconds": seconds,
        "meta": run_metadata(seed),
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "stats": stats,
        "units": units,
        "missing": traced[0]["missing"] if traced else [],
        "spans": traced[0]["spans"] if traced else [],
    }


def format_stats(result: dict) -> list[str]:
    lines = [
        f"# workload {result['workload']} ({result['rows']} rows, trace {result['trace']}): "
        f"{result['why']}",
        "# meta " + json.dumps(result["meta"], sort_keys=True),
    ]
    for name, st in result["stats"].items():
        lines.append(
            f"{name:42s} {st['median']:.6g} {result['units'][name]}"
            f"  [q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']}]"
        )
    lines.append(
        f"{'failed_frac':42s} {result['failed'] / result['attempted']:.6g} frac"
        f"  ({result['failed']} of {result['attempted']} invocations)"
    )
    for failure in result["failures"]:
        lines.append(f"# FAILED {failure['run']}: {'; '.join(failure['problems'])}")
    for name in result["missing"]:
        lines.append(f"# missing trace target {name}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fairscore benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *inputs.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="measuring window per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fairscore" / "cli.py").is_file():
        print(f"error: no fairscore sources under {SRC}", file=sys.stderr)
        return 2
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(parents=True, exist_ok=True)
    for name in names:
        try:
            result = run_workload(inputs.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print("\n".join(format_stats(result)))
        metrics = {
            metric: {"value": st["median"], "unit": result["units"][metric]}
            for metric, st in result["stats"].items()
        }
        line = {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
