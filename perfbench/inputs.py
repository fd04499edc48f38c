"""Seeded input generator for the benchmark workloads.

The generator uses numpy only and never goes through ``fairscore.synth``, so a
change to the library's own synthetic generator cannot change what the
benchmark measures. The same seed gives byte-identical input files.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fairscore subcommand
    rows: int  # input rows
    why: str
    params: dict = field(default_factory=dict)


# Row counts are scaled down from 200k / 100k / 2x500 so that one untraced run
# takes about 3.5 s on a 2-vCPU Xeon VM and a 30 s measuring window holds about
# eight runs; the share of time each layer takes stays close to full size.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="transform-1d",
            command="transform",
            rows=100_000,
            why="plain production run: tie-free 1-D scores, 2 groups, one pass-through "
            "text column; CSV ingest, the inversion-count metric and CSV egress dominate",
            # group -> (share of rows, mean, sd)
            params={"groups": {"F": (0.45, 0.46, 0.12), "M": (0.55, 0.56, 0.10)}},
        ),
        Workload(
            name="sweep-1d-ties",
            command="sweep",
            rows=50_000,
            why="loads once and runs the metrics layer once per theta on heavily tied "
            "scores in 8 unequal groups; the only workload on selection_rates and tie paths",
            params={
                # (sex, band) -> (share of rows, mean, sd); smallest group is 2%
                "groups": {
                    ("F", "a"): (0.30, 0.42, 0.15),
                    ("F", "b"): (0.20, 0.50, 0.12),
                    ("F", "c"): (0.12, 0.38, 0.18),
                    ("F", "d"): (0.02, 0.60, 0.08),
                    ("M", "a"): (0.16, 0.55, 0.14),
                    ("M", "b"): (0.10, 0.47, 0.10),
                    ("M", "c"): (0.06, 0.65, 0.16),
                    ("M", "d"): (0.04, 0.35, 0.11),
                },
                "decimals": 2,
                "thetas": (0.0, 0.25, 0.5, 0.75, 1.0),
            },
        ),
        Workload(
            name="transform-2d",
            command="transform",
            rows=2 * 14 * 14,
            why="entropic n-D path (Sinkhorn and Bregman barycenter) on 2 groups of 2-D "
            "scores at default epsilon/tol; ingest and metrics are negligible",
        ),
    ]
}


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    # the stream depends on the workload's name only, so adding a workload
    # leaves the inputs of the others unchanged
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_rows(path: Path, header: list[str], columns: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(fields) for fields in zip(*columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _normal_by_group(rng, labels, stats, mask=None) -> np.ndarray:
    """One normal draw per row from its group's (mean, sd), or only where ``mask``."""
    out = np.empty(labels.size)
    for g, (mean, sd) in enumerate(stats):
        rows = labels == g if mask is None else mask & (labels == g)
        out[rows] = rng.normal(mean, sd, int(rows.sum()))
    return out if mask is None else out[mask]


def _group_labels(rng: np.random.Generator, shares: list[float], n: int) -> np.ndarray:
    """Exact group sizes from the shares, in shuffled row order."""
    sizes = np.floor(np.asarray(shares) * n).astype(int)
    sizes[0] += n - sizes.sum()
    labels = np.repeat(np.arange(len(shares)), sizes)
    rng.shuffle(labels)
    return labels


def _ids(rng: np.random.Generator, n: int) -> list[str]:
    return [f"u{i:07d}" for i in rng.permutation(n)]


def generate(workload: Workload, seed: int, workdir: Path) -> dict:
    """Write the workload's input CSV and config into ``workdir``.

    Returns the CLI argv (without the program name) and the paths the checker
    reads.
    """
    rng = _rng(workload, seed)
    n = workload.rows
    workdir.mkdir(parents=True, exist_ok=True)
    input_csv = workdir / "input.csv"
    output = workdir / "output.csv"
    report = workdir / "report.json"
    groups = workload.params.get("groups", {})
    keys = list(groups)
    config = {
        "input": str(input_csv),
        "id_column": "id",
        "theta": 1.0,
        "output": str(output),
    }
    argv = [workload.command]

    if workload.name == "transform-1d":
        labels = _group_labels(rng, [groups[k][0] for k in keys], n)
        stats = [groups[k][1:] for k in keys]
        scores = _normal_by_group(rng, labels, stats)
        while True:  # redraw exact duplicates so the input is tie-free
            _, first, counts = np.unique(scores, return_index=True, return_counts=True)
            if (counts == 1).all():
                break
            dup = np.ones(n, dtype=bool)
            dup[first[counts == 1]] = False
            scores[dup] = _normal_by_group(rng, labels, stats, dup)
        notes = [f"note {k}" for k in rng.integers(0, 1000, n)]
        header = ["id", "group", "score", "note"]
        columns = [_ids(rng, n), [keys[g] for g in labels], [_fmt(s) for s in scores], notes]
        config.update(score_columns=["score"], group_columns=["group"], report=str(report))
    elif workload.name == "sweep-1d-ties":
        labels = _group_labels(rng, [groups[k][0] for k in keys], n)
        scores = _normal_by_group(rng, labels, [groups[k][1:] for k in keys])
        scores = np.round(np.clip(scores, 0.0, 1.0), workload.params["decimals"])
        header = ["id", "sex", "band", "score"]
        columns = [
            _ids(rng, n),
            [keys[g][0] for g in labels],
            [keys[g][1] for g in labels],
            [_fmt(s) for s in scores],
        ]
        config.update(score_columns=["score"], group_columns=["sex", "band"])
        argv += ["--thetas", ",".join(_fmt(t) for t in workload.params["thetas"])]
        argv += ["--top-k", str(n // 10)]
    elif workload.name == "transform-2d":
        # Each group is a jittered side x side grid on the unit square pushed
        # through a smooth map. Stratified points keep the min-max normalisation,
        # and so the Sinkhorn iteration count, nearly the same for every seed;
        # i.i.d. Gaussian clouds of this size move it by +-25% between seeds.
        side = math.isqrt(n // 2)
        if 2 * side * side != n:
            raise ValueError("transform-2d needs rows = 2 * side**2")
        cells = np.arange(side * side)
        u, v = [(axis + rng.random(side * side)) / side for axis in np.divmod(cells, side)]
        group_a = np.column_stack([0.2 + 0.5 * u, 0.3 + 0.4 * v + 0.1 * u])
        u, v = [(axis + rng.random(side * side)) / side for axis in np.divmod(cells, side)]
        group_b = np.column_stack([0.35 + 0.45 * u**1.5, 0.25 + 0.5 * v**0.8])
        labels = np.repeat([0, 1], side * side)
        order = rng.permutation(n)
        points = np.vstack([group_a, group_b])[order]
        header = ["id", "group", "s1", "s2"]
        columns = [
            _ids(rng, n),
            [("A", "B")[g] for g in labels[order]],
            [_fmt(x) for x in points[:, 0]],
            [_fmt(x) for x in points[:, 1]],
        ]
        config.update(score_columns=["s1", "s2"], group_columns=["group"], report=str(report))
    else:
        raise ValueError(f"unknown workload {workload.name!r}")

    _write_rows(input_csv, header, columns)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {
        "argv": argv + ["--config", str(config_path)],
        "input": input_csv,
        "output": output,
        "report": report if "report" in config else None,
    }
