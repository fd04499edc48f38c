"""Output checker: decides whether one CLI invocation produced a correct result.

Every check here is independent of the library: it reads the input and output
files with the ``csv`` module and recomputes the 1-D transform in closed form
with numpy. ``check`` returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

GRID_SIZE = 1000  # the CLI's default quantile grid size m
REFERENCE_TOL = 1e-12
SWEEP_HEADER = [
    "theta",
    "individual_fairness_error",
    "group_fairness_w2",
    "group_fairness_ks",
    "utility_loss_mean_abs",
    "utility_loss_w2",
    "selection_ratio",
]


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, list(reader)


def reference_fair_1d(raw: np.ndarray, codes: np.ndarray, theta: float, m: int = GRID_SIZE):
    """Closed-form 1-D transform: Hazen quantile grid, size-weighted mean, midrank lookup."""
    n = raw.size
    ranks = (np.arange(1, m + 1) - 0.5) / m
    groups = np.unique(codes)
    barycenter = np.zeros(m)
    sorted_by_group = {}
    for g in groups:
        values = np.sort(raw[codes == g])
        # Hazen positions (i - 0.5)/n, accumulated as a running sum of 1/n as the
        # library defines them: the exact quotient differs by ~1e-13 in rank,
        # which the steep tails of the quantile function amplify past 1e-12.
        w = np.full(values.size, 1.0 / values.size)
        positions = np.cumsum(w) - w / 2.0
        barycenter += (values.size / n) * np.interp(ranks, positions, values)
        sorted_by_group[g] = values
    fair = np.empty(n)
    for g in groups:
        mask = codes == g
        s = raw[mask]
        values = sorted_by_group[g]
        left = np.searchsorted(values, s, side="left")
        right = np.searchsorted(values, s, side="right")
        target = np.interp((left + right) / (2.0 * values.size), ranks, barycenter)
        fair[mask] = (1.0 - theta) * s + theta * target
    return fair


def _group_codes(header: list[str], rows: list[list[str]], group_columns: list[str]) -> np.ndarray:
    cols = [header.index(c) for c in group_columns]
    keys = ["\x1f".join(row[c] for c in cols) for row in rows]
    return np.unique(keys, return_inverse=True)[1]


def _check_transform(config: dict, problems: list[str]) -> None:
    in_header, in_rows = _read_csv(Path(config["input"]))
    out_header, out_rows = _read_csv(Path(config["output"]))
    dim = len(config["score_columns"])
    fair_names = ["fair_score"] if dim == 1 else [f"fair_score_{k + 1}" for k in range(dim)]
    if out_header != in_header + fair_names:
        problems.append(f"output header {out_header} is not input header + {fair_names}")
        return
    if len(out_rows) != len(in_rows):
        problems.append(f"output has {len(out_rows)} rows, input has {len(in_rows)}")
        return
    width = len(in_header)
    for i, (src, out) in enumerate(zip(in_rows, out_rows)):
        if out[:width] != src:
            problems.append(f"row {i + 2}: original columns or row order not preserved")
            return
    try:
        fair = np.array([[float(x) for x in out[width:]] for out in out_rows])
    except ValueError as exc:
        problems.append(f"fair column is not numeric: {exc}")
        return
    if fair.shape != (len(in_rows), dim) or not np.all(np.isfinite(fair)):
        problems.append("fair columns are missing or not finite")
        return

    report = json.loads(Path(config["report"]).read_text(encoding="utf-8"))
    for name in ("utility_loss_mean_abs", "utility_loss_w2"):
        if not (isinstance(report.get(name), (int, float)) and math.isfinite(report[name])):
            problems.append(f"report field {name} is not finite")
    if dim != 1:
        return

    score_col = in_header.index(config["score_columns"][0])
    raw = np.array([float(row[score_col]) for row in in_rows])
    fair = fair[:, 0]
    codes = _group_codes(in_header, in_rows, config["group_columns"])
    order = np.lexsort((raw, codes))
    same_group = codes[order][1:] == codes[order][:-1]
    raw_step = np.diff(raw[order])
    fair_step = np.diff(fair[order])
    if np.any(same_group & (fair_step < 0)):
        problems.append("within-group monotonicity violated")
    if np.any(same_group & (raw_step == 0) & (fair_step != 0)):
        problems.append("equal raw scores in one group map to different fair scores")
    gap = float(np.max(np.abs(fair - reference_fair_1d(raw, codes, float(config["theta"])))))
    if not gap <= REFERENCE_TOL:
        problems.append(f"fair scores differ from the closed-form reference by {gap:.3e}")


def _check_sweep(config: dict, thetas: list[float], problems: list[str]) -> None:
    header, rows = _read_csv(Path(config["output"]))
    if header != SWEEP_HEADER:
        problems.append(f"sweep header {header} is not {SWEEP_HEADER}")
        return
    if len(rows) != len(thetas):
        problems.append(f"sweep has {len(rows)} rows for {len(thetas)} thetas")
        return
    try:
        table = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        problems.append(f"sweep value is not numeric: {exc}")
        return
    if not np.all(np.isfinite(table)):
        problems.append("sweep values are not finite")
        return
    if not np.array_equal(table[:, 0], np.asarray(thetas)):
        problems.append("sweep theta column does not match the requested thetas")
        return
    by_theta = {t: r for t, r in zip(thetas, table)}
    if 0.0 not in by_theta or 1.0 not in by_theta:
        problems.append("sweep check needs theta 0 and theta 1 in the list")
        return
    zero = by_theta[0.0]
    if zero[1] != 0.0 or zero[4] != 0.0 or zero[5] != 0.0:
        problems.append("theta=0 row must have IFE = 0 and utility loss = 0")
    # Each group's fair quantile function is (1-t)*Q_g + t*T_g, so the pairwise
    # grid-W2 at t differs from (1-t)*W2(0) by at most t*W2(1) (triangle
    # inequality); W2(1) is the residual that raw-score ties leave at parity.
    w2_0, w2_1 = zero[2], by_theta[1.0][2]
    for t, row in by_theta.items():
        if abs(row[2] - (1.0 - t) * w2_0) > t * w2_1 + 1e-12:
            problems.append(f"group_fairness_w2 at theta={t} does not decay linearly")
        if not (0.0 <= row[1] <= 1.0 and 0.0 <= row[6] <= 1.0):
            problems.append(f"IFE or selection ratio at theta={t} outside [0, 1]")


def check(config: dict, command: str, returncode: int, thetas: list[float] | None = None) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    problems: list[str] = []
    try:
        if command == "sweep":
            _check_sweep(config, thetas or [], problems)
        else:
            _check_transform(config, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return problems
