"""Batch pipeline: CSV in, fair scores and reports out.

Subcommands: transform, audit, sweep, barycenter, synth, verify.
Exit codes: 0 success, 1 runtime/verification failure or out of memory, 2 validation error.

Each command loads, solves and emits once: ``main`` validates the config,
``load_csv`` reads the input, and no file is written before everything the
command writes has been computed. ``audit`` is ``transform`` without the
fair-score CSV (``run_transform(cfg, audit=True)``), and ``synth`` writes the
columns of ``generate_synthetic``.

A JSON config file sets the ``RunConfig`` fields, and flags override it. Each
field declares its JSON parser and its flag, if any (see ``_key``), so
``load_config``, the flags and the overrides are loops over ``fields(RunConfig)``.
A JSON ``null`` leaves a key at its default; an unknown key exits 2.

Data flows as columns. ``load_csv`` takes the id, group and score columns out
of the input and builds the population from them (see ``population``); no
per-row object is made. The input is read one of two ways:

- The line path. The text holds no ``"``, no ``\\r`` and no NUL, every line has
  the header's number of fields (at least 2), no line is longer than
  ``csv.field_size_limit()`` and every value is good. Then each record is one
  line, and its fields are the line split at commas. The columns are slices
  of one ``split(",")`` of the joined lines, and the lines are kept for output.
- The ``csv.reader`` path, for every other input and for every input that
  fails a check of the line path. It keeps the parsed rows and reports the
  first bad row.

``transform`` writes each fair score as ``format(v, ".17g")``. On the line
path it writes each input line, a comma and its fair scores. ``csv.writer``
would write the same bytes: it quotes a field only when it holds a comma, a
quote or a line break, and neither these fields nor the numbers do. On the
``csv.reader`` path it appends the fair scores to the rows and writes them
with ``csv.writer.writerows``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import combinations, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .empirical import DEFAULT_GRID_SIZE, empirical_from_samples
from .errors import FairscoreError, OracleGuardError, ValidationError
from .interpolation import (
    FairScores,
    ThetaPolicy,
    apply_theta,
    barycenter_targets,
    interpolate_scores,
)
from .metrics import FairnessReport, SelectionRule, build_report, individual_fairness_error
from .oracle import (
    BRUTEFORCE_MAX_N,
    BRUTEFORCE_MAX_PAIRS,
    COORDINATE_MAX_M,
    LP_MAX_SUPPORT,
    PAIRWISE_MAX_N,
    barycenter_coordinate_oracle,
    individual_fairness_error_naive,
    lp_transport_exact,
    ot_cost_bruteforce,
)
from .population import GroupKey, ScoredPopulation, build_population, validate_population
from .synth import Beta, Gaussian, GroupSpec, Uniform, generate_synthetic
from .transport1d import Barycenter1D, barycenter_1d, w2_distance
from .transportnd import (
    BregmanBarycenter,
    barycenter_targets_nd,
    compute_barycenter_nd,
    group_measures,
    sinkhorn_plan,
    squared_cost_matrix,
    validate_solver_params,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _numbered(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(count)]


WEIGHT_MODES = ("size", "uniform", "explicit")

_DISTRIBUTIONS = {
    "gaussian": (Gaussian, ("mean", "sd")),
    "beta": (Beta, ("a", "b")),
    "uniform": (Uniform, ("lo", "hi")),
}


def _cast(name: str, cast, value):
    """``cast(value)``, with a bad value reported as a ValidationError naming ``name``.

    JSON ``true``/``false`` is no number, an integer field takes no fraction
    (nor an infinity) and a string field must hold a string.
    """
    wrong_type = (
        isinstance(value, bool)
        or (cast is str and not isinstance(value, str))
        or (cast is int and isinstance(value, float) and not value.is_integer())
    )
    if not wrong_type:
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{name} value {value!r} is not a valid {cast.__name__}")


def _object(name: str, value, keys=()) -> dict:
    """``value`` if it is a JSON object holding every key in ``keys``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object, got {value!r}")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValidationError(f"{name} {value!r} needs the key(s) {', '.join(missing)}")
    return value


def _list(name: str, value) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def _strings(name: str, value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{name} must be a list of strings, got {value!r}")
    return value


def _scalar(key: str, value, cast):
    return _cast(f"config key {key!r}", cast, value)


_STR, _INT, _FLOAT = (partial(_scalar, cast=cast) for cast in (str, int, float))


def _group_entries(section: str, value, value_field: str) -> dict[GroupKey, float]:
    out = {}
    for entry in _list(section, value):
        _object(f"{section} entry", entry, ("group", value_field))
        key = GroupKey(tuple(_strings(f"{section} group", entry["group"])))
        out[key] = _cast(f"{section} {value_field}", float, entry[value_field])
    return out


def _parse_synth(key: str, raw) -> tuple[list[GroupSpec], int]:
    _object(key, raw)
    specs = []
    for g in _list("synth groups", raw.get("groups", [])):
        _object("synth group", g, ("key", "size", "dims"))
        dims = []
        for d in _list("synth group dims", g["dims"]):
            kind = _object("synth dimension", d, ("type",))["type"]
            if not isinstance(kind, str) or kind not in _DISTRIBUTIONS:
                raise ValidationError(f"unknown synthetic distribution type {kind!r}")
            cls, params = _DISTRIBUTIONS[kind]
            _object(f"{kind} dimension", d, params)
            dims.append(cls(*(_cast(f"{kind} {p}", float, d[p]) for p in params)))
        specs.append(
            GroupSpec(
                key=GroupKey(tuple(_strings("synth group key", g["key"]))),
                size=_cast("synth group size", int, g["size"]),
                dims=tuple(dims),
            )
        )
    return specs, _cast("synth seed", int, raw.get("seed", 0))


def _comma_list(text: str) -> list[str]:
    return [c.strip() for c in text.split(",")]


def _key(default, parse, flag=None, help=None, **argparse_kw):
    """A config key: its default, JSON parser ``parse(key, value)``, flag and argparse kwargs."""
    meta = {"parse": parse, "flag": flag, "argparse": dict(argparse_kw, help=help)}
    if isinstance(default, (list, dict)):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class RunConfig:
    """The settings of one run. Each field is a config key; ``_key`` declares it."""

    input: str | None = _key(None, _STR, "--input", "input CSV path")
    output: str | None = _key(None, _STR, "--output", "output path")
    report: str | None = _key(None, _STR, "--report", "JSON report path (default: stdout)")
    score_columns: list[str] = _key(
        ["score"], _strings, "--score-columns", "comma-separated score columns", type=_comma_list
    )
    group_columns: list[str] = _key(
        ["group"], _strings, "--group-columns", "comma-separated group columns", type=_comma_list
    )
    id_column: str | None = _key(None, _STR, "--id-column", "column holding unique record ids")
    theta: float = _key(1.0, _FLOAT, "--theta", "default theta in [0, 1]", type=float)
    grid_size: int = _key(DEFAULT_GRID_SIZE, _INT, "--grid-size", "quantile grid size m", type=int)
    weight_mode: str = _key("size", _STR, "--weight-mode", choices=WEIGHT_MODES)
    epsilon: float = _key(0.01, _FLOAT, "--epsilon", "entropic regularization (n-D)", type=float)
    tol: float = _key(1e-6, _FLOAT, "--tol", "solver tolerance (n-D)", type=float)
    max_iter: int = _key(10000, _INT, "--max-iter", "solver iteration cap (n-D)", type=int)
    min_group_size: int = _key(100, _INT, "--min-group-size", type=int)
    seed: int = _key(0, _INT, "--seed", "seed for support subsampling", type=int)
    selection_threshold: float | None = _key(
        None, _FLOAT, "--threshold", "selection threshold", type=float, metavar="THRESHOLD"
    )
    selection_top_k: int | None = _key(
        None, _INT, "--top-k", "selection top-k", type=int, metavar="TOP_K"
    )
    theta_overrides: dict[GroupKey, float] = _key({}, partial(_group_entries, value_field="theta"))
    explicit_weights: dict[GroupKey, float] = _key(
        {}, partial(_group_entries, value_field="weight")
    )
    synth: tuple[list[GroupSpec], int] | None = _key(None, _parse_synth)  # (groups, seed)

    def validate(self) -> None:
        for name in ("score_columns", "group_columns"):
            if not getattr(self, name):
                raise ValidationError(f"{name} must name at least one column")
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError(f"theta {self.theta} outside [0, 1]")
        for key, theta in self.theta_overrides.items():
            if not 0.0 <= theta <= 1.0:
                raise ValidationError(f"theta override {theta} for group {key} outside [0, 1]")
        if self.grid_size < 2:
            raise ValidationError("grid_size must be at least 2")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValidationError(f"unknown weight_mode {self.weight_mode!r}")
        if self.weight_mode == "explicit" and not self.explicit_weights:
            raise ValidationError("weight_mode 'explicit' requires explicit_weights")
        for key, weight in self.explicit_weights.items():
            if not math.isfinite(weight):
                raise ValidationError(f"explicit weight {weight} for group {key} is not finite")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.selection_threshold is not None and self.selection_top_k is not None:
            raise ValidationError("configure at most one of selection threshold and top-k")
        self.selection_rule()  # a NaN threshold is rejected here
        validate_solver_params(self.epsilon, self.tol, self.max_iter)

    def selection_rule(self) -> SelectionRule | None:
        if self.selection_threshold is not None:
            return SelectionRule(threshold=self.selection_threshold)
        if self.selection_top_k is not None:
            return SelectionRule(top_k=self.selection_top_k)
        return None

    def theta_policy(self) -> ThetaPolicy:
        return ThetaPolicy(default_theta=self.theta, overrides=dict(self.theta_overrides))


def load_config(path: str) -> RunConfig:
    """The settings in a JSON config file; a ``null`` value leaves its key at the default."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # also a non-UTF-8 file and an over-long integer
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    _object(f"config file {path}", raw)
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
    unknown = raw.keys() - parsers.keys()
    if unknown:
        raise ValidationError(f"config file {path} has unknown key(s) {', '.join(sorted(unknown))}")
    return RunConfig(**{k: parsers[k](k, v) for k, v in raw.items() if v is not None})


# ---------------------------------------------------------------------------
# CSV ingestion / emission


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector; restore the caller's setting on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_csv(cfg: RunConfig) -> tuple[list[str], list, ScoredPopulation]:
    """Read the input CSV once and build the population from its columns.

    Returns the header, the records for pass-through on output (the data
    lines on the line path, the parsed rows on the ``csv.reader`` path) and
    the population. Each needed column is parsed with one ``map`` and the
    whole table is checked with vectorized tests. Only when a test fails are
    the rows scanned one by one, so that the error names the first bad row.
    The cyclic garbage collector is paused meanwhile.
    """
    if cfg.input is None:
        raise ValidationError("no input file configured")
    # the records and columns hold only strings, so there are no cycles to collect
    with _gc_paused():
        # the text goes to _load_lines alone, which drops it once it is split
        loaded = _load_lines(_read_text(cfg.input), cfg)
        header, records, columns = loaded or _load_rows(cfg)
        pop = build_population(*columns)
    return header, records, pop


@contextmanager
def _reading(path: str):
    """Report a file that cannot be read or is not UTF-8 as a ValidationError."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input file {path} is not valid UTF-8: {exc}") from None


def _read_text(path: str) -> str:
    with _reading(path), open(path, newline="", encoding="utf-8") as fh:
        return fh.read()


def _load_lines(text: str, cfg: RunConfig):
    """(header, data lines, columns) on the line path (see the module docstring), or None.

    The text is split at ``\\n`` only: ``splitlines`` also breaks at
    ``\\x0b``, ``\\x85`` and others, which ``csv.reader`` keeps in a field.
    With fewer than 2 header fields an empty line would pass the field count.
    NUL is left to ``csv.reader``, which rejects it before Python 3.11. None sends the input to the ``csv.reader`` path, which names its error.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()  # the final newline ends the last record
    header = lines[0].split(",") if lines else []
    width = len(header)
    if width < 2 or len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    col_index = _column_index(header, cfg)
    flat = ",".join(lines).split(",")
    columns = _parse_columns(lambda j: flat[width + j :: width], len(lines) - 1, cfg, col_index)
    return None if columns is None else (header, lines[1:], columns)


def _load_rows(cfg: RunConfig):
    """(header, rows, columns) read with ``csv.reader``; raises the first bad row's error."""
    with _reading(cfg.input):
        with open(cfg.input, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
                rows = list(reader)
            except StopIteration:
                raise ValidationError(f"input file {cfg.input} is empty") from None
            except csv.Error as exc:
                raise ValidationError(
                    f"input file {cfg.input}, line {reader.line_num}: {exc}"
                ) from None

    col_index = _column_index(header, cfg)
    columns = None
    if not set(map(len, rows)) - {len(header)}:
        columns = _parse_columns(lambda j: map(itemgetter(j), rows), len(rows), cfg, col_index)
    if columns is None:
        _raise_first_bad_row(header, rows, cfg, col_index)
    return header, rows, columns


def _column_index(header: list[str], cfg: RunConfig) -> dict[str, int]:
    col_index = {name: i for i, name in enumerate(header)}
    needed = cfg.score_columns + cfg.group_columns + ([cfg.id_column] if cfg.id_column else [])
    for name in needed:
        if name not in col_index:
            raise ValidationError(f"column {name!r} not found in input header")
    return col_index


def _parse_columns(column, n: int, cfg: RunConfig, col_index: dict):
    """(ids, group values, scores) of ``n`` rows of the right width, or None if any row is bad.

    ``column(j)`` gives the values of column ``j`` in row order.
    """
    group_cols = [tuple(column(col_index[name])) for name in cfg.group_columns]
    if any("" in set(col) for col in group_cols):
        return None
    try:
        scores = np.column_stack(
            [
                np.fromiter(map(float, column(col_index[name])), float, n)
                for name in cfg.score_columns
            ]
        )
    except ValueError:
        return None
    if not np.isfinite(scores).all():
        return None
    if cfg.id_column:
        ids = tuple(column(col_index[cfg.id_column]))
    else:
        ids = tuple(map(str, range(2, n + 2)))  # the row number; the header is row 1
    return ids, list(zip(*group_cols)), scores


def _raise_first_bad_row(
    header: list[str], rows: list[list[str]], cfg: RunConfig, col_index: dict
) -> None:
    """Scan the rows in order and raise the error of the first bad one."""
    for rownum, row in enumerate(rows, start=2):  # header is row 1
        if len(row) != len(header):
            raise ValidationError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
        for name in cfg.group_columns:
            if row[col_index[name]] == "":
                raise ValidationError(f"row {rownum}: missing value in group column {name!r}")
        for name in cfg.score_columns:
            raw_value = row[col_index[name]]
            if raw_value == "":
                raise ValidationError(f"row {rownum}: missing value in score column {name!r}")
            try:
                value = float(raw_value)
            except ValueError:
                raise ValidationError(
                    f"row {rownum}: score column {name!r} value {raw_value!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise ValidationError(f"row {rownum}: score column {name!r} is not finite")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_with_columns(
    path: str, header: list[str], records: list, names: list[str], values: np.ndarray
) -> None:
    """Write the input records with the columns ``names`` of ``values`` appended."""
    columns = values.reshape(len(records), -1).T.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if isinstance(records[0], str):  # data lines from _load_lines
            fh.write(",".join(header + names) + "\n")
            fh.write("\n".join(map(("{}" + ",{:.17g}" * len(names)).format, records, *columns)))
            fh.write("\n")
            return
        for row, *row_values in zip(records, *columns):
            row.extend(map(_fmt, row_values))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header + names)
        writer.writerows(records)


def _emit_warnings(pop: ScoredPopulation, cfg: RunConfig) -> None:
    for warning in validate_population(pop, cfg.min_group_size):
        print(f"warning: {warning.message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Pipeline pieces


def barycenter_weights(pop: ScoredPopulation, cfg: RunConfig) -> list[float]:
    keys = pop.group_keys()
    if cfg.weight_mode == "size":
        return [len(pop.groups[k]) / len(pop) for k in keys]
    if cfg.weight_mode == "uniform":
        return [1.0 / len(keys)] * len(keys)
    missing = [k for k in keys if k not in cfg.explicit_weights]
    if missing:
        raise ValidationError(f"explicit_weights missing groups: {missing}")
    for key in cfg.explicit_weights:
        if key not in pop.groups:
            raise ValidationError(f"explicit weight for nonexistent group {key}")
    return [cfg.explicit_weights[k] for k in keys]


def compute_barycenter_1d(pop: ScoredPopulation, cfg: RunConfig) -> Barycenter1D:
    keys = pop.group_keys()
    dists = [empirical_from_samples(pop.group_scores(k)) for k in keys]
    return barycenter_1d(dists, barycenter_weights(pop, cfg), cfg.grid_size, keys=keys)


def _barycenter_nd(pop: ScoredPopulation, cfg: RunConfig) -> BregmanBarycenter:
    return compute_barycenter_nd(
        pop,
        weights=barycenter_weights(pop, cfg),
        epsilon=cfg.epsilon,
        tol=cfg.tol,
        max_iter=cfg.max_iter,
        seed=cfg.seed,
    )


def transform_population(pop: ScoredPopulation, cfg: RunConfig) -> FairScores:
    """Fair scores under the configured theta policy.

    In n-D the transport maps come from the barycenter's own Bregman
    couplings, so the barycenter is the only entropic solve.
    """
    policy = cfg.theta_policy()
    if pop.dimension == 1:
        return interpolate_scores(pop, compute_barycenter_1d(pop, cfg), policy)
    bary = _barycenter_nd(pop, cfg)
    return apply_theta(pop, bary, barycenter_targets_nd(pop, bary), policy)


def _write_report(report, path: str | None) -> None:
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Commands


def run_transform(cfg: RunConfig, audit: bool = False) -> int:
    """Fair scores under the configured theta, and their report.

    The report is built before any file is written, so a run that fails
    leaves no output. ``audit`` writes the report only, not the fair-score CSV.
    """
    if cfg.output is None and not audit:
        raise ValidationError("transform requires an output path")
    header, records, pop = load_csv(cfg)
    _emit_warnings(pop, cfg)
    fair = transform_population(pop, cfg)
    report = build_report(pop, fair, m=cfg.grid_size, rule=cfg.selection_rule())
    if not audit:
        names = ["fair_score"] if pop.dimension == 1 else _numbered("fair_score_", pop.dimension)
        _write_with_columns(cfg.output, header, records, names, fair.values)
    _write_report(report, cfg.report)
    return 0


# The sweep table's metric columns, read from ``FairnessReport.to_dict``.
SWEEP_COLUMNS = (
    "individual_fairness_error",
    "group_fairness_w2",
    "group_fairness_ks",
    "utility_loss_mean_abs",
    "utility_loss_w2",
)


def _sweep_row(theta: float, report: FairnessReport) -> list[str]:
    """The sweep CSV row of one theta; an undefined metric is written as ""."""
    metrics = report.to_dict()
    values = [metrics[name] for name in SWEEP_COLUMNS]
    if metrics["selection"] is not None:
        values.append(metrics["selection"]["ratio"])
    return [_fmt(theta)] + ["" if v is None else _fmt(v) for v in values]


def run_sweep(cfg: RunConfig, thetas: list[float]) -> int:
    """One metrics row per theta: the default theta is swept, while each
    ``theta_overrides`` entry keeps its group at its own theta."""
    if not thetas:
        raise ValidationError("sweep requires a non-empty theta list")
    for theta in thetas:
        if not 0.0 <= theta <= 1.0:
            raise ValidationError(f"sweep theta {theta} outside [0, 1]")
    if cfg.output is None:
        raise ValidationError("sweep requires an output path")
    pop = load_csv(cfg)[2]
    if pop.dimension != 1:
        raise ValidationError("sweep metrics are defined for 1-D scores")
    _emit_warnings(pop, cfg)

    bary = compute_barycenter_1d(pop, cfg)
    targets = barycenter_targets(pop, bary)
    rule = cfg.selection_rule()
    policy = cfg.theta_policy()
    rows = []
    for theta in thetas:
        fair = apply_theta(pop, bary, targets, replace(policy, default_theta=theta))
        rows.append(_sweep_row(theta, build_report(pop, fair, m=cfg.grid_size, rule=rule)))
    header = ["theta", *SWEEP_COLUMNS] + ([] if rule is None else ["selection_ratio"])
    _write_csv(cfg.output, header, rows)
    return 0


def run_barycenter(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ValidationError("barycenter requires an output path")
    pop = load_csv(cfg)[2]
    _emit_warnings(pop, cfg)
    if pop.dimension == 1:
        grid = compute_barycenter_1d(pop, cfg).grid
        header, columns = ["rank", "quantile"], [grid.ranks, grid.quantiles]
    else:
        bary = _barycenter_nd(pop, cfg)
        header = _numbered("support_", bary.dimension) + ["mass"]
        columns = [bary.support, bary.masses]
    rows = [list(map(_fmt, row)) for row in np.column_stack(columns).tolist()]
    _write_csv(cfg.output, header, rows)
    return 0


def run_synth(cfg: RunConfig) -> int:
    if cfg.synth is None:
        raise ValidationError("config has no 'synth' section")
    if cfg.output is None:
        raise ValidationError("synth requires an output path")
    ids, group_values, scores = generate_synthetic(*cfg.synth)
    dim = 1 if scores.ndim == 1 else scores.shape[1]
    attr_count = len(group_values[0])
    group_cols = cfg.group_columns
    if len(group_cols) != attr_count:
        group_cols = _numbered("group_", attr_count)
    score_cols = cfg.score_columns
    if len(score_cols) != dim:
        score_cols = ["score"] if dim == 1 else _numbered("score_", dim)
    rows = [[rec_id, *values] for rec_id, values in zip(ids, group_values)]
    _write_with_columns(cfg.output, ["id"] + group_cols, rows, score_cols, scores)
    return 0


def run_verify(cfg: RunConfig) -> int:
    """Re-check the configured instance against the brute-force oracles."""
    pop = load_csv(cfg)[2]
    keys = pop.group_keys()
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1

    if pop.dimension == 1:
        for key in keys:
            if len(pop.groups[key]) > BRUTEFORCE_MAX_N:
                raise OracleGuardError(
                    f"verify refuses groups larger than {BRUTEFORCE_MAX_N} "
                    f"(group {key} has {len(pop.groups[key])})"
                )
        if cfg.grid_size > COORDINATE_MAX_M:
            raise OracleGuardError(
                f"verify refuses grid sizes larger than {COORDINATE_MAX_M}"
            )
        if len(pop) > PAIRWISE_MAX_N:
            raise OracleGuardError(f"verify refuses more than {PAIRWISE_MAX_N} rows")
        pairs = [
            (a, b)
            for a, b in combinations(keys, 2)
            if len(pop.groups[a]) == len(pop.groups[b]) >= 2
        ]
        if len(pairs) > BRUTEFORCE_MAX_PAIRS:
            raise OracleGuardError(
                f"verify refuses more than {BRUTEFORCE_MAX_PAIRS} pairs of equal-size groups "
                f"(the input has {len(pairs)})"
            )
        dists = {k: empirical_from_samples(pop.group_scores(k)) for k in keys}
        for a, b in pairs:
            n = len(pop.groups[a])
            fast = w2_distance(dists[a], dists[b], n) ** 2
            brute = ot_cost_bruteforce(pop.group_scores(a), pop.group_scores(b))
            check(
                f"w2({a},{b}) vs permutation brute force",
                abs(fast - brute) <= 1e-9,
                f"grid {fast:.12g} vs exact {brute:.12g}",
            )

        bary = compute_barycenter_1d(pop, cfg)
        reference = barycenter_coordinate_oracle(
            [dists[k] for k in keys],
            barycenter_weights(pop, cfg),
            cfg.grid_size,
            grid_resolution=1e-4,
        )
        gap = float(np.max(np.abs(bary.grid.quantiles - reference.quantiles)))
        check(
            "barycenter vs coordinate search",
            gap <= 1e-4,
            f"max coordinate gap {gap:.3e}",
        )

        fair = interpolate_scores(pop, bary, cfg.theta_policy())
        counted = individual_fairness_error(pop, fair)
        enumerated = individual_fairness_error_naive(pop, fair)
        check(
            "individual fairness error vs pairwise enumeration",
            abs(counted - enumerated) <= 1e-12,
            f"counted {counted:.12g} vs enumerated {enumerated:.12g}",
        )
    else:
        measures = group_measures(pop)
        for key in keys:
            if len(measures[key]) > LP_MAX_SUPPORT:
                raise OracleGuardError(
                    f"verify refuses supports larger than {LP_MAX_SUPPORT} (group {key})"
                )
        for a, b in combinations(keys, 2):
            plan = sinkhorn_plan(
                measures[a], measures[b], epsilon=cfg.epsilon, tol=cfg.tol, max_iter=cfg.max_iter
            )
            if not plan.converged:  # its marginals are off, so it is no coupling
                check(
                    f"sinkhorn({a},{b}) converged",
                    False,
                    f"marginal error {plan.marginal_error:.3e} after "
                    f"{plan.iterations_run} iterations",
                )
                continue
            cost = plan.cost(squared_cost_matrix(measures[a].support, measures[b].support))
            lp_cost, _ = lp_transport_exact(measures[a], measures[b])
            slack = cfg.epsilon * np.log(len(measures[a]) * len(measures[b]) + 1.0)
            ok = lp_cost - 1e-9 <= cost <= lp_cost + slack + 1e-9
            check(
                f"sinkhorn({a},{b}) vs exact LP",
                ok,
                f"entropic {cost:.12g} in [{lp_cost:.12g}, {lp_cost + slack:.12g}]",
            )

    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairscore",
        description="Fair score post-processing via barycentric optimal transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("transform", "rewrite scores and emit a fairness report"),
        ("audit", "compute metrics only, no score rewrite"),
        ("sweep", "emit a theta/metrics trade-off table"),
        ("barycenter", "emit the barycenter as CSV"),
        ("synth", "generate a synthetic population CSV"),
        ("verify", "re-check the instance against brute-force oracles"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for f in fields(RunConfig):
            if f.metadata["flag"]:
                p.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["argparse"])
        if name == "sweep":
            p.add_argument("--thetas", required=True, help="comma-separated theta values")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        cfg = replace(cfg, **{name: v for name, v in flags.items() if v is not None})
        if args.command == "sweep":
            thetas = [_cast("--thetas", float, t) for t in args.thetas.split(",") if t.strip()]
        cfg.validate()
        if args.command in ("transform", "audit"):
            return run_transform(cfg, audit=args.command == "audit")
        if args.command == "sweep":
            return run_sweep(cfg, thetas)
        if args.command == "barycenter":
            return run_barycenter(cfg)
        if args.command == "synth":
            return run_synth(cfg)
        return run_verify(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FairscoreError, MemoryError) as exc:
        print(f"failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
