"""Batch pipeline: CSV in, fair scores and reports out.

Subcommands: transform, audit, sweep, barycenter, synth, verify.
Exit codes: 0 success, 1 runtime/verification failure or out of memory, 2 validation error.

Each command loads, solves and emits once: ``main`` validates the config,
``load_csv`` reads the input through ``csvio``, ``compute_barycenter`` solves
for either score dimension (its one fork), and one ``csvio.commit`` writes the
command's files once all they hold is computed. ``audit`` is ``transform``
without the fair-score CSV (``run_transform(cfg, audit=True)``), and ``synth``
writes the columns of ``generate_synthetic``. A command imports only what it
runs: ``oracle`` for ``verify``, ``synth`` (and ``hashlib``) for a ``synth``
section or command, and each score dimension its own layer, ``empirical`` and
``transport1d`` in 1-D, ``transportnd`` in n-D. A run turns the collector off
before its first import (``python -m``) or in ``_run``, where both entries
meet, and never back on: it builds columns and arrays, not reference cycles.
``_run`` flushes stdout and stderr and ends with ``os._exit``, so no shutdown
collection runs. ``main`` itself runs with the collector off and then leaves it
as its caller had it, and a module that imports the CLI keeps its collector as
it was. The report is the dict that ``metrics.build_report`` returns, dumped as
JSON; a ``sweep`` row holds a theta and its report's ``metrics.METRICS``.

A JSON config file sets the ``RunConfig`` fields, and flags override it. Each
field declares its JSON parser and its flag, if any (see ``_key``), so
``load_config``, the flags and the overrides are loops over ``fields(RunConfig)``.
A JSON ``null`` leaves a key at its default; an unknown key exits 2.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # before the first import; see the module docstring

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .csvio import commit, read_csv, refuse_one_file, render_csv
from .errors import FairscoreError, ValidationError
from .interpolation import ThetaPolicy, apply_theta, barycenter_targets, interpolate_scores
from .metrics import METRICS, SelectionRule, build_report
from .population import DEFAULT_MIN_GROUP_SIZE, GroupKey, build_population, validate_population
from .solver_settings import (
    DEFAULT_EPSILON,
    DEFAULT_GRID_SIZE,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    MAX_GRID_SIZE,
    validate_solver_params,
)

if TYPE_CHECKING:
    from .empirical import QuantileGrid
    from .population import ScoredPopulation
    from .synth import GroupSpec
    from .transportnd import BregmanBarycenter


def _numbered(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{k + 1}" for k in range(count)]


WEIGHT_MODES = ("size", "uniform", "explicit")


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


def _check_utf8(text: str, where: str) -> None:
    """Reject ``text`` that does not encode as UTF-8, which only a lone surrogate makes."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise ValidationError(f"{where} holds {bad!r}, which is not valid UTF-8") from None


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
    from .synth import Beta, Gaussian, GroupSpec, Uniform

    distributions = {"gaussian": Gaussian, "beta": Beta, "uniform": Uniform}
    _object(key, raw)
    specs = []
    for g in _list("synth groups", raw.get("groups", [])):
        _object("synth group", g, ("key", "size", "dims"))
        dims = []
        for d in _list("synth group dims", g["dims"]):
            kind = _object("synth dimension", d, ("type",))["type"]
            if not isinstance(kind, str) or kind not in distributions:
                raise ValidationError(f"unknown synthetic distribution type {kind!r}")
            cls = distributions[kind]
            params = [f.name for f in fields(cls)]
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
    epsilon: float = _key(
        DEFAULT_EPSILON, _FLOAT, "--epsilon", "entropic regularization (n-D)", type=float
    )
    tol: float = _key(DEFAULT_TOL, _FLOAT, "--tol", "solver tolerance (n-D)", type=float)
    max_iter: int = _key(
        DEFAULT_MAX_ITER, _INT, "--max-iter", "solver iteration cap (n-D)", type=int
    )
    min_group_size: int = _key(DEFAULT_MIN_GROUP_SIZE, _INT, "--min-group-size", type=int)
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
        for name in ("input", "output", "report"):
            if "\0" in (getattr(self, name) or ""):  # open() would raise a ValueError
                raise ValidationError(f"{name} path {getattr(self, name)!r} holds a NUL character")
        for name in ("score_columns", "group_columns"):
            if not getattr(self, name):
                raise ValidationError(f"{name} must name at least one column")
        # argv hands on bytes that are not UTF-8 as lone surrogates. A path may
        # hold them; a column name is matched against a UTF-8 header or written
        for name in ("score_columns", "group_columns", "id_column"):
            _check_utf8("".join(getattr(self, name) or ""), name)
        names = self.score_columns + self.group_columns + [self.id_column] * bool(self.id_column)
        for name in names:
            if names.count(name) > 1:
                raise ValidationError(f"column {name!r} is configured {names.count(name)} times")
        self.theta_policy()
        if self.grid_size < 2:
            raise ValidationError("grid_size must be at least 2")
        if self.grid_size > MAX_GRID_SIZE:
            raise ValidationError(f"grid_size must be at most {MAX_GRID_SIZE}")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValidationError(f"unknown weight_mode {self.weight_mode!r}")
        if self.weight_mode == "explicit" and not self.explicit_weights:
            raise ValidationError("weight_mode 'explicit' requires explicit_weights")
        if self.explicit_weights and self.weight_mode != "explicit":
            raise ValidationError(f"weight_mode {self.weight_mode!r} takes no explicit_weights")
        for key, weight in self.explicit_weights.items():
            if not math.isfinite(weight):
                raise ValidationError(f"explicit weight {weight} for group {key} is not finite")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        self.selection_rule()
        validate_solver_params(self.epsilon, self.tol, self.max_iter)

    def selection_rule(self) -> SelectionRule | None:
        if self.selection_threshold is None and self.selection_top_k is None:
            return None
        return SelectionRule(threshold=self.selection_threshold, top_k=self.selection_top_k)

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
    # JSON escapes can spell lone surrogates, in a key or in any value
    _check_utf8(json.dumps(raw, ensure_ascii=False), f"config file {path}")
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
    unknown = raw.keys() - parsers.keys()
    if unknown:
        raise ValidationError(f"config file {path} has unknown key(s) {', '.join(sorted(unknown))}")
    return RunConfig(**{k: parsers[k](k, v) for k, v in raw.items() if v is not None})


# ---------------------------------------------------------------------------
# Input and pipeline pieces


def load_csv(cfg: RunConfig) -> tuple[list[str], list[str], ScoredPopulation]:
    """The input's header, its data lines for pass-through on output and the
    population built from its columns (see ``csvio.read_csv``)."""
    if cfg.input is None:
        raise ValidationError("no input file configured")
    names = (cfg.score_columns, cfg.group_columns, cfg.id_column)
    header, lines, columns = read_csv(cfg.input, *names)
    return header, lines, build_population(*columns)


def _emit_warnings(pop: ScoredPopulation, cfg: RunConfig) -> None:
    for line in validate_population(pop, cfg.min_group_size):
        print(f"warning: {line}", file=sys.stderr)


def barycenter_weights(pop: ScoredPopulation, cfg: RunConfig) -> list[float]:
    keys = list(pop.groups)
    if cfg.weight_mode == "size":
        return [len(pop.groups[k]) / len(pop) for k in keys]
    if cfg.weight_mode == "uniform":
        return [1.0 / len(keys)] * len(keys)
    missing = [k for k in keys if k not in cfg.explicit_weights]
    if missing:
        raise ValidationError(f"explicit_weights missing groups: {', '.join(map(str, missing))}")
    for key in cfg.explicit_weights:
        if key not in pop.groups:
            raise ValidationError(f"explicit weight for nonexistent group {key}")
    return [cfg.explicit_weights[k] for k in keys]


def compute_barycenter(
    pop: ScoredPopulation, cfg: RunConfig
) -> QuantileGrid | BregmanBarycenter:
    """The groups' barycenter: a ``QuantileGrid`` in 1-D, in n-D a ``BregmanBarycenter``,
    whose couplings give the transport maps, so it is the only entropic solve."""
    weights = barycenter_weights(pop, cfg)
    if pop.dimension == 1:
        from .transport1d import barycenter_1d, group_distributions

        return barycenter_1d(group_distributions(pop), weights, cfg.grid_size)
    from .transportnd import compute_barycenter_nd

    return compute_barycenter_nd(pop, weights, cfg.epsilon, cfg.tol, cfg.max_iter, seed=cfg.seed)


# ---------------------------------------------------------------------------
# Commands


def run_transform(cfg: RunConfig, audit: bool = False) -> int:
    """Fair scores under the configured theta, and their report.

    Both files go to one ``csvio.commit`` once the report is built, so a run that
    fails leaves no file it made. ``audit`` writes the report, not the fair-score CSV.
    """
    if cfg.output is None and not audit:
        raise ValidationError("transform requires an output path")
    if not audit and cfg.report is not None:
        refuse_one_file(cfg.output, cfg.report)
    header, lines, pop = load_csv(cfg)
    _emit_warnings(pop, cfg)
    fair = interpolate_scores(pop, compute_barycenter(pop, cfg), cfg.theta_policy())
    report = build_report(pop, fair, m=cfg.grid_size, rule=cfg.selection_rule())
    files = [(cfg.report, [json.dumps(report, indent=2, sort_keys=True) + "\n"])]
    if not audit:
        names = ["fair_score"] if pop.dimension == 1 else _numbered("fair_score_", pop.dimension)
        files.insert(0, (cfg.output, render_csv(header + names, fair.values, lines)))
    commit(files)
    return 0


def run_sweep(cfg: RunConfig, thetas: list[float]) -> int:
    """One metrics row per theta: the default theta is swept, while each
    ``theta_overrides`` entry keeps its group at its own theta."""
    if not thetas:
        raise ValidationError("sweep requires a non-empty theta list")
    policy = cfg.theta_policy()
    policies = [replace(policy, default_theta=theta) for theta in thetas]  # checks each theta
    if cfg.output is None:
        raise ValidationError("sweep requires an output path")
    pop = load_csv(cfg)[2]
    if pop.dimension != 1:
        raise ValidationError("sweep metrics are defined for 1-D scores")
    _emit_warnings(pop, cfg)

    targets = barycenter_targets(pop, compute_barycenter(pop, cfg))
    rule = cfg.selection_rule()
    rows = []  # a metric that is undefined (None) is written as ""
    for policy in policies:
        fair = apply_theta(pop, targets, policy)
        report = build_report(pop, fair, m=cfg.grid_size, rule=rule)
        selection = [] if rule is None else [report["selection"]["ratio"]]
        rows.append([policy.default_theta, *(report[name] for name in METRICS), *selection])
    header = ["theta", *METRICS] + ([] if rule is None else ["selection_ratio"])
    commit([(cfg.output, render_csv(header, rows))])
    return 0


def run_barycenter(cfg: RunConfig) -> int:
    if cfg.output is None:
        raise ValidationError("barycenter requires an output path")
    pop = load_csv(cfg)[2]
    _emit_warnings(pop, cfg)
    bary = compute_barycenter(pop, cfg)
    if pop.dimension == 1:
        header, columns = ["rank", "quantile"], [bary.ranks, bary.quantiles]
    else:
        header = _numbered("support_", bary.dimension) + ["mass"]
        columns = [bary.support, bary.masses]
    commit([(cfg.output, render_csv(header, np.column_stack(columns).tolist()))])
    return 0


def run_synth(cfg: RunConfig) -> int:
    if cfg.synth is None:
        raise ValidationError("config has no 'synth' section")
    if cfg.output is None:
        raise ValidationError("synth requires an output path")
    from .synth import generate_synthetic

    ids, group_columns, scores = generate_synthetic(*cfg.synth)
    dim = 1 if scores.ndim == 1 else scores.shape[1]
    group_names = cfg.group_columns
    if len(group_names) != len(group_columns):
        group_names = _numbered("group_", len(group_columns))
    score_cols = cfg.score_columns
    if len(score_cols) != dim:
        score_cols = ["score"] if dim == 1 else _numbered("score_", dim)
    header = ["id", *group_names, *score_cols]
    commit([(cfg.output, render_csv(header, scores, text_columns=[ids, *group_columns]))])
    return 0


def run_verify(cfg: RunConfig) -> int:
    """Re-check the instance against the brute-force oracles (see ``oracle.verify``); the
    barycenter weights are read after its size guards, and for 1-D scores only."""
    from .oracle import verify

    pop = load_csv(cfg)[2]
    weights = partial(barycenter_weights, pop, cfg)
    args = (cfg.theta_policy(), cfg.grid_size, cfg.epsilon, cfg.tol, cfg.max_iter)
    return 1 if verify(pop, weights, *args) else 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairscore",
        description="Fair score post-processing via barycentric optimal transport",
    )
    # the flags every subcommand takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    for f in fields(RunConfig):
        if f.metadata["flag"]:
            common.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["argparse"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("transform", "rewrite scores and emit a fairness report"),
        ("audit", "compute metrics only, no score rewrite"),
        ("sweep", "emit a theta/metrics trade-off table"),
        ("barycenter", "emit the barycenter as CSV"),
        ("synth", "generate a synthetic population CSV"),
        ("verify", "re-check the instance against brute-force oracles"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[common])
        if name == "sweep":
            p.add_argument("--thetas", required=True, help="comma-separated theta values")
    return parser


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # for main's own run; see the module docstring
    try:
        args = build_parser().parse_args(argv)
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
    except (FairscoreError, MemoryError, BrokenPipeError) as exc:
        # a BrokenPipeError here is stdout closed under an unbuffered report or
        # verify line; buffered, it comes at _run's flush instead
        print(f"failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def _run() -> None:
    """The ``fairscore`` command and ``python -m fairscore.cli``: ``main``, then the
    process ends with its code; a failed flush (a closed pipe) leaves that to Python."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    _run()
