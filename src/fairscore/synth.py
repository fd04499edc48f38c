"""Deterministic synthetic population generator.

Draws come from per-group Philox streams keyed by (seed, hash of group key),
so the order in which groups are generated never perturbs any group's values
and runs are reproducible across platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .population import GroupKey


@dataclass(frozen=True)
class Gaussian:
    mean: float
    sd: float

    def validate(self):
        if self.sd <= 0:
            raise ValidationError("gaussian sd must be positive")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size)


@dataclass(frozen=True)
class Beta:
    a: float
    b: float

    def validate(self):
        if self.a <= 0 or self.b <= 0:
            raise ValidationError("beta parameters must be positive")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.a, self.b, size)


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def validate(self):
        if not self.lo < self.hi:
            raise ValidationError("uniform bounds must satisfy lo < hi")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class GroupSpec:
    key: GroupKey
    size: int
    dims: tuple[Gaussian | Beta | Uniform, ...]

    def validate(self):
        if self.size < 1:
            raise ValidationError(f"group {self.key} size must be >= 1")
        if not self.dims:
            raise ValidationError(f"group {self.key} needs at least one score dimension")
        for dist in self.dims:
            dist.validate()


def _group_rng(seed: int, key: GroupKey) -> np.random.Generator:
    digest = hashlib.sha256(str(key).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *words])))


def generate_synthetic(
    specs: Sequence[GroupSpec], seed: int
) -> tuple[list[str], list[list[str]], np.ndarray]:
    """(ids, group columns, scores), the arguments of ``build_population``.

    There is one group column per value of a group key, so every key must
    have the same number of values. Rows are ordered by (group key, draw
    index), and the id of draw ``i`` of group ``key`` is ``f"{key}-{i}"``.
    Scores have shape (n,) for one score dimension and (n, d) for d.
    Deterministic in (specs, seed).
    """
    if not specs:
        raise ValidationError("need at least one group spec")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        raise ValidationError("duplicate group keys in synthetic specs")
    if len({len(key.values) for key in keys}) != 1:
        raise ValidationError("all group keys must have the same number of values")
    dim = len(specs[0].dims)
    for spec in specs:
        spec.validate()
        if len(spec.dims) != dim:
            raise ValidationError("all groups must share one score dimension")

    ids: list[str] = []
    group_columns: list[list[str]] = [[] for _ in keys[0].values]
    blocks = []
    for spec in sorted(specs, key=lambda s: s.key):
        rng = _group_rng(seed, spec.key)
        blocks.append(np.column_stack([dist.draw(rng, spec.size) for dist in spec.dims]))
        ids += [f"{spec.key}-{i}" for i in range(spec.size)]
        for column, value in zip(group_columns, spec.key.values):
            column += [value] * spec.size
    scores = np.concatenate(blocks)
    return ids, group_columns, scores[:, 0] if dim == 1 else scores
