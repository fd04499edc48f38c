"""Canonical data model: scored individuals and their intersectional group partition."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, order=True)
class GroupKey:
    """One intersectional group: the full tuple of protected-attribute values."""

    values: tuple[str, ...]

    def __str__(self) -> str:
        return "|".join(self.values)


@dataclass(frozen=True)
class ScoreRecord:
    """A single scored individual.

    ``score`` is a float for one-dimensional scores or a tuple of floats for
    d-dimensional scores (d fixed across the population).
    """

    id: str
    group_values: tuple[str, ...]
    score: float | tuple[float, ...]

    def score_vector(self) -> tuple[float, ...]:
        if isinstance(self.score, tuple):
            return self.score
        return (float(self.score),)


@dataclass(frozen=True)
class GroupSizeWarning:
    group: GroupKey
    size: int
    threshold: int

    @property
    def message(self) -> str:
        return (
            f"group {self.group} has only {self.size} individuals "
            f"(below the recommended minimum of {self.threshold}); "
            f"transport estimates may be unreliable"
        )


@dataclass(frozen=True)
class ScoredPopulation:
    """Immutable population with a deterministic (lexicographic) group partition."""

    records: tuple[ScoreRecord, ...]
    dimension: int
    groups: dict[GroupKey, tuple[int, ...]] = field(compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def group_keys(self) -> list[GroupKey]:
        return list(self.groups)

    def scores_array(self) -> np.ndarray:
        """All scores as a read-only array: shape (n,) in 1-D, (n, d) otherwise.

        Built once per population; every call returns the same array.
        """
        return self._scores

    @cached_property
    def _scores(self) -> np.ndarray:
        if self.dimension == 1:
            scores = np.array(
                [r.score if not isinstance(r.score, tuple) else r.score[0] for r in self.records],
                dtype=float,
            )
        else:
            scores = np.array([r.score_vector() for r in self.records], dtype=float)
        scores.flags.writeable = False
        return scores

    def group_scores(self, key: GroupKey) -> np.ndarray:
        idx = np.asarray(self.groups[key], dtype=int)
        return self.scores_array()[idx]


def _check_finite(value: float, record_id: str) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"record {record_id!r} has a non-finite score component")


def build_population(records: Sequence[ScoreRecord], attribute_count: int) -> ScoredPopulation:
    """Validate records and partition them into intersectional groups.

    Group iteration order is lexicographic by group key so every downstream
    computation is reproducible.
    """
    if attribute_count < 1:
        raise ValidationError("attribute_count must be positive")
    if not records:
        raise ValidationError("population must contain at least one record")

    seen_ids: set[str] = set()
    dimension: int | None = None
    partition: dict[GroupKey, list[int]] = {}
    for i, rec in enumerate(records):
        if rec.id in seen_ids:
            raise ValidationError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        if len(rec.group_values) != attribute_count:
            raise ValidationError(
                f"record {rec.id!r} has {len(rec.group_values)} group values, "
                f"expected {attribute_count}"
            )
        vec = rec.score_vector()
        if dimension is None:
            dimension = len(vec)
        elif len(vec) != dimension:
            raise ValidationError(
                f"record {rec.id!r} has score dimension {len(vec)}, expected {dimension}"
            )
        for component in vec:
            _check_finite(float(component), rec.id)
        key = GroupKey(tuple(rec.group_values))
        partition.setdefault(key, []).append(i)

    groups = {key: tuple(partition[key]) for key in sorted(partition)}
    return ScoredPopulation(records=tuple(records), dimension=int(dimension), groups=groups)


def validate_population(pop: ScoredPopulation, min_group_size: int = 100) -> list[GroupSizeWarning]:
    """Return one warning per group smaller than ``min_group_size``. Never raises."""
    warnings = []
    for key, idx in pop.groups.items():
        if len(idx) < min_group_size:
            warnings.append(GroupSizeWarning(group=key, size=len(idx), threshold=min_group_size))
    return warnings
