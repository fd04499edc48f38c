"""Canonical data model: scored individuals and their intersectional group partition.

A population is held as columns, not as one object per individual:

* ``ids``: the record ids, as given (Python ``str``);
* ``scores``: a read-only float array, shape (n,) for 1-D scores and (n, d)
  for d-dimensional ones;
* ``groups``: each ``GroupKey``, in lexicographic order, mapped to the
  read-only ``np.intp`` array of its row indices (ascending);
* ``group_codes``: the read-only ``np.intp`` array of each row's group, as
  its position in ``groups``.

``build_population(ids, group_columns, scores)`` is the one constructor. It
takes one sequence of values per group attribute: the CLI passes the parsed
CSV columns, and ``generate_synthetic`` returns its arguments. No per-row
group tuple is made: each column is coded against its sorted distinct values,
and one stable ``np.lexsort`` of the codes orders the rows by group key.
``records`` is a lazy per-row ``ScoreRecord`` view of a population.

A 1-D population also caches ``raw_order``, the ``RawOrder`` of its scores:
all that the barycenter targets and the rank metrics need that no fair score
changes, built on first use by one argsort of the scores and one small-int
stable sort of the group codes, once per sweep. It holds three index arrays
of n entries and the G + 1 group offsets, so its memory is O(n) whatever the
group count.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ValidationError


@dataclass(frozen=True, order=True)
class GroupKey:
    """One intersectional group: the full tuple of protected-attribute values.

    ``str`` joins the values with ``|``, escaping ``\\`` and ``|`` inside a
    value with a backslash, so distinct keys never render alike.
    """

    values: tuple[str, ...]

    def __str__(self) -> str:
        return "|".join(v.replace("\\", "\\\\").replace("|", "\\|") for v in self.values)


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


@dataclass(frozen=True, eq=False)
class ScoredPopulation:
    """Immutable columnar population with a lexicographic group partition."""

    ids: tuple[str, ...]
    scores: np.ndarray
    groups: dict[GroupKey, np.ndarray]
    group_codes: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dimension(self) -> int:
        return 1 if self.scores.ndim == 1 else self.scores.shape[1]

    def group_keys(self) -> list[GroupKey]:
        return list(self.groups)

    def group_scores(self, key: GroupKey) -> np.ndarray:
        return self.scores[self.groups[key]]

    @cached_property
    def raw_order(self) -> RawOrder:
        """The theta-free order structure of the 1-D scores (see ``RawOrder``)."""
        if self.dimension != 1:
            raise DimensionError("raw_order is defined for 1-D scores")
        return _raw_order(self.scores, self.group_codes, len(self.groups))

    @cached_property
    def records(self) -> Sequence[ScoreRecord]:
        """Per-row ``ScoreRecord`` view; each record is built when it is read."""
        return _RecordView(self)


@dataclass(frozen=True, eq=False)
class RawOrder:
    """The order of a 1-D population's raw scores, which no fair score changes.

    * ``merged``: the rows by ascending raw score;
    * ``by_group``: the rows grouped by code, each group's run in ascending
      raw order (the order of ``merged`` restricted to the group);
    * ``group_starts``: where each group's run begins in ``by_group``, then n;
    * ``tie_start``: for the row at each position of ``by_group``, the
      position in ``merged`` where its block of equal raw scores begins, which
      is the number of rows with a smaller raw score;
    * ``cross_pairs``: the number of pairs of rows from different groups with
      distinct raw scores, the denominator of the individual fairness error.

    -0.0 and 0.0 are one raw score. The arrays are read-only.
    """

    merged: np.ndarray
    by_group: np.ndarray
    group_starts: np.ndarray
    tie_start: np.ndarray
    cross_pairs: int


def _run_lengths(new_run: np.ndarray) -> np.ndarray:
    """Lengths of the runs of a sequence; ``new_run[i]`` is whether element i starts one."""
    return np.diff(np.append(np.flatnonzero(new_run), new_run.size))


def _pairs_within(lengths: np.ndarray) -> int:
    return int(np.sum(lengths * (lengths - 1) // 2))


def _raw_order(scores: np.ndarray, codes: np.ndarray, group_count: int) -> RawOrder:
    n = scores.size
    merged = np.argsort(scores)
    # a stable sort of the codes keeps each group in raw order; codes held
    # in 8 or 16 bits take numpy's radix sort
    small_codes = codes[merged].astype(np.min_scalar_type(group_count - 1))
    by_group = merged[np.argsort(small_codes, kind="stable")]
    sizes = np.bincount(codes, minlength=group_count)
    group_starts = np.concatenate(([0], np.cumsum(sizes)))

    ordered = scores[merged]
    new_tie = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    tie_lengths = _run_lengths(new_tie)
    tie_start = np.empty(n, dtype=np.intp)
    tie_start[merged] = np.repeat(np.flatnonzero(new_tie), tie_lengths)
    tie_start = tie_start[by_group]

    # a tie inside a group starts a new block at a group's first row too
    new_group_tie = np.diff(tie_start, prepend=-1) != 0
    new_group_tie[group_starts[:-1]] = True
    cross_pairs = (
        n * (n - 1) // 2
        - _pairs_within(sizes)
        - _pairs_within(tie_lengths)
        + _pairs_within(_run_lengths(new_group_tie))
    )
    for array in (merged, by_group, group_starts, tie_start):
        array.flags.writeable = False
    return RawOrder(merged, by_group, group_starts, tie_start, cross_pairs)


class _RecordView(Sequence):
    def __init__(self, pop: ScoredPopulation):
        self._pop = pop
        self._keys = pop.group_keys()

    def __len__(self) -> int:
        return len(self._pop)

    def __getitem__(self, i: int) -> ScoreRecord:
        score = self._pop.scores[i]
        return ScoreRecord(
            id=self._pop.ids[i],
            group_values=self._keys[self._pop.group_codes[i]].values,
            score=float(score) if score.ndim == 0 else tuple(score.tolist()),
        )


def _first_duplicate(ids: Sequence[str]) -> int | None:
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for i, rec_id in enumerate(ids):
        if rec_id in seen:
            return i
        seen.add(rec_id)
    return None


def build_population(
    ids: Sequence[str], group_columns: Sequence[Sequence[str]], scores
) -> ScoredPopulation:
    """Validate the columns and partition the rows into intersectional groups.

    ``group_columns`` holds one sequence of n values per group attribute, and
    a row's ``GroupKey`` is its value in each, in column order. ``scores`` is
    array-like of shape (n,) or (n, d); an (n, 1) array is stored as (n,).
    Ids must be unique and scores finite; of several bad rows, the first is
    reported. Group iteration order is lexicographic by group key so every
    downstream computation is reproducible.
    """
    n = len(ids)
    if n == 0:
        raise ValidationError("population must contain at least one record")
    scores = np.array(scores, dtype=float)
    if scores.ndim == 2 and scores.shape[1] == 1:
        scores = scores[:, 0]
    lengths = {len(column) for column in group_columns}  # no group column fails too
    if scores.ndim not in (1, 2) or scores.shape[0] != n or lengths != {n}:
        raise ValidationError("ids, group values and scores must have one entry per row")

    dup = _first_duplicate(ids)
    finite = np.isfinite(scores) if scores.ndim == 1 else np.isfinite(scores).all(axis=1)
    bad = np.flatnonzero(~finite)
    if bad.size and (dup is None or bad[0] < dup):
        raise ValidationError(f"record {ids[bad[0]]!r} has a non-finite score component")
    if dup is not None:
        raise ValidationError(f"duplicate record id {ids[dup]!r}")
    scores.flags.writeable = False

    # each column's codes follow str order, so the codes sort as the keys do;
    # lexsort is stable, and its last key is the primary one
    column_codes = []
    for column in group_columns:
        code_of = {value: code for code, value in enumerate(sorted(set(column)))}
        column_codes.append(np.fromiter(map(code_of.__getitem__, column), np.intp, n))
    order = np.lexsort(column_codes[::-1])
    starts = np.zeros(n, dtype=bool)  # where a group begins in ``order``
    starts[0] = True
    for codes in column_codes:
        ordered = codes[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    group_codes = np.empty(n, dtype=np.intp)
    group_codes[order] = np.cumsum(starts) - 1
    group_codes.flags.writeable = False
    groups = {}
    for idx in np.split(order, np.flatnonzero(starts)[1:]):
        idx.flags.writeable = False
        groups[GroupKey(tuple(column[idx[0]] for column in group_columns))] = idx
    return ScoredPopulation(ids=tuple(ids), scores=scores, groups=groups, group_codes=group_codes)


def validate_population(pop: ScoredPopulation, min_group_size: int = 100) -> list[GroupSizeWarning]:
    """Return one warning per group smaller than ``min_group_size``. Never raises."""
    warnings = []
    for key, idx in pop.groups.items():
        if len(idx) < min_group_size:
            warnings.append(GroupSizeWarning(group=key, size=len(idx), threshold=min_group_size))
    return warnings
