"""Empirical 1-D distributions, quantiles, midranks and a population's raw order.

Conventions (documented design choices, not external mandates):

* quantiles use Hazen plotting positions p_i = (i - 0.5)/n with linear
  interpolation between adjacent order statistics and constant extrapolation
  beyond the extreme positions;
* tied sample values share a midrank, so equal inputs always map to equal
  outputs downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted samples, each of weight 1/n."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValidationError("values must be a non-empty 1-D array")
        if not np.all(np.isfinite(values)):
            raise ValidationError("values must be finite")
        if np.any(np.diff(values) < 0):
            raise ValidationError("values must be sorted nondecreasing")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    @property
    def positions(self) -> np.ndarray:
        """Plotting positions: cumulative weight before each sample plus half its own."""
        n = self.values.size
        return np.cumsum(np.full(n, 1.0 / n)) - (1.0 / n) / 2.0


@dataclass(frozen=True, eq=False)
class QuantileGrid:
    """Discretized quantile function on the shared grid p_k = (k - 0.5)/m: its m
    ``quantiles``, from which the grid ``ranks`` are derived."""

    quantiles: np.ndarray

    def __post_init__(self):
        quantiles = np.asarray(self.quantiles, dtype=float)
        if quantiles.ndim != 1 or quantiles.size < 2:
            raise ValidationError("a quantile grid needs at least 2 points")
        if np.any(np.diff(quantiles) < 0):
            raise ValidationError("quantiles must be nondecreasing")
        object.__setattr__(self, "quantiles", quantiles)

    @property
    def ranks(self) -> np.ndarray:
        return grid_ranks(self.quantiles.size)

    def evaluate(self, p) -> np.ndarray | float:
        """Piecewise-linear quantile lookup with constant tails."""
        return np.interp(p, self.ranks, self.quantiles)


def grid_ranks(m: int) -> np.ndarray:
    """The shared evaluation grid p_k = (k - 0.5)/m, k = 1..m."""
    if m < 2:
        raise ValidationError("grid size m must be at least 2")
    return (np.arange(1, m + 1) - 0.5) / m


def empirical_from_samples(samples: Sequence[float]) -> EmpiricalDistribution:
    """Sort samples. Ties are kept (multiset preserved)."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("samples must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("samples must be finite")
    return EmpiricalDistribution(values=np.sort(arr))


def quantile(dist: EmpiricalDistribution, p: float) -> float:
    """Quantile at probability p under the Hazen convention."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"quantile rank {p} outside [0, 1]")
    return float(np.interp(p, dist.positions, dist.values))


def midranks(ordered: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Midrank of every value within its run, for runs that are each sorted.

    Run ``r`` is ``ordered[starts[r]:starts[r + 1]]``, non-empty and sorted; one
    sorted sample of n values is the one run ``starts = [0, n]``. With no sort,
    a block of ``len`` equal values (-0.0 equals 0.0) after ``left`` smaller ones
    in a run of ``n`` gets ``(2 left + len) / 2n``, the same integer over the same
    float as two ``searchsorted`` passes over the run would give.
    """
    new_tie = np.empty(ordered.size, dtype=bool)
    new_tie[1:] = ordered[1:] != ordered[:-1]
    new_tie[starts[:-1]] = True
    tie_at = np.flatnonzero(new_tie)
    lengths = np.diff(np.append(tie_at, ordered.size))
    run = np.searchsorted(starts, tie_at, side="right") - 1
    left = tie_at - starts[run]
    return np.repeat((2 * left + lengths) / (2.0 * np.diff(starts)[run]), lengths)


def discretize_quantiles(dist: EmpiricalDistribution, m: int) -> QuantileGrid:
    """Evaluate the quantile function on the shared m-point grid."""
    return QuantileGrid(np.interp(grid_ranks(m), dist.positions, dist.values))


@dataclass(frozen=True, eq=False)
class RawOrder:
    """The order of a 1-D population's raw scores, all that the barycenter, its targets and
    the rank metrics need that no fair score changes: ``ScoredPopulation.raw_order`` builds
    it once, by one argsort of the scores and one small-int stable sort of the group codes.

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
