"""Empirical 1-D distributions, quantile functions and midrank CDF evaluation.

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

DEFAULT_GRID_SIZE = 1000


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class QuantileGrid:
    """Discretized quantile function on the shared grid p_k = (k - 0.5)/m."""

    ranks: np.ndarray
    quantiles: np.ndarray

    def __post_init__(self):
        ranks = np.asarray(self.ranks, dtype=float)
        quantiles = np.asarray(self.quantiles, dtype=float)
        if ranks.size < 2:
            raise ValidationError("a quantile grid needs at least 2 points")
        if ranks.shape != quantiles.shape:
            raise ValidationError("ranks and quantiles must have the same length")
        if np.any(np.diff(quantiles) < 0):
            raise ValidationError("quantiles must be nondecreasing")
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "quantiles", quantiles)

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
    ranks = grid_ranks(m)
    return QuantileGrid(ranks=ranks, quantiles=np.interp(ranks, dist.positions, dist.values))
