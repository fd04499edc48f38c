"""Exact 1-D Wasserstein-2 machinery: grid distances, closed-form barycenters,
and monotone transport maps.

All computations live on a shared m-point quantile grid, which makes the
barycenter a plain weighted mean of quantile functions and keeps every
downstream identity (parity decay, endpoint behavior) exact up to float
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .empirical import (
    EmpiricalDistribution,
    QuantileGrid,
    cdf_rank,
    discretize_quantiles,
    grid_ranks,
)
from .errors import ValidationError
from .population import GroupKey

WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class Barycenter1D:
    """The W2 barycenter grid plus the weights that produced it."""

    grid: QuantileGrid
    weights_used: tuple[tuple[GroupKey, float], ...]


def w2_distance(a: EmpiricalDistribution, b: EmpiricalDistribution, m: int) -> float:
    """Grid-discretized Wasserstein-2 distance: RMS gap of quantile functions."""
    qa = discretize_quantiles(a, m).quantiles
    qb = discretize_quantiles(b, m).quantiles
    return w2_from_quantiles(qa, qb)


def w2_from_quantiles(qa: np.ndarray, qb: np.ndarray) -> float:
    """RMS gap of two quantile functions discretized on the same grid."""
    return float(np.sqrt(np.mean((qa - qb) ** 2)))


def _normalize_weights(weights: Sequence[float], count: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.size != count:
        raise ValidationError("number of weights must match number of distributions")
    if not np.all(w > 0):  # a NaN weight fails this too
        raise ValidationError("barycenter weights must be strictly positive")
    total = w.sum()
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise ValidationError("barycenter weights must sum to 1")
    return w / total


def barycenter_1d(
    dists: Sequence[EmpiricalDistribution],
    weights: Sequence[float],
    m: int,
    keys: Sequence[GroupKey] | None = None,
) -> Barycenter1D:
    """Closed-form 1-D W2 barycenter: the weighted mean of quantile grids.

    For each grid rank, the weighted mean is the minimizer of the weighted sum
    of squared distances to the group quantiles, so this grid is the exact
    discretized barycenter.
    """
    if not dists:
        raise ValidationError("need at least one distribution")
    w = _normalize_weights(weights, len(dists))
    if keys is None:
        keys = [GroupKey((str(i),)) for i in range(len(dists))]
    if len(keys) != len(dists):
        raise ValidationError("number of keys must match number of distributions")

    ranks = grid_ranks(m)
    quantiles = np.zeros(m)
    for dist, wg in zip(dists, w):
        quantiles += wg * discretize_quantiles(dist, m).quantiles
    grid = QuantileGrid(ranks=ranks, quantiles=quantiles)
    return Barycenter1D(grid=grid, weights_used=tuple(zip(keys, (float(x) for x in w))))


def ot_map_1d(
    source: EmpiricalDistribution,
    target: QuantileGrid,
    s: float,
    rank_hint: float | None = None,
) -> float:
    """Monotone transport map T(s) = Q_target(F_source(s)).

    ``rank_hint`` supplies the source midrank directly (needed for values not
    present in the source sample).
    """
    if rank_hint is not None:
        if not 0.0 <= rank_hint <= 1.0:
            raise ValidationError("rank_hint must lie in [0, 1]")
        p = rank_hint
    else:
        p = cdf_rank(source, s)
    return float(target.evaluate(p))
