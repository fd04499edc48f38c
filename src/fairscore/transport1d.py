"""Exact 1-D Wasserstein-2 machinery: grid distances and closed-form barycenters.

All computations live on a shared m-point quantile grid, which makes the
barycenter a plain weighted mean of quantile functions and keeps every
downstream identity (parity decay, endpoint behavior) exact up to float
rounding.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .empirical import EmpiricalDistribution, QuantileGrid, discretize_quantiles
from .errors import ValidationError
from .population import ScoredPopulation
from .solver_settings import normalize_weights


def group_distributions(pop: ScoredPopulation) -> list[EmpiricalDistribution]:
    """Each group's sorted sample, read off ``pop.raw_order``'s runs with no sort."""
    runs = np.split(pop.scores[pop.raw_order.by_group], pop.raw_order.group_starts[1:-1])
    return [EmpiricalDistribution(run) for run in runs]


def w2_distance(a: EmpiricalDistribution, b: EmpiricalDistribution, m: int) -> float:
    """Grid-discretized Wasserstein-2 distance: RMS gap of quantile functions."""
    qa = discretize_quantiles(a, m).quantiles
    qb = discretize_quantiles(b, m).quantiles
    return float(w2_from_quantiles(qa, qb))


def w2_from_quantiles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """RMS gap of quantile functions discretized on the same grid.

    The grid is the last axis, so a stack of grids gives one distance per row.
    """
    return np.sqrt(np.mean((qa - qb) ** 2, axis=-1))


def barycenter_1d(
    dists: Sequence[EmpiricalDistribution],
    weights: Sequence[float],
    m: int,
) -> QuantileGrid:
    """Closed-form 1-D W2 barycenter: the weighted mean of quantile grids.

    The result is the barycenter's own quantile grid on the m-point grid
    ``grid_ranks(m)``; the weights are checked and normalized, not kept.
    For each grid rank, the weighted mean is the minimizer of the weighted sum
    of squared distances to the group quantiles, so this grid is the exact
    discretized barycenter.
    """
    if not dists:
        raise ValidationError("need at least one distribution")
    w = normalize_weights(weights, len(dists))

    quantiles = np.zeros(m)
    for dist, wg in zip(dists, w):
        quantiles += wg * discretize_quantiles(dist, m).quantiles
    return QuantileGrid(quantiles)

