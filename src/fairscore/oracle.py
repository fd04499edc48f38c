"""Deliberately naive, independent verifiers for the transport computations.

These are shipped (not test-only) so any small instance can be re-checked from
the CLI ``verify`` subcommand. Each oracle refuses instances above its size
guard instead of silently taking forever.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Sequence

import numpy as np

from .empirical import EmpiricalDistribution, QuantileGrid, grid_ranks, quantile
from .errors import OracleGuardError, ValidationError
from .interpolation import FairScores
from .metrics import _aligned
from .population import ScoredPopulation
from .transportnd import DiscreteMeasure, squared_cost_matrix

BRUTEFORCE_MAX_N = 8
# verify runs the brute force once per pair of equal-size groups, about 0.4 s a pair at n = 8
BRUTEFORCE_MAX_PAIRS = 10
LP_MAX_SUPPORT = 20
COORDINATE_MAX_M = 50
PAIRWISE_MAX_N = 2000


def ot_cost_bruteforce(x: Sequence, y: Sequence) -> float:
    """Exact W2^2 between equal-size uniform samples by permutation enumeration."""
    xa = np.atleast_2d(np.asarray(x, dtype=float).T).T
    ya = np.atleast_2d(np.asarray(y, dtype=float).T).T
    n = xa.shape[0]
    if ya.shape[0] != n:
        raise ValidationError("sample sets must have equal size")
    if n > BRUTEFORCE_MAX_N:
        raise OracleGuardError(f"brute-force oracle refuses n > {BRUTEFORCE_MAX_N}")
    best = np.inf
    for sigma in permutations(range(n)):
        cost = float(np.mean(np.sum((xa - ya[list(sigma)]) ** 2, axis=1)))
        best = min(best, cost)
    return best


def lp_transport_exact(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple[float, np.ndarray]:
    """Exact unregularized OT via linear programming (HiGHS dual simplex)."""
    from scipy.optimize import linprog  # only verify and the tests need scipy

    n, m = len(mu), len(nu)
    if n > LP_MAX_SUPPORT or m > LP_MAX_SUPPORT:
        raise OracleGuardError(f"LP oracle refuses supports larger than {LP_MAX_SUPPORT}")
    C = squared_cost_matrix(mu.support, nu.support)

    # equality constraints: row sums = mu.masses, col sums = nu.masses (one redundant row dropped)
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(mu.masses[i])
    for j in range(m - 1):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
        b_eq.append(nu.masses[j])

    res = linprog(
        C.ravel(),
        A_eq=np.array(a_eq),
        b_eq=np.array(b_eq),
        bounds=(0, None),
        method="highs-ds",
    )
    if not res.success:
        raise ValidationError(f"exact LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    return float(np.sum(plan * C)), plan


def barycenter_coordinate_oracle(
    dists: Sequence[EmpiricalDistribution],
    weights: Sequence[float],
    m: int,
    grid_resolution: float = 1e-4,
) -> QuantileGrid:
    """Coordinate-wise scalar grid search for the barycenter quantile grid.

    Independently re-derives each grid value by minimizing the weighted sum of
    squared distances to the group quantiles over a dense scalar grid.
    """
    if m > COORDINATE_MAX_M:
        raise OracleGuardError(f"coordinate oracle refuses m > {COORDINATE_MAX_M}")
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    ranks = grid_ranks(m)
    out = np.empty(m)
    for k, p in enumerate(ranks):
        qs = np.array([quantile(d, p) for d in dists])
        lo, hi = qs.min(), qs.max()
        if hi - lo < grid_resolution:
            out[k] = float(np.dot(w, qs))
            continue
        candidates = np.arange(lo, hi + grid_resolution, grid_resolution)
        objective = ((candidates[:, None] - qs[None, :]) ** 2 * w[None, :]).sum(axis=1)
        out[k] = float(candidates[np.argmin(objective)])
    # enforce monotonicity against grid-search jitter
    out = np.maximum.accumulate(out)
    return QuantileGrid(ranks=ranks, quantiles=out)


def individual_fairness_error_naive(pop: ScoredPopulation, fair: FairScores) -> float:
    """Cross-group strict-inversion rate by O(n^2) pair enumeration.

    Reference for ``metrics.individual_fairness_error``: every cross-group
    pair with distinct raw scores counts, and it is an inversion when the
    fair scores order it strictly the other way.
    """
    fv = _aligned(pop, fair)
    if len(pop) > PAIRWISE_MAX_N:
        raise OracleGuardError(f"pairwise oracle refuses n > {PAIRWISE_MAX_N}")
    raw = pop.scores
    group_of = np.empty(len(pop), dtype=int)
    for gi, idx in enumerate(pop.groups.values()):
        group_of[idx] = gi

    pairs = 0
    inversions = 0
    for i, j in combinations(range(len(pop)), 2):
        if group_of[i] == group_of[j] or raw[i] == raw[j]:
            continue
        pairs += 1
        lo, hi = (i, j) if raw[i] < raw[j] else (j, i)
        if fv[lo] > fv[hi]:
            inversions += 1
    return inversions / pairs if pairs else 0.0
