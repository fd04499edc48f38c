"""Deliberately naive, independent verifiers for the transport computations.

These are shipped (not test-only) so any small instance can be re-checked from
the CLI ``verify`` subcommand; ``verify`` below holds that re-check's size
guards, tolerances and PASS/FAIL lines. Each oracle refuses instances above
its size guard instead of silently taking forever.
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations
from typing import Callable, Iterator, Sequence

import numpy as np

from .empirical import EmpiricalDistribution, QuantileGrid, grid_ranks, quantile
from .errors import OracleGuardError, ValidationError
from .interpolation import FairScores, ThetaPolicy, interpolate_scores
from .metrics import _aligned, individual_fairness_error
from .population import ScoredPopulation
from .transport1d import barycenter_1d, group_distributions, w2_distance
from .transportnd import DiscreteMeasure, group_measures, sinkhorn_plan, squared_cost_matrix

BRUTEFORCE_MAX_N = 8
# verify runs the brute force once per pair of equal-size groups, about 0.4 s a pair at n = 8
BRUTEFORCE_MAX_PAIRS = 10
LP_MAX_SUPPORT = 20
COORDINATE_MAX_M = 50
# the coordinate search's step, and verify's bound on its gap to the barycenter
COORDINATE_RESOLUTION = 1e-4
# candidates x groups of the coordinate search's objective: 80 MB for each of its temporaries
COORDINATE_MAX_CELLS = 10**7
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
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))[:-1]])
    b_eq = np.concatenate([mu.masses, nu.masses[:-1]])
    res = linprog(C.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
    if not res.success:
        raise ValidationError(f"exact LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    return float(np.sum(plan * C)), plan


def _check_coordinate_span(span: float, groups: int) -> None:
    """Refuse a coordinate search over more than ``COORDINATE_MAX_CELLS`` cells: every
    quantile lies within the samples' range ``span``, so each grid value is searched among
    at most about ``span / COORDINATE_RESOLUTION + 1`` candidates, each against ``groups``
    quantiles.
    """
    # an infinite span is refused too
    if not (span / COORDINATE_RESOLUTION + 1) * groups <= COORDINATE_MAX_CELLS:
        raise OracleGuardError(
            f"coordinate oracle refuses a score range of {span:.6g} at resolution "
            f"{COORDINATE_RESOLUTION:g} over {groups} groups "
            f"(more than {COORDINATE_MAX_CELLS} cells)"
        )


def barycenter_coordinate_oracle(
    dists: Sequence[EmpiricalDistribution],
    weights: Sequence[float],
    m: int,
) -> QuantileGrid:
    """Coordinate-wise scalar grid search for the barycenter quantile grid.

    Independently re-derives each grid value by minimizing the weighted sum of
    squared distances to the group quantiles over a dense scalar grid.
    """
    if m > COORDINATE_MAX_M:
        raise OracleGuardError(f"coordinate oracle refuses m > {COORDINATE_MAX_M}")
    span = float(max(d.values[-1] for d in dists)) - float(min(d.values[0] for d in dists))
    _check_coordinate_span(span, len(dists))
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    ranks = grid_ranks(m)
    out = np.empty(m)
    for k, p in enumerate(ranks):
        qs = np.array([quantile(d, p) for d in dists])
        lo, hi = qs.min(), qs.max()
        if hi - lo < COORDINATE_RESOLUTION:
            out[k] = float(np.dot(w, qs))
            continue
        candidates = np.arange(lo, hi + COORDINATE_RESOLUTION, COORDINATE_RESOLUTION)
        objective = ((candidates[:, None] - qs[None, :]) ** 2 * w[None, :]).sum(axis=1)
        out[k] = float(candidates[np.argmin(objective)])
    # enforce monotonicity against grid-search jitter
    out = np.maximum.accumulate(out)
    return QuantileGrid(out)


def individual_fairness_error_naive(pop: ScoredPopulation, fair: FairScores) -> float:
    """Cross-group strict-inversion rate by O(n^2) pair enumeration.

    Reference for ``metrics.individual_fairness_error``: every cross-group
    pair with distinct raw scores counts, and it is an inversion when the
    fair scores order it strictly the other way.
    """
    fv = _aligned(pop, fair)
    if len(pop) > PAIRWISE_MAX_N:
        raise OracleGuardError(f"pairwise oracle refuses n > {PAIRWISE_MAX_N}")
    raw, group_of = pop.scores, pop.group_codes

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


def verify(
    pop: ScoredPopulation,
    weights: Callable[[], Sequence[float]],
    policy: ThetaPolicy,
    m: int,
    epsilon: float,
    tol: float,
    max_iter: int,
) -> int:
    """Re-check ``pop`` against the oracles; return the number of failed checks.

    Prints one ``PASS`` or ``FAIL`` line per check to stdout, then the failure
    count, if any, to stderr; every size guard raises ``OracleGuardError``
    before the first line. 1-D scores check each pairwise W2 of equal-size
    groups, the barycenter of ``weights()`` on the ``m``-point grid (called
    after the guards) and the individual fairness error under ``policy``;
    n-D scores check each pair's Sinkhorn plan against the exact LP.
    """
    if pop.dimension == 1:
        checks = _checks_1d(pop, weights, policy, m)
    else:
        checks = _checks_nd(pop, epsilon, tol, max_iter)
    failures = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
    return failures


def _checks_1d(
    pop: ScoredPopulation, weights: Callable[[], Sequence[float]], policy: ThetaPolicy, m: int
) -> Iterator[tuple[str, bool, str]]:
    keys = list(pop.groups)
    for key in keys:
        if len(pop.groups[key]) > BRUTEFORCE_MAX_N:
            raise OracleGuardError(
                f"verify refuses groups larger than {BRUTEFORCE_MAX_N} "
                f"(group {key} has {len(pop.groups[key])})"
            )
    if m > COORDINATE_MAX_M:
        raise OracleGuardError(f"verify refuses grid sizes larger than {COORDINATE_MAX_M}")
    if len(pop) > PAIRWISE_MAX_N:
        raise OracleGuardError(f"verify refuses more than {PAIRWISE_MAX_N} rows")
    pairs = [
        (a, b) for a, b in combinations(keys, 2) if len(pop.groups[a]) == len(pop.groups[b]) >= 2
    ]
    if len(pairs) > BRUTEFORCE_MAX_PAIRS:
        raise OracleGuardError(
            f"verify refuses more than {BRUTEFORCE_MAX_PAIRS} pairs of equal-size groups "
            f"(the input has {len(pairs)})"
        )
    _check_coordinate_span(float(pop.scores.max() - pop.scores.min()), len(keys))

    dists = dict(zip(keys, group_distributions(pop)))
    w = weights()
    bary = barycenter_1d(list(dists.values()), w, m)  # a bad weight is refused before any line
    for a, b in pairs:
        fast = w2_distance(dists[a], dists[b], len(pop.groups[a])) ** 2
        brute = ot_cost_bruteforce(pop.scores[pop.groups[a]], pop.scores[pop.groups[b]])
        detail = f"grid {fast:.12g} vs exact {brute:.12g}"
        yield f"w2({a},{b}) vs permutation brute force", abs(fast - brute) <= 1e-9, detail

    reference = barycenter_coordinate_oracle(list(dists.values()), w, m)
    gap = float(np.max(np.abs(bary.quantiles - reference.quantiles)))
    ok = gap <= COORDINATE_RESOLUTION
    yield "barycenter vs coordinate search", ok, f"max coordinate gap {gap:.3e}"

    fair = interpolate_scores(pop, bary, policy)
    counted = individual_fairness_error(pop, fair)
    enumerated = individual_fairness_error_naive(pop, fair)
    yield (
        "individual fairness error vs pairwise enumeration",
        abs(counted - enumerated) <= 1e-12,
        f"counted {counted:.12g} vs enumerated {enumerated:.12g}",
    )


def _checks_nd(
    pop: ScoredPopulation, epsilon: float, tol: float, max_iter: int
) -> Iterator[tuple[str, bool, str]]:
    measures = group_measures(pop, pop.scores)
    for key, measure in measures.items():
        if len(measure) > LP_MAX_SUPPORT:
            raise OracleGuardError(
                f"verify refuses supports larger than {LP_MAX_SUPPORT} (group {key})"
            )
    for a, b in combinations(measures, 2):
        mu, nu = measures[a], measures[b]
        plan = sinkhorn_plan(mu, nu, epsilon=epsilon, tol=tol, max_iter=max_iter)
        if not plan.converged:  # its marginals are off, so it is no coupling
            yield f"sinkhorn({a},{b}) converged", False, (
                f"marginal error {plan.marginal_error:.3e} after {plan.iterations_run} iterations"
            )
            continue
        cost = float(np.sum(plan.matrix * squared_cost_matrix(mu.support, nu.support)))
        lp_cost, _ = lp_transport_exact(mu, nu)
        slack = epsilon * np.log(len(mu) * len(nu) + 1.0)
        ok = lp_cost - 1e-9 <= cost <= lp_cost + slack + 1e-9
        yield f"sinkhorn({a},{b}) vs exact LP", ok, (
            f"entropic {cost:.12g} in [{lp_cost:.12g}, {lp_cost + slack:.12g}]"
        )
