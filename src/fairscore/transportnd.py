"""Multi-dimensional score support via entropic-regularized optimal transport.

Both solvers share one log-domain kernel, ``_sweep``: the cost is scaled once
to ``K = -C/epsilon`` and each sweep takes one ``exp`` per measure. The row
pass forms ``E = exp(K + lv - rowmax)`` and its row sums ``s``; the column
log-sum-exp is then ``log((a/s) @ E) - lv``, one matrix-vector product.
Columns whose sum falls below ``UNDERFLOW_FLOOR`` (a support point far from
every atom at small epsilon) are recomputed with a max-shifted log-sum-exp.
This stays stable for epsilon down to 1e-3 on scores scaled to [0, 1].

Barycenters use iterative Bregman projections on a fixed support and stop when
the barycenter masses move by at most ``tol`` (L1) between sweeps. Each
measure's final coupling ``diag(u_k) K_k diag(v_k)`` (``u_k`` recomputed from
the last ``v_k``, so its row marginal is exactly ``a_k``) gives that measure's
barycentric projection, so ``transform`` and ``audit`` need no second solve:
the barycenter is the only entropic solve on their n-D path.

Sinkhorn is used only by ``verify`` and by ``interpolate_scores_nd``, which
maps a population onto any given barycenter. It keeps the scaled duals ``f``
and ``g`` and never forms the plan inside its loop. After the g-update the
plan's column marginal is exactly ``b`` and its row marginal is
``a * exp(f - f_next)``, where ``f_next`` comes from the next sweep, which the
loop needs anyway. Once that dual estimate is within ``tol``, the plan is
materialised and its marginal L1 error is checked directly; iteration
continues unless that check passes too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .interpolation import (
    FairScores,
    ThetaPolicy,
    apply_theta,
    check_policy_against,
    resolve_theta,
)
from .population import ScoredPopulation

MASS_SUM_TOL = 1e-9

DEFAULT_EPSILON = 0.01
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000
DEFAULT_SUPPORT_LIMIT = 2000

# a column sum of E below this is recomputed in the log domain
UNDERFLOW_FLOOR = 1e-280


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on d-vectors."""

    support: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        support = np.atleast_2d(np.asarray(self.support, dtype=float))
        masses = np.asarray(self.masses, dtype=float)
        if support.shape[0] != masses.size:
            raise ValidationError("support and masses must have the same length")
        if not np.all(np.isfinite(support)):
            raise ValidationError("support points must be finite")
        if not np.all(np.isfinite(masses)):
            raise ValidationError("masses must be finite")
        if np.any(masses < 0):
            raise ValidationError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > MASS_SUM_TOL:
            raise ValidationError("masses must sum to 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "masses", masses)

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    def __len__(self) -> int:
        return self.support.shape[0]


@dataclass(frozen=True)
class TransportPlan:
    """Entropic coupling between two discrete measures."""

    matrix: np.ndarray
    epsilon: float
    iterations_run: int
    converged: bool
    marginal_error: float

    def cost(self, cost_matrix: np.ndarray) -> float:
        return float(np.sum(self.matrix * cost_matrix))


def squared_cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    diff = x[:, None, :] - y[None, :, :]
    return np.sum(diff**2, axis=2)


def validate_solver_params(epsilon: float, tol: float, max_iter: int) -> None:
    """Reject entropic solver settings under which no iteration can converge.

    ``epsilon`` and ``tol`` must be positive and finite, ``max_iter`` at least 1.
    """
    for name, value in (("epsilon", epsilon), ("tol", tol)):
        if not value > 0:
            raise ValidationError(f"{name} must be positive, got {value}")
        if value == np.inf:  # an infinite tol stops after one sweep and calls it converged
            raise ValidationError(f"{name} must be finite, got {value}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")


def _log_masses(masses: np.ndarray) -> np.ndarray:
    return np.log(masses, where=masses > 0, out=np.full_like(masses, -np.inf))


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(m), axis))``, computed in place: ``m`` is overwritten."""
    peak = m.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0  # an all -inf slice sums to 0, not NaN
    m -= peak
    np.exp(m, out=m)
    with np.errstate(divide="ignore"):
        return np.log(m.sum(axis=axis)) + peak.squeeze(axis)


def _row_pass(neg_cost: np.ndarray, lv: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Fill ``work`` with ``E = exp(K + lv - rowmax)``; return ``rowmax``.

    ``lv`` needs a finite entry, so every row of ``E`` has an entry 1.
    """
    np.add(neg_cost, lv, out=work)
    peak = work.max(axis=1)
    work -= peak[:, None]
    np.exp(work, out=work)
    return peak


def _sweep(
    neg_cost: np.ndarray, lv: np.ndarray, a: np.ndarray, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One entropic sweep with one ``exp``: row log-sums, then column log-sums.

    Returns ``row`` with ``row_i = log sum_j exp(K_ij + lv_j)`` and ``col`` with
    ``col_j = log sum_i exp(K_ij + log a_i - row_i)``, the column pass after the
    row scaling ``u = a / exp(row)``. Zero-mass atoms keep a finite ``row``.
    """
    peak = _row_pass(neg_cost, lv, work)
    sums = work.sum(axis=1)
    row = np.log(sums) + peak
    col_sums = (a / sums) @ work
    with np.errstate(divide="ignore", invalid="ignore"):
        col = np.log(col_sums) - lv
    low = col_sums < UNDERFLOW_FLOOR
    if low.any():  # every E entry of these columns may have underflowed
        col[low] = _logsumexp(neg_cost[:, low] + (_log_masses(a) - row)[:, None], axis=0)
    return row, col


def sinkhorn_plan(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> TransportPlan:
    """Entropic-regularized OT plan under squared-Euclidean cost.

    Returns a plan with ``converged=False`` (rather than raising) when the
    marginal L1 errors are still above ``tol`` after ``max_iter`` sweeps.
    """
    if mu.dimension != nu.dimension:
        raise DimensionError(
            f"measures live in different dimensions ({mu.dimension} vs {nu.dimension})"
        )
    validate_solver_params(epsilon, tol, max_iter)

    a = mu.masses
    b = nu.masses
    loga = _log_masses(a)
    logb = _log_masses(b)
    neg_cost = -squared_cost_matrix(mu.support, nu.support) / epsilon
    work = np.empty_like(neg_cost)

    # f and g are the duals scaled by 1/epsilon; the sweep from g gives
    # f = -row and the next g = -col
    row, col = _sweep(neg_cost, logb, a, work)
    for it in range(1, max_iter + 1):
        f, g = -row, -col
        row, col = _sweep(neg_cost, logb + g, a, work)
        # the column marginal is exactly b here; the row marginal is a * exp(f + row)
        if it < max_iter and np.abs(a * np.exp(f + row) - a).sum() > tol:
            continue
        plan = np.exp(neg_cost + (loga + f)[:, None] + (logb + g)[None, :])
        row_err = float(np.abs(plan.sum(axis=1) - a).sum())
        col_err = float(np.abs(plan.sum(axis=0) - b).sum())
        err = max(row_err, col_err)
        if err <= tol:
            break

    return TransportPlan(
        matrix=plan,
        epsilon=epsilon,
        iterations_run=it,
        converged=err <= tol,
        marginal_error=err,
    )


@dataclass(frozen=True)
class BregmanBarycenter(DiscreteMeasure):
    """A barycenter together with what its Bregman solve learned.

    ``projections[k]`` holds, for each point of input measure ``k``, its
    barycentric projection under that measure's final coupling onto the
    support. ``iterations`` is the number of sweeps run and ``mass_change``
    the last L1 change of the masses.
    """

    projections: tuple[np.ndarray, ...]
    iterations: int
    mass_change: float


def barycenter_fixed_support(
    measures: Sequence[DiscreteMeasure],
    weights: Sequence[float],
    support: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BregmanBarycenter:
    """Entropic W2 barycenter on a fixed support via iterative Bregman projections.

    Raises ``ConvergenceError`` when the masses still move by more than ``tol``
    (L1) after ``max_iter`` sweeps.
    """
    validate_solver_params(epsilon, tol, max_iter)
    support = np.atleast_2d(np.asarray(support, dtype=float))
    if support.size == 0:
        raise ValidationError("barycenter support must be non-empty")
    if not measures:
        raise ValidationError("need at least one measure")
    w = np.asarray(weights, dtype=float)
    if w.size != len(measures):
        raise ValidationError("number of weights must match number of measures")
    if not (np.all(w > 0) and abs(w.sum() - 1.0) <= MASS_SUM_TOL):  # a NaN weight fails this too
        raise ValidationError("weights must be strictly positive and sum to 1")
    w = w / w.sum()
    d = support.shape[1]
    for meas in measures:
        if meas.dimension != d:
            raise DimensionError("all measures must share the support's dimension")

    neg_costs = [-squared_cost_matrix(meas.support, support) / epsilon for meas in measures]
    masses = [meas.masses for meas in measures]
    works = [np.empty_like(nc) for nc in neg_costs]

    lvs = [np.zeros(support.shape[0]) for _ in measures]
    prev_b = np.full(support.shape[0], 1.0 / support.shape[0])
    for it in range(1, max_iter + 1):
        # col is log(K^T u) with u = a / (K v), the projection onto the row marginal a
        cols = [_sweep(*args)[1] for args in zip(neg_costs, lvs, masses, works)]
        log_b = sum(wk * col for wk, col in zip(w, cols))
        lvs = [log_b - col for col in cols]
        b = np.exp(log_b)
        change = float(np.abs(b - prev_b).sum())
        if change <= tol:
            break
        prev_b = b
    else:
        raise ConvergenceError(
            f"Bregman barycenter did not converge (mass change {change:.3e} after {it} iters)",
            iterations=it,
            marginal_error=change,
        )

    # coupling k is diag(u) K diag(v) with u recomputed from the last v, so row i
    # is a_i * E_i / sum(E_i) and the projection of point i is E_i @ support / sum(E_i)
    projections = []
    for nc, lv, work in zip(neg_costs, lvs, works):
        _row_pass(nc, lv, work)
        projections.append((work @ support) / work.sum(axis=1, keepdims=True))
    return BregmanBarycenter(
        support=support,
        masses=b / b.sum(),
        projections=tuple(projections),
        iterations=it,
        mass_change=change,
    )


def default_barycenter_support(
    points: np.ndarray, limit: int = DEFAULT_SUPPORT_LIMIT, seed: int = 0
) -> np.ndarray:
    """Union of all sample points, subsampled uniformly (fixed seed) to ``limit``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] <= limit:
        return points.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    idx = rng.choice(points.shape[0], size=limit, replace=False)
    return points[np.sort(idx)]


def _normalization_bounds(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    scale = hi - lo
    scale[scale == 0] = 1.0  # constant dimension: leave coordinates unchanged
    return lo, scale


def group_measures(pop: ScoredPopulation) -> dict:
    """Uniform empirical measure of each group's score cloud."""
    scores = pop.scores
    out = {}
    for key, idx in pop.groups.items():
        pts = scores[idx]
        out[key] = DiscreteMeasure(support=pts, masses=np.full(len(idx), 1.0 / len(idx)))
    return out


def compute_barycenter_nd(
    pop: ScoredPopulation,
    weights: Sequence[float] | None = None,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    support_limit: int = DEFAULT_SUPPORT_LIMIT,
    seed: int = 0,
) -> BregmanBarycenter:
    """Barycenter of the group score clouds, in original score coordinates.

    Transport happens on per-dimension min-max normalized coordinates; the
    returned support and projections are de-normalized back. The projections
    follow ``pop.group_keys()``.
    """
    scores = pop.scores
    if scores.ndim == 1:
        scores = scores[:, None]
    lo, scale = _normalization_bounds(scores)
    norm = (scores - lo) / scale

    keys = pop.group_keys()
    if weights is None:
        weights = [len(pop.groups[k]) / len(pop) for k in keys]
    measures = []
    for key in keys:
        idx = pop.groups[key]
        measures.append(
            DiscreteMeasure(support=norm[idx], masses=np.full(idx.size, 1.0 / idx.size))
        )
    support = default_barycenter_support(norm, limit=support_limit, seed=seed)
    bary = barycenter_fixed_support(
        measures, weights, support, epsilon=epsilon, tol=tol, max_iter=max_iter
    )
    return replace(
        bary,
        support=bary.support * scale + lo,
        projections=tuple(p * scale + lo for p in bary.projections),
    )


def barycenter_targets_nd(pop: ScoredPopulation, bary: BregmanBarycenter) -> np.ndarray:
    """T(s) for every record: its projection under its group's Bregman coupling.

    The n-D counterpart of ``interpolation.barycenter_targets``; ``bary`` comes
    from ``compute_barycenter_nd(pop, ...)``.
    """
    sizes = [len(pop.groups[k]) for k in pop.group_keys()]
    if [len(p) for p in bary.projections] != sizes:
        raise ValidationError("barycenter projections do not match the population's groups")
    targets = np.empty_like(pop.scores)
    for idx, projection in zip(pop.groups.values(), bary.projections):
        targets[idx] = projection
    return targets


def interpolate_scores_nd(
    pop: ScoredPopulation,
    bary: DiscreteMeasure,
    policy: ThetaPolicy,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FairScores:
    """Theta-interpolated transport of each group toward any barycenter (d >= 2).

    Each group point is mapped to its barycentric projection under the group's
    Sinkhorn plan onto ``bary``, then blended with the raw point by
    ``apply_theta``. Groups with theta 0 run no solve.
    """
    if pop.dimension < 2:
        raise DimensionError(
            "interpolate_scores_nd handles multi-dimensional scores only; "
            "use interpolate_scores for 1-D populations"
        )
    if bary.dimension != pop.dimension:
        raise DimensionError("barycenter dimension does not match the population")
    check_policy_against(policy, pop)

    scores = pop.scores
    lo, scale = _normalization_bounds(np.vstack([scores, bary.support]))
    norm_bary = DiscreteMeasure(support=(bary.support - lo) / scale, masses=bary.masses)

    targets = np.empty_like(scores)  # rows of theta-0 groups are never read
    for key, idx in pop.groups.items():
        if resolve_theta(policy, key) == 0.0:
            continue
        mu = DiscreteMeasure(
            support=(scores[idx] - lo) / scale, masses=np.full(idx.size, 1.0 / idx.size)
        )
        plan = sinkhorn_plan(mu, norm_bary, epsilon=epsilon, tol=tol, max_iter=max_iter)
        if not plan.converged:
            raise ConvergenceError(
                f"Sinkhorn did not converge for group {key} "
                f"(marginal error {plan.marginal_error:.3e} after {plan.iterations_run} iters)",
                iterations=plan.iterations_run,
                marginal_error=plan.marginal_error,
            )
        projected = (plan.matrix @ norm_bary.support) / plan.matrix.sum(axis=1, keepdims=True)
        targets[idx] = projected * scale + lo
    return apply_theta(pop, bary, targets, policy)
