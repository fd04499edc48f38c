"""Multi-dimensional score support via entropic-regularized optimal transport.

Both solvers share one log-domain kernel: the cost is scaled once to
``K = -C/epsilon`` and every update is a numpy log-sum-exp over ``K`` plus a
dual or log-mass vector, so they stay stable for epsilon down to 1e-3 on
scores scaled to [0, 1].

Sinkhorn keeps the scaled duals ``f`` and ``g`` and never forms the plan inside
its loop. After the g-update the plan's column marginal is exactly ``b`` and
its row marginal is ``a * exp(f - f_next)``, where ``f_next`` is the next
f-update, which the loop needs anyway. Once that dual estimate is within
``tol``, the plan is materialised and its marginal L1 error is checked
directly; iteration continues unless that check passes too.

Barycenters use iterative Bregman projections on a fixed support and stop when
the barycenter masses move by at most ``tol`` (L1) between sweeps. Transport
plans are turned into maps via barycentric projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .interpolation import FairScores, ThetaPolicy, check_policy_against, resolve_theta
from .population import ScoredPopulation

MASS_SUM_TOL = 1e-9

DEFAULT_EPSILON = 0.01
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000
DEFAULT_SUPPORT_LIMIT = 2000


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
    """Reject entropic solver settings under which no iteration can converge."""
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
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
    logb = _log_masses(b)
    neg_cost = -squared_cost_matrix(mu.support, nu.support) / epsilon
    row_kernel = neg_cost + logb[None, :]
    col_kernel = neg_cost + _log_masses(a)[:, None]
    work = np.empty_like(neg_cost)

    # f and g are the duals scaled by 1/epsilon
    g = np.zeros(len(nu))
    f_next = -_logsumexp(np.add(row_kernel, g[None, :], out=work), axis=1)
    for it in range(1, max_iter + 1):
        f = f_next
        g = -_logsumexp(np.add(col_kernel, f[:, None], out=work), axis=0)
        f_next = -_logsumexp(np.add(row_kernel, g[None, :], out=work), axis=1)
        # the column marginal is exactly b here; the row marginal is a * exp(f - f_next)
        if it < max_iter and np.abs(a * np.exp(f - f_next) - a).sum() > tol:
            continue
        plan = np.exp(col_kernel + f[:, None] + g[None, :] + logb[None, :])
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


def barycenter_fixed_support(
    measures: Sequence[DiscreteMeasure],
    weights: Sequence[float],
    support: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> DiscreteMeasure:
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
    if np.any(w <= 0) or abs(w.sum() - 1.0) > MASS_SUM_TOL:
        raise ValidationError("weights must be strictly positive and sum to 1")
    w = w / w.sum()
    d = support.shape[1]
    for meas in measures:
        if meas.dimension != d:
            raise DimensionError("all measures must share the support's dimension")

    neg_costs = [-squared_cost_matrix(meas.support, support) / epsilon for meas in measures]
    logas = [_log_masses(meas.masses) for meas in measures]
    works = [np.empty_like(nc) for nc in neg_costs]

    log_b = np.full(support.shape[0], -np.log(support.shape[0]))
    lvs = [np.zeros(support.shape[0]) for _ in measures]
    prev_b = np.exp(log_b)
    for it in range(1, max_iter + 1):
        lktus = []
        for nc, loga, lv, work in zip(neg_costs, logas, lvs, works):
            lu = loga - _logsumexp(np.add(nc, lv[None, :], out=work), axis=1)
            lktus.append(_logsumexp(np.add(nc, lu[:, None], out=work), axis=0))
        log_b = sum(wk * lk for wk, lk in zip(w, lktus))
        lvs = [log_b - lk for lk in lktus]
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

    return DiscreteMeasure(support=support, masses=b / b.sum())


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
    scores = pop.scores_array()
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
) -> DiscreteMeasure:
    """Barycenter of the group score clouds, in original score coordinates.

    Transport happens on per-dimension min-max normalized coordinates; the
    returned support is de-normalized back.
    """
    scores = pop.scores_array()
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
    return DiscreteMeasure(support=bary.support * scale + lo, masses=bary.masses)


def interpolate_scores_nd(
    pop: ScoredPopulation,
    bary: DiscreteMeasure,
    policy: ThetaPolicy,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FairScores:
    """Theta-interpolated transport of each group toward the barycenter (d >= 2).

    Each group point is mapped to its barycentric projection under the group's
    Sinkhorn plan, then blended with the raw point by the group's theta.
    """
    if pop.dimension < 2:
        raise DimensionError(
            "interpolate_scores_nd handles multi-dimensional scores only; "
            "use interpolate_scores for 1-D populations"
        )
    if bary.dimension != pop.dimension:
        raise DimensionError("barycenter dimension does not match the population")
    check_policy_against(policy, pop)

    scores = pop.scores_array()
    lo, scale = _normalization_bounds(np.vstack([scores, bary.support]))
    norm_scores = (scores - lo) / scale
    norm_support = (bary.support - lo) / scale
    norm_bary = DiscreteMeasure(support=norm_support, masses=bary.masses)

    fair = np.empty_like(scores)
    for key, idx in pop.groups.items():
        theta = resolve_theta(policy, key)
        pts = norm_scores[idx]
        if theta == 0.0:
            fair[idx] = scores[idx]
            continue
        mu = DiscreteMeasure(support=pts, masses=np.full(idx.size, 1.0 / idx.size))
        plan = sinkhorn_plan(mu, norm_bary, epsilon=epsilon, tol=tol, max_iter=max_iter)
        if not plan.converged:
            raise ConvergenceError(
                f"Sinkhorn did not converge for group {key} "
                f"(marginal error {plan.marginal_error:.3e} after {plan.iterations_run} iters)",
                iterations=plan.iterations_run,
                marginal_error=plan.marginal_error,
            )
        row_mass = plan.matrix.sum(axis=1, keepdims=True)
        projected = (plan.matrix @ norm_support) / row_mass
        blended = (1.0 - theta) * pts + theta * projected
        fair[idx] = blended * scale + lo
    return FairScores(values=fair, theta_used=policy, barycenter_ref=bary)
