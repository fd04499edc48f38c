"""Multi-dimensional score support via entropic-regularized optimal transport.

Both solvers share one log-domain kernel, ``_AbsorbedKernel``: the cost is
scaled once to ``K = -C/epsilon``, and each measure keeps an absorbed kernel
``E_ref = exp(K + lv_ref - peak)``, built by one n x m ``exp`` from a reference
scaling ``lv_ref`` (``peak`` is its row maximum). A sweep at the current
scaling ``lv`` uses ``E_ref * t`` with ``t = exp(lv - lv_ref)``, an m-vector,
so it is two matrix-vector products: the row sums ``s = vecdot(E_ref, t)``, one
dot product per row, which no BLAS thread count changes (a row holds at most
2,000 entries, the support limit, on every CLI path), and the column sums
``(a/s) @ E_ref``. ``E_ref`` is rebuilt from ``lv`` only when some
``|lv_j - lv_ref_j|`` exceeds ``ABSORB_THRESHOLD`` (Schmitzer,
arXiv:1610.06519, section 3.2). Columns whose sum falls below
``UNDERFLOW_FLOOR`` (a support point far from every atom at small epsilon)
are recomputed with a max-shifted log-sum-exp. This stays stable for epsilon
down to 1e-3 on scores scaled to [0, 1].

Barycenters use iterative Bregman projections on a fixed support and stop when
the barycenter masses move by at most ``tol`` (L1) between sweeps. Each
measure's final coupling ``diag(u_k) K_k diag(v_k)`` (``u_k`` recomputed from
the last ``v_k``, so its row marginal is exactly ``a_k``) gives that measure's
barycentric projection, so ``transform`` and ``audit`` need no second solve:
the barycenter is the only entropic solve on their n-D path, and
``interpolation.barycenter_targets`` reads each record's target off it.

Sinkhorn is used only by ``verify``, which compares each pair of group
measures' entropic cost with the exact LP. It keeps the scaled duals ``f``
and ``g`` and never forms the plan inside its loop. After the g-update the
plan's column marginal is exactly ``b`` and its row marginal is
``a * exp(f - f_next)``, where ``f_next`` comes from the next sweep, which the
loop needs anyway. Once that dual estimate is within ``tol``, the plan is
materialised and its marginal L1 error is checked directly; iteration
continues unless that check passes too.

Plain Sinkhorn at a small epsilon can stall above ``tol`` (two groups of 3
points at epsilon 0.01 stop near 4e-5 after 10000 sweeps), so ``sinkhorn_plan``
scales epsilon (Schmitzer, arXiv:1610.06519; Peyré & Cuturi,
arXiv:1803.00567, section 4.1): it starts at ``max(epsilon, max C)`` and
halves down to the target, with one kernel per stage. A stage above the
target stops at a dual error of ``1e-2`` times its epsilon and hands its
duals on, rescaled by the ratio of the two epsilons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError
from .population import GroupKey, ScoredPopulation
from .solver_settings import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    normalize_weights,
    validate_solver_params,
)

MASS_SUM_TOL = 1e-9

DEFAULT_SUPPORT_LIMIT = 2000

# E_ref is rebuilt when a scaling drifts from lv_ref by more than ABSORB_THRESHOLD;
# a column sum of E_ref below UNDERFLOW_FLOOR is recomputed in the log domain.
# The two are chosen together: see _AbsorbedKernel.
UNDERFLOW_FLOOR = 1e-280
ABSORB_THRESHOLD = 30.0


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    """Squared Euclidean distances, summed one coordinate at a time.

    Memory is the n x m result and one n x m difference, never an n x m x d
    array. Up to d = 7 the sum is bitwise ``np.sum(diff**2, axis=2)``; from
    d = 8 numpy's pairwise sum adds in another order.
    """
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    cost = np.zeros((x.shape[0], y.shape[0]))
    diff = np.empty_like(cost)
    for k in range(x.shape[1]):
        np.subtract.outer(x[:, k], y[:, k], out=diff)
        cost += np.square(diff, out=diff)
    return cost


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


class _AbsorbedKernel:
    """``exp(K + lv)`` of one measure, stored as ``E_ref * t`` up to row factors.

    ``work`` holds ``E_ref = exp(K + lv_ref - peak)``, whose rows each have an
    entry 1. A scaling ``lv`` within ``ABSORB_THRESHOLD`` of ``lv_ref`` in
    every entry is applied as ``t = exp(lv - lv_ref)``, so ``t`` lies in
    [e^-30, e^30]; a larger drift rebuilds ``E_ref`` from ``lv`` first. An
    ``E_ref`` entry that underflowed to 0 or to a subnormal is off by less
    than 5e-324. Scaled by ``t`` or by ``a_i / s_i`` (at most e^30, since the
    row sum ``s_i >= e^-30``), the error stays below 6e-311 a term. So testing
    the unscaled column sum against ``UNDERFLOW_FLOOR`` (1e-280) keeps the
    underflow error of every column it accepts below n * 6e-31 relative,
    under 1e-14 for any feasible n; a row sum, at least e^-30, loses far less.
    """

    def __init__(self, neg_cost: np.ndarray):
        self.neg_cost = neg_cost
        self.work = np.empty_like(neg_cost)
        self.lv_ref: np.ndarray | None = None
        self.peak: np.ndarray | None = None

    def _scaling(self, lv: np.ndarray) -> np.ndarray:
        """``t = exp(lv - lv_ref)``, rebuilding ``E_ref`` from ``lv`` if it drifted.

        A zero-mass atom has ``lv = lv_ref = -inf``; its ``t`` is 1.
        """
        if self.lv_ref is not None:
            delta = np.subtract(lv, self.lv_ref, out=np.zeros_like(lv), where=lv != self.lv_ref)
            if np.abs(delta).max() <= ABSORB_THRESHOLD:
                return np.exp(delta)
        self.peak = _row_pass(self.neg_cost, lv, self.work)
        self.lv_ref = lv
        return np.ones_like(lv)

    def sweep(self, lv: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One entropic sweep: row log-sums, then column log-sums.

        Returns ``row`` with ``row_i = log sum_j exp(K_ij + lv_j)`` and ``col``
        with ``col_j = log sum_i exp(K_ij + log a_i - row_i)``, the column pass
        after the row scaling ``u = a / exp(row)``. Zero-mass atoms keep a
        finite ``row``.
        """
        t = self._scaling(lv)
        sums = np.vecdot(self.work, t)
        row = np.log(sums) + self.peak
        col_sums = (a / sums) @ self.work
        with np.errstate(divide="ignore", invalid="ignore"):
            col = np.log(col_sums * t) - lv
        low = col_sums < UNDERFLOW_FLOOR
        if low.any():  # every E_ref entry of these columns may have underflowed
            col[low] = _logsumexp(
                self.neg_cost[:, low] + (_log_masses(a) - row)[:, None], axis=0
            )
        return row, col

    def projections(self, lv: np.ndarray, support: np.ndarray) -> np.ndarray:
        """Barycentric projection of each row point under ``diag(u) exp(K + lv)``.

        Row ``i`` of the coupling is proportional to ``E_ref_i * t``, so the
        projection is ``E_ref_i @ (t * support) / (E_ref_i @ t)``.
        """
        t = self._scaling(lv)
        return np.vecdot(self.work[:, None], t * support.T) / np.vecdot(self.work, t)[:, None]


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
    ``max_iter`` counts the sweeps of every epsilon stage; the last one is
    always made at ``epsilon``.
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
    cost = squared_cost_matrix(mu.support, nu.support)

    # f and g are the duals scaled by 1/eps; the sweep from g gives
    # f = -row and the next g = -col
    eps = max(epsilon, float(cost.max()))
    g = np.zeros(len(nu))
    it = 0
    while eps > epsilon:
        kernel = _AbsorbedKernel(-cost / eps)
        row, col = kernel.sweep(logb + g, a)
        while it < max_iter - 1:
            it += 1
            f, g = -row, -col
            row, col = kernel.sweep(logb + g, a)
            if np.abs(a * np.exp(f + row) - a).sum() <= 1e-2 * eps:
                break
        next_eps = max(eps / 2, epsilon) if it < max_iter - 1 else epsilon
        g *= eps / next_eps
        eps = next_eps

    neg_cost = -cost / epsilon
    kernel = _AbsorbedKernel(neg_cost)
    row, col = kernel.sweep(logb + g, a)
    while it < max_iter:
        it += 1
        f, g = -row, -col
        row, col = kernel.sweep(logb + g, a)
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


@dataclass(frozen=True, eq=False)
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
    w = normalize_weights(weights, len(measures))
    d = support.shape[1]
    for meas in measures:
        if meas.dimension != d:
            raise DimensionError("all measures must share the support's dimension")

    kernels = [
        _AbsorbedKernel(-squared_cost_matrix(meas.support, support) / epsilon)
        for meas in measures
    ]
    masses = [meas.masses for meas in measures]

    lvs = [np.zeros(support.shape[0]) for _ in measures]
    prev_b = np.full(support.shape[0], 1.0 / support.shape[0])
    for it in range(1, max_iter + 1):
        # col is log(K^T u) with u = a / (K v), the projection onto the row marginal a
        cols = [kern.sweep(lv, a)[1] for kern, lv, a in zip(kernels, lvs, masses)]
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

    # coupling k is diag(u) K diag(v) with u recomputed from the last v
    projections = tuple(kern.projections(lv, support) for kern, lv in zip(kernels, lvs))
    return BregmanBarycenter(
        support=support,
        masses=b / b.sum(),
        projections=projections,
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


def group_measures(pop: ScoredPopulation, points: np.ndarray) -> dict[GroupKey, DiscreteMeasure]:
    """Uniform empirical measure of each group's rows of ``points``, in group order.

    ``points`` has one row per record: the scores themselves, or their
    normalized coordinates.
    """
    return {
        key: DiscreteMeasure(support=points[idx], masses=np.full(idx.size, 1.0 / idx.size))
        for key, idx in pop.groups.items()
    }


def compute_barycenter_nd(
    pop: ScoredPopulation,
    weights: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> BregmanBarycenter:
    """Barycenter of the group score clouds, in original score coordinates.

    ``weights`` follow ``pop.group_keys()``. Transport happens on per-dimension
    min-max normalized coordinates; the returned support and projections are
    de-normalized back. The projections follow ``pop.group_keys()``.
    """
    scores = pop.scores
    if scores.ndim == 1:
        scores = scores[:, None]
    lo, scale = _normalization_bounds(scores)
    norm = (scores - lo) / scale

    measures = list(group_measures(pop, norm).values())
    support = default_barycenter_support(norm, DEFAULT_SUPPORT_LIMIT, seed)
    bary = barycenter_fixed_support(
        measures, weights, support, epsilon=epsilon, tol=tol, max_iter=max_iter
    )
    return replace(
        bary,
        support=bary.support * scale + lo,
        projections=tuple(p * scale + lo for p in bary.projections),
    )
