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
arXiv:1610.06519, section 3.2); halving epsilon squares it. Columns whose sum
falls below ``UNDERFLOW_FLOOR`` (a support point far from every atom at small
epsilon) are recomputed with a max-shifted log-sum-exp. This stays stable for
epsilon down to 1e-3 on scores scaled to [0, 1].

Both solvers are one loop, ``_bregman``, of iterative Bregman projections
(Benamou et al., arXiv:1412.5154). A sweep scales each measure's coupling
``diag(u_k) exp(K_k + lv_k)`` to its row marginal ``a_k``; the loop stops when
every such coupling has a column marginal within ``tol`` (L1) of ``b``, and
otherwise scales the columns to ``b``. For a barycenter ``b`` is the weighted
geometric mean of the couplings' column marginals; a transport plan is the
one-measure case with the target's masses as ``b``. ``marginal_error`` is that
L1 error on ``TransportPlan``, ``BregmanBarycenter`` and ``ConvergenceError``.
At a small epsilon the loop alone can crawl (two groups of 3 points at epsilon
0.01 reach 4e-5 after 10000 sweeps), so ``_scaled_bregman`` runs it once per
epsilon stage (Peyré & Cuturi, arXiv:1803.00567, section 4.1).

Each measure's final coupling gives its barycentric projection, so
``transform`` and ``audit`` need no second solve, and
``interpolation.barycenter_targets`` reads each record's target off the
barycenter. Only ``verify`` calls ``sinkhorn_plan``; both marginals of the
plan it returns, checked directly, decide ``converged``.
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
    with np.errstate(over="ignore"):  # an infinite cost is refused by the solvers
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

    def halve_epsilon(self) -> None:
        """Become the kernel at half the epsilon with no ``exp``: ``K``, ``lv_ref``
        and ``peak`` double, so ``E_ref`` squares. Callers double their ``lv``."""
        self.neg_cost *= 2
        if self.lv_ref is not None:
            self.work *= self.work
            self.lv_ref = 2 * self.lv_ref
            self.peak = 2 * self.peak

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

    def sweep(self, lv: np.ndarray, a: np.ndarray) -> np.ndarray:
        """One entropic sweep: the row scaling ``u`` that gives ``diag(u) exp(K + lv)``
        the row marginal ``a``, then ``col_j = log sum_i u_i exp(K_ij)``."""
        t = self._scaling(lv)
        sums = np.vecdot(self.work, t)
        col_sums = (a / sums) @ self.work
        with np.errstate(divide="ignore", invalid="ignore"):
            col = np.log(col_sums * t) - lv
        low = col_sums < UNDERFLOW_FLOOR
        if low.any():  # every E_ref entry of these columns may have underflowed
            log_u = _log_masses(a) - np.log(sums) - self.peak
            col[low] = _logsumexp(self.neg_cost[:, low] + log_u[:, None], axis=0)
        return col

    def projections(self, lv: np.ndarray, support: np.ndarray) -> np.ndarray:
        """Barycentric projection of each row point under ``diag(u) exp(K + lv)``.

        Row ``i`` of the coupling is proportional to ``E_ref_i * t``, so the
        projection is ``E_ref_i @ (t * support) / (E_ref_i @ t)``.
        """
        t = self._scaling(lv)
        return np.vecdot(self.work[:, None], t * support.T) / np.vecdot(self.work, t)[:, None]


def _bregman(kernels, masses, lvs, target, tol, max_iter):
    """Alternate Bregman projections from the column scalings ``lvs``.

    After its row scaling, coupling ``k`` has the column marginal
    ``exp(lv_k + col_k)``, and ``target(cols)`` gives ``log b``. The loop stops
    when every such marginal is within ``tol`` (L1) of ``b``, or after
    ``max_iter`` sweeps, and returns the scalings of those couplings, ``log b``,
    the sweeps run and the largest L1 error.
    """
    for it in range(1, max_iter + 1):
        cols = [kern.sweep(lv, a) for kern, lv, a in zip(kernels, lvs, masses)]
        log_b = target(cols)
        b = np.exp(log_b)
        err = max(float(np.abs(np.exp(lv + col) - b).sum()) for lv, col in zip(lvs, cols))
        if err <= tol or it == max_iter:
            return lvs, log_b, it, err
        lvs = [log_b - col for col in cols]


def _scaled_bregman(costs, masses, target, epsilon, tol, max_iter):
    """``_bregman`` from zero scalings, once per epsilon stage.

    The stages halve ``epsilon * 2**s``, the first such value at least
    ``max C``, down to ``epsilon``. A stage above it stops at an error of
    ``1e-2`` times its epsilon, and the last sweep is always made at
    ``epsilon``. Returns the kernels at ``epsilon`` and the last stage's
    result, with the sweeps of every stage.
    """
    max_cost = max(float(cost.max()) for cost in costs)
    eps = epsilon
    while eps < max_cost:
        eps *= 2
    if not np.isfinite(eps):
        raise ValidationError("squared distances between support points overflow")
    kernels = [_AbsorbedKernel(-cost / eps) for cost in costs]
    lvs = [np.zeros(cost.shape[1]) for cost in costs]
    it = 0
    while eps > epsilon:
        if it < max_iter - 1:
            budget = max_iter - 1 - it
            lvs, _, sweeps, _ = _bregman(kernels, masses, lvs, target, 1e-2 * eps, budget)
            it += sweeps
        for kern in kernels:
            kern.halve_epsilon()
        lvs = [2 * lv for lv in lvs]
        eps /= 2
    lvs, log_b, sweeps, err = _bregman(kernels, masses, lvs, target, tol, max_iter - it)
    return kernels, lvs, log_b, it + sweeps, err


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

    a, b = mu.masses, nu.masses
    logb = _log_masses(b)
    cost = squared_cost_matrix(mu.support, nu.support)
    _, (lv,), _, it, _ = _scaled_bregman([cost], [a], lambda cols: logb, epsilon, tol, max_iter)

    log_plan = lv - cost / epsilon
    log_plan += (_log_masses(a) - _logsumexp(log_plan.copy(), axis=1))[:, None]
    plan = np.exp(log_plan)
    row_err = float(np.abs(plan.sum(axis=1) - a).sum())
    col_err = float(np.abs(plan.sum(axis=0) - b).sum())
    err = max(row_err, col_err)
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
    support. ``iterations`` is the number of sweeps run and
    ``marginal_error`` the largest L1 distance of a final coupling's column
    marginal from the barycenter.
    """

    projections: tuple[np.ndarray, ...]
    iterations: int
    marginal_error: float


def barycenter_fixed_support(
    measures: Sequence[DiscreteMeasure],
    weights: Sequence[float],
    support: np.ndarray,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BregmanBarycenter:
    """Entropic W2 barycenter on a fixed support via iterative Bregman projections.

    Raises ``ConvergenceError`` when some coupling's column marginal is still
    more than ``tol`` (L1) from the barycenter after ``max_iter`` sweeps.
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

    def log_barycenter(cols):  # the weighted geometric mean of the column marginals
        return sum(wk * col for wk, col in zip(w, cols))

    costs = [squared_cost_matrix(meas.support, support) for meas in measures]
    kernels, lvs, log_b, it, err = _scaled_bregman(
        costs, [meas.masses for meas in measures], log_barycenter, epsilon, tol, max_iter
    )
    if err > tol:
        raise ConvergenceError(
            f"Bregman barycenter did not converge (marginal error {err:.3e} after {it} iters)",
            iterations=it,
            marginal_error=err,
        )

    projections = tuple(kern.projections(lv, support) for kern, lv in zip(kernels, lvs))
    b = np.exp(log_b)
    return BregmanBarycenter(
        support=support,
        masses=b / b.sum(),
        projections=projections,
        iterations=it,
        marginal_error=err,
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

    ``weights`` follow the order of ``pop.groups``. Transport happens on per-dimension
    min-max normalized coordinates; the returned support and projections are
    de-normalized back. The projections follow the order of ``pop.groups``.
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
