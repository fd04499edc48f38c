import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from fairscore import (
    ConvergenceError,
    DimensionError,
    DiscreteMeasure,
    ScoreRecord,
    ThetaPolicy,
    ValidationError,
    barycenter_fixed_support,
    build_population,
    interpolate_scores,
    sinkhorn_plan,
)
import fairscore.transportnd
from fairscore.cli import RunConfig, barycenter_weights, compute_barycenter, main
from fairscore.oracle import lp_transport_exact
from fairscore.transportnd import (
    DEFAULT_EPSILON,
    _logsumexp,
    compute_barycenter_nd,
    default_barycenter_support,
    squared_cost_matrix,
)

from conftest import interpolate_scores_nd, population_from_records


def uniform_measure(points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    return DiscreteMeasure(support=points, masses=np.full(n, 1.0 / n))


def test_sinkhorn_identity_point():
    mu = uniform_measure([[0.5]])
    plan = sinkhorn_plan(mu, mu, epsilon=0.1)
    np.testing.assert_allclose(plan.matrix, [[1.0]], atol=1e-12)
    assert plan.converged
    assert np.sum(plan.matrix * squared_cost_matrix(mu.support, mu.support)) == pytest.approx(0.0)


def test_sinkhorn_near_diagonal_at_small_epsilon():
    mu = uniform_measure([[0.0], [1.0]])
    nu = uniform_measure([[0.0], [1.0]])
    plan = sinkhorn_plan(mu, nu, epsilon=0.01)
    assert plan.matrix[0, 1] < 0.01 and plan.matrix[1, 0] < 0.01
    np.testing.assert_allclose(np.diag(plan.matrix), [0.5, 0.5], atol=0.01)


def test_sinkhorn_marginals_within_tol():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, m = rng.integers(2, 7), rng.integers(2, 7)
        mu = DiscreteMeasure(rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(rng.normal(size=(m, 2)), rng.dirichlet(np.ones(m)))
        plan = sinkhorn_plan(mu, nu, epsilon=0.05, tol=1e-8)
        assert plan.converged
        assert np.abs(plan.matrix.sum(axis=1) - mu.masses).sum() <= 1e-8
        assert np.abs(plan.matrix.sum(axis=0) - nu.masses).sum() <= 1e-8


def test_sinkhorn_dimension_mismatch():
    with pytest.raises(DimensionError):
        sinkhorn_plan(uniform_measure([[0.0]]), uniform_measure([[0.0, 1.0]]))


def test_sinkhorn_nonconvergence_flagged():
    mu = DiscreteMeasure([[0.0], [1.0], [0.4]], [0.2, 0.5, 0.3])
    nu = DiscreteMeasure([[0.1], [0.9]], [0.7, 0.3])
    plan = sinkhorn_plan(mu, nu, epsilon=0.5, tol=1e-15, max_iter=1)
    assert not plan.converged
    assert plan.iterations_run == 1


def first_epsilon(max_cost, epsilon):
    """The first epsilon of the schedule: ``epsilon * 2**s``, the first at least ``max_cost``."""
    eps = epsilon
    while eps < max_cost:
        eps *= 2
    return eps


def reference_sinkhorn(mu, nu, epsilon, tol, max_iter):
    """The plain log-domain loop under the same epsilon schedule.

    Each sweep materialises the plan with its rows scaled to a. A stage stops
    once the plan's column marginal is within its tolerance of b, or at the
    end of its budget; otherwise the columns are scaled to b. The dual
    ``eps * lv`` carries from stage to stage unchanged. Both marginals of the
    last plan decide convergence.
    """
    a, b = mu.masses, nu.masses
    loga = np.log(a, where=a > 0, out=np.full_like(a, -np.inf))
    logb = np.log(b, where=b > 0, out=np.full_like(b, -np.inf))
    C = squared_cost_matrix(mu.support, nu.support)
    lv = np.zeros(len(nu))
    eps = first_epsilon(C.max(), epsilon)
    it = 0
    while True:
        final = eps == epsilon
        limit = max_iter if final else max_iter - 1
        while it < limit:
            it += 1
            log_kv = lv[None, :] - C / eps
            lu = loga - logsumexp(log_kv, axis=1)
            plan = np.exp(log_kv + lu[:, None])
            col_err = float(np.abs(plan.sum(axis=0) - b).sum())
            if it == limit or col_err <= (tol if final else 1e-2 * eps):
                break
            lv = logb - logsumexp(lu[:, None] - C / eps, axis=0)
        if final:
            row_err = float(np.abs(plan.sum(axis=1) - a).sum())
            err = max(row_err, col_err)
            return plan, it, err <= tol, err
        lv = 2 * lv
        eps /= 2


def random_masses(rng, n, kind):
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    masses = rng.dirichlet(np.ones(n))
    if kind == "zero":
        masses[0] = 0.0
        masses /= masses.sum()
    return masses


SINKHORN_SETTINGS = [
    (0.5, 1e-10, 1000), (0.05, 1e-8, 1000), (0.01, 1e-6, 10000), (0.005, 1e-9, 40)
]


@pytest.mark.parametrize("kind", ["uniform", "nonuniform", "zero"])
@pytest.mark.parametrize("epsilon, tol, max_iter", SINKHORN_SETTINGS)
def test_sinkhorn_matches_reference_loop(kind, epsilon, tol, max_iter):
    check_sinkhorn_against_reference(kind, epsilon, tol, max_iter)


def counted_row_passes(monkeypatch):
    """Patch ``_row_pass`` (the only n x m ``exp``) to count its calls."""
    calls = []
    row_pass = fairscore.transportnd._row_pass

    def counting_row_pass(*args):
        calls.append(args[0].shape)
        return row_pass(*args)

    monkeypatch.setattr(fairscore.transportnd, "_row_pass", counting_row_pass)
    return calls


def force_absorption(monkeypatch):
    """Rebuild each absorbed kernel whenever a scaling drifts by more than 1."""
    monkeypatch.setattr(fairscore.transportnd, "ABSORB_THRESHOLD", 1.0)
    return counted_row_passes(monkeypatch)


@pytest.mark.parametrize("kind", ["uniform", "nonuniform", "zero"])
@pytest.mark.parametrize("epsilon, tol, max_iter", SINKHORN_SETTINGS)
def test_sinkhorn_matches_reference_loop_under_forced_absorption(
    monkeypatch, kind, epsilon, tol, max_iter
):
    row_passes = force_absorption(monkeypatch)
    check_sinkhorn_against_reference(kind, epsilon, tol, max_iter)
    if epsilon < 0.5:  # at 0.5 the scaled duals move by less than 1
        assert len(row_passes) > 4, "no kernel was rebuilt after its first sweep"


def check_sinkhorn_against_reference(kind, epsilon, tol, max_iter):
    rng = np.random.default_rng(41)
    for _ in range(4):
        n, m = rng.integers(2, 30), rng.integers(2, 30)
        mu = DiscreteMeasure(rng.uniform(size=(n, 2)), random_masses(rng, n, kind))
        nu = DiscreteMeasure(rng.uniform(size=(m, 2)), random_masses(rng, m, kind))
        plan = sinkhorn_plan(mu, nu, epsilon=epsilon, tol=tol, max_iter=max_iter)
        ref_plan, ref_iters, ref_converged, ref_err = reference_sinkhorn(
            mu, nu, epsilon, tol, max_iter
        )
        assert plan.iterations_run == ref_iters
        assert plan.converged == ref_converged
        np.testing.assert_allclose(plan.matrix, ref_plan, rtol=0, atol=1e-12)
        assert plan.marginal_error == pytest.approx(ref_err, rel=1e-6, abs=1e-14)


def test_logsumexp_guards_all_minus_inf_slices():
    m = np.array([[0.0, -np.inf, 3.0], [-np.inf, -np.inf, -np.inf], [1e3, 1e3 - 1.0, -5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for axis in (0, 1):
            np.testing.assert_allclose(
                _logsumexp(m.copy(), axis=axis), logsumexp(m, axis=axis), rtol=1e-15
            )


@pytest.mark.parametrize(
    "name, value",
    [
        ("max_iter", 0), ("tol", 0.0), ("tol", -1e-6), ("epsilon", 0.0), ("epsilon", -0.1),
        ("tol", np.inf), ("epsilon", np.inf),
    ],
)
def test_solvers_reject_bad_settings(name, value):
    mu = uniform_measure([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match=name):
        sinkhorn_plan(mu, mu, **{name: value})
    with pytest.raises(ValidationError, match=name):
        barycenter_fixed_support([mu], [1.0], mu.support, **{name: value})


def test_solvers_refuse_costs_that_overflow():
    # no epsilon schedule can start above an infinite squared distance
    far = uniform_measure([[0.0, 0.0], [1e200, 0.0]])
    with pytest.raises(ValidationError, match="overflow"):
        sinkhorn_plan(far, far)
    with pytest.raises(ValidationError, match="overflow"):
        barycenter_fixed_support([far], [1.0], far.support)


def test_discrete_measure_rejects_nan_mass():
    with pytest.raises(ValidationError, match="finite"):
        DiscreteMeasure([[0.0], [1.0]], [np.nan, 1.0])


def test_sinkhorn_cost_bounds_vs_lp():
    rng = np.random.default_rng(6)
    for _ in range(15):
        n, m = rng.integers(2, 7), rng.integers(2, 7)
        mu = DiscreteMeasure(rng.uniform(size=(n, 2)), rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(rng.uniform(size=(m, 2)), rng.dirichlet(np.ones(m)))
        eps = 0.05
        plan = sinkhorn_plan(mu, nu, epsilon=eps, tol=1e-10)
        cost = np.sum(plan.matrix * squared_cost_matrix(mu.support, nu.support))
        lp_cost, _ = lp_transport_exact(mu, nu)
        assert cost >= lp_cost - 1e-9
        assert cost <= lp_cost + eps * np.log(n * m) + 1e-9


def test_epsilon_monotonicity():
    rng = np.random.default_rng(30)
    mu = DiscreteMeasure(rng.uniform(size=(5, 2)), rng.dirichlet(np.ones(5)))
    nu = DiscreteMeasure(rng.uniform(size=(5, 2)), rng.dirichlet(np.ones(5)))
    C = squared_cost_matrix(mu.support, nu.support)
    costs = [
        np.sum(sinkhorn_plan(mu, nu, epsilon=eps, tol=1e-10).matrix * C) for eps in (1.0, 0.1, 0.01)
    ]
    assert costs[0] >= costs[1] - 1e-12
    assert costs[1] >= costs[2] - 1e-12


# support separation well above the entropic blur sqrt(epsilon), else the
# kernel mixes mass between neighboring atoms and the identity is only coarse
SEPARATED = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1.0], [1.0, 1.0]])


def test_barycenter_single_measure_is_itself():
    rng = np.random.default_rng(4)
    mu = DiscreteMeasure(SEPARATED, rng.dirichlet(np.ones(6)))
    bary = barycenter_fixed_support([mu], [1.0], SEPARATED, epsilon=0.01, tol=1e-10)
    assert np.abs(bary.masses - mu.masses).sum() <= 1e-3


def test_barycenter_of_identical_measures():
    rng = np.random.default_rng(14)
    mu = DiscreteMeasure(SEPARATED, rng.dirichlet(np.ones(6)))
    bary = barycenter_fixed_support([mu, mu], [0.3, 0.7], SEPARATED, epsilon=0.01, tol=1e-10)
    assert np.abs(bary.masses - mu.masses).sum() <= 1e-3


def test_barycenter_of_two_diracs_concentrates_at_midpoint():
    mu = uniform_measure([[0.0, 0.0]])
    nu = uniform_measure([[2.0, 2.0]])
    support = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 1.5]])
    bary = barycenter_fixed_support([mu, nu], [0.5, 0.5], support, epsilon=0.005, tol=1e-12)
    assert np.argmax(bary.masses) == 1
    assert bary.masses[1] > 0.9


def test_barycenter_nonconvergence_raises():
    rng = np.random.default_rng(8)
    mu = uniform_measure(rng.uniform(size=(5, 2)))
    nu = uniform_measure(rng.uniform(size=(7, 2)))
    with pytest.raises(ConvergenceError) as info:
        barycenter_fixed_support([mu, nu], [0.5, 0.5], SEPARATED, tol=1e-15, max_iter=3)
    assert info.value.iterations == 3
    assert info.value.marginal_error > 1e-15


def reference_barycenter(measures, weights, support, epsilon, tol, max_iter):
    """The log-domain Bregman loop with dense couplings; returns (masses, iters, lvs).

    Each sweep scales every coupling's rows to its masses and stops a stage
    once each coupling's column marginal is within the stage's tolerance (L1)
    of the barycenter, under the epsilon schedule of ``reference_sinkhorn``.
    Raises ConvergenceError like the solver.
    """
    w = np.asarray(weights, dtype=float)
    costs = [squared_cost_matrix(meas.support, support) for meas in measures]
    logas = [np.log(m.masses, where=m.masses > 0, out=np.full(len(m), -np.inf)) for m in measures]
    lvs = [np.zeros(support.shape[0]) for _ in measures]
    eps = first_epsilon(max(C.max() for C in costs), epsilon)
    it = 0
    while True:
        final = eps == epsilon
        limit = max_iter if final else max_iter - 1
        while it < limit:
            it += 1
            plans, lktus = [], []
            for C, loga, lv in zip(costs, logas, lvs):
                lu = loga - _logsumexp(lv[None, :] - C / eps, axis=1)
                plans.append(np.exp(lv[None, :] - C / eps + lu[:, None]))
                lktus.append(_logsumexp(lu[:, None] - C / eps, axis=0))
            log_b = sum(wk * lk for wk, lk in zip(w, lktus))
            b = np.exp(log_b)
            err = max(float(np.abs(plan.sum(axis=0) - b).sum()) for plan in plans)
            if it == limit or err <= (tol if final else 1e-2 * eps):
                break
            lvs = [log_b - lk for lk in lktus]
        if final:
            break
        lvs = [2 * lv for lv in lvs]
        eps /= 2
    if err > tol:
        raise ConvergenceError("reference did not converge", iterations=it, marginal_error=err)
    return b / b.sum(), it, lvs


def random_barycenter_case(rng):
    """1-4 measures with small weights and zero-mass atoms, a support partly far away."""
    k = int(rng.integers(1, 5))
    weights = rng.dirichlet(np.full(k, 0.5)) + 1e-3
    measures = []
    for _ in range(k):
        n = int(rng.integers(1, 25))
        masses = rng.dirichlet(np.ones(n))
        if n > 1 and rng.uniform() < 0.5:
            masses[rng.integers(n)] = 0.0
        measures.append(DiscreteMeasure(rng.uniform(size=(n, 2)), masses / masses.sum()))
    support = rng.uniform(size=(int(rng.integers(1, 30)), 2))
    if rng.uniform() < 0.4:
        support[: int(rng.integers(1, len(support) + 1))] += rng.uniform(1.5, 4.0)
    return measures, weights / weights.sum(), support


BREGMAN_EPSILONS = [5e-4, 1e-3, 1e-2, 0.1, 1.0]


@pytest.mark.parametrize("epsilon", BREGMAN_EPSILONS)
def test_barycenter_matches_reference_loop(monkeypatch, epsilon):
    check_barycenter_against_reference(monkeypatch, epsilon)


@pytest.mark.parametrize("epsilon", BREGMAN_EPSILONS)
def test_barycenter_matches_reference_loop_under_forced_absorption(monkeypatch, epsilon):
    row_passes = force_absorption(monkeypatch)
    kernels = check_barycenter_against_reference(monkeypatch, epsilon)
    assert len(row_passes) > kernels, "no kernel was rebuilt after its first sweep"


def test_absorbed_kernel_builds_one_exp_per_group(monkeypatch):
    # the transform-2d benchmark shape: 2 groups of 196 2-D points at default
    # epsilon, each a jittered 14 x 14 grid on the unit square under a smooth map
    rng = np.random.default_rng(3)
    u, v = (np.divmod(np.arange(196), 14) + rng.random((2, 196))) / 14
    a = np.column_stack([0.2 + 0.5 * u, 0.3 + 0.4 * v + 0.1 * u])
    b = np.column_stack([0.35 + 0.45 * u**1.5, 0.25 + 0.5 * v**0.8])
    row_passes = counted_row_passes(monkeypatch)
    bary = compute_barycenter_nd(make_nd_population(a, b), [0.5, 0.5])
    assert bary.iterations >= 50
    assert len(row_passes) <= 2 * 2


def check_barycenter_against_reference(monkeypatch, epsilon):
    """Compare 24 random cases with the reference loop; return the measures solved."""
    fallback_calls = []
    logsumexp_fn = fairscore.transportnd._logsumexp

    def counting_logsumexp(m, axis):
        fallback_calls.append(m.shape)
        return logsumexp_fn(m, axis)

    monkeypatch.setattr(fairscore.transportnd, "_logsumexp", counting_logsumexp)
    rng = np.random.default_rng(int(epsilon * 1e4) + 5)
    verdicts = set()
    kernels = 0
    for _ in range(24):
        measures, weights, support = random_barycenter_case(rng)
        kernels += len(measures)
        args = (measures, weights, support, epsilon, 1e-9, 300)
        try:
            ref_masses, ref_iters, _ = reference_barycenter(*args)
        except ConvergenceError as ref_err:
            with pytest.raises(ConvergenceError) as info:
                barycenter_fixed_support(*args)
            assert info.value.iterations == ref_err.iterations
            assert info.value.marginal_error == pytest.approx(ref_err.marginal_error, abs=1e-12)
            verdicts.add("raised")
            continue
        bary = barycenter_fixed_support(*args)
        assert bary.iterations == ref_iters
        assert np.abs(bary.masses - ref_masses).sum() <= 1e-12
        verdicts.add("converged")
    assert verdicts == ({"converged", "raised"} if epsilon <= 1e-2 else {"converged"})
    if epsilon <= 1e-3:
        assert fallback_calls, "no case reached the underflow fallback"
    return kernels


def test_barycenter_projections_follow_final_couplings():
    rng = np.random.default_rng(12)
    for epsilon in (3e-3, 1e-2, 0.1):
        for _ in range(6):
            measures, weights, support = random_barycenter_case(rng)
            bary = barycenter_fixed_support(measures, weights, support, epsilon, 1e-8, 20000)
            _, _, lvs = reference_barycenter(measures, weights, support, epsilon, 1e-8, 20000)
            assert bary.iterations >= 1 and bary.marginal_error <= 1e-8
            assert len(bary.projections) == len(measures)
            for meas, lv, projection in zip(measures, lvs, bary.projections):
                nc = -squared_cost_matrix(meas.support, support) / epsilon
                a = meas.masses
                lu = np.log(a, where=a > 0, out=np.full(len(a), -np.inf))
                lu -= _logsumexp(nc + lv[None, :], axis=1)
                plan = np.exp(nc + lu[:, None] + lv[None, :])
                np.testing.assert_allclose(plan.sum(axis=1), a, rtol=1e-12, atol=1e-15)
                live = a > 0
                expected = (plan @ support)[live] / a[live, None]
                np.testing.assert_allclose(projection[live], expected, rtol=0, atol=1e-12)
                assert np.isfinite(projection).all()


def transform_repro(tmp_path, *flags):
    """Fair scores of ``transform --theta 1 --min-group-size 1`` on 4 + 3 Gaussian 2-D points.

    With the default ``tol`` the mass-change rule stopped this barycenter 0.07
    (L1) short of its couplings, and the fair scores 6e-2 from the fixed point.
    """
    rng = np.random.default_rng(34)
    n_a, n_b = rng.integers(3, 21, 2)
    points = {"A": rng.normal(0.4, 0.1, (n_a, 2)), "B": rng.normal(0.6, 0.12, (n_b, 2))}
    lines = ["id,sex,s1,s2"] + [
        f"{g}{i},{g},{x!r},{y!r}" for g, pts in points.items() for i, (x, y) in enumerate(pts.tolist())
    ]
    (tmp_path / "in.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["transform", "--input", str(tmp_path / "in.csv"), "--output",
            str(tmp_path / "out.csv"), "--report", str(tmp_path / "report.json"),
            "--score-columns", "s1,s2", "--group-columns", "sex", "--id-column", "id",
            "--theta", "1", "--min-group-size", "1", *flags]
    assert main(argv) == 0
    rows = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 7
    return np.array([[float(v) for v in row.split(",")[-2:]] for row in rows])


def test_repro_couplings_meet_the_barycenter_at_the_stop(tmp_path, monkeypatch):
    """Each final coupling, rebuilt densely from the scaling its projection used,
    has a column marginal within ``tol`` (L1) of the barycenter."""
    solves, scalings = [], []
    solve = fairscore.transportnd.barycenter_fixed_support
    projections = fairscore.transportnd._AbsorbedKernel.projections

    def recording_solve(measures, weights, support, epsilon, tol, max_iter):
        solves.append((measures, support, epsilon, tol))
        bary = solve(measures, weights, support, epsilon, tol, max_iter)
        solves[-1] += (bary,)
        return bary

    def recording_projections(kernel, lv, support):
        scalings.append(lv.copy())
        return projections(kernel, lv, support)

    monkeypatch.setattr(fairscore.transportnd, "barycenter_fixed_support", recording_solve)
    monkeypatch.setattr(
        fairscore.transportnd._AbsorbedKernel, "projections", recording_projections
    )
    transform_repro(tmp_path)
    [(measures, support, epsilon, tol, bary)] = solves
    assert len(scalings) == len(measures) == 2
    for meas, lv in zip(measures, scalings):
        log_kernel = lv - squared_cost_matrix(meas.support, support) / epsilon
        lu = np.log(meas.masses) - logsumexp(log_kernel, axis=1)
        coupling = np.exp(log_kernel + lu[:, None])
        np.testing.assert_allclose(coupling.sum(axis=1), meas.masses, rtol=1e-12)
        assert np.abs(coupling.sum(axis=0) - bary.masses).sum() <= tol


def test_repro_fair_scores_sit_at_the_fixed_point(tmp_path):
    default = transform_repro(tmp_path)
    strict = transform_repro(tmp_path, "--tol", "1e-12")
    assert np.abs(default - strict).max() <= 1e-5


# A known defect: on these 4-row supports the Bregman barycenter is still
# crawling when it stops after the default 10,000 sweeps (marginal error 1.691e-06
# and 7.793e-06; it needs 99,115 and 23,041). The support of the first is
# collinear; in the second only group A's points are. Each case passes, and so
# fails here as an unexpected pass, once the solver converges on it.
@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="see ROADMAP Known defects")
@pytest.mark.parametrize(
    "rows, epsilon",
    [
        ([("F", 0.1, 1.0), ("M", 0.2, 1.0), ("F", 0.3, 1.0), ("M", 0.5, 1.0)], DEFAULT_EPSILON),
        ([("A", 0.0, 0.0), ("B", 0.0, 0.0), ("A", 0.0, 1.0), ("B", 1.0, 1.0)], 0.1),
    ],
    ids=["collinear", "one-group-collinear"],
)
def test_small_supports_converge_within_the_default_sweeps(rows, epsilon):
    groups, *coordinates = zip(*rows)
    pop = build_population(list("abcd"), [groups], np.column_stack(coordinates))
    cfg = RunConfig(epsilon=epsilon)
    compute_barycenter_nd(pop, barycenter_weights(pop, cfg), epsilon, cfg.tol, cfg.max_iter)


def test_barycenter_rejects_nan_weight():
    mu = uniform_measure([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match="weights must be strictly positive"):
        barycenter_fixed_support([mu, mu], [np.nan, 1.0], mu.support)


@pytest.mark.parametrize(
    "weights, message",
    [
        ([1.0], "number of weights must match number of distributions"),
        ([0.5, 0.6], "barycenter weights must sum to 1"),
        ([1.5, -0.5], "barycenter weights must be strictly positive"),
    ],
    ids=["count", "sum", "sign"],
)
def test_barycenter_weights_follow_the_1d_rule(weights, message):
    """The n-D barycenter checks its weights with ``normalize_weights``, as
    ``barycenter_1d`` does: the same rule, tolerance and messages."""
    from fairscore import barycenter_1d, empirical_from_samples

    mu = uniform_measure([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match=f"^{message}$"):
        barycenter_fixed_support([mu, mu], weights, mu.support)
    dist = empirical_from_samples([0.0, 1.0])
    with pytest.raises(ValidationError, match=f"^{message}$"):
        barycenter_1d([dist, dist], weights, 4)


def test_barycenter_empty_support_rejected():
    mu = uniform_measure([[0.0, 0.0]])
    with pytest.raises(ValidationError):
        barycenter_fixed_support([mu], [1.0], np.empty((0, 2)))


def test_default_support_subsampling_is_deterministic():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(500, 2))
    s1 = default_barycenter_support(pts, limit=100, seed=3)
    s2 = default_barycenter_support(pts, limit=100, seed=3)
    np.testing.assert_array_equal(s1, s2)
    assert s1.shape == (100, 2)
    small = default_barycenter_support(pts, limit=1000, seed=3)
    np.testing.assert_array_equal(small, pts)


def make_nd_population(a_points, b_points):
    records = [
        ScoreRecord(f"a{i}", ("A",), tuple(float(v) for v in p))
        for i, p in enumerate(a_points)
    ]
    records += [
        ScoreRecord(f"b{i}", ("B",), tuple(float(v) for v in p))
        for i, p in enumerate(b_points)
    ]
    return population_from_records(records, 1)


def test_nd_theta_zero_identity():
    rng = np.random.default_rng(9)
    pop = make_nd_population(rng.uniform(size=(8, 2)), rng.uniform(size=(8, 2)))
    bary = compute_barycenter_nd(pop, [0.5, 0.5], epsilon=0.01, tol=1e-8)
    fair = interpolate_scores_nd(pop, bary, ThetaPolicy(0.0))
    np.testing.assert_array_equal(fair.values, pop.scores)


def test_nd_single_point_forced_projection():
    pop = make_nd_population([[0.0, 0.0]], [[2.0, 2.0]])
    bary = DiscreteMeasure([[1.0, 1.0]], [1.0])
    fair = interpolate_scores_nd(pop, bary, ThetaPolicy(1.0), epsilon=0.01, tol=1e-10)
    np.testing.assert_allclose(fair.values, [[1.0, 1.0], [1.0, 1.0]], atol=1e-9)


def test_nd_rejects_1d_population():
    records = [ScoreRecord("a", ("A",), 1.0), ScoreRecord("b", ("B",), 2.0)]
    pop = population_from_records(records, 1)
    bary = DiscreteMeasure([[1.0]], [1.0])
    with pytest.raises(DimensionError, match="interpolate_scores"):
        interpolate_scores_nd(pop, bary, ThetaPolicy(1.0))


def test_mirrored_clouds_agree_at_theta_one():
    rng = np.random.default_rng(77)
    a = rng.normal(loc=(1.0, 0.5), scale=0.2, size=(30, 2))
    b = -a
    pop = make_nd_population(a, b)
    eps = 0.01
    # the barycenter support must cover the midpoints between the clouds
    midpoints = ((a[:, None, :] + b[None, :, :]) / 2.0).reshape(-1, 2)
    support = np.vstack([a, b, midpoints])
    masses = np.full(len(a), 1.0 / len(a))
    bary = barycenter_fixed_support(
        [DiscreteMeasure(a, masses), DiscreteMeasure(b, masses)],
        [0.5, 0.5],
        support,
        epsilon=eps,
        tol=1e-9,
    )
    fair = interpolate_scores_nd(pop, bary, ThetaPolicy(1.0), epsilon=eps, tol=1e-9)
    idx_a, idx_b = pop.groups.values()
    img_a, img_b = fair.values[idx_a], fair.values[idx_b]
    # compare the image clouds dimension-wise as sorted samples;
    # epsilon is relative to [0, 1]-normalized scores, so scale by the range
    scores = pop.scores
    span = scores.max(axis=0) - scores.min(axis=0)
    for d in range(2):
        gap = np.abs(np.sort(img_a[:, d]) - np.sort(img_b[:, d])).max()
        assert gap <= 10 * eps * span[d]


def test_nd_path_consistent_with_1d_path():
    from fairscore import barycenter_1d, empirical_from_samples

    rng = np.random.default_rng(23)
    a = rng.uniform(0.0, 0.4, size=16)
    b = rng.uniform(0.6, 1.0, size=16)
    records_1d = [ScoreRecord(f"a{i}", ("A",), float(x)) for i, x in enumerate(a)]
    records_1d += [ScoreRecord(f"b{i}", ("B",), float(x)) for i, x in enumerate(b)]
    pop1 = population_from_records(records_1d, 1)
    dists = [empirical_from_samples(pop1.scores[idx]) for idx in pop1.groups.values()]
    bary1 = barycenter_1d(dists, [0.5, 0.5], 16)
    fair1 = interpolate_scores(pop1, bary1, ThetaPolicy(1.0))

    # force the same data through the n-D machinery on a padded second dim,
    # with a fine grid support so the barycenter location is representable
    pad = np.stack([np.concatenate([a, b]), np.zeros(32)], axis=1)
    popn = make_nd_population(pad[:16], pad[16:])
    support = np.stack([np.linspace(0, 1, 201), np.zeros(201)], axis=1)
    masses = np.full(16, 1.0 / 16)
    baryn = barycenter_fixed_support(
        [DiscreteMeasure(pad[:16], masses), DiscreteMeasure(pad[16:], masses)],
        [0.5, 0.5],
        support,
        epsilon=1e-3,
        tol=1e-8,
        max_iter=100000,
    )
    fairn = interpolate_scores_nd(
        popn, baryn, ThetaPolicy(1.0), epsilon=1e-3, tol=1e-6, max_iter=100000
    )
    score_range = pad[:, 0].max() - pad[:, 0].min()
    assert np.abs(fairn.values[:, 0] - fair1.values).max() <= 0.05 * score_range


def gaussian_nd_population(rng, sizes=(70, 50)):
    a = rng.normal(loc=(0.3, 0.5), scale=(0.1, 0.05), size=(sizes[0], 2))
    b = rng.normal(loc=(0.6, 0.4), scale=(0.05, 0.1), size=(sizes[1], 2))
    a[0, 0] = -0.0  # theta 0 must keep the sign of zero
    return make_nd_population(a, b)


@pytest.mark.parametrize("tol", [1e-5, 1e-6, 1e-7])
@pytest.mark.parametrize("epsilon", [0.003, 0.01, 0.03])
def test_fused_maps_match_sinkhorn_maps(epsilon, tol):
    pop = gaussian_nd_population(np.random.default_rng(5))
    cfg = RunConfig(epsilon=epsilon, tol=tol, max_iter=100000)
    fused = interpolate_scores(pop, compute_barycenter(pop, cfg), cfg.theta_policy())
    bary = compute_barycenter_nd(
        pop, barycenter_weights(pop, cfg), epsilon=epsilon, tol=tol, max_iter=100000
    )
    two_solve = interpolate_scores_nd(
        pop, bary, ThetaPolicy(1.0), epsilon=epsilon, tol=tol, max_iter=100000
    )
    scores = pop.scores
    score_range = scores.max(axis=0) - scores.min(axis=0)
    assert np.all(np.abs(fused.values - two_solve.values) <= 100 * tol * score_range)
    assert np.abs(fused.values - scores).max() > 1000 * tol  # the maps do move the points


def test_fused_theta_zero_is_bitwise_identity():
    pop = gaussian_nd_population(np.random.default_rng(6))
    scores = pop.scores
    cfg = RunConfig(theta=0.0)
    fair = interpolate_scores(pop, compute_barycenter(pop, cfg), cfg.theta_policy())
    assert fair.values.tobytes() == scores.tobytes()

    key_a, key_b = list(pop.groups)
    cfg = RunConfig(theta=1.0, theta_overrides={key_a: 0.0})
    fair = interpolate_scores(pop, compute_barycenter(pop, cfg), cfg.theta_policy())
    idx_a, idx_b = pop.groups[key_a], pop.groups[key_b]
    assert fair.values[idx_a].tobytes() == scores[idx_a].tobytes()
    assert np.abs(fair.values[idx_b] - scores[idx_b]).max() > 0.01


def cost_matrix_3d(x, y):
    """The cost through the n x m x d difference array, as it was first written."""
    return np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)


@pytest.mark.parametrize("d", range(1, 12))
def test_cost_matrix_matches_the_3d_reference(d):
    """Bitwise equal up to d = 7, where numpy sums the d terms in order; from
    d = 8 numpy's pairwise sum orders them otherwise, within 4 ulp."""
    rng = np.random.default_rng(d)
    x, y = rng.normal(size=(37, d)), rng.normal(size=(53, d))
    x[0], y[0] = -0.0, 0.0  # a zero cost, whose sign must come out +0.0
    got, reference = squared_cost_matrix(x, y), cost_matrix_3d(x, y)
    if d <= 7:
        assert got.tobytes() == reference.tobytes()
    else:
        np.testing.assert_array_max_ulp(got, reference, maxulp=4)


def test_cost_matrix_holds_no_n_by_m_by_d_array():
    """The traced peak is the result and one difference buffer, where the 3-D
    form held an n x m x d difference and its square (5 n m floats at d = 2)."""
    rng = np.random.default_rng(3)
    n, m = 500, 1000
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
    tracemalloc.start()
    try:
        squared_cost_matrix(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * m * 8
