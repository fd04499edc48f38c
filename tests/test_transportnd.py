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
    sinkhorn_plan,
)
import fairscore.transportnd
from fairscore.cli import RunConfig, barycenter_weights, transform_population
from fairscore.oracle import lp_transport_exact
from fairscore.transportnd import (
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
    assert plan.cost(squared_cost_matrix(mu.support, mu.support)) == pytest.approx(0.0)


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


def reference_sinkhorn(mu, nu, epsilon, tol, max_iter):
    """The plain log-domain loop under the same epsilon schedule.

    It materialises the plan and checks both marginals every sweep. Its duals
    are not scaled by 1/eps, so they carry from stage to stage unchanged.
    """
    a, b = mu.masses, nu.masses
    loga = np.log(a, where=a > 0, out=np.full_like(a, -np.inf))
    logb = np.log(b, where=b > 0, out=np.full_like(b, -np.inf))
    C = squared_cost_matrix(mu.support, nu.support)
    f = np.zeros(len(mu))
    g = np.zeros(len(nu))
    eps = max(epsilon, C.max())
    it = 0
    while True:
        final = eps == epsilon
        while it < (max_iter if final else max_iter - 1):
            it += 1
            f = -eps * logsumexp((g[None, :] - C) / eps + logb[None, :], axis=1)
            g = -eps * logsumexp((f[:, None] - C) / eps + loga[:, None], axis=0)
            log_plan = (f[:, None] + g[None, :] - C) / eps + loga[:, None] + logb[None, :]
            plan = np.exp(log_plan)
            row_err = float(np.abs(plan.sum(axis=1) - a).sum())
            col_err = float(np.abs(plan.sum(axis=0) - b).sum())
            err = max(row_err, col_err)
            if err <= (tol if final else 1e-2 * eps):
                break
        if final:
            return plan, it, err <= tol, err
        eps = max(eps / 2, epsilon) if it < max_iter - 1 else epsilon


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
        cost = plan.cost(squared_cost_matrix(mu.support, nu.support))
        lp_cost, _ = lp_transport_exact(mu, nu)
        assert cost >= lp_cost - 1e-9
        assert cost <= lp_cost + eps * np.log(n * m) + 1e-9


def test_epsilon_monotonicity():
    rng = np.random.default_rng(30)
    mu = DiscreteMeasure(rng.uniform(size=(5, 2)), rng.dirichlet(np.ones(5)))
    nu = DiscreteMeasure(rng.uniform(size=(5, 2)), rng.dirichlet(np.ones(5)))
    C = squared_cost_matrix(mu.support, nu.support)
    costs = [
        sinkhorn_plan(mu, nu, epsilon=eps, tol=1e-10).cost(C) for eps in (1.0, 0.1, 0.01)
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
    """The log-domain Bregman loop with two exps per sweep; returns (masses, iters, lvs).

    Raises ConvergenceError like the solver.
    """
    w = np.asarray(weights, dtype=float)
    neg_costs = [-squared_cost_matrix(meas.support, support) / epsilon for meas in measures]
    logas = [np.log(m.masses, where=m.masses > 0, out=np.full(len(m), -np.inf)) for m in measures]
    m = support.shape[0]
    log_b = np.full(m, -np.log(m))
    lvs = [np.zeros(m) for _ in measures]
    prev_b = np.exp(log_b)
    for it in range(1, max_iter + 1):
        lktus = []
        for nc, loga, lv in zip(neg_costs, logas, lvs):
            lu = loga - _logsumexp(nc + lv[None, :], axis=1)
            lktus.append(_logsumexp(nc + lu[:, None], axis=0))
        log_b = sum(wk * lk for wk, lk in zip(w, lktus))
        lvs = [log_b - lk for lk in lktus]
        b = np.exp(log_b)
        change = float(np.abs(b - prev_b).sum())
        if change <= tol:
            return b / b.sum(), it, lvs
        prev_b = b
    raise ConvergenceError("reference did not converge", iterations=it, marginal_error=change)


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
            assert bary.iterations >= 1 and bary.mass_change <= 1e-8
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
    idx_a = np.asarray(pop.groups[pop.group_keys()[0]])
    idx_b = np.asarray(pop.groups[pop.group_keys()[1]])
    img_a, img_b = fair.values[idx_a], fair.values[idx_b]
    # compare the image clouds dimension-wise as sorted samples;
    # epsilon is relative to [0, 1]-normalized scores, so scale by the range
    scores = pop.scores
    span = scores.max(axis=0) - scores.min(axis=0)
    for d in range(2):
        gap = np.abs(np.sort(img_a[:, d]) - np.sort(img_b[:, d])).max()
        assert gap <= 10 * eps * span[d]


def test_nd_path_consistent_with_1d_path():
    from fairscore import barycenter_1d, empirical_from_samples, interpolate_scores

    rng = np.random.default_rng(23)
    a = rng.uniform(0.0, 0.4, size=16)
    b = rng.uniform(0.6, 1.0, size=16)
    records_1d = [ScoreRecord(f"a{i}", ("A",), float(x)) for i, x in enumerate(a)]
    records_1d += [ScoreRecord(f"b{i}", ("B",), float(x)) for i, x in enumerate(b)]
    pop1 = population_from_records(records_1d, 1)
    dists = [empirical_from_samples(pop1.group_scores(k)) for k in pop1.group_keys()]
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
    fused = transform_population(pop, cfg)
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
    fair = transform_population(pop, RunConfig(theta=0.0))
    assert fair.values.tobytes() == scores.tobytes()

    key_a, key_b = pop.group_keys()
    cfg = RunConfig(theta=1.0, theta_overrides={key_a: 0.0})
    fair = transform_population(pop, cfg)
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
