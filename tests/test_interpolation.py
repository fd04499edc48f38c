import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairscore.empirical
from fairscore import (
    DimensionError,
    EmpiricalDistribution,
    GroupKey,
    ScoreRecord,
    ThetaPolicy,
    ValidationError,
    barycenter_1d,
    build_population,
    compute_barycenter_nd,
    empirical_from_samples,
    interpolate_scores,
)
from fairscore.cli import RunConfig, barycenter_weights, compute_barycenter
from fairscore.interpolation import apply_theta, barycenter_targets
from fairscore.metrics import build_report
from fairscore.transport1d import w2_distance

from conftest import (
    population_from_records,
    random_population,
    random_theta_policy,
    seeded_policy,
    seeded_population,
)
from test_empirical import midranks_searchsorted


def group_dists(pop):
    return [empirical_from_samples(pop.scores[idx]) for idx in pop.groups.values()]


def size_weights(pop):
    return [len(idx) / len(pop) for idx in pop.groups.values()]


def test_apply_theta_reads_each_group_override_else_the_default():
    pop = build_population(["a", "b", "c"], [["A", "B", "C"]], [0.0, 0.0, 0.0])
    gA, gB, _ = pop.groups
    targets = np.ones(3)  # so each fair score is its row's theta
    for policy, thetas in [
        (ThetaPolicy(0.8), [0.8, 0.8, 0.8]),
        (ThetaPolicy(0.8, {gB: 1.0}), [0.8, 1.0, 0.8]),
        (ThetaPolicy(0.0, {gA: 0.3}), [0.3, 0.0, 0.0]),
    ]:
        assert apply_theta(pop, targets, policy).values.tolist() == thetas


def test_policy_rejects_bad_theta():
    with pytest.raises(ValidationError):
        ThetaPolicy(1.5)
    with pytest.raises(ValidationError):
        ThetaPolicy(0.5, {GroupKey(("A",)): -0.1})


def test_theta_zero_is_bitwise_identity(ab_population, ab_barycenter):
    fair = interpolate_scores(ab_population, ab_barycenter, ThetaPolicy(0.0))
    raw = ab_population.scores
    assert np.array_equal(fair.values, raw)


def test_hand_fixture_theta_one(ab_population, ab_barycenter):
    fair = interpolate_scores(ab_population, ab_barycenter, ThetaPolicy(1.0))
    np.testing.assert_array_equal(fair.values, [1.0, 3.0, 1.0, 3.0])


def test_hand_fixture_theta_half(ab_population, ab_barycenter):
    fair = interpolate_scores(ab_population, ab_barycenter, ThetaPolicy(0.5))
    np.testing.assert_array_equal(fair.values, [0.5, 2.5, 1.5, 3.5])


def test_override_for_missing_group_rejected(ab_population, ab_barycenter):
    policy = ThetaPolicy(0.5, {GroupKey(("Z",)): 1.0})
    with pytest.raises(ValidationError, match="nonexistent"):
        interpolate_scores(ab_population, ab_barycenter, policy)


def test_multidimensional_population_routed(ab_population, ab_barycenter):
    """Each score dimension takes its own kind of barycenter, of its own dimension."""
    records = [
        ScoreRecord("a", ("A",), (0.0, 1.0)),
        ScoreRecord("b", ("B",), (1.0, 0.0)),
    ]
    pop = population_from_records(records, 1)
    with pytest.raises(DimensionError, match="2-D scores need a 2-D BregmanBarycenter"):
        interpolate_scores(pop, ab_barycenter, ThetaPolicy(1.0))
    bregman = compute_barycenter_nd(pop, [0.5, 0.5])
    with pytest.raises(DimensionError, match="1-D scores need a 1-D QuantileGrid"):
        interpolate_scores(ab_population, bregman, ThetaPolicy(1.0))
    wide = build_population(["a", "b"], [["A", "B"]], np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]))
    with pytest.raises(DimensionError, match="3-D scores need a 3-D BregmanBarycenter"):
        interpolate_scores(wide, bregman, ThetaPolicy(1.0))


def test_nd_targets_need_the_barycenter_of_the_same_groups():
    scores = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    pop = build_population(["a1", "a2", "b"], [["A", "A", "B"]], scores)
    other = build_population(["a", "b1", "b2"], [["A", "B", "B"]], scores)
    bary = compute_barycenter_nd(other, [0.5, 0.5])
    with pytest.raises(ValidationError, match="projections do not match the population's groups"):
        barycenter_targets(pop, bary)


def test_within_group_monotonicity_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        pop = random_population(rng, int(rng.integers(5, 80)), int(rng.integers(2, 5)))
        bary = barycenter_1d(group_dists(pop), size_weights(pop), 50)
        policy = random_theta_policy(rng, pop)
        fair = interpolate_scores(pop, bary, policy)
        raw = pop.scores
        for idx in pop.groups.values():
            idx = np.asarray(idx)
            order = np.argsort(raw[idx], kind="stable")
            assert np.all(np.diff(fair.values[idx][order]) >= 0)


def test_equal_raw_scores_get_equal_fair_scores():
    records = [
        ScoreRecord("a", ("A",), 1.0),
        ScoreRecord("b", ("A",), 1.0),
        ScoreRecord("c", ("A",), 2.0),
        ScoreRecord("d", ("B",), 0.0),
        ScoreRecord("e", ("B",), 3.0),
    ]
    pop = population_from_records(records, 1)
    bary = barycenter_1d(group_dists(pop), size_weights(pop), 10)
    fair = interpolate_scores(pop, bary, ThetaPolicy(0.7))
    assert fair.values[0] == fair.values[1]


def test_parity_endpoint_aligns_group_grids():
    rng = np.random.default_rng(1)
    n = 60
    records = [ScoreRecord(f"a{i}", ("A",), float(x)) for i, x in enumerate(rng.normal(0, 1, n))]
    records += [ScoreRecord(f"b{i}", ("B",), float(x)) for i, x in enumerate(rng.normal(2, 1, n))]
    pop = population_from_records(records, 1)
    m = n
    bary = barycenter_1d(group_dists(pop), [0.5, 0.5], m)
    fair = interpolate_scores(pop, bary, ThetaPolicy(1.0))
    spacing = np.max(np.abs(np.diff(bary.quantiles)))
    for key in pop.groups:
        idx = np.asarray(pop.groups[key])
        grid = empirical_from_samples(fair.values[idx])
        from fairscore import discretize_quantiles

        got = discretize_quantiles(grid, m).quantiles
        assert np.max(np.abs(got - bary.quantiles)) <= 2 * spacing


def test_linear_parity_decay_exact():
    # equal group sizes with m = n make the decay identity exact on the grid
    rng = np.random.default_rng(8)
    n = 40
    records = [ScoreRecord(f"a{i}", ("A",), float(x)) for i, x in enumerate(rng.normal(0, 1, n))]
    records += [ScoreRecord(f"b{i}", ("B",), float(x)) for i, x in enumerate(rng.normal(3, 2, n))]
    pop = population_from_records(records, 1)
    bary = barycenter_1d(group_dists(pop), [0.5, 0.5], n)
    raw_dists = group_dists(pop)
    raw_w2 = w2_distance(raw_dists[0], raw_dists[1], n)
    for theta in (0.25, 0.5, 0.75):
        fair = interpolate_scores(pop, bary, ThetaPolicy(theta))
        fair_dists = [
            empirical_from_samples(fair.values[np.asarray(pop.groups[k])])
            for k in pop.groups
        ]
        assert w2_distance(fair_dists[0], fair_dists[1], n) == pytest.approx(
            (1 - theta) * raw_w2, abs=1e-9
        )


def test_affine_equivariance():
    rng = np.random.default_rng(13)
    pop = random_population(rng, 60, 3)
    bary = barycenter_1d(group_dists(pop), size_weights(pop), 64)
    fair = interpolate_scores(pop, bary, ThetaPolicy(0.6))

    a, b = 2.5, -1.0
    mapped_records = [
        ScoreRecord(r.id, r.group_values, a * r.score + b) for r in pop.records
    ]
    mapped_pop = population_from_records(mapped_records, 1)
    mapped_bary = barycenter_1d(group_dists(mapped_pop), size_weights(mapped_pop), 64)
    mapped_fair = interpolate_scores(mapped_pop, mapped_bary, ThetaPolicy(0.6))
    np.testing.assert_allclose(mapped_fair.values, a * fair.values + b, atol=1e-9)


def test_single_group_theta_one_hits_barycenter():
    rng = np.random.default_rng(17)
    n = 30
    records = [ScoreRecord(f"a{i}", ("A",), float(x)) for i, x in enumerate(rng.normal(0, 1, n))]
    records += [ScoreRecord(f"b{i}", ("B",), float(x)) for i, x in enumerate(rng.normal(4, 1, n))]
    pop = population_from_records(records, 1)
    bary = barycenter_1d(group_dists(pop), [0.5, 0.5], n)
    gB = GroupKey(("B",))
    fair = interpolate_scores(pop, bary, ThetaPolicy(0.2, {gB: 1.0}))
    idx = np.asarray(pop.groups[gB])
    np.testing.assert_allclose(np.sort(fair.values[idx]), bary.quantiles, atol=1e-9)


def test_shared_targets_reproduce_interpolate_scores_bitwise():
    rng = np.random.default_rng(53)
    for _ in range(10):
        pop = random_population(rng, int(rng.integers(5, 80)), int(rng.integers(1, 5)))
        bary = barycenter_1d(group_dists(pop), size_weights(pop), 32)
        targets = barycenter_targets(pop, bary)
        for _ in range(4):
            policy = random_theta_policy(rng, pop)
            want = interpolate_scores(pop, bary, policy).values
            got = apply_theta(pop, targets, policy).values
            assert want.tobytes() == got.tobytes()


def test_theta_zero_keeps_negative_zero():
    records = [
        ScoreRecord("a1", ("A",), -0.0),
        ScoreRecord("a2", ("A",), 1.0),
        ScoreRecord("b1", ("B",), 2.0),
        ScoreRecord("b2", ("B",), 3.0),
    ]
    pop = population_from_records(records, 1)
    bary = barycenter_1d(group_dists(pop), size_weights(pop), 2)
    fair = interpolate_scores(pop, bary, ThetaPolicy(0.0))
    assert fair.values.tobytes() == pop.scores.tobytes()
    assert np.signbit(fair.values[0])


# scores from a small set (ties, -0.0) or anywhere in [-1e3, 1e3]
_SCORES = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0, -2.0]), st.floats(-1e3, 1e3))


@st.composite
def tied_populations(draw):
    """(population, per-group thetas, grid size) with 1 to 4 groups of 1 to 12 rows."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    groups = [f"g{g}" for g, size in enumerate(sizes) for _ in range(size)]
    scores = draw(st.lists(_SCORES, min_size=len(groups), max_size=len(groups)))
    pop = build_population([f"r{i}" for i in range(len(scores))], [groups], scores)
    thetas = draw(st.lists(st.floats(0, 1), min_size=len(sizes), max_size=len(sizes)))
    return pop, thetas, draw(st.integers(2, 40))


def _blend(pop, thetas, m):
    """The transform and sweep path: shared targets, then one theta blend."""
    bary = barycenter_1d(group_dists(pop), size_weights(pop), m)
    targets = barycenter_targets(pop, bary)
    policy = ThetaPolicy(0.0, dict(zip(pop.groups, thetas)))
    return targets, apply_theta(pop, targets, policy).values


@settings(max_examples=200, deadline=None)
@given(tied_populations())
def test_blend_invariants_on_tied_populations(case):
    """θ=0 is identity; each group moves (1-θ) of the way in W2; ties and order are kept; reruns agree.

    A group's W2 is the exact W2 between its fair scores and its targets T(s):
    both are sorted by raw score, so it is the RMS of their sorted difference.
    """
    pop, thetas, m = case
    assert _blend(pop, [0.0] * len(thetas), m)[1].tobytes() == pop.scores.tobytes()
    targets, fair = _blend(pop, thetas, m)

    raw = pop.scores
    scale = max(np.abs(raw).max(), np.abs(targets).max())
    for idx, theta in zip(pop.groups.values(), thetas):
        target = np.sort(targets[idx])
        w2_raw = np.sqrt(np.mean((np.sort(raw[idx]) - target) ** 2))
        w2_fair = np.sqrt(np.mean((np.sort(fair[idx]) - target) ** 2))
        assert abs(w2_fair - (1 - theta) * w2_raw) <= 1e-9 * scale

        order = np.lexsort((fair[idx], raw[idx]))
        r, f = raw[idx][order], fair[idx][order]
        assert np.all(f[1:][r[1:] == r[:-1]] == f[:-1][r[1:] == r[:-1]])
        assert np.all(f[1:] >= f[:-1])

    again = _blend(pop, thetas, m)
    assert [a.tobytes() for a in again] == [targets.tobytes(), fair.tobytes()]


def per_group_targets(pop, bary):
    """The targets with each group ranked on its own: one searchsorted pair per group."""
    targets = np.empty_like(pop.scores)
    for idx in pop.groups.values():
        ranks = midranks_searchsorted(pop.scores[idx])
        targets[idx] = np.interp(ranks, bary.ranks, bary.quantiles)
    return targets


def test_targets_take_one_midranks_call_on_the_raw_order(monkeypatch):
    """All groups are ranked by one ``midranks`` call on ``pop.raw_order``,
    and the sweep over theta after it builds no second order."""
    builds, calls = [], []
    build, ranks = fairscore.empirical._raw_order, fairscore.empirical.midranks
    monkeypatch.setattr(
        fairscore.empirical, "_raw_order", lambda *a: builds.append(1) or build(*a)
    )
    monkeypatch.setattr(
        fairscore.empirical, "midranks", lambda *a: calls.append(1) or ranks(*a)
    )
    rng = np.random.default_rng(83)
    codes = rng.integers(0, 3, 90)
    pop = build_population(
        [f"r{i}" for i in range(90)], [[f"g{c}" for c in codes]], np.round(rng.normal(codes, 1), 1)
    )
    bary = barycenter_1d(group_dists(pop), size_weights(pop), 25)
    targets = barycenter_targets(pop, bary)
    assert len(pop.groups) == 3 and calls == [1] and builds == [1]
    assert targets.tobytes() == per_group_targets(pop, bary).tobytes()
    for theta in (0.0, 0.5, 1.0):
        build_report(pop, apply_theta(pop, targets, ThetaPolicy(theta)), m=25)
    assert calls == [1] and builds == [1]


@pytest.mark.parametrize("seed", range(8))
def test_signed_zeros_at_the_bottom_of_groups_match_a_sorted_reference(seed):
    """Tied -0.0 and 0.0 at the bottom of every group, with m above every
    group size, so the lowest grid ranks read each group's first value. The
    raw order ranks ties in its own order, not ``np.sort``'s; the fair scores,
    sign bits included, still equal a reference that sorts each group itself
    for the barycenter and ranks it with ``np.argsort``."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(4, 12, 3)
    scores = np.concatenate(
        [rng.permutation(np.r_[rng.choice([-0.0, 0.0], 3), rng.uniform(0.1, 2, s - 3)])
         for s in sizes]
    )
    groups = np.repeat(["a", "b", "c"], sizes).tolist()
    pop = build_population([f"r{i}" for i in range(scores.size)], [groups], scores)
    m = 40
    dists = [EmpiricalDistribution(np.sort(pop.scores[idx])) for idx in pop.groups.values()]
    bary = barycenter_1d(dists, size_weights(pop), m)
    for theta in (1.0, 0.5, 0.0):
        expected = np.empty_like(scores)
        for idx in pop.groups.values():
            s = scores[idx]
            order = np.argsort(s)
            t = np.empty_like(s)
            t[order] = np.interp(midranks_searchsorted(s[order]), bary.ranks, bary.quantiles)
            expected[idx] = s if theta == 0.0 else (1.0 - theta) * s + theta * t
        cfg = RunConfig(grid_size=m, theta=theta)
        got = interpolate_scores(pop, compute_barycenter(pop, cfg), cfg.theta_policy()).values
        assert got.tobytes() == expected.tobytes()


def per_group_blend(pop, targets, policy):
    """The blend group by group, a group with theta 0 taking its raw scores as they are."""
    fair = np.empty_like(pop.scores)
    for key, idx in pop.groups.items():
        theta, s = policy.overrides.get(key, policy.default_theta), pop.scores[idx]
        fair[idx] = s if theta == 0.0 else (1.0 - theta) * s + theta * targets[idx]
    return fair


SEEDS = st.integers(0, 2**32 - 1)
GROUP_COUNTS = st.integers(1, 40)


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    group_count=GROUP_COUNTS,
    m=st.sampled_from([2, 7, 50]),
    mode=st.sampled_from(["size", "uniform"]),
)
def test_barycenter_of_the_raw_order_runs_matches_sorted_groups(seed, group_count, m, mode):
    """The barycenter read off ``raw_order``'s runs equals the one of each
    group sorted by ``empirical_from_samples``, bit for bit, although the two
    may place a tied -0.0 and 0.0 in either order."""
    pop = seeded_population(seed, group_count)
    cfg = RunConfig(grid_size=m, weight_mode=mode)
    reference = barycenter_1d(
        [empirical_from_samples(pop.scores[idx]) for idx in pop.groups.values()],
        barycenter_weights(pop, cfg),
        m,
    )
    got = compute_barycenter(pop, cfg)
    assert got.quantiles.tobytes() == reference.quantiles.tobytes()
    assert got.ranks.tobytes() == reference.ranks.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, group_count=GROUP_COUNTS, dimension=st.sampled_from([1, 2]))
def test_blend_by_group_codes_matches_the_per_group_loop(seed, group_count, dimension):
    """One blend over all rows, theta read through the group codes, equals the
    loop over groups bit for bit, sign bits included: a theta-0 row keeps -0.0."""
    pop = seeded_population(seed, group_count, dimension)
    policy = seeded_policy(seed, pop)
    if dimension == 1:
        targets = barycenter_targets(pop, compute_barycenter(pop, RunConfig(grid_size=7)))
    else:
        targets = np.round(np.random.default_rng(seed).normal(size=pop.scores.shape), 1)
    fair = apply_theta(pop, targets, policy).values
    assert fair.tobytes() == per_group_blend(pop, targets, policy).tobytes()
