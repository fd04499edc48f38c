import numpy as np
import pytest

from fairscore import (
    DiscreteMeasure,
    OracleGuardError,
    ScoreRecord,
    ThetaPolicy,
    empirical_from_samples,
)
from fairscore.interpolation import FairScores
from fairscore.oracle import (
    PAIRWISE_MAX_N,
    barycenter_coordinate_oracle,
    individual_fairness_error_naive,
    lp_transport_exact,
    ot_cost_bruteforce,
)
from fairscore.transport1d import barycenter_1d

from conftest import population_from_records


def test_bruteforce_identity():
    assert ot_cost_bruteforce([1, 2, 3], [1, 2, 3]) == 0.0


def test_bruteforce_sorted_pairing():
    assert ot_cost_bruteforce([0, 1], [1, 2]) == 1.0


def test_bruteforce_cross_pairing():
    assert ot_cost_bruteforce([0, 3], [3, 0]) == 0.0


def test_bruteforce_vectors():
    x = [(0.0, 0.0), (1.0, 1.0)]
    y = [(1.0, 1.0), (0.0, 0.0)]
    assert ot_cost_bruteforce(x, y) == 0.0


def test_bruteforce_guard():
    with pytest.raises(OracleGuardError):
        ot_cost_bruteforce(list(range(9)), list(range(9)))


def test_lp_point_to_point():
    mu = DiscreteMeasure([[0.0]], [1.0])
    nu = DiscreteMeasure([[3.0]], [1.0])
    cost, plan = lp_transport_exact(mu, nu)
    assert cost == pytest.approx(9.0)
    np.testing.assert_allclose(plan, [[1.0]])


def test_lp_symmetric_two_point():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    nu = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    cost, plan = lp_transport_exact(mu, nu)
    assert cost == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(plan, np.diag([0.5, 0.5]), atol=1e-12)


def test_lp_unbalanced_masses():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    nu = DiscreteMeasure([[0.0], [1.0]], [0.7, 0.3])
    cost, plan = lp_transport_exact(mu, nu)
    assert cost == pytest.approx(0.4)
    np.testing.assert_allclose(plan, [[0.3, 0.0], [0.4, 0.3]], atol=1e-12)


def test_lp_marginal_feasibility():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n, m = rng.integers(2, 8), rng.integers(2, 8)
        mu = DiscreteMeasure(rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)))
        nu = DiscreteMeasure(rng.normal(size=(m, 2)), rng.dirichlet(np.ones(m)))
        _, plan = lp_transport_exact(mu, nu)
        assert np.abs(plan.sum(axis=1) - mu.masses).max() <= 1e-12
        assert np.abs(plan.sum(axis=0) - nu.masses).max() <= 1e-12


def test_lp_guard():
    big = DiscreteMeasure(np.zeros((21, 1)), np.full(21, 1 / 21))
    with pytest.raises(OracleGuardError):
        lp_transport_exact(big, big)


def test_pairwise_ife_guard():
    n = PAIRWISE_MAX_N + 1
    pop = population_from_records([ScoreRecord(str(i), ("AB"[i % 2],), float(i)) for i in range(n)], 1)
    with pytest.raises(OracleGuardError):
        individual_fairness_error_naive(pop, FairScores(np.zeros(n), ThetaPolicy(0.0)))


def test_coordinate_oracle_hand_case():
    dists = [empirical_from_samples([0, 2]), empirical_from_samples([2, 4])]
    grid = barycenter_coordinate_oracle(dists, [0.5, 0.5], 2, grid_resolution=1e-4)
    np.testing.assert_allclose(grid.quantiles, [1, 3], atol=1e-4)


def test_coordinate_oracle_single_dist():
    d = empirical_from_samples([1, 5, 9])
    grid = barycenter_coordinate_oracle([d], [1.0], 6, grid_resolution=1e-4)
    np.testing.assert_allclose(
        grid.quantiles, barycenter_1d([d], [1.0], 6).quantiles, atol=1e-4
    )


def test_coordinate_oracle_matches_closed_form_random():
    rng = np.random.default_rng(44)
    for _ in range(10):
        k = int(rng.integers(2, 4))
        dists = [
            empirical_from_samples(rng.normal(loc=rng.uniform(-2, 2), size=rng.integers(2, 9)))
            for _ in range(k)
        ]
        w = rng.dirichlet(np.ones(k))
        m = int(rng.integers(2, 12))
        closed = barycenter_1d(dists, w, m).quantiles
        searched = barycenter_coordinate_oracle(dists, w, m, grid_resolution=1e-4).quantiles
        assert np.abs(closed - searched).max() <= 1e-4


def test_coordinate_oracle_guard():
    d = empirical_from_samples([0, 1])
    with pytest.raises(OracleGuardError):
        barycenter_coordinate_oracle([d], [1.0], 51)


WIDE_RANGE_MESSAGE = (
    "coordinate oracle refuses a score range of 1e+20 at resolution 0.0001 over 2 groups "
    "(more than 10000000 cells)"
)


def test_coordinate_oracle_refuses_a_wide_score_range():
    # scores 0 and 1e20 made np.arange raise "Maximum allowed size exceeded"
    dists = [empirical_from_samples([0, 1e20]), empirical_from_samples([5, 6])]
    with pytest.raises(OracleGuardError) as refused:
        barycenter_coordinate_oracle(dists, [0.5, 0.5], 10)
    assert str(refused.value) == WIDE_RANGE_MESSAGE


@pytest.mark.parametrize(
    "samples, refused",
    [([[0.0, 999.9]], False), ([[0.0, 1000.1]], True), ([[-1.7e308], [1.7e308]], True)],
    ids=["below", "above", "infinite"],
)
def test_coordinate_oracle_span_guard_bound(samples, refused):
    # about (range / 1e-4 + 1) x groups cells against the bound of 10^7; the
    # last range overflows to inf. One group's quantiles never spread, so the
    # case below the bound builds no candidate grid
    dists = [empirical_from_samples(s) for s in samples]
    weights = [1 / len(dists)] * len(dists)
    if refused:
        with pytest.raises(OracleGuardError, match="coordinate oracle refuses a score range"):
            barycenter_coordinate_oracle(dists, weights, 4)
    else:
        barycenter_coordinate_oracle(dists, weights, 4)
