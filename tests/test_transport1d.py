import numpy as np
import pytest

from fairscore import (
    ValidationError,
    barycenter_1d,
    build_population,
    discretize_quantiles,
    empirical_from_samples,
    w2_distance,
)
from fairscore.interpolation import barycenter_targets
from fairscore.oracle import ot_cost_bruteforce


def dist(*samples):
    return empirical_from_samples(list(samples))


def ot_map(source, grid):
    """T(s) = Q_grid(midrank of s) for every sample s of one group, in sample order."""
    samples = np.asarray(source, dtype=float)
    pop = build_population([f"r{i}" for i in range(samples.size)], [["A"] * samples.size], samples)
    return barycenter_targets(pop, grid)


def test_w2_identity():
    d = dist(1, 4, 9)
    assert w2_distance(d, d, 10) == 0.0


def test_w2_shifted_pair():
    assert w2_distance(dist(0, 1), dist(1, 2), 2) == pytest.approx(1.0, abs=1e-12)


def test_w2_spread_vs_point():
    assert w2_distance(dist(0, 2), dist(1, 1), 2) == pytest.approx(1.0, abs=1e-12)


def test_w2_rejects_tiny_grid():
    with pytest.raises(ValidationError):
        w2_distance(dist(0, 1), dist(1, 2), 1)


def test_w2_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = empirical_from_samples(rng.normal(size=rng.integers(2, 12)))
        b = empirical_from_samples(rng.normal(size=rng.integers(2, 12)))
        c = empirical_from_samples(rng.normal(size=rng.integers(2, 12)))
        m = 64
        assert w2_distance(a, b, m) == w2_distance(b, a, m)
        assert w2_distance(a, c, m) <= w2_distance(a, b, m) + w2_distance(b, c, m) + 1e-9


def test_w2_matches_permutation_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        fast = w2_distance(empirical_from_samples(x), empirical_from_samples(y), n) ** 2
        assert fast == pytest.approx(ot_cost_bruteforce(x, y), abs=1e-9)


def test_barycenter_two_groups():
    bary = barycenter_1d([dist(0, 2), dist(2, 4)], [0.5, 0.5], 2)
    np.testing.assert_allclose(bary.quantiles, [1, 3])


def test_barycenter_single_dist_is_identity():
    d = dist(1, 5, 9)
    bary = barycenter_1d([d], [1.0], 6)
    np.testing.assert_allclose(bary.quantiles, discretize_quantiles(d, 6).quantiles)


def test_barycenter_degenerate_weight():
    d1, d2 = dist(0, 2), dist(10, 12)
    bary = barycenter_1d([d1, d2], [1.0 - 1e-12, 1e-12], 4)
    np.testing.assert_allclose(bary.quantiles, discretize_quantiles(d1, 4).quantiles, atol=1e-9)


def test_barycenter_validation():
    with pytest.raises(ValidationError):
        barycenter_1d([dist(0, 1)], [0.5, 0.5], 4)
    with pytest.raises(ValidationError):
        barycenter_1d([dist(0, 1), dist(1, 2)], [1.5, -0.5], 4)
    with pytest.raises(ValidationError):
        barycenter_1d([dist(0, 1), dist(1, 2)], [0.4, 0.4], 4)
    for weights in ([np.nan, 1.0], [1.0, np.nan]):
        with pytest.raises(ValidationError):
            barycenter_1d([dist(0, 1), dist(1, 2)], weights, 4)


def test_barycenter_unequal_weights():
    # the weights enter the mean of quantile grids; they are not kept
    bary = barycenter_1d([dist(0, 2), dist(2, 4)], [0.25, 0.75], 2)
    np.testing.assert_allclose(bary.quantiles, [1.5, 3.5])


def test_barycenter_minimizes_weighted_cost():
    # the closed form should beat any perturbed grid
    rng = np.random.default_rng(5)
    dists = [empirical_from_samples(rng.normal(loc=mu, size=9)) for mu in (0, 1, 3)]
    w = [0.2, 0.3, 0.5]
    m = 16
    bary = barycenter_1d(dists, w, m)

    def total_cost(grid_q):
        return sum(
            wg * np.mean((grid_q - discretize_quantiles(d, m).quantiles) ** 2)
            for wg, d in zip(w, dists)
        )

    base = total_cost(bary.quantiles)
    for _ in range(30):
        perturbed = bary.quantiles + rng.normal(scale=0.05, size=m)
        assert total_cost(perturbed) >= base - 1e-12


def test_ot_map_basic():
    bary = barycenter_1d([dist(0, 2), dist(2, 4)], [0.5, 0.5], 2)
    np.testing.assert_array_equal(ot_map([0.0, 2.0], bary), [1.0, 3.0])


def test_ot_map_identity_transport():
    source = [1.0, 3.0, 7.0, 9.0]
    grid = discretize_quantiles(dist(*source), 4)
    np.testing.assert_array_equal(ot_map(source, grid), source)


def test_ot_map_singleton_source():
    # a lone sample has midrank 1/2 and lands on the barycenter's median
    bary = barycenter_1d([dist(0, 2), dist(2, 4)], [0.5, 0.5], 2)
    np.testing.assert_array_equal(ot_map([7.0], bary), [2.0])


def test_ot_map_monotone():
    rng = np.random.default_rng(9)
    source = rng.normal(size=40)
    grid = discretize_quantiles(empirical_from_samples(rng.normal(size=25)), 50)
    mapped = ot_map(source, grid)[np.argsort(source)]
    assert np.all(np.diff(mapped) >= 0)


def test_monotone_pairing_is_optimal():
    # among all bijections of equal-size samples, sorting minimizes squared cost
    from itertools import permutations

    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(size=n))
        sorted_cost = float(np.mean((x - y) ** 2))
        best = min(
            float(np.mean((x - y[list(sigma)]) ** 2)) for sigma in permutations(range(n))
        )
        assert sorted_cost == pytest.approx(best, abs=1e-12)
