import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairscore import (
    EmpiricalDistribution,
    QuantileGrid,
    ValidationError,
    discretize_quantiles,
    empirical_from_samples,
    quantile,
)
from fairscore.empirical import grid_ranks, midranks

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
sample_lists = st.lists(finite_floats, min_size=1, max_size=50)


# The scalar reference for ``midranks``: one in-sample value at a time.
def cdf_rank(dist: EmpiricalDistribution, x: float) -> float:
    """Midrank of an in-sample value: (weight below + weight up to) / 2.

    With uniform weights this is the classical (r_bar - 0.5)/n with r_bar the
    average 1-based rank of all samples tied with x.
    """
    left = int(np.searchsorted(dist.values, x, side="left"))
    right = int(np.searchsorted(dist.values, x, side="right"))
    if left == right:
        raise ValidationError(f"value {x} is not a sample of the distribution")
    # midpoint of the tie block's plotting positions, so a unique value lands
    # exactly on its own position and quantile() round-trips bitwise
    positions = dist.positions
    return float((positions[left] + positions[right - 1]) / 2.0)


# The reference for the one-sort ``midranks``: a sort and two searchsorted passes.
def midranks_searchsorted(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    order = np.sort(samples)
    left = np.searchsorted(order, samples, side="left")
    right = np.searchsorted(order, samples, side="right")
    return (left + right) / (2.0 * n)


# The per-sample form of ``midranks``: each sample's midrank, in sample order.
def sample_midranks(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    order = np.argsort(samples)
    out = np.empty(samples.size)
    out[order] = midranks(samples[order], np.array([0, samples.size]))
    return out


def test_from_samples_sorts_and_weights():
    dist = empirical_from_samples([3, 1, 2])
    np.testing.assert_array_equal(dist.values, [1, 2, 3])
    np.testing.assert_allclose(dist.positions, [1 / 6, 1 / 2, 5 / 6])


def test_from_samples_singleton():
    dist = empirical_from_samples([5])
    np.testing.assert_array_equal(dist.values, [5])
    np.testing.assert_array_equal(dist.positions, [0.5])


def test_from_samples_keeps_ties():
    np.testing.assert_array_equal(empirical_from_samples([1, 1, 2]).values, [1, 1, 2])


def test_from_samples_rejects_empty_and_nonfinite():
    with pytest.raises(ValidationError):
        empirical_from_samples([])
    with pytest.raises(ValidationError):
        empirical_from_samples([1.0, float("inf")])


def test_distribution_rejects_nan_and_unsorted_values():
    with pytest.raises(ValidationError, match="finite"):
        EmpiricalDistribution(np.array([np.nan, 1.0]))
    with pytest.raises(ValidationError, match="sorted"):
        EmpiricalDistribution(np.array([1.0, 0.0]))


def test_quantile_convention():
    dist = empirical_from_samples([0, 10])
    assert quantile(dist, 0.5) == 5.0  # linear midpoint between ranks 0.25 and 0.75
    assert quantile(dist, 0.25) == 0.0
    assert quantile(dist, 0.0) == 0.0
    assert quantile(dist, 1.0) == 10.0


def test_quantile_rejects_out_of_range():
    dist = empirical_from_samples([0, 10])
    with pytest.raises(ValidationError):
        quantile(dist, -0.01)
    with pytest.raises(ValidationError):
        quantile(dist, 1.01)


def test_cdf_rank_midranks():
    assert cdf_rank(empirical_from_samples([1, 2, 3]), 2) == 0.5
    assert cdf_rank(empirical_from_samples([1, 2, 2, 3]), 2) == 0.5
    assert cdf_rank(empirical_from_samples([7]), 7) == 0.5


def test_cdf_rank_rejects_out_of_sample():
    with pytest.raises(ValidationError):
        cdf_rank(empirical_from_samples([1, 2, 3]), 2.5)


def test_discretize_quantiles():
    dist = empirical_from_samples([0, 10])
    np.testing.assert_allclose(discretize_quantiles(dist, 2).quantiles, [0, 10])
    np.testing.assert_allclose(discretize_quantiles(dist, 4).quantiles, [0, 2.5, 7.5, 10])
    const = empirical_from_samples([3.0] * 5)
    np.testing.assert_allclose(discretize_quantiles(const, 7).quantiles, [3.0] * 7)
    with pytest.raises(ValidationError):
        discretize_quantiles(dist, 1)


def test_grid_ranks():
    np.testing.assert_allclose(grid_ranks(4), [0.125, 0.375, 0.625, 0.875])


def test_quantile_grid_derives_its_ranks_from_its_size():
    grid = QuantileGrid([0.0, 1.0, 1.0, 3.0])
    assert grid.ranks.tobytes() == grid_ranks(4).tobytes()
    for bad in ([1.0], [[0.0, 1.0], [2.0, 3.0]]):
        with pytest.raises(ValidationError, match="at least 2 points"):
            QuantileGrid(bad)


@given(sample_lists, st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_quantile_is_nondecreasing(samples, p1, p2):
    dist = empirical_from_samples(samples)
    lo, hi = sorted((p1, p2))
    assert quantile(dist, lo) <= quantile(dist, hi)


@given(sample_lists)
def test_round_trip_for_unique_values(samples):
    dist = empirical_from_samples(samples)
    values, counts = np.unique(dist.values, return_counts=True)
    for x in values[counts == 1]:
        assert quantile(dist, cdf_rank(dist, float(x))) == x


@given(sample_lists, st.floats(min_value=0.1, max_value=10), finite_floats,
       st.floats(min_value=0, max_value=1))
def test_affine_equivariance(samples, a, b, p):
    dist = empirical_from_samples(samples)
    mapped = empirical_from_samples([a * s + b for s in samples])
    np.testing.assert_allclose(
        quantile(mapped, p), a * quantile(dist, p) + b, rtol=1e-9, atol=1e-6
    )


def test_midranks_match_cdf_rank():
    samples = np.array([5.0, 1.0, 5.0, 2.0])
    dist = empirical_from_samples(samples)
    expected = [cdf_rank(dist, x) for x in samples]
    np.testing.assert_allclose(sample_midranks(samples), expected)


tie_prone_values = st.one_of(st.sampled_from([-0.0, 0.0, -1.5, 1.5, 3.0]), finite_floats)
tie_prone_samples = st.lists(tie_prone_values, min_size=1, max_size=60)
# ``sorted`` is stable, so tied -0.0 and 0.0 keep the order they were drawn in
sorted_runs = st.lists(
    st.lists(tie_prone_values, min_size=1, max_size=12).map(sorted), min_size=1, max_size=64
)


@given(tie_prone_samples)
def test_midranks_bitwise_equal_two_searchsorted_passes(samples):
    """Ties, signed zeros (one tie run), singleton runs and n = 1."""
    got = sample_midranks(np.array(samples))
    expected = midranks_searchsorted(np.array(samples))
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@settings(max_examples=200)
@given(sorted_runs)
def test_midranks_of_runs_bitwise_equal_per_run_searchsorted(runs):
    """Runs read in place: ties, signed zeros in either order and singleton runs."""
    starts = np.cumsum([0] + [len(run) for run in runs])
    got = midranks(np.concatenate(runs), starts)
    assert got.dtype == np.float64 and got.size == starts[-1]
    for run, lo, hi in zip(runs, starts[:-1], starts[1:]):
        assert got[lo:hi].tobytes() == midranks_searchsorted(np.array(run)).tobytes()
