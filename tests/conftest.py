import numpy as np
import pytest

from fairscore import (
    Gaussian,
    GroupKey,
    GroupSpec,
    ScoreRecord,
    ThetaPolicy,
    barycenter_1d,
    build_population,
    empirical_from_samples,
    generate_synthetic,
    population_from_records,
)


def two_gaussian_columns(size=1000, seed=7):
    """(ids, group values, scores) of two shifted Gaussian groups of equal size."""
    specs = [
        GroupSpec(key=GroupKey(("A",)), size=size, dims=(Gaussian(0.4, 0.1),)),
        GroupSpec(key=GroupKey(("B",)), size=size, dims=(Gaussian(0.6, 0.1),)),
    ]
    return generate_synthetic(specs, seed)


@pytest.fixture
def ab_population():
    """The 4-row hand fixture: group A scores [0, 2], group B scores [2, 4]."""
    records = [
        ScoreRecord("a1", ("A",), 0.0),
        ScoreRecord("a2", ("A",), 2.0),
        ScoreRecord("b1", ("B",), 2.0),
        ScoreRecord("b2", ("B",), 4.0),
    ]
    return population_from_records(records, attribute_count=1)


@pytest.fixture
def ab_barycenter(ab_population):
    dists = [
        empirical_from_samples(ab_population.group_scores(k))
        for k in ab_population.group_keys()
    ]
    return barycenter_1d(dists, [0.5, 0.5], m=2, keys=ab_population.group_keys())


@pytest.fixture(scope="session")
def two_gaussian_population():
    return build_population(*two_gaussian_columns(size=1000, seed=7))


def random_population(rng, n, n_groups, dimension=1):
    """Random population helper shared by several test modules."""
    group_names = [chr(ord("a") + g) for g in range(n_groups)]
    records = []
    for i in range(n):
        name = group_names[int(rng.integers(n_groups))]
        if dimension == 1:
            score = float(rng.normal())
        else:
            score = tuple(float(x) for x in rng.normal(size=dimension))
        records.append(ScoreRecord(f"r{i}", (name,), score))
    # make sure every group is inhabited
    for g, name in enumerate(group_names):
        records.append(ScoreRecord(f"g{g}", (name,), 0.0 if dimension == 1 else (0.0,) * dimension))
    return population_from_records(records, attribute_count=1)


def random_theta_policy(rng, pop):
    overrides = {
        key: float(rng.uniform(0, 1)) for key in pop.group_keys() if rng.uniform() < 0.5
    }
    return ThetaPolicy(default_theta=float(rng.uniform(0, 1)), overrides=overrides)
