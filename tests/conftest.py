import numpy as np
import pytest

from fairscore import (
    ConvergenceError,
    DimensionError,
    DiscreteMeasure,
    FairScores,
    Gaussian,
    GroupKey,
    GroupSpec,
    ScoredPopulation,
    ScoreRecord,
    ThetaPolicy,
    ValidationError,
    barycenter_1d,
    build_population,
    empirical_from_samples,
    generate_synthetic,
    sinkhorn_plan,
)
from fairscore.interpolation import apply_theta
from fairscore.transportnd import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    _normalization_bounds,
)


def score_vector(record):
    """A record's score as a tuple: a 1-D score is a tuple of one float."""
    if isinstance(record.score, tuple):
        return record.score
    return (float(record.score),)


def population_from_records(records, attribute_count):
    """Check each record's arity and score dimension, then ``build_population``."""
    if attribute_count < 1:
        raise ValidationError("attribute_count must be positive")
    if not records:
        raise ValidationError("population must contain at least one record")
    dimension = len(score_vector(records[0]))
    vectors = []
    for rec in records:
        if len(rec.group_values) != attribute_count:
            raise ValidationError(
                f"record {rec.id!r} has {len(rec.group_values)} group values, "
                f"expected {attribute_count}"
            )
        vec = score_vector(rec)
        if len(vec) != dimension:
            raise ValidationError(
                f"record {rec.id!r} has score dimension {len(vec)}, expected {dimension}"
            )
        vectors.append(vec)
    group_columns = [list(column) for column in zip(*(rec.group_values for rec in records))]
    return build_population([rec.id for rec in records], group_columns, vectors)


def two_gaussian_columns(size=1000, seed=7):
    """(ids, group columns, scores) of two shifted Gaussian groups of equal size."""
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
    pop = ab_population
    dists = [empirical_from_samples(pop.scores[idx]) for idx in pop.groups.values()]
    return barycenter_1d(dists, [0.5, 0.5], m=2)


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
        key: float(rng.uniform(0, 1)) for key in pop.groups if rng.uniform() < 0.5
    }
    return ThetaPolicy(default_theta=float(rng.uniform(0, 1)), overrides=overrides)


# Scores drawn from this pool half of the time: ties across and within
# groups, and -0.0 next to 0.0 in either order.
TIED_POOL = np.array([-0.0, 0.0, 1.0, -1.0, 2.5])


def seeded_population(seed, group_count, dimension=1):
    """1 to 6 rows per group (singletons included), shuffled, half of the
    score components drawn from ``TIED_POOL`` and the rest rounded normals."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 7, group_count)
    n = int(sizes.sum())
    shape = (n,) if dimension == 1 else (n, dimension)
    scores = np.where(
        rng.uniform(size=shape) < 0.5,
        rng.choice(TIED_POOL, shape),
        np.round(rng.normal(size=shape), 1),
    )
    groups = rng.permutation(np.repeat([f"g{g:02d}" for g in range(group_count)], sizes))
    return build_population([f"r{i}" for i in range(n)], [groups.tolist()], scores)


def seeded_policy(seed, pop):
    """A default theta and overrides for some groups, 0 and 1 among them."""
    rng = np.random.default_rng(seed + 1)
    thetas = [0.0, 1.0, 0.5, float(rng.uniform())]
    overrides = {
        key: thetas[rng.integers(len(thetas))] for key in pop.groups if rng.uniform() < 0.5
    }
    return ThetaPolicy(default_theta=thetas[rng.integers(len(thetas))], overrides=overrides)


# The reference for the fused n-D maps of ``transform``: one Sinkhorn solve per
# group onto a given barycenter, then the same ``apply_theta`` blend.
def interpolate_scores_nd(
    pop: ScoredPopulation,
    bary: DiscreteMeasure,
    policy: ThetaPolicy,
    epsilon: float = DEFAULT_EPSILON,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FairScores:
    """Theta-interpolated transport of each group toward any barycenter (d >= 2).

    Each group point is mapped to its barycentric projection under the group's
    Sinkhorn plan onto ``bary``, then blended with the raw point by
    ``apply_theta``. Groups with theta 0 run no solve.
    """
    if pop.dimension < 2:
        raise DimensionError(
            "interpolate_scores_nd handles multi-dimensional scores only; "
            "use interpolate_scores for 1-D populations"
        )
    if bary.dimension != pop.dimension:
        raise DimensionError("barycenter dimension does not match the population")

    scores = pop.scores
    lo, scale = _normalization_bounds(np.vstack([scores, bary.support]))
    norm_bary = DiscreteMeasure(support=(bary.support - lo) / scale, masses=bary.masses)

    targets = np.zeros_like(scores)  # theta-0 rows keep their raw score in apply_theta
    for key, idx in pop.groups.items():
        if policy.overrides.get(key, policy.default_theta) == 0.0:
            continue
        mu = DiscreteMeasure(
            support=(scores[idx] - lo) / scale, masses=np.full(idx.size, 1.0 / idx.size)
        )
        plan = sinkhorn_plan(mu, norm_bary, epsilon=epsilon, tol=tol, max_iter=max_iter)
        if not plan.converged:
            raise ConvergenceError(
                f"Sinkhorn did not converge for group {key} "
                f"(marginal error {plan.marginal_error:.3e} after {plan.iterations_run} iters)",
                iterations=plan.iterations_run,
                marginal_error=plan.marginal_error,
            )
        projected = (plan.matrix @ norm_bary.support) / plan.matrix.sum(axis=1, keepdims=True)
        targets[idx] = projected * scale + lo
    return apply_theta(pop, targets, policy)
