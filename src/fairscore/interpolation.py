"""The core fairness transform: per-group displacement interpolation between
each raw score distribution and the barycenter, governed by a theta policy.

For an individual with raw score s and in-group midrank p, the fair score is

    fair = (1 - theta_g) * s + theta_g * Q_B(p)

which is the 1-D W2 geodesic between the group distribution and the
barycenter. In-group midranks (not pooled ranks), read off ``raw_order``'s
sorted group runs, feed the map, so equal raw scores in one group always get
equal fair scores and within-group monotonicity holds exactly, ties included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .empirical import QuantileGrid, midranks
from .errors import DimensionError, ValidationError
from .population import GroupKey, ScoredPopulation


@dataclass(frozen=True)
class ThetaPolicy:
    """Default interpolation degree plus per-group overrides, all in [0, 1].

    This is the one check of a theta: the CLI's ``theta``, ``theta_overrides``
    and each ``sweep`` theta are all checked by building a policy.
    """

    default_theta: float = 1.0
    overrides: dict[GroupKey, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.default_theta <= 1.0:  # a NaN fails this too
            raise ValidationError(f"theta {self.default_theta} outside [0, 1]")
        for key, theta in self.overrides.items():
            if not isinstance(key, GroupKey):
                raise ValidationError("override keys must be GroupKey instances")
            if not 0.0 <= theta <= 1.0:
                raise ValidationError(f"theta override {theta} for group {key} outside [0, 1]")

    def to_dict(self) -> dict:
        return {
            "default_theta": self.default_theta,
            "overrides": {str(k): v for k, v in sorted(self.overrides.items())},
        }


@dataclass(frozen=True)
class FairScores:
    """Transformed scores, index-aligned with the population's records."""

    values: np.ndarray
    theta_used: ThetaPolicy

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValidationError("fair scores must be finite")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


def resolve_theta(policy: ThetaPolicy, g: GroupKey) -> float:
    """Group-specific theta: override when present, default otherwise."""
    return policy.overrides.get(g, policy.default_theta)


def check_policy_against(policy: ThetaPolicy, pop: ScoredPopulation) -> None:
    for key in policy.overrides:
        if key not in pop.groups:
            raise ValidationError(f"theta override for nonexistent group {key}")


def barycenter_targets(pop: ScoredPopulation, bary: QuantileGrid) -> np.ndarray:
    """T(s) for every record: the barycenter quantile at its in-group midrank.

    The midranks read the sorted group runs of ``pop.raw_order``. The targets
    do not depend on theta, so a sweep computes them once.
    """
    order = pop.raw_order
    targets = np.empty_like(pop.scores)
    ranks = midranks(pop.scores[order.by_group], order.group_starts)
    targets[order.by_group] = bary.evaluate(ranks)
    return targets


def apply_theta(pop: ScoredPopulation, targets: np.ndarray, policy: ThetaPolicy) -> FairScores:
    """fair = (1 - theta_g) * s + theta_g * T(s); a group with theta 0 keeps s bitwise.

    The one blend of the 1-D and the n-D path, over all rows at once: ``targets``
    holds a finite T(s) per record (shape (n,) or (n, d)), from ``barycenter_targets``
    or ``transportnd.barycenter_targets_nd``, and each row's theta is read through
    ``pop.group_codes``. A theta-0 row keeps its raw score, -0.0 included.
    """
    check_policy_against(policy, pop)
    theta = np.array([resolve_theta(policy, key) for key in pop.groups])[pop.group_codes]
    theta = theta.reshape(theta.shape + (1,) * (pop.scores.ndim - 1))  # broadcast over d
    fair = np.where(theta == 0.0, pop.scores, (1.0 - theta) * pop.scores + theta * targets)
    return FairScores(values=fair, theta_used=policy)


def interpolate_scores(
    pop: ScoredPopulation, bary: QuantileGrid, policy: ThetaPolicy
) -> FairScores:
    """Apply the theta-interpolated transport toward the barycenter (1-D only)."""
    if pop.dimension != 1:
        raise DimensionError(
            "interpolate_scores handles 1-D scores only; for multi-dimensional "
            "populations use compute_barycenter_nd, barycenter_targets_nd and apply_theta"
        )
    return apply_theta(pop, barycenter_targets(pop, bary), policy)
