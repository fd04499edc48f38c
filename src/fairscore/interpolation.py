"""The core fairness transform: per-group displacement interpolation between
each raw score distribution and the barycenter, governed by a theta policy.

For an individual with raw score s and in-group midrank p, the fair score is

    fair = (1 - theta_g) * s + theta_g * Q_B(p)

which is the 1-D W2 geodesic between the group distribution and the
barycenter. In-group midranks (not pooled ranks), read off the population's
``raw_order``, feed the map, so equal raw scores in one group always receive
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
    """Default interpolation degree plus per-group overrides, all in [0, 1]."""

    default_theta: float = 1.0
    overrides: dict[GroupKey, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_theta(self.default_theta)
        for key, theta in self.overrides.items():
            if not isinstance(key, GroupKey):
                raise ValidationError("override keys must be GroupKey instances")
            _check_theta(theta)

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


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta {theta} outside [0, 1]")


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

    The one blend of the 1-D and the n-D path: ``targets`` holds T(s) per record
    (shape (n,) or (n, d)), from ``barycenter_targets`` or
    ``transportnd.barycenter_targets_nd``. Rows of groups with theta 0 are not
    read.
    """
    check_policy_against(policy, pop)
    raw = pop.scores
    fair = np.empty_like(raw)
    for key, idx in pop.groups.items():
        s = raw[idx]
        theta = resolve_theta(policy, key)
        # without this branch a raw -0.0 would come out as 0.0
        fair[idx] = s if theta == 0.0 else (1.0 - theta) * s + theta * targets[idx]
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
