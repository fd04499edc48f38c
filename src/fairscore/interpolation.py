"""The core fairness transform: per-group displacement interpolation between
each raw score distribution and the barycenter, governed by a theta policy.

For an individual with raw score s, in any score dimension, the fair score is

    fair = (1 - theta_g) * s + theta_g * T(s)

the W2 geodesic toward the barycenter. In 1-D, T(s) is the barycenter quantile
at the in-group midrank (not the pooled rank), read off ``raw_order``'s sorted
group runs, so equal raw scores in one group always get equal fair scores and
within-group monotonicity holds, ties included; in n-D, the barycentric projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, ValidationError
from .population import GroupKey, ScoredPopulation

if TYPE_CHECKING:
    from .empirical import QuantileGrid
    from .transportnd import BregmanBarycenter


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


@dataclass(frozen=True, eq=False)
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


def barycenter_targets(
    pop: ScoredPopulation, bary: QuantileGrid | BregmanBarycenter
) -> np.ndarray:
    """T(s) for every record: in 1-D a ``QuantileGrid`` read at each in-group midrank,
    off ``pop.raw_order``'s sorted runs; in n-D the projections of the
    ``BregmanBarycenter`` of ``compute_barycenter_nd(pop, ...)``. Theta-free, so a
    sweep computes them once."""
    if pop.dimension == 1:
        from .empirical import QuantileGrid as kind, midranks
    else:
        from .transportnd import BregmanBarycenter as kind
    if not isinstance(bary, kind) or (pop.dimension > 1 and bary.dimension != pop.dimension):
        raise DimensionError(f"{pop.dimension}-D scores need a {pop.dimension}-D {kind.__name__}")
    targets = np.empty_like(pop.scores)
    if pop.dimension == 1:
        order = pop.raw_order
        ranks = midranks(pop.scores[order.by_group], order.group_starts)
        targets[order.by_group] = np.interp(ranks, bary.ranks, bary.quantiles)
        return targets
    if [len(p) for p in bary.projections] != [len(idx) for idx in pop.groups.values()]:
        raise ValidationError("barycenter projections do not match the population's groups")
    for idx, projection in zip(pop.groups.values(), bary.projections):
        targets[idx] = projection
    return targets


def apply_theta(pop: ScoredPopulation, targets: np.ndarray, policy: ThetaPolicy) -> FairScores:
    """fair = (1 - theta_g) * s + theta_g * T(s); a group with theta 0 keeps s bitwise.

    One blend for every score dimension, over all rows at once: ``targets``
    holds a finite T(s) per record (shape (n,) or (n, d)), such as
    ``barycenter_targets`` gives, and each row's theta, its group's override or
    else the default, is read through ``pop.group_codes``. A theta-0 row keeps
    its raw score, -0.0 included. An override for a group ``pop`` lacks is refused.
    """
    for key in policy.overrides:
        if key not in pop.groups:
            raise ValidationError(f"theta override for nonexistent group {key}")
    thetas = [policy.overrides.get(key, policy.default_theta) for key in pop.groups]
    theta = np.array(thetas)[pop.group_codes]
    theta = theta.reshape(theta.shape + (1,) * (pop.scores.ndim - 1))  # broadcast over d
    fair = np.where(theta == 0.0, pop.scores, (1.0 - theta) * pop.scores + theta * targets)
    return FairScores(values=fair, theta_used=policy)


def interpolate_scores(
    pop: ScoredPopulation, bary: QuantileGrid | BregmanBarycenter, policy: ThetaPolicy
) -> FairScores:
    """Apply the theta-interpolated transport toward the barycenter, in any dimension."""
    return apply_theta(pop, barycenter_targets(pop, bary), policy)
