"""Fair score post-processing via Wasserstein-2 barycenters and
theta-interpolated optimal transport."""

from .empirical import (
    EmpiricalDistribution,
    QuantileGrid,
    discretize_quantiles,
    empirical_from_samples,
    quantile,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    FairscoreError,
    OracleGuardError,
    ValidationError,
)
from .interpolation import FairScores, ThetaPolicy, interpolate_scores, resolve_theta
from .metrics import (
    FairnessReport,
    SelectionRule,
    build_report,
    group_fairness_error,
    individual_fairness_error,
    selection_rates,
    utility_loss,
)
from .population import (
    GroupKey,
    ScoredPopulation,
    ScoreRecord,
    build_population,
    population_from_records,
    validate_population,
)
from .synth import Beta, Gaussian, GroupSpec, Uniform, generate_synthetic
from .transport1d import barycenter_1d, w2_distance
from .transportnd import (
    BregmanBarycenter,
    DiscreteMeasure,
    TransportPlan,
    barycenter_fixed_support,
    compute_barycenter_nd,
    sinkhorn_plan,
)

__version__ = "0.1.0"

__all__ = [
    "Beta",
    "BregmanBarycenter",
    "ConvergenceError",
    "DimensionError",
    "DiscreteMeasure",
    "EmpiricalDistribution",
    "FairScores",
    "FairnessReport",
    "FairscoreError",
    "Gaussian",
    "GroupKey",
    "GroupSpec",
    "OracleGuardError",
    "QuantileGrid",
    "ScoreRecord",
    "ScoredPopulation",
    "SelectionRule",
    "ThetaPolicy",
    "TransportPlan",
    "Uniform",
    "ValidationError",
    "barycenter_1d",
    "barycenter_fixed_support",
    "build_population",
    "build_report",
    "compute_barycenter_nd",
    "discretize_quantiles",
    "empirical_from_samples",
    "generate_synthetic",
    "group_fairness_error",
    "individual_fairness_error",
    "interpolate_scores",
    "population_from_records",
    "quantile",
    "resolve_theta",
    "selection_rates",
    "sinkhorn_plan",
    "utility_loss",
    "validate_population",
    "w2_distance",
]
