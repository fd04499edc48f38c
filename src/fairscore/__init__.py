"""Fair score post-processing via Wasserstein-2 barycenters and
theta-interpolated optimal transport.

The public names are imported on first use (PEP 562), so ``import
fairscore.cli`` loads only the modules the CLI itself imports.
"""

import importlib

_EXPORTS = {
    "empirical": (
        "EmpiricalDistribution",
        "QuantileGrid",
        "discretize_quantiles",
        "empirical_from_samples",
        "quantile",
    ),
    "errors": (
        "ConvergenceError",
        "DimensionError",
        "FairscoreError",
        "OracleGuardError",
        "ValidationError",
    ),
    "interpolation": ("FairScores", "ThetaPolicy", "interpolate_scores", "resolve_theta"),
    "metrics": (
        "FairnessReport",
        "SelectionRule",
        "build_report",
        "group_fairness_error",
        "individual_fairness_error",
        "selection_rates",
        "utility_loss",
    ),
    "population": (
        "GroupKey",
        "ScoredPopulation",
        "ScoreRecord",
        "build_population",
        "validate_population",
    ),
    "synth": ("Beta", "Gaussian", "GroupSpec", "Uniform", "generate_synthetic"),
    "transport1d": ("barycenter_1d", "w2_distance"),
    "transportnd": (
        "BregmanBarycenter",
        "DiscreteMeasure",
        "TransportPlan",
        "barycenter_fixed_support",
        "compute_barycenter_nd",
        "sinkhorn_plan",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
