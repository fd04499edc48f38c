"""What the 1-D and the n-D solver share, settings and weights, with their defaults
and checks: apart from both, so that ``RunConfig`` and either solver can use them
without importing, or compiling, the other."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ValidationError

DEFAULT_GRID_SIZE = 1000
# The largest quantile grid a run accepts: memory grows linearly in m (4 rows
# at m = 10^6 take 0.44 s and 70 MB, at 10^7 1.43 s and 421 MB).
MAX_GRID_SIZE = 10**6
DEFAULT_EPSILON = 0.01
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000
WEIGHT_TOL = 1e-9


def validate_solver_params(epsilon: float, tol: float, max_iter: int) -> None:
    """Reject entropic solver settings under which no iteration can converge.

    ``epsilon`` and ``tol`` must be positive and finite, ``max_iter`` at least 1.
    """
    for name, value in (("epsilon", epsilon), ("tol", tol)):
        if not value > 0:
            raise ValidationError(f"{name} must be positive, got {value}")
        if value == math.inf:  # an infinite tol stops after one sweep and calls it converged
            raise ValidationError(f"{name} must be finite, got {value}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")


def normalize_weights(weights: Sequence[float], count: int) -> np.ndarray:
    """The barycenter weights of ``count`` measures, checked and divided by their sum.

    The one check of barycenter weights, for ``barycenter_1d`` and the n-D
    ``barycenter_fixed_support`` alike: one weight per measure, each positive,
    summing to 1 within ``WEIGHT_TOL``.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != count:
        raise ValidationError("number of weights must match number of distributions")
    if not np.all(w > 0):  # a NaN weight fails this too
        raise ValidationError("barycenter weights must be strictly positive")
    total = w.sum()
    if not abs(total - 1.0) <= WEIGHT_TOL:
        raise ValidationError("barycenter weights must sum to 1")
    return w / total
