"""Settings of the entropic solver: their defaults and their check.

They live apart from ``transportnd`` so that ``RunConfig`` can declare and
check them without importing, or compiling, the solver itself.
"""

from __future__ import annotations

import math

from .errors import ValidationError

DEFAULT_EPSILON = 0.01
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000


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
