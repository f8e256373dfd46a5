"""Exception types shared across the package.

ParameterError covers bad inputs (model parameters, configs, CLI flags);
SolverError and its subclasses cover numerical failures.  The CLI maps
ParameterError to exit code 2 and SolverError to exit code 1.
``require_positive_finite`` is the one range check for tolerances and
other strictly positive settings; it raises ParameterError.
"""

import math


class ParameterError(ValueError):
    """Invalid model parameter, configuration value, or flag combination."""


class SolverError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class EigenConvergenceError(SolverError):
    """Eigensolver did not converge or violated its residual bound."""


class PropagatorCollapseError(SolverError):
    """The propagator U has an eigenvalue mu lost in its rounding, |mu| <= eps * ||U||_1."""


class DimensionCapError(SolverError):
    """A requested matrix exceeds its size cap (``floquet.DIM_CAP``, ``PROPAGATOR_SITE_CAP``)."""


class ConvergenceCapError(SolverError):
    """An adaptive refinement loop hit its cap before reaching tolerance."""


class AliasingError(SolverError):
    """Folding window is too narrow for the spectrum being compared."""


def require_positive_finite(name: str, value: float) -> None:
    """Raise ParameterError unless 0 < value < inf (NaN fails too)."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got {value}")
