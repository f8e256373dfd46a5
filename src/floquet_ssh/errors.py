"""Exception types shared across the package.

ParameterError covers bad inputs (model parameters, configs, CLI flags);
SolverError and its subclasses cover numerical failures.  The CLI maps
ParameterError to exit code 2 and SolverError to exit code 1.
``require_positive_finite`` is the one range check for tolerances and
other strictly positive settings, and ``require_integer`` the one type
check for sizes and site indices; both raise ParameterError.
"""

import math
import numbers


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


def require_integer(name: str, value) -> int:
    """``value`` as an int; booleans and non-integral values raise ParameterError."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or (isinstance(value, float) and value.is_integer())):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)
