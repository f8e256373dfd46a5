"""High-frequency effective chain with Bessel-rescaled tunneling.

Averaging the sinusoidal gradient drive over one period multiplies the
tunneling amplitude by J0(kappa), the zero-order Bessel function of the
drive strength.  The effective chain is therefore the static chain with
T -> T * J0(kappa), the gain/loss pair untouched, and no gradient term.
J0's first zero at kappa ~ 2.405 switches the hopping off entirely
(dynamical localization).  ``bessel_j0`` evaluates J0's Jacobi-Anger
integral by the periodic midpoint rule, one formula at every argument.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import ParameterError
from .model import ModelParams, build_static_hamiltonian


def bessel_j0(x: float) -> float:
    """Zero-order Bessel function of the first kind, valid for |x| <= 1e6.

    The Jacobi-Anger mean of cos(|x| sin t) over M midpoint nodes t_k = pi (k + 1/2) / M.
    The integrand has period pi, so the only error is aliasing of J_2M(x), J_4M(x), ...;
    M = floor(|x|/2) + 8 floor(|x|^(1/3)) + 20 puts it below rounding (1e-13 at 1e6).
    """
    if not math.isfinite(x):
        raise ParameterError(f"bessel_j0 argument must be finite, got {x!r}")
    ax = abs(x)
    if ax > 1e6:
        raise ParameterError(f"bessel_j0 argument out of range: |x|={ax:.3e} > 1e6")
    m = int(ax // 2) + 8 * int(ax ** (1.0 / 3.0)) + 20
    theta = np.pi * (np.arange(m) + 0.5) / m
    return float(np.cos(ax * np.sin(theta)).mean())


def effective_tunneling(params: ModelParams) -> float:
    """T_eff = T * J0(kappa)."""
    return params.tunneling * bessel_j0(params.kappa)


def effective_hamiltonian(params: ModelParams) -> np.ndarray:
    """Static chain with T replaced by T_eff; gain/loss unchanged, no gradient."""
    return build_static_hamiltonian(replace(params, tunneling=effective_tunneling(params)))
