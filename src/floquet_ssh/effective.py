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
from dataclasses import dataclass, replace

import numpy as np

from .errors import AliasingError, ParameterError
from .linalg import eig_dense
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


@dataclass(frozen=True)
class EffectiveComparison:
    """Deviation between extended-matrix quasi-energies and the effective spectrum."""

    t_eff: float
    max_quasi_energy_deviation: float
    per_mode_deviation: np.ndarray


def compare_floquet_effective(params: ModelParams, n_floquet: int) -> EffectiveComparison:
    """Pair quasi-energies with effective eigenvalues under the optimal matching.

    ``per_mode_deviation[k]`` belongs to quasi-energy k in the sorted
    Floquet order.  Requires omega/2 to exceed the spectral radius of the
    effective chain so that zone folding cannot alias the comparison;
    raises AliasingError otherwise.
    """
    from .floquet import _matched_deviations, quasi_energies_extended

    eff_spectrum = eig_dense(effective_hamiltonian(params))
    reach = float(np.abs(eff_spectrum.eigenvalues.real).max())
    if params.omega / 2.0 <= reach:
        raise AliasingError(
            f"omega/2 = {params.omega / 2.0:.4g} does not clear the effective "
            f"spectral reach {reach:.4g}; folding would alias the comparison"
        )
    floquet_spectrum = quasi_energies_extended(params, n_floquet)
    deviation = _matched_deviations(floquet_spectrum.quasi_energies,
                                    eff_spectrum.eigenvalues)
    return EffectiveComparison(
        t_eff=effective_tunneling(params),
        max_quasi_energy_deviation=float(deviation.max()),
        per_mode_deviation=deviation,
    )
