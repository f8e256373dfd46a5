"""High-frequency effective chain with Bessel-rescaled tunneling.

Averaging the sinusoidal gradient drive over one period multiplies the
tunneling amplitude by J0(kappa), the zero-order Bessel function of the
drive strength.  The effective chain is therefore the static chain with
T -> T * J0(kappa), the gain/loss pair untouched, and no gradient term.
J0's first zero at kappa ~ 2.405 switches the hopping off entirely
(dynamical localization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AliasingError, ParameterError
from .linalg import eig_dense
from .model import ModelParams, build_static_hamiltonian

#: |x| boundary between the power series and the asymptotic evaluation.
_SERIES_CUTOFF = 10.0
_SERIES_MAX_TERMS = 80
_ASYMPTOTIC_MAX_TERMS = 40


def bessel_j0(x: float) -> float:
    """Zero-order Bessel function of the first kind.

    Power series sum_k (-1)^k (x/2)^(2k) / (k!)^2 with a term-count bound
    for |x| <= 10 (absolute error below 1e-12 there); Hankel asymptotic
    expansion with optimal truncation beyond (absolute error below 1e-8).
    Valid for |x| <= 1e6.
    """
    if not math.isfinite(x):
        raise ParameterError(f"bessel_j0 argument must be finite, got {x!r}")
    ax = abs(x)
    if ax > 1e6:
        raise ParameterError(f"bessel_j0 argument out of range: |x|={ax:.3e} > 1e6")
    if ax <= _SERIES_CUTOFF:
        return _j0_series(ax)
    return _j0_asymptotic(ax)


def _j0_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return total


def _j0_asymptotic(x: float) -> float:
    # J0(x) = sqrt(2/(pi x)) [cos(chi) * P(x) - sin(chi) * Q(x)],
    # chi = x - pi/4, with the Hankel coefficients
    # a_0 = 1, a_{k+1} = -a_k (2k+1)^2 / (8(k+1));
    # P = sum (-1)^k a_{2k} x^(-2k), Q = sum (-1)^k a_{2k+1} x^(-2k-1).
    # The series is asymptotic: truncate at the smallest term.
    a = 1.0
    terms = [a]
    for k in range(1, 2 * _ASYMPTOTIC_MAX_TERMS):
        a *= -((2 * k - 1) ** 2) / (8.0 * k)
        terms.append(a)
    inv = 1.0 / x
    p_sum = 0.0
    q_sum = 0.0
    sign = 1.0
    prev = math.inf
    power = 1.0  # inv ** (2k), underflows harmlessly at large x
    for k in range(_ASYMPTOTIC_MAX_TERMS):
        tp = terms[2 * k] * power
        tq = terms[2 * k + 1] * power * inv
        if max(abs(tp), abs(tq)) >= prev:
            break
        p_sum += sign * tp
        q_sum += sign * tq
        prev = max(abs(tp), abs(tq))
        sign = -sign
        power *= inv * inv
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (math.cos(chi) * p_sum - math.sin(chi) * q_sum)


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
    omega: float


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
        omega=params.omega,
    )
