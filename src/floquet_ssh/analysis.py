"""Physical classification of spectra: PT phase, zero modes, thresholds.

A spectrum is PT-unbroken when every (quasi-)energy is real to within
``TOL_IM``; complex-conjugate pairs mark the broken phase.  Zero modes
have |Re eps| below the fixed ZERO_TOL_FACTOR * |T| and more than half
their weight on the outer EDGE_FRACTION of sites at each edge.
``gamma_pt_threshold`` bisects the gain/loss strength for the
unbroken-to-broken transition, and ``check_pt_symmetry`` verifies the
antiunitary relation of the driven Hamiltonian directly: site reversal
plus conjugation plus reflection of z about the odd point of the drive,
with scalar (trace) parts discounted as gauge.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .floquet import FloquetSpectrum, Method, compute_spectrum, converge_nf
from .model import ModelParams, hamiltonian_at

#: Max |Im eps| below which a spectrum counts as PT-unbroken.
TOL_IM = 1e-8
#: |Re eps| window for zero-mode detection, in units of T.
ZERO_TOL_FACTOR = 1e-3
#: Fraction of sites per edge used for the edge weight.
EDGE_FRACTION = 0.1
#: Number of pre-scan points guarding the threshold bisection.
PRESCAN_POINTS = 16


class Phase(enum.Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"


class ZeroMode(NamedTuple):
    mode: int
    re_eps: float
    im_eps: float
    edge_weight: float


@dataclass(frozen=True)
class PhasePoint:
    """PT classification of one spectrum."""

    max_im: float
    phase: Phase
    zero_modes: tuple[ZeroMode, ...]


def edge_weight(weights_row: np.ndarray) -> float:
    """Share of a mode's site weight on the outer EDGE_FRACTION of sites at each edge."""
    n = weights_row.shape[0]
    count = math.ceil(EDGE_FRACTION * n)
    return float(weights_row[:count].sum() + weights_row[n - count:].sum())


def find_zero_modes(spectrum: FloquetSpectrum) -> list[ZeroMode]:
    """Modes with |Re eps| < ZERO_TOL_FACTOR * |T| and edge weight above 0.5.

    The 1e-3 * |T| window accommodates the exponentially small
    finite-size splitting of edge-mode pairs.  The edge weight is
    computed only for modes inside the window.
    """
    zero_tol = ZERO_TOL_FACTOR * abs(spectrum.params.tunneling)
    found = []
    for k in range(spectrum.n_modes):
        eps = spectrum.quasi_energies[k]
        if abs(eps.real) >= zero_tol:
            continue
        ew = edge_weight(spectrum.mode_weights[k])
        if ew > 0.5:
            found.append(ZeroMode(k, float(eps.real), float(eps.imag), ew))
    return found


def classify_pt(spectrum: FloquetSpectrum, tol_im: float = TOL_IM) -> PhasePoint:
    """Unbroken iff max |Im eps| < tol_im; zero modes listed alongside."""
    if not tol_im > 0:
        raise ParameterError(f"tol_im must be positive, got {tol_im}")
    max_im = spectrum.max_imag
    phase = Phase.UNBROKEN if max_im < tol_im else Phase.BROKEN
    modes = tuple(find_zero_modes(spectrum))
    return PhasePoint(max_im=max_im, phase=phase, zero_modes=modes)


@dataclass(frozen=True)
class GammaThreshold:
    """Result of the PT-threshold bisection."""

    value: float
    status: str          # "ok" | "broken_at_zero" | "unbroken_at_gamma_max"
    monotone: bool       # pre-scan saw a single unbroken->broken transition
    scan: tuple[tuple[float, bool], ...]  # (gamma, broken) pre-scan samples


def gamma_pt_threshold(params: ModelParams, gamma_max: float,
                       tol_gamma: float = 1e-4,
                       method: Method = Method.STATIC,
                       n_floquet: int | None = None,
                       n_steps: int | None = None,
                       tol_im: float = TOL_IM,
                       nf_tol: float = 1e-8) -> GammaThreshold:
    """Bisect the unbroken-to-broken transition in gamma on [0, gamma_max].

    Monotonicity of the broken phase in gamma is an assumption; a
    PRESCAN_POINTS-point scan detects violations and reports them via
    ``monotone`` (the bisection then brackets the first transition).
    ``broken_at_zero`` (value 0) means that no gamma > 0 was seen
    unbroken; otherwise ``ok`` reports the bracket's midpoint.
    The caller picks the spectrum route through ``method``; on the
    extended route without ``n_floquet``, N_F is converged to ``nf_tol``
    at gamma_max.
    """
    if not gamma_max > 0:
        raise ParameterError(f"gamma_max must be positive, got {gamma_max}")
    if not tol_gamma > 0:
        raise ParameterError(f"tol_gamma must be positive, got {tol_gamma}")
    if method is Method.EXTENDED and n_floquet is None:
        n_floquet = converge_nf(replace(params, gamma=gamma_max), tol=nf_tol)

    def is_broken(gamma: float) -> bool:
        spectrum = compute_spectrum(replace(params, gamma=gamma), method,
                                    n_floquet=n_floquet, n_steps=n_steps)
        return classify_pt(spectrum, tol_im).phase is Phase.BROKEN

    if is_broken(0.0):
        raise ParameterError("spectrum is already broken at gamma=0; "
                             "threshold search requires an unbroken start")

    scan_gammas = np.linspace(gamma_max / PRESCAN_POINTS, gamma_max, PRESCAN_POINTS)
    scan = tuple((float(g), is_broken(float(g))) for g in scan_gammas)
    flags = [b for _, b in scan]
    monotone = flags == sorted(flags)

    if not flags[-1]:
        return GammaThreshold(gamma_max, "unbroken_at_gamma_max", monotone, scan)

    # Bracket the first transition seen by the scan, then bisect.
    first_broken = next(i for i, b in enumerate(flags) if b)
    lo = 0.0 if first_broken == 0 else scan[first_broken - 1][0]
    hi = scan[first_broken][0]
    while hi - lo > tol_gamma:
        mid = 0.5 * (lo + hi)
        if is_broken(mid):
            hi = mid
        else:
            lo = mid
    if lo == 0.0:
        return GammaThreshold(0.0, "broken_at_zero", monotone, scan)
    return GammaThreshold(0.5 * (lo + hi), "ok", monotone, scan)


def check_pt_symmetry(params: ModelParams) -> float:
    """Max residual of the PT relation over one drive period.

    Evaluates R(z) = P conj(H(z_r - z)) P - H(z_r + z) at 64 evenly
    spaced z, where P is site reversal and z_r = -phase0/omega is the odd
    point of the drive, subtracts the trace part of R (scalar drive terms
    are pure gauge), and returns the largest remaining entry magnitude.
    For even N this is zero up to rounding; odd N breaks the relation
    through its hopping texture.
    """
    n = params.n_sites
    z_reflect = -params.phase0 / params.omega
    z_period = params.drive_period
    worst = 0.0
    for z in np.linspace(0.0, z_period, 64, endpoint=False):
        reflected = np.conj(hamiltonian_at(z_reflect - z, params))[::-1, ::-1]
        residual = reflected - hamiltonian_at(z_reflect + z, params)
        residual[np.diag_indices(n)] -= np.trace(residual) / n
        worst = max(worst, float(np.abs(residual).max()))
    return worst
