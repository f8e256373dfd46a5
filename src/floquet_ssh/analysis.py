"""Physical classification of spectra: PT phase, zero modes, thresholds.

A spectrum is PT-unbroken when every (quasi-)energy is real to within
``TOL_IM``; complex-conjugate pairs mark the broken phase.  Zero modes
have |Re eps| below the fixed ZERO_TOL_FACTOR * |T| and more than half
their weight on the outer EDGE_FRACTION of sites at each edge.
``gamma_pt_threshold`` bisects the gain/loss strength for the
unbroken-to-broken transition, and ``check_pt_symmetry`` verifies the
antiunitary relation of the driven Hamiltonian directly: site reversal
plus conjugation plus reflection of z about z = 0, an odd point of the
drive, with scalar (trace) parts discounted as gauge.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, require_positive_finite
from .floquet import DIM_CAP, FloquetSpectrum, Method, _require_sites_within, compute_spectrum
from .model import ModelParams, hamiltonian_at

#: Max |Im eps| below which a spectrum counts as PT-unbroken.
TOL_IM = 1e-8
#: |Re eps| window for zero-mode detection, in units of T.
ZERO_TOL_FACTOR = 1e-3
#: Fraction of sites per edge used for the edge weight.
EDGE_FRACTION = 0.1
#: Number of pre-scan points guarding the threshold bisection.
PRESCAN_POINTS = 16
#: Default bracket width at which the threshold bisection stops.
TOL_GAMMA = 1e-4


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


def edge_weight(weights: np.ndarray):
    """Share of site weight on the outer EDGE_FRACTION of sites at each edge.

    ``weights`` is one mode's row or a (mode, site) array such as
    ``FloquetSpectrum.mode_weights``; the result has one entry per row.
    """
    n = weights.shape[-1]
    count = math.ceil(EDGE_FRACTION * n)
    return weights[..., :count].sum(axis=-1) + weights[..., n - count:].sum(axis=-1)


def is_zero_mode(re_eps: float, edge: float, tunneling: float) -> bool:
    """|Re eps| < ZERO_TOL_FACTOR * |T| and edge weight ``edge`` above 0.5.

    The 1e-3 * |T| window accommodates the exponentially small
    finite-size splitting of edge-mode pairs.
    """
    return abs(re_eps) < ZERO_TOL_FACTOR * abs(tunneling) and edge > 0.5


def find_zero_modes(spectrum: FloquetSpectrum) -> list[ZeroMode]:
    """The modes of ``spectrum`` that ``is_zero_mode`` accepts."""
    edges = edge_weight(spectrum.mode_weights)
    return [ZeroMode(k, float(eps.real), float(eps.imag), float(edge))
            for k, (eps, edge) in enumerate(zip(spectrum.quasi_energies, edges))
            if is_zero_mode(eps.real, edge, spectrum.params.tunneling)]


def classify_pt(spectrum: FloquetSpectrum) -> PhasePoint:
    """Unbroken iff max |Im eps| < TOL_IM; zero modes listed alongside."""
    max_im = spectrum.max_imag
    phase = Phase.UNBROKEN if max_im < TOL_IM else Phase.BROKEN
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
                       tol_gamma: float = TOL_GAMMA,
                       method: Method = Method.STATIC,
                       n_floquet: int | None = None,
                       n_steps: int | None = None) -> GammaThreshold:
    """Bisect the unbroken-to-broken transition in gamma on [0, gamma_max].

    Monotonicity of the broken phase in gamma is an assumption; a
    PRESCAN_POINTS-point scan detects violations and reports them via
    ``monotone`` (the bisection then brackets the first transition).
    ``broken_at_zero`` (value 0) means that no gamma > 0 was seen
    unbroken; otherwise ``ok`` reports the bracket's midpoint.  The
    bisection stops at width ``tol_gamma`` or when lo and hi are adjacent
    floats, whichever comes first.
    The caller picks the spectrum route through ``method``.  gamma_max is
    solved first, through ``compute_spectrum``; on the extended route
    without ``n_floquet`` that converges N_F to ``NF_TOL`` there.  Every
    other gamma is solved at that spectrum's N_F, and the scan's last
    point reuses the gamma_max spectrum.
    """
    require_positive_finite("gamma_max", gamma_max)
    require_positive_finite("tol_gamma", tol_gamma)
    top = compute_spectrum(replace(params, gamma=gamma_max), method, n_floquet=n_floquet,
                           n_steps=n_steps)

    def is_broken(gamma: float) -> bool:
        spectrum = top if gamma == gamma_max else compute_spectrum(
            replace(params, gamma=gamma), method, n_floquet=top.n_floquet, n_steps=n_steps)
        return classify_pt(spectrum).phase is Phase.BROKEN

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
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink further
            break
        if is_broken(mid):
            hi = mid
        else:
            lo = mid
    if lo == 0.0:
        return GammaThreshold(0.0, "broken_at_zero", monotone, scan)
    return GammaThreshold(0.5 * (lo + hi), "ok", monotone, scan)


def check_pt_symmetry(params: ModelParams) -> float:
    """Max residual of the PT relation over one drive period.

    Evaluates R(z) = P conj(H(-z)) P - H(z) at 64 evenly spaced z, where
    P is site reversal and z = 0 is an odd point of the drive, subtracts
    the trace part of R (scalar drive terms are pure gauge), and returns
    the largest remaining entry magnitude, one z at a time (about 64 B per
    N^2).  Chains over DIM_CAP sites raise DimensionCapError before any H(z).
    For even N this is zero up to rounding; odd N breaks the relation
    through its hopping texture.
    """
    _require_sites_within(params, DIM_CAP)
    peaks = []
    for z in np.linspace(0.0, params.drive_period, 64, endpoint=False):
        residual = np.conj(hamiltonian_at(-z, params))[::-1, ::-1] - hamiltonian_at(z, params)
        residual[np.diag_indices_from(residual)] -= np.trace(residual) / params.n_sites
        peaks.append(np.abs(residual).max())
    return float(np.max(peaks))
