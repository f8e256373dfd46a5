"""Driven gain/loss SSH chain: parameters and Hamiltonian assembly.

The lattice is an open chain of N sites with staggered nearest-neighbour
tunneling

    H[n, n+1] = H[n+1, n] = -T * (1 + lam * cos(pi*n + Phi)),   n = 1..N-1,

balanced gain/loss impurities +i*gamma at site j and -i*gamma at site
N-j+1, and a sinusoidally driven potential gradient

    f(z) * (n - n0),    f(z) = kappa * omega * sin(omega*z),

with n0 = N/2 for even N and (N+1)/2 for odd N.  Moving n0 adds the
scalar f(z)*c*I, which integrates to zero over a period, so the
one-period propagator and its quasi-energies do not depend on it.
Moving the drive's start time only conjugates that propagator, a Floquet
gauge too, so the drive starts at z = 0.

Site indices are 1-based in every formula and docstring; ndarray storage
is 0-based.  cos(pi*n + Phi) is evaluated as (-1)**n * cos(Phi), which is
exact and avoids pi*n rounding at large n.  Matrices are returned as
dense ndarrays (complex128 for Hamiltonians, float64 for the gradient
operator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require_integer


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the driven chain.

    ``lam`` is the dimerization strength (config key ``lambda``) and
    ``phi_dim`` the modulation phase Phi.  ``kappa`` is the
    dimensionless drive strength; the physical drive amplitude is
    ``kappa * omega``.  ``n_sites`` and ``impurity_site`` take ints,
    numpy ints and integral floats (stored as int); fractions and
    booleans raise ParameterError.  So do N < 2, a non-finite float,
    gamma < 0, kappa < 0, omega <= 0, an infinite 2*pi/omega or
    |T|*(1+|lam|) (which bounds every hopping at every Phi), j outside
    1 <= j <= N-j+1, and gamma != 0 with gain and loss on one site, j = N-j+1.
    """

    n_sites: int
    tunneling: float = 1.0
    lam: float = 0.0
    phi_dim: float = 0.0
    gamma: float = 0.0
    impurity_site: int = 1
    kappa: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("n_sites", "impurity_site"):
            object.__setattr__(self, name, require_integer(name, getattr(self, name)))
        if self.n_sites < 2:
            raise ParameterError(f"need at least 2 sites, got N={self.n_sites}")
        for name in ("tunneling", "lam", "phi_dim", "gamma", "kappa", "omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.gamma < 0:
            raise ParameterError(f"gamma must be nonnegative, got {self.gamma}")
        if self.kappa < 0:
            raise ParameterError(f"kappa must be nonnegative, got {self.kappa}")
        if self.omega <= 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if not math.isfinite(self.drive_period):
            raise ParameterError(
                f"omega must give a finite drive period 2*pi/omega, got omega={self.omega!r}")
        if not math.isfinite(abs(self.tunneling) * (1.0 + abs(self.lam))):
            raise ParameterError("tunneling and lambda must give a finite |T|*(1+|lambda|), "
                                 f"got T={self.tunneling!r}, lambda={self.lam!r}")
        j, n = self.impurity_site, self.n_sites
        if not (1 <= j <= n - j + 1):
            raise ParameterError(f"impurity_site must satisfy 1 <= j <= N-j+1, got j={j} for N={n}")
        if self.gamma != 0.0 and j == n - j + 1:
            raise ParameterError(
                f"degenerate impurity placement: gain site j={j} equals loss site N-j+1")

    @property
    def n0(self) -> float:
        """Zero point of the gradient: N/2 for even N, (N+1)/2 for odd N."""
        return float((self.n_sites + 1) // 2)

    @property
    def drive_period(self) -> float:
        """Z_p = 2*pi/omega."""
        return 2.0 * math.pi / self.omega


def hopping_amplitudes(params: ModelParams) -> np.ndarray:
    """Bond amplitudes t_n = -T*(1 + lam*(-1)**n*cos(Phi)), n = 1..N-1."""
    n = np.arange(1, params.n_sites)
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    return -params.tunneling * (1.0 + params.lam * signs * math.cos(params.phi_dim))


def build_static_hamiltonian(params: ModelParams) -> np.ndarray:
    """Static chain (no gradient term): staggered hopping plus the +/-i*gamma impurity pair."""
    n, j = params.n_sites, params.impurity_site
    h = np.zeros((n, n), dtype=np.complex128)
    hop = hopping_amplitudes(params)
    idx = np.arange(n - 1)
    h[idx, idx + 1] = hop
    h[idx + 1, idx] = hop
    if params.gamma != 0.0:
        h[j - 1, j - 1] = 1j * params.gamma
        h[n - j, n - j] = -1j * params.gamma
    return h


def drive_operator(params: ModelParams) -> np.ndarray:
    """Gradient operator D = diag(n - n0), real diagonal."""
    sites = np.arange(1, params.n_sites + 1, dtype=np.float64)
    return np.diag(sites - params.n0)


def drive_value(z, params: ModelParams):
    """f(z) = kappa * omega * sin(omega*z), elementwise for an array of z."""
    return params.kappa * params.omega * np.sin(params.omega * np.asarray(z))


def hamiltonian_at(z: float, params: ModelParams) -> np.ndarray:
    """Full Hamiltonian H(z) = H_static + f(z) * D at one z; an array z raises TypeError."""
    return build_static_hamiltonian(params) + drive_value(float(z), params) * drive_operator(params)
