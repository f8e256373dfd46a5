"""Driven gain/loss SSH chain: parameters and Hamiltonian assembly.

The lattice is an open chain of N sites with staggered nearest-neighbour
tunneling

    H[n, n+1] = H[n+1, n] = -T * (1 + lam * cos(pi*n + Phi)),   n = 1..N-1,

balanced gain/loss impurities +i*gamma at site j and -i*gamma at site
N-j+1, and a sinusoidally driven potential gradient

    f(z) * (n - n0),    f(z) = kappa * omega * sin(omega*z + phase0).

Site indices are 1-based in every formula and docstring; ndarray storage
is 0-based.  cos(pi*n + Phi) is evaluated as (-1)**n * cos(Phi), which is
exact and avoids pi*n rounding at large n.  Matrices are returned as
dense ndarrays (complex128 for Hamiltonians, float64 for the gradient
operator).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


class N0Rule(enum.Enum):
    """Zero-point rule for the potential gradient."""

    EVEN = "even"          # n0 = N/2, requires even N
    ODD = "odd"            # n0 = (N+1)/2, requires odd N
    CENTERED = "centered"  # n0 = (N+1)/2 exactly (chain midpoint, any N)


# Keys accepted by ModelParams.from_dict.
_PARAM_KEYS = (
    "n_sites", "tunneling", "lambda", "phi_dim", "gamma",
    "impurity_site", "kappa", "omega", "phase0", "n0_rule",
)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the driven chain.

    ``lam`` is the dimerization strength (key ``lambda`` in
    ``from_dict``), ``phi_dim`` the modulation phase Phi, ``phase0`` the
    initial drive phase.  ``kappa`` is the dimensionless drive strength;
    the physical drive amplitude is ``kappa * omega``.  ``n0_rule``
    defaults to the parity-matched integer rule.
    """

    n_sites: int
    tunneling: float = 1.0
    lam: float = 0.0
    phi_dim: float = 0.0
    gamma: float = 0.0
    impurity_site: int = 1
    kappa: float = 0.0
    omega: float = 1.0
    phase0: float = 0.0
    n0_rule: N0Rule | None = None

    def __post_init__(self):
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 1:
            raise ParameterError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        if not isinstance(self.impurity_site, (int, np.integer)):
            raise ParameterError(f"impurity_site must be an integer, got {self.impurity_site!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        object.__setattr__(self, "impurity_site", int(self.impurity_site))
        for name in ("tunneling", "lam", "phi_dim", "gamma", "kappa", "omega", "phase0"):
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
        j, n = self.impurity_site, self.n_sites
        if not (1 <= j <= n - j + 1):
            raise ParameterError(
                f"impurity_site must satisfy 1 <= j <= N-j+1, got j={j} for N={n}"
            )
        if self.n0_rule is None:
            rule = N0Rule.EVEN if n % 2 == 0 else N0Rule.ODD
            object.__setattr__(self, "n0_rule", rule)
        elif self.n0_rule is N0Rule.EVEN and n % 2 != 0:
            raise ParameterError("n0_rule 'even' requires even N")
        elif self.n0_rule is N0Rule.ODD and n % 2 == 0:
            raise ParameterError("n0_rule 'odd' requires odd N")

    @property
    def n0(self) -> float:
        """Zero point of the gradient under the active rule."""
        if self.n0_rule is N0Rule.EVEN:
            return self.n_sites / 2
        return (self.n_sites + 1) / 2

    @property
    def drive_period(self) -> float:
        """Z_p = 2*pi/omega."""
        return 2.0 * math.pi / self.omega

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        unknown = set(data) - set(_PARAM_KEYS)
        if unknown:
            raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
        if "n_sites" not in data:
            raise ParameterError("n_sites is required")
        kwargs = {k: data[k] for k in data if k not in ("lambda", "n0_rule")}
        if "lambda" in data:
            kwargs["lam"] = data["lambda"]
        if "n0_rule" in data and data["n0_rule"] is not None:
            try:
                kwargs["n0_rule"] = N0Rule(data["n0_rule"])
            except ValueError:
                raise ParameterError(f"unknown n0_rule {data['n0_rule']!r}") from None
        kwargs["n_sites"] = int(data["n_sites"])
        if "impurity_site" in data:
            kwargs["impurity_site"] = int(data["impurity_site"])
        return cls(**kwargs)


def hopping_amplitudes(params: ModelParams) -> np.ndarray:
    """Bond amplitudes t_n = -T*(1 + lam*(-1)**n*cos(Phi)), n = 1..N-1."""
    n = np.arange(1, params.n_sites)
    signs = np.where(n % 2 == 0, 1.0, -1.0)
    return -params.tunneling * (1.0 + params.lam * signs * math.cos(params.phi_dim))


def build_static_hamiltonian(params: ModelParams) -> np.ndarray:
    """Static chain: staggered hopping plus the +/-i*gamma impurity pair.

    The z-dependent gradient term is excluded.  Rejects N < 2 and the
    degenerate placement j = N-j+1 with gamma != 0 (gain and loss on the
    same site would cancel).
    """
    n = params.n_sites
    if n < 2:
        raise ParameterError(f"need at least 2 sites, got N={n}")
    j = params.impurity_site
    if params.gamma != 0.0 and j == n - j + 1:
        raise ParameterError(
            f"degenerate impurity placement: gain site j={j} equals loss site N-j+1"
        )
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


def drive_value(z: float, params: ModelParams) -> float:
    """f(z) = kappa * omega * sin(omega*z + phase0)."""
    return params.kappa * params.omega * math.sin(params.omega * z + params.phase0)


def hamiltonian_at(z: float, params: ModelParams) -> np.ndarray:
    """Full Hamiltonian H(z) = H_static + f(z) * D."""
    h = build_static_hamiltonian(params)
    f = drive_value(z, params)
    if f != 0.0:
        h[np.diag_indices_from(h)] += f * np.diag(drive_operator(params))
    return h
