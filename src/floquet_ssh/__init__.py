"""Floquet quasi-energy spectra and PT-phase maps of a driven gain/loss SSH chain."""

from .analysis import (
    GammaThreshold,
    Phase,
    PhasePoint,
    ZeroMode,
    check_pt_symmetry,
    classify_pt,
    edge_weight,
    find_zero_modes,
    gamma_pt_threshold,
)
from .effective import bessel_j0, effective_hamiltonian, effective_tunneling
from .errors import (
    AliasingError,
    ConvergenceCapError,
    DimensionCapError,
    EigenConvergenceError,
    ParameterError,
    PropagatorCollapseError,
    SolverError,
)
from .floquet import (
    EffectiveComparison,
    FloquetSpectrum,
    Method,
    build_floquet_matrix,
    compare_floquet_effective,
    compute_spectrum,
    converge_nf,
    fold_real,
    matched_distance,
    one_period_propagator,
    quasi_energies_extended,
    quasi_energies_propagator,
    spectral_distance,
    static_spectrum,
)
from .linalg import Spectrum, eig_dense, expm
from .model import (
    ModelParams,
    build_static_hamiltonian,
    drive_operator,
    drive_value,
    hamiltonian_at,
)
from .sweep import SweepSpec, run_phase_diagram, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "ConvergenceCapError", "DimensionCapError",
    "EffectiveComparison", "EigenConvergenceError", "FloquetSpectrum",
    "GammaThreshold", "Method", "ModelParams", "ParameterError",
    "Phase", "PhasePoint", "PropagatorCollapseError", "SolverError",
    "Spectrum", "SweepSpec", "ZeroMode", "bessel_j0", "build_floquet_matrix",
    "build_static_hamiltonian", "check_pt_symmetry", "classify_pt",
    "compare_floquet_effective", "compute_spectrum", "converge_nf",
    "drive_operator", "drive_value", "edge_weight", "effective_hamiltonian",
    "effective_tunneling", "eig_dense", "expm", "find_zero_modes",
    "fold_real", "gamma_pt_threshold", "hamiltonian_at",
    "matched_distance", "one_period_propagator", "quasi_energies_extended",
    "quasi_energies_propagator", "run_phase_diagram", "run_sweep",
    "spectral_distance", "static_spectrum",
]
