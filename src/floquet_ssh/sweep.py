"""Deterministic parameter-grid execution over spectra and phase labels.

Grid points are solved and classified one after another, in grid order,
on the calling thread; the eigensolves use the cores through LAPACK's
threaded BLAS.  The output is therefore a pure function of the sweep
specification.  Per-point failures become failure records carrying a
machine-readable code instead of aborting the sweep.  A result is its
rows and failures; each row carries the N_F it was solved at.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .analysis import TOL_IM, Phase, PhasePoint, classify_pt, edge_weight
from .errors import ParameterError, SolverError
from .floquet import MIN_PROPAGATOR_STEPS, FloquetSpectrum, Method, compute_spectrum, converge_nf
from .model import ModelParams

_AXIS_FIELDS = {f.name for f in dataclasses.fields(ModelParams)} - {"n0_rule"}


def resolve_threads() -> int:
    """Sweep worker count, always 1; perfbench's environment probe records it."""
    return 1


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid over a base model.

    ``axes`` holds one or two (field name, grid values) pairs; fields
    must be ModelParams fields.  With ``kappa_omega`` set, kappa is
    re-derived as kappa_omega/omega at every grid point (drive specified
    by amplitude).  ``n_floquet`` None means auto: converge_nf once at
    the smallest-omega grid corner, reused for the whole sweep.  The
    tolerances ``nf_tol`` and ``tol_im`` must be positive.  The solver
    sizes are checked only for the method that uses them: ``n_floquet``
    must be >= 1 on the extended route, and ``n_steps`` must be
    >= MIN_PROPAGATOR_STEPS on the propagator route.
    """

    base: ModelParams
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    method: Method = Method.EXTENDED
    kappa_omega: float | None = None
    n_floquet: int | None = None
    nf_tol: float = 1e-8
    n_steps: int | None = None
    tol_im: float = TOL_IM

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ParameterError(f"need 1 or 2 sweep axes, got {len(self.axes)}")
        for name, grid in self.axes:
            if name not in _AXIS_FIELDS:
                raise ParameterError(f"unknown sweep axis {name!r}")
            if len(grid) == 0:
                raise ParameterError(f"axis {name!r} has an empty grid")
            if not np.all(np.isfinite(grid)):
                raise ParameterError(f"axis {name!r} has non-finite grid values")
        for name in ("nf_tol", "tol_im"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        if (self.method is Method.EXTENDED and self.n_floquet is not None
                and self.n_floquet < 1):
            raise ParameterError(f"n_floquet must be >= 1, got {self.n_floquet}")
        if (self.method is Method.PROPAGATOR and self.n_steps is not None
                and self.n_steps < MIN_PROPAGATOR_STEPS):
            raise ParameterError(
                f"n_steps must be >= {MIN_PROPAGATOR_STEPS}, got {self.n_steps}")

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(len(grid) for _, grid in self.axes)

    def grid_points(self) -> list[dict[str, float]]:
        """Axis-value dicts in row-major order (first axis outermost)."""
        names = [name for name, _ in self.axes]
        grids = [grid for _, grid in self.axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*grids)]

    def params_at(self, point: dict[str, float]) -> ModelParams:
        updates: dict = dict(point)
        if "n_sites" in updates:
            updates["n_sites"] = int(updates["n_sites"])
        if "impurity_site" in updates:
            updates["impurity_site"] = int(updates["impurity_site"])
        params = replace(self.base, **updates)
        if self.kappa_omega is not None:
            params = replace(params, kappa=self.kappa_omega / params.omega)
        return params


@dataclass(frozen=True)
class SpectrumRow:
    """One mode at one grid point (long format)."""

    grid_index: int
    phi: float
    omega: float
    gamma: float
    kappa: float
    mode: int
    re_eps: float
    im_eps: float
    edge_weight: float
    phase: str
    method: str
    n_floquet: int


@dataclass(frozen=True)
class PhaseRow:
    """One grid point of a phase diagram."""

    grid_index: int
    phi: float
    omega: float
    gamma: float
    kappa: float
    max_im: float
    zero_mode_count: int
    phase: str
    method: str
    n_floquet: int


@dataclass(frozen=True)
class Failure:
    grid_index: int
    point: dict[str, float]
    code: str
    message: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    failures: tuple[Failure, ...]


def _auto_n_floquet(spec: SweepSpec) -> tuple[int, dict[ModelParams, FloquetSpectrum]]:
    """converge_nf at the smallest-omega grid corner (worst case).

    Also returns the corner's spectrum at that N_F, keyed by its params.
    """
    omega_axes = [grid for name, grid in spec.axes if name == "omega"]
    point: dict[str, float] = {}
    if omega_axes:
        point["omega"] = float(min(omega_axes[0]))
    params = spec.params_at({**spec.grid_points()[0], **point})
    solved: dict[int, FloquetSpectrum] = {}
    nf = converge_nf(params, spec.nf_tol, spectra=solved)
    return nf, {params: solved[nf]}


def spectrum_rows(spectrum: FloquetSpectrum, params: ModelParams, phase: Phase,
                  index: int) -> list[SpectrumRow]:
    """One long-format row per mode of ``spectrum``, computed at ``params``."""
    return [SpectrumRow(
        grid_index=index,
        phi=params.phi_dim,
        omega=params.omega,
        gamma=params.gamma,
        kappa=params.kappa,
        mode=k,
        re_eps=float(eps.real),
        im_eps=float(eps.imag),
        edge_weight=edge_weight(spectrum.mode_weights[k]),
        phase=phase.value,
        method=spectrum.method.value,
        n_floquet=spectrum.n_floquet,
    ) for k, eps in enumerate(spectrum.quasi_energies)]


def _phase_rows(spectrum: FloquetSpectrum, params: ModelParams, point: PhasePoint,
                index: int) -> list[PhaseRow]:
    return [PhaseRow(
        grid_index=index,
        phi=params.phi_dim,
        omega=params.omega,
        gamma=params.gamma,
        kappa=params.kappa,
        max_im=point.max_im,
        zero_mode_count=len(point.zero_modes),
        phase=point.phase.value,
        method=spectrum.method.value,
        n_floquet=spectrum.n_floquet,
    )]


def _run_grid(spec: SweepSpec, rows_of) -> SweepResult:
    """Solve and classify every grid point in grid order, building its rows.

    ``rows_of(spectrum, params, point, index)`` turns one classified grid
    point into its output rows.
    """
    points = spec.grid_points()
    nf_shared, known = 0, {}
    if spec.method is Method.EXTENDED and spec.n_floquet is not None:
        nf_shared = spec.n_floquet
    elif spec.method is Method.EXTENDED:
        nf_shared, known = _auto_n_floquet(spec)
    all_rows: list = []
    failures: list[Failure] = []
    for index, point in enumerate(points):
        try:
            params = spec.params_at(point)
            spectrum = known.get(params)
            if spectrum is None:
                spectrum = compute_spectrum(params, spec.method, n_floquet=nf_shared,
                                            n_steps=spec.n_steps, nf_tol=spec.nf_tol)
            phase_point = classify_pt(spectrum, spec.tol_im)
            all_rows.extend(rows_of(spectrum, params, phase_point, index))
        except (SolverError, ParameterError) as exc:
            failures.append(Failure(index, point, type(exc).__name__, str(exc)))
    if points and len(failures) == len(points):
        raise SolverError(
            f"all {len(points)} grid points failed; first: {failures[0].message}"
        )
    return SweepResult(rows=tuple(all_rows), failures=tuple(failures))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Spectrum rows (one per mode per grid point), ordered by grid index."""
    return _run_grid(spec, lambda spectrum, params, point, index: spectrum_rows(
        spectrum, params, point.phase, index))


def run_phase_diagram(spec: SweepSpec) -> SweepResult:
    """One phase row per grid point of a (gamma, omega) grid."""
    names = {name for name, _ in spec.axes}
    if len(spec.axes) != 2 or names != {"gamma", "omega"}:
        raise ParameterError(
            f"phase diagram requires exactly the axes gamma and omega, got {sorted(names)}"
        )
    return _run_grid(spec, _phase_rows)
