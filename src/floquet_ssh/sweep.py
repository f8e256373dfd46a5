"""Deterministic parameter-grid execution over spectra and phase labels.

Grid points are solved and classified one after another, in grid order,
on the calling thread; the eigensolves use the cores through LAPACK's
threaded BLAS.  The output is therefore a pure function of the sweep
specification.  Per-point failures become failure records carrying a
machine-readable code instead of aborting the sweep.  A result is its
rows and failures; each row carries the N_F it was solved at.  The grid
is walked lazily, and a caller's ``emit`` receives each point's rows as
the point finishes, so a sweep holds one point's rows at a time.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .analysis import Phase, PhasePoint, classify_pt, edge_weight
from .errors import ParameterError, SolverError
from .floquet import FloquetSpectrum, Method, compute_spectrum, require_propagator_steps
from .model import ModelParams

_AXIS_FIELDS = {f.name for f in dataclasses.fields(ModelParams)}
#: Most grid points per axis and per grid.  It bounds ``linspace`` and the
#: grid product; rows are streamed, so it is not a memory budget.
MAX_GRID_POINTS = 10**7


def resolve_threads() -> int:
    """Sweep worker count, always 1; perfbench's environment probe records it."""
    return 1


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid over a base model.

    ``axes`` holds zero to two (field name, grid values) pairs; fields
    must be distinct ModelParams fields.  Zero axes mean the base point
    alone, and the grid holds at most MAX_GRID_POINTS points.  With
    ``kappa_omega`` set (nonnegative and finite), kappa is re-derived as
    kappa_omega/omega at every grid point (drive specified by amplitude),
    so a kappa axis is then rejected.
    ``n_floquet`` None means auto: converge_nf to NF_TOL once at the
    smallest-omega grid corner, reused for the whole sweep.  That corner
    is the worst case in omega only; another Phi or gamma at the same
    omega can need a larger N_F.
    The solver sizes are checked only for the method that uses them:
    ``n_floquet`` must be >= 1 on the extended route, and ``n_steps``
    must pass ``require_propagator_steps``.
    """

    base: ModelParams
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    method: Method = Method.EXTENDED
    kappa_omega: float | None = None
    n_floquet: int | None = None
    n_steps: int | None = None

    def __post_init__(self):
        if len(self.axes) > 2:
            raise ParameterError(f"need at most 2 sweep axes, got {len(self.axes)}")
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ParameterError(f"sweep axes must be distinct, got {names}")
        if self.kappa_omega is not None:
            if not 0 <= self.kappa_omega < math.inf:
                raise ParameterError(
                    f"kappa_omega must be nonnegative and finite, got {self.kappa_omega}")
            if "kappa" in names:
                raise ParameterError("kappa_omega sets kappa at every point; drop the kappa axis")
        for name, grid in self.axes:
            if name not in _AXIS_FIELDS:
                raise ParameterError(f"unknown sweep axis {name!r}")
            if len(grid) == 0:
                raise ParameterError(f"axis {name!r} has an empty grid")
            if not np.all(np.isfinite(grid)):
                raise ParameterError(f"axis {name!r} has non-finite grid values")
        count = self.n_points()
        if count > MAX_GRID_POINTS:
            raise ParameterError(f"the grid has {count} points, more than {MAX_GRID_POINTS}")
        if (self.method is Method.EXTENDED and self.n_floquet is not None
                and self.n_floquet < 1):
            raise ParameterError(f"n_floquet must be >= 1, got {self.n_floquet}")
        if self.method is Method.PROPAGATOR and self.n_steps is not None:
            require_propagator_steps(self.n_steps)

    def n_points(self) -> int:
        return math.prod(len(grid) for _, grid in self.axes)

    def grid_points(self) -> Iterator[dict[str, float]]:
        """Axis-value dicts in row-major order (first axis outermost), made lazily."""
        names = [name for name, _ in self.axes]
        return (dict(zip(names, combo))
                for combo in itertools.product(*(grid for _, grid in self.axes)))

    def params_at(self, point: dict[str, float]) -> ModelParams:
        params = replace(self.base, **point)
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


def _row(row_type, spectrum: FloquetSpectrum, phase: Phase, index: int, **columns):
    """A ``row_type`` row: the columns every row kind shares, plus ``columns``."""
    params = spectrum.params
    return row_type(grid_index=index, phi=params.phi_dim, omega=params.omega,
                    gamma=params.gamma, kappa=params.kappa, phase=phase.value,
                    method=spectrum.method.value, n_floquet=spectrum.n_floquet, **columns)


def spectrum_rows(spectrum: FloquetSpectrum, point: PhasePoint, index: int) -> list[SpectrumRow]:
    """One long-format row per mode of ``spectrum``."""
    edges = edge_weight(spectrum.mode_weights)
    return [_row(SpectrumRow, spectrum, point.phase, index, mode=k, re_eps=float(eps.real),
                 im_eps=float(eps.imag), edge_weight=float(edge))
            for k, (eps, edge) in enumerate(zip(spectrum.quasi_energies, edges))]


def _phase_rows(spectrum: FloquetSpectrum, point: PhasePoint, index: int) -> list[PhaseRow]:
    return [_row(PhaseRow, spectrum, point.phase, index, max_im=point.max_im,
                 zero_mode_count=len(point.zero_modes))]


def _run_grid(spec: SweepSpec, rows_of, emit) -> SweepResult:
    """Solve and classify every grid point in grid order, building its rows.

    ``rows_of(spectrum, point, index)`` turns one classified grid point
    into its output rows, passed to ``emit`` when it is given and kept in
    the result otherwise.  On the extended route without ``n_floquet``,
    every point is solved at the corner spectrum's N_F, and the corner
    itself is not solved again.
    """
    kept: list = []
    emit = emit or kept.extend
    corner = None
    if spec.method is Method.EXTENDED and spec.n_floquet is None:
        # N_F converges at the smallest-omega corner, the worst case in omega only.
        low_corner = {name: min(grid) if name == "omega" else grid[0] for name, grid in spec.axes}
        corner = compute_spectrum(spec.params_at(low_corner), Method.EXTENDED)
    n_floquet = spec.n_floquet if corner is None else corner.n_floquet
    failures: list[Failure] = []
    for index, point in enumerate(spec.grid_points()):
        try:
            params = spec.params_at(point)
            if corner is not None and params == corner.params:
                spectrum = corner
            else:
                spectrum = compute_spectrum(params, spec.method, n_floquet=n_floquet,
                                            n_steps=spec.n_steps)
            rows = rows_of(spectrum, classify_pt(spectrum), index)
        except (SolverError, ParameterError) as exc:
            failures.append(Failure(index, point, type(exc).__name__, str(exc)))
        else:
            emit(rows)
    if len(failures) == spec.n_points():
        raise SolverError(
            f"all {len(failures)} grid points failed; first: {failures[0].message}"
        )
    return SweepResult(rows=tuple(kept), failures=tuple(failures))


def run_sweep(spec: SweepSpec, emit=None) -> SweepResult:
    """Spectrum rows (one per mode per grid point) in grid order; ``emit`` as in _run_grid."""
    return _run_grid(spec, spectrum_rows, emit)


def run_phase_diagram(spec: SweepSpec, emit=None) -> SweepResult:
    """One phase row per grid point of a (gamma, omega) grid; ``emit`` as in _run_grid."""
    names = {name for name, _ in spec.axes}
    if len(spec.axes) != 2 or names != {"gamma", "omega"}:
        raise ParameterError(
            f"phase diagram requires exactly the axes gamma and omega, got {sorted(names)}"
        )
    return _run_grid(spec, _phase_rows, emit)
