"""Deterministic parameter-grid execution over spectra and phase labels.

Grid points are independent tasks run on a bounded thread pool (LAPACK
releases the GIL, so threads parallelize the eigensolves).  Results are
reassembled in grid order, so the output is a pure function of the sweep
specification no matter how many workers ran it; the pool size comes
from the FLOQUET_SSH_THREADS environment variable unless given
explicitly.  Per-point failures become failure records carrying a
machine-readable code instead of aborting the sweep.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analysis import EDGE_FRACTION, TOL_IM, Phase, PhasePoint, classify_pt, edge_weight
from .errors import ParameterError, SolverError
from .floquet import (  # static_spectrum is re-exported
    FloquetSpectrum,
    Method,
    compute_spectrum,
    converge_nf,
    static_spectrum,
)
from .model import ModelParams

_AXIS_FIELDS = {f.name for f in dataclasses.fields(ModelParams)} - {"n0_rule"}

#: Environment variable capping the worker pool.
THREADS_ENV = "FLOQUET_SSH_THREADS"


def resolve_threads(explicit: int | None = None) -> int:
    if explicit is not None:
        if explicit < 1:
            raise ParameterError(f"thread count must be >= 1, got {explicit}")
        return explicit
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ParameterError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
        if value < 1:
            raise ParameterError(f"{THREADS_ENV} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid over a base model.

    ``axes`` holds one or two (field name, grid values) pairs; fields
    must be ModelParams fields.  With ``kappa_omega`` set, kappa is
    re-derived as kappa_omega/omega at every grid point (drive specified
    by amplitude).  ``n_floquet`` None means auto: converge_nf once at
    the smallest-omega grid corner, reused for the whole sweep.  The
    tolerances ``nf_tol`` and ``tol_im``, and ``zero_tol`` when set, must
    be positive.
    """

    base: ModelParams
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    method: Method = Method.EXTENDED
    kappa_omega: float | None = None
    n_floquet: int | None = None
    nf_tol: float = 1e-8
    n_steps: int | None = None
    tol_im: float = TOL_IM
    zero_tol: float | None = None
    edge_fraction: float = EDGE_FRACTION

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
        if self.zero_tol is not None and not self.zero_tol > 0:
            raise ParameterError(f"zero_tol must be positive, got {self.zero_tol}")

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
    spec: SweepSpec
    n_floquet_used: int
    wall_time: float


def _auto_n_floquet(spec: SweepSpec) -> int:
    """converge_nf at the smallest-omega grid corner (worst case)."""
    omega_axes = [grid for name, grid in spec.axes if name == "omega"]
    point: dict[str, float] = {}
    if omega_axes:
        point["omega"] = float(min(omega_axes[0]))
    params = spec.params_at({**spec.grid_points()[0], **point})
    return converge_nf(params, spec.nf_tol)


def spectrum_rows(spectrum: FloquetSpectrum, params: ModelParams, phase: Phase,
                  index: int, edge_fraction: float) -> list[SpectrumRow]:
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
        edge_weight=edge_weight(spectrum.mode_weights[k], edge_fraction),
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


def _run_grid(spec: SweepSpec, rows_of, threads: int | None):
    """Solve and classify every grid point, then build its rows in grid order.

    ``rows_of(spectrum, params, point, index)`` turns one classified grid
    point into its output rows.
    """
    points = spec.grid_points()
    nf_shared = 0
    if spec.method is Method.EXTENDED:
        nf_shared = spec.n_floquet if spec.n_floquet is not None else _auto_n_floquet(spec)
    start = time.perf_counter()
    outcomes: list = [None] * len(points)

    def task(item):
        index, point = item
        try:
            params = spec.params_at(point)
            spectrum = compute_spectrum(params, spec.method, n_floquet=nf_shared,
                                        n_steps=spec.n_steps, nf_tol=spec.nf_tol)
            phase_point = classify_pt(spectrum, spec.tol_im, spec.zero_tol,
                                      spec.edge_fraction)
            return index, rows_of(spectrum, params, phase_point, index), None
        except (SolverError, ParameterError) as exc:
            return index, None, Failure(index, point, type(exc).__name__, str(exc))

    n_workers = min(resolve_threads(threads), len(points))
    if n_workers == 1:
        results = map(task, enumerate(points))
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(task, enumerate(points)))
    for index, rows, failure in results:
        outcomes[index] = (rows, failure)

    all_rows: list = []
    failures: list[Failure] = []
    for rows, failure in outcomes:
        if failure is not None:
            failures.append(failure)
        else:
            all_rows.extend(rows)
    if points and len(failures) == len(points):
        raise SolverError(
            f"all {len(points)} grid points failed; first: {failures[0].message}"
        )
    return SweepResult(
        rows=tuple(all_rows),
        failures=tuple(failures),
        spec=spec,
        n_floquet_used=nf_shared,
        wall_time=time.perf_counter() - start,
    )


def run_sweep(spec: SweepSpec, threads: int | None = None) -> SweepResult:
    """Spectrum rows (one per mode per grid point), ordered by grid index."""
    return _run_grid(spec, lambda spectrum, params, point, index: spectrum_rows(
        spectrum, params, point.phase, index, spec.edge_fraction), threads)


def run_phase_diagram(spec: SweepSpec, threads: int | None = None) -> SweepResult:
    """One phase row per grid point of a (gamma, omega) grid."""
    names = {name for name, _ in spec.axes}
    if len(spec.axes) != 2 or names != {"gamma", "omega"}:
        raise ParameterError(
            f"phase diagram requires exactly the axes gamma and omega, got {sorted(names)}"
        )
    return _run_grid(spec, _phase_rows, threads)
