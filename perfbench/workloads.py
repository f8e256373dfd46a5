"""The four benchmark workloads: CLI arguments and expected grid points from a seed.

Every workload uses the fig1 model (N=40, T=1, lambda=0.4, j=2,
kappa*omega=0.05).  The seed moves only inputs that leave the amount of
work unchanged, because the run-to-run spread is taken across seeds:

- ``phase_diagram``: gamma is drawn from [0.02, 0.12].  There the
  omega=0.2pi corner converges to N_F=8 (dimension 680) at every gamma,
  so every point of the grid costs the same.  Across all of [0, 0.4]
  N_F switches between 7 and 8 (7 at 0.15-0.3 and 0.4), which changes
  the eigensolve work of every point by (680/600)^3 = 1.46.
- ``lowfreq_spectrum``: Phi is drawn from [0.3, 0.4], where N_F=7 and
  the search makes the same 8 solves.  Elsewhere N_F reaches 9 or 10 at
  some Phi (0.2, 0.44, 0.8, 3.1), which takes the doubling to N_F=16 and
  makes one run 3 to 4 times slower.
- ``sweep_phi`` and ``propagator_sweep``: the seed shifts the Phi grid by
  less than one grid step; the grid spacing and count stay fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

N_SITES = 40
KAPPA_OMEGA = 0.05
OMEGA_AXIS = (0.2 * math.pi, 45 * math.pi, 9)  # the CLI parses 0.2pi:45pi:9 to these
HIGHFREQ_OMEGA = 45 * math.pi
LOWFREQ_OMEGA = 0.2 * math.pi
PRESET_GAMMA = 0.2
SWEEP_POINTS = 41
PROPAGATOR_POINTS = 21


@dataclass(frozen=True)
class Point:
    """One grid point as the CLI labels it in its CSV rows."""

    phi: float
    omega: float
    gamma: float

    @property
    def kappa(self) -> float:
        return KAPPA_OMEGA / self.omega


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]     # CLI arguments after ``python -m floquet_ssh``
    points: tuple[Point, ...]
    csv_kind: str             # "spectrum" or "phase"
    method: str               # value of the CSV method column
    expected_spans: frozenset[str]  # traced functions that must run at least once
    plot: bool = False        # the CLI also writes out.svg


_EXTENDED_SPANS = frozenset({
    "eig_dense", "build_floquet_matrix", "_select_physical_modes", "matched_distance",
    "converge_nf", "quasi_energies_extended", "build_static_hamiltonian",
    "classify_pt", "compute_spectrum", "_write_text",
})
_PROPAGATOR_SPANS = frozenset({
    "eig_dense", "expm", "one_period_propagator", "quasi_energies_propagator",
    "hamiltonian_at", "build_static_hamiltonian", "classify_pt", "run_sweep",
    "compute_spectrum", "_write_text",
})

NAMES = ("phase_diagram", "sweep_phi", "lowfreq_spectrum", "propagator_sweep")


def linspace(start: float, stop: float, count: int) -> list[float]:
    """numpy.linspace(start, stop, count), in the same floating-point operations.

    The harness imports no numpy before the timed runs: a child started
    from a process inherits that process's resident size as the floor of
    its own peak RSS.
    """
    step = (stop - start) / (count - 1)
    return [i * step + start for i in range(count - 1)] + [stop]


def _phi_grid(rng: random.Random, count: int) -> tuple[str, list[float]]:
    offset = rng.uniform(0.0, 2 * math.pi / (count - 1))
    start, stop = offset, offset + 2 * math.pi
    return f"{start!r}:{stop!r}:{count}", linspace(start, stop, count)


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "phase_diagram":
        gamma = rng.uniform(0.02, 0.12)
        omegas = linspace(*OMEGA_AXIS)
        argv = ("phase-diagram", "--n-sites", str(N_SITES), "--lambda", "0.4",
                "--impurity-site", "2", "--kappa-omega", str(KAPPA_OMEGA),
                "--gamma", repr(gamma), "--omega", "0.2pi:45pi:9", "-o", "out.csv")
        points = tuple(Point(0.0, w, gamma) for w in omegas)
        return Workload(name, argv, points, "phase", "extended",
                        _EXTENDED_SPANS | {"run_phase_diagram"})
    if name == "sweep_phi":
        grid, phis = _phi_grid(rng, SWEEP_POINTS)
        argv = ("sweep-phi", "--preset", "fig1-highfreq", "--phi-grid", grid,
                "-o", "out.csv", "--plot", "out.svg")
        points = tuple(Point(p, HIGHFREQ_OMEGA, PRESET_GAMMA) for p in phis)
        return Workload(name, argv, points, "spectrum", "extended",
                        _EXTENDED_SPANS | {"run_sweep", "spectrum_svg"}, plot=True)
    if name == "lowfreq_spectrum":
        phi = rng.uniform(0.3, 0.4)
        argv = ("spectrum", "--preset", "fig1-lowfreq", "--phi", repr(phi), "-o", "out.csv")
        return Workload(name, argv, (Point(phi, LOWFREQ_OMEGA, PRESET_GAMMA),),
                        "spectrum", "extended", _EXTENDED_SPANS)
    if name == "propagator_sweep":
        grid, phis = _phi_grid(rng, PROPAGATOR_POINTS)
        argv = ("sweep-phi", "--preset", "fig1-lowfreq", "--method", "propagator",
                "--phi-grid", grid, "-o", "out.csv")
        points = tuple(Point(p, LOWFREQ_OMEGA, PRESET_GAMMA) for p in phis)
        return Workload(name, argv, points, "spectrum", "propagator", _PROPAGATOR_SPANS)
    raise ValueError(f"unknown workload {name!r}; choices: {', '.join(NAMES)}")
