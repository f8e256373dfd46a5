"""Correctness check of the CLI's CSV output against an independent reference.

Every grid point gets a structural check: it is present once with all N
modes, carries the requested parameters, one phase label and finite
numbers.  A seeded sample of points is then recomputed here without
``floquet_ssh``, using SciPy:

- extended-route workloads: this module's own extended-zone matrix, its
  drive blocks taken from an FFT of f(z), at N_F two above the one the
  CLI used, with ``scipy.linalg.eig``.  The physical representative of
  each Floquet state is the replica whose mean harmonic index lies in
  (-1/2, 1/2];
- propagator workloads: a time-ordered product of ``scipy.linalg.expm``
  midpoint steps at four times the CLI's default step count.

Phase label and zero-mode count must match exactly; quasi-energies must
agree within 1e-6 under the optimal matching (real parts compared modulo
omega).  ``self_test`` perturbs a correct output three ways and requires
each to be caught.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from workloads import N_SITES, Point, Workload

TUNNELING = 1.0
LAMBDA = 0.4
IMPURITY = 2
TOL_EPS = 1e-6        # quasi-energy agreement under optimal matching
TOL_IM = 1e-8         # PT label rule of the package's documentation
ZERO_TOL = 1e-3       # |Re eps| window of a zero mode, in units of T
EDGE_FRACTION = 0.1
STEP_FACTOR = 4       # reference propagator steps relative to the CLI default
SAMPLES = {"phase_diagram": 2, "sweep_phi": 3, "lowfreq_spectrum": 1, "propagator_sweep": 1}

SPECTRUM_FIELDS = ("phi", "omega", "gamma", "kappa", "mode", "re_eps", "im_eps",
                   "edge_weight", "phase", "method", "n_floquet")
PHASE_FIELDS = ("phi", "omega", "gamma", "kappa", "max_im", "zero_mode_count",
                "phase", "method", "n_floquet")


# --- independent model ------------------------------------------------------

def _static(point: Point) -> np.ndarray:
    n = N_SITES
    bonds = np.arange(1, n)
    hop = -TUNNELING * (1 + LAMBDA * np.cos(np.pi * bonds + point.phi))
    h = np.diag(hop.astype(complex), 1) + np.diag(hop.astype(complex), -1)
    h[IMPURITY - 1, IMPURITY - 1] += 1j * point.gamma
    h[n - IMPURITY, n - IMPURITY] -= 1j * point.gamma
    return h


def _gradient() -> np.ndarray:
    return np.arange(1, N_SITES + 1) - N_SITES / 2


def _drive(point: Point, z):
    return point.kappa * point.omega * np.sin(point.omega * z)


@dataclass(frozen=True)
class Reference:
    eps: np.ndarray       # N quasi-energies, Re folded into (-omega/2, omega/2]
    weights: np.ndarray   # (mode, site) probabilities, rows sum to 1

    @property
    def max_im(self) -> float:
        return float(np.abs(self.eps.imag).max())

    @property
    def phase(self) -> str:
        return "unbroken" if self.max_im < TOL_IM else "broken"

    @property
    def zero_modes(self) -> int:
        return _count_zero_modes(self.eps.real, _edge_weights(self.weights))


def _fold(x, omega):
    return x - omega * np.ceil((x - omega / 2) / omega)


def _edge_weights(weights: np.ndarray) -> np.ndarray:
    k = math.ceil(EDGE_FRACTION * weights.shape[1])
    return weights[:, :k].sum(axis=1) + weights[:, -k:].sum(axis=1)


def _count_zero_modes(re_eps, edge) -> int:
    return int(np.sum((np.abs(re_eps) < ZERO_TOL * TUNNELING) & (edge > 0.5)))


def extended_reference(point: Point, n_floquet: int) -> Reference:
    n, blocks = N_SITES, 2 * n_floquet + 1
    samples = 64
    z = np.arange(samples) * (2 * np.pi / point.omega / samples)
    coeffs = np.fft.fft(_drive(point, z)) / samples     # f = sum_k coeffs[k] e^{ik omega z}
    h0, grad = _static(point), np.diag(_gradient())
    hf = np.zeros((n * blocks, n * blocks), dtype=complex)
    for a in range(blocks):
        for b in range(blocks):
            k = a - b
            block = coeffs[k % samples] * grad
            if k == 0:
                block = block + h0 + (a - n_floquet) * point.omega * np.eye(n)
            hf[a * n:(a + 1) * n, b * n:(b + 1) * n] = block
    values, vectors = scipy.linalg.eig(hf)
    probs = (np.abs(vectors) ** 2).reshape(blocks, n, -1)
    block_weight = probs.sum(axis=1)
    harmonic = np.arange(-n_floquet, n_floquet + 1) @ block_weight / block_weight.sum(axis=0)
    keep = np.flatnonzero((harmonic > -0.5) & (harmonic <= 0.5))
    if keep.size != n:
        raise RuntimeError(f"reference selection kept {keep.size} of {n} modes")
    marginal = probs[n_floquet][:, keep].T
    eps = _fold(values[keep].real, point.omega) + 1j * values[keep].imag
    return Reference(eps, marginal / marginal.sum(axis=1, keepdims=True))


def cli_default_steps(point: Point) -> int:
    """The step count rule the package documents: max(1024, ceil(64 ||H|| Z_p))."""
    period = 2 * np.pi / point.omega
    h0, grad = _static(point), _gradient()
    norm = 0.0
    for z in (np.arange(16) + 0.5) * (period / 16):
        h = h0 + np.diag(_drive(point, z) * grad)
        norm = max(norm, float(np.abs(h).sum(axis=0).max()))
    return max(1024, math.ceil(64 * norm * period))


def propagator_reference(point: Point, chunk: int = 512) -> Reference:
    steps = STEP_FACTOR * cli_default_steps(point)
    period = 2 * np.pi / point.omega
    dz = period / steps
    h0, grad = _static(point), _gradient()
    u = np.eye(N_SITES, dtype=complex)
    for start in range(0, steps, chunk):
        z = (np.arange(start, min(start + chunk, steps)) + 0.5) * dz
        gens = np.repeat(h0[None], z.size, axis=0)
        gens[:, np.arange(N_SITES), np.arange(N_SITES)] += _drive(point, z)[:, None] * grad
        for step in scipy.linalg.expm(-1j * dz * gens):
            u = step @ u
    mu, vectors = scipy.linalg.eig(u)
    eps = 1j * np.log(mu) / period
    eps = _fold(eps.real, point.omega) + 1j * eps.imag
    weights = (np.abs(vectors) ** 2).T
    return Reference(eps, weights / weights.sum(axis=1, keepdims=True))


# --- CSV checks -------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _parse(text: str, workload: Workload):
    """Rows grouped by grid point index, plus the count of rows no point claims."""
    fields = SPECTRUM_FIELDS if workload.csv_kind == "spectrum" else PHASE_FIELDS
    lines = text.splitlines()
    groups: dict[int, list[dict]] = {}
    stray = 0 if lines and lines[0] == ",".join(fields) else 1
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(fields):
            stray += 1
            continue
        row = dict(zip(fields, cells))
        try:
            key = (float(row["phi"]), float(row["omega"]), float(row["gamma"]))
        except ValueError:
            stray += 1
            continue
        index = next((i for i, p in enumerate(workload.points)
                      if _close(key[0], p.phi) and _close(key[1], p.omega)
                      and _close(key[2], p.gamma)), None)
        if index is None:
            stray += 1
        else:
            groups.setdefault(index, []).append(row)
    return groups, stray


def _point_ok(rows: list[dict], point: Point, workload: Workload) -> bool:
    try:
        if workload.csv_kind == "spectrum":
            if sorted(int(r["mode"]) for r in rows) != list(range(N_SITES)):
                return False
            numbers = [float(r[k]) for r in rows for k in ("re_eps", "im_eps", "edge_weight")]
        else:
            if len(rows) != 1 or int(rows[0]["zero_mode_count"]) < 0:
                return False
            numbers = [float(rows[0]["max_im"])]
        return (all(math.isfinite(x) for x in numbers)
                and all(_close(float(r["kappa"]), point.kappa) for r in rows)
                and len({r["phase"] for r in rows}) == 1
                and rows[0]["phase"] in ("broken", "unbroken")
                and all(r["method"] == workload.method for r in rows)
                and all(int(r["n_floquet"]) >= 0 for r in rows))
    except ValueError:
        return False


def _plot_ok(svg: str | None) -> bool:
    """One Re(eps) polyline per mode in a complete SVG document."""
    return (svg is not None and svg.startswith("<svg") and svg.endswith("</svg>\n")
            and svg.count("<polyline") == N_SITES)


def _wrapped_distance(a: np.ndarray, b: np.ndarray, omega: float) -> float:
    diff = a[:, None] - b[None, :]
    cost = np.abs(_fold(diff.real, omega) + 1j * diff.imag)
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def _matches(rows: list[dict], ref: Reference, workload: Workload, point: Point) -> bool:
    if workload.csv_kind == "phase":
        row = rows[0]
        return (row["phase"] == ref.phase
                and int(row["zero_mode_count"]) == ref.zero_modes
                and abs(float(row["max_im"]) - ref.max_im) <= TOL_EPS)
    rows = sorted(rows, key=lambda r: int(r["mode"]))
    eps = np.array([complex(float(r["re_eps"]), float(r["im_eps"])) for r in rows])
    edge = np.array([float(r["edge_weight"]) for r in rows])
    return (rows[0]["phase"] == ref.phase
            and _count_zero_modes(eps.real, edge) == ref.zero_modes
            and _wrapped_distance(eps, ref.eps, point.omega) <= TOL_EPS)


class Checker:
    """Checks CSV texts of one workload; references are computed once, lazily."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        count = min(SAMPLES[workload.name], len(workload.points))
        self.sample = sorted(random.Random(f"check:{workload.name}:{seed}")
                             .sample(range(len(workload.points)), count))
        self._refs: dict[int, Reference] = {}

    def _reference(self, index: int, rows: list[dict]) -> Reference:
        if index not in self._refs:
            point = self.workload.points[index]
            if self.workload.method == "propagator":
                self._refs[index] = propagator_reference(point)
            else:
                self._refs[index] = extended_reference(point, int(rows[0]["n_floquet"]) + 2)
        return self._refs[index]

    def failed_points(self, text: str | None, svg: str | None = None) -> int:
        """Grid points missing, malformed or (sampled ones) off the reference.

        A missing CSV, or a missing plot where the workload asks for one,
        fails every point.
        """
        if text is None or (self.workload.plot and not _plot_ok(svg)):
            return len(self.workload.points)
        groups, stray = _parse(text, self.workload)
        failed = stray
        for index, point in enumerate(self.workload.points):
            rows = groups.get(index)
            if not rows or not _point_ok(rows, point, self.workload):
                failed += 1
            elif index in self.sample and \
                    not _matches(rows, self._reference(index, rows), self.workload, point):
                failed += 1
        return min(failed, len(self.workload.points))

    def self_test(self, text: str, svg: str | None = None) -> dict[str, bool]:
        """Whether each perturbation of a correct ``text`` is counted as failed."""
        lines = text.splitlines(keepends=True)
        target = self.workload.points[self.sample[0]]
        fields = lines[0].strip().split(",")
        hits = [i for i, line in enumerate(lines[1:], start=1)
                if all(_close(float(v), getattr(target, k)) for k, v in
                       zip(("phi", "omega", "gamma"), line.split(",")[:3]))]

        def edit(line: str, column: str, change) -> str:
            cells = line.rstrip("\n").split(",")
            i = fields.index(column)
            cells[i] = change(cells[i])
            return ",".join(cells) + "\n"

        flip = {"broken": "unbroken", "unbroken": "broken"}
        flipped = list(lines)
        for i in hits:
            flipped[i] = edit(lines[i], "phase", flip.get)
        shifted = list(lines)
        column = "re_eps" if self.workload.csv_kind == "spectrum" else "max_im"
        shifted[hits[0]] = edit(lines[hits[0]], column, lambda v: repr(float(v) + 1e-4))
        dropped = lines[:hits[-1]] + lines[hits[-1] + 1:]
        cases = {"flipped_phase": flipped, f"shifted_{column}": shifted, "dropped_row": dropped}
        return {name: self.failed_points("".join(case), svg) > 0 for name, case in cases.items()}
