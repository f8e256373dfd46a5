"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 6 check finite-chain physics that each test computes for
itself: criterion 1 predicts the zero-mode window at N=40 and N=80 from
the closed-form edge-mode splitting, and criterion 6 places the odd
chain's impurities on the sublattice of its unpaired zero mode (sites
are 1-based).  Criterion 4 fails: at drive amplitude kappa*omega = 0.05
the low-frequency breaking (max|Im| 2.7e-4 and 1.7e-5, confirmed by the
extended route) stays below its 1e-3 floor, and no source in the repository
says whether the floor or the amplitude is the one to change.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import record_acceptance

from floquet_ssh import (
    Method,
    ModelParams,
    Phase,
    SweepSpec,
    bessel_j0,
    check_pt_symmetry,
    classify_pt,
    compare_floquet_effective,
    converge_nf,
    effective_hamiltonian,
    eig_dense,
    expm,
    gamma_pt_threshold,
    quasi_energies_extended,
    quasi_energies_propagator,
    run_sweep,
    spectral_distance,
)
from floquet_ssh.cli import main
from floquet_ssh.linalg import TOL_EIG, matrix_norm_1

FIG1 = dict(n_sites=40, tunneling=1.0, lam=0.4, gamma=0.2, impurity_site=2)
PHI_GRID = tuple(np.linspace(0.0, 2.0 * math.pi, 201))
ZERO_TOL = 1e-3


def _edge_splitting(phi: float, n_sites: int) -> float:
    """Closed-form |eps| of the open FIG1 chain's edge-mode pair at Phi.

    An even chain of N/2 cells with weak bond v and strong bond w holds
    its edge modes at +/- w*(1 - r**2)*r**(N/2), r = v/w (Asboth,
    Oroszlany & Palyi, Lect. Notes Phys. 919, ch. 1).  The gain/loss pair
    at j=2 sits on the sublattice the modes avoid and is left out.  The
    form holds on the topological side away from the gap closing.
    """
    c = FIG1["lam"] * abs(math.cos(phi))
    w = FIG1["tunneling"] * (1.0 + c)
    r = (1.0 - c) / (1.0 + c)
    return w * (1.0 - r * r) * r ** (n_sites / 2)


def _report(criterion: int, ok: bool, elapsed: float, detail: str) -> str:
    line = (f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s) - {detail}")
    record_acceptance(line)
    print(line)
    return line


def _zero_mode_presence(rows, n_sites, zero_tol=ZERO_TOL):
    present = {}
    for r in rows:
        present.setdefault(r.grid_index, 0)
        if abs(r.re_eps) < zero_tol and r.edge_weight > 0.5:
            present[r.grid_index] += 1
    return [present.get(i, 0) >= 2 for i in range(len(present))]


def test_criterion_1_static_zero_mode_window():
    """Zero modes outside (pi/2, 3pi/2) where the edge splitting is < 1e-3.

    At finite N the edge-mode pair leaves the |Re| < 1e-3 window before
    the transition; the band where it does must narrow from N=40 to N=80.
    One-step slack at pi/2 and 3pi/2, where the closed form fails.
    """
    start = time.perf_counter()
    step = PHI_GRID[1] - PHI_GRID[0]
    violations, split_off = {}, {}
    for n_sites in (40, 80):
        spec = SweepSpec(base=ModelParams(**{**FIG1, "n_sites": n_sites}),
                         axes=(("phi_dim", PHI_GRID),), method=Method.STATIC)
        present = _zero_mode_presence(run_sweep(spec).rows, n_sites)
        violations[n_sites], split_off[n_sites] = [], 0
        for i, phi in enumerate(PHI_GRID):
            near = min(abs(phi - math.pi / 2),
                       abs(phi - 3 * math.pi / 2)) <= step + 1e-12
            if near:
                continue
            topological = not (math.pi / 2 < phi < 3 * math.pi / 2)
            expected = topological and _edge_splitting(phi, n_sites) < ZERO_TOL
            if present[i] != expected:
                violations[n_sites].append(phi)
            if topological and not present[i]:
                split_off[n_sites] += 1
    elapsed = time.perf_counter() - start
    in_time = elapsed < 30.0
    ok = (not violations[40] and not violations[80]
          and split_off[80] < split_off[40] and in_time)
    detail = _report(1, ok, elapsed, "; ".join(
        f"N={n}: {len(violations[n])} grid points misclassified, "
        f"{split_off[n]} topological points split off" for n in (40, 80)))
    assert ok, detail


def test_criterion_2_high_frequency_effective_agreement():
    """Extended quasi-energies track the Bessel-rescaled chain at high omega."""
    start = time.perf_counter()
    details = []
    ok = True
    for omega, bound in ((45 * math.pi, 5e-3), (4 * math.pi, 2e-2)):
        worst = 0.0
        nf = converge_nf(ModelParams(**FIG1, phi_dim=0.3, kappa=0.05 / omega,
                                     omega=omega), 1e-8)
        for phi in (0.0, 0.3, math.pi):
            params = ModelParams(**FIG1, phi_dim=phi, kappa=0.05 / omega,
                                 omega=omega)
            comparison = compare_floquet_effective(params, nf)
            worst = max(worst, comparison.max_quasi_energy_deviation)
        details.append(f"omega={omega / math.pi:g}pi max dev {worst:.2e} "
                       f"(bound {bound:g}, N_F={nf})")
        ok = ok and worst < bound
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    detail = _report(2, ok, elapsed, "; ".join(details))
    assert ok, detail


def test_criterion_3_cross_method_oracle():
    """Extended matrix and propagator agree to 1e-6 per quasi-energy."""
    start = time.perf_counter()
    params = ModelParams(n_sites=8, tunneling=1.0, lam=0.4, phi_dim=1.0,
                         gamma=0.1, impurity_site=2, kappa=0.3,
                         omega=2 * math.pi)
    nf = converge_nf(params, 1e-8)
    extended = quasi_energies_extended(params, nf)
    propagated = quasi_energies_propagator(params, converge_tol=1e-8)
    distance = spectral_distance(extended, propagated)
    elapsed = time.perf_counter() - start
    ok = distance < 1e-6 and elapsed < 60.0
    detail = _report(3, ok, elapsed,
                     f"max per-mode distance {distance:.2e} (N_F={nf})")
    assert ok, detail


def test_criterion_4_pt_phase_narrative():
    """Broken at 0.2pi/0.8pi (>1e-3), unbroken at 45pi (<1e-8), Phi=0.3.

    The extended route must give the same labels and agree on max|Im|
    within the cross-method bound 1e-6 of criterion 3.
    """
    from floquet_ssh.floquet import default_n_steps

    start = time.perf_counter()
    measured, extended = {}, {}
    for omega in (0.2 * math.pi, 0.8 * math.pi, 45 * math.pi):
        params = ModelParams(**FIG1, phi_dim=0.3, kappa=0.05 / omega, omega=omega)
        steps = default_n_steps(params)
        spectrum = quasi_energies_propagator(params, steps)
        refined = quasi_energies_propagator(params, 2 * steps)
        # integrator sanity on the classification quantity, not the criterion
        assert abs(spectrum.max_imag - refined.max_imag) < 1e-6
        measured[omega] = classify_pt(spectrum)
        extended[omega] = classify_pt(
            quasi_energies_extended(params, converge_nf(params, 1e-8)))
    low, mid, high = (measured[0.2 * math.pi], measured[0.8 * math.pi],
                      measured[45 * math.pi])
    labels_ok = (low.phase is Phase.BROKEN and mid.phase is Phase.BROKEN
                 and high.phase is Phase.UNBROKEN
                 and all(extended[w].phase is measured[w].phase for w in measured))
    magnitudes_ok = (low.max_im > 1e-3 and mid.max_im > 1e-3
                     and high.max_im < 1e-8)
    route_gap = max(abs(extended[w].max_im - measured[w].max_im) for w in measured)
    elapsed = time.perf_counter() - start
    ok = labels_ok and magnitudes_ok and route_gap < 1e-6 and elapsed < 120.0
    detail = _report(
        4, ok, elapsed,
        f"max|Im|: 0.2pi={low.max_im:.2e} (>1e-3 required), "
        f"0.8pi={mid.max_im:.2e} (>1e-3 required), "
        f"45pi={high.max_im:.2e} (<1e-8 required); extended route gap "
        f"{route_gap:.2e} (<1e-6 required); labels "
        + "/".join(measured[w].phase.value for w in measured) + " (extended "
        + "/".join(extended[w].phase.value for w in extended) + ")")
    assert ok, detail


def test_criterion_5_impurity_position_thresholds():
    """gamma_PT = 0 at the edges, positive at j=2, non-increasing with N."""
    start = time.perf_counter()
    edge = gamma_pt_threshold(
        ModelParams(n_sites=40, lam=0.4, phi_dim=0.3, impurity_site=1),
        gamma_max=1.0, tol_gamma=1e-4)
    near_edge_40 = gamma_pt_threshold(
        ModelParams(n_sites=40, lam=0.4, phi_dim=0.3, impurity_site=2),
        gamma_max=1.0, tol_gamma=1e-4)
    near_edge_20 = gamma_pt_threshold(
        ModelParams(n_sites=20, lam=0.4, phi_dim=0.3, impurity_site=2),
        gamma_max=1.0, tol_gamma=1e-4)
    elapsed = time.perf_counter() - start
    ok = (edge.status == "broken_at_zero" and edge.value == 0.0
          and near_edge_40.status == "ok" and near_edge_40.value > 0.0
          and near_edge_40.value <= near_edge_20.value
          and elapsed < 120.0)
    detail = _report(
        5, ok, elapsed,
        f"j=1: {edge.value} ({edge.status}); j=2 N=40: {near_edge_40.value:.4f}; "
        f"j=2 N=20: {near_edge_20.value:.4f}")
    assert ok, detail


def test_criterion_6_odd_chain_breaking():
    """N=39, kappa=0, gamma=0.2, j=3 classified Broken, broken at any gamma > 0.

    The unpaired zero mode of the odd chain lives on the odd sublattice
    (1-based sites).  Odd j puts gain and loss on it with unequal weights,
    so it turns complex at first order in gamma.  Even j never touches
    it, so j=2 must keep a real spectrum beyond gamma = 0.2.  Site 3 here
    is site 2 of a 0-based count.
    """
    start = time.perf_counter()
    params = ModelParams(n_sites=39, tunneling=1.0, lam=0.4, phi_dim=0.3,
                         gamma=0.2, impurity_site=3)
    from floquet_ssh import static_spectrum
    point = classify_pt(static_spectrum(params))
    threshold = gamma_pt_threshold(params, gamma_max=1.0)
    even_site = gamma_pt_threshold(replace(params, impurity_site=2),
                                   gamma_max=1.0)
    elapsed = time.perf_counter() - start
    ok = (point.phase is Phase.BROKEN and threshold.status == "broken_at_zero"
          and even_site.status == "ok" and even_site.value > 0.2
          and elapsed < 5.0)
    detail = _report(6, ok, elapsed,
                     f"j=3: phase {point.phase.value}, max|Im| = "
                     f"{point.max_im:.2e}, gamma_PT = {threshold.value} "
                     f"({threshold.status}); j=2: gamma_PT = "
                     f"{even_site.value:.4f} ({even_site.status})")
    assert ok, detail


def test_criterion_7_dynamical_localization():
    """kappa at the first Bessel zero kills hopping and breaks PT."""
    start = time.perf_counter()
    params = ModelParams(n_sites=20, tunneling=1.0, lam=0.4, phi_dim=0.3,
                         gamma=0.1, impurity_site=2, kappa=2.405,
                         omega=20 * math.pi)
    h_eff = effective_hamiltonian(params)
    hopping = h_eff - np.diag(np.diag(h_eff))
    hop_max = float(np.abs(hopping).max())
    point = classify_pt(quasi_energies_propagator(params))
    elapsed = time.perf_counter() - start
    ok = hop_max < 5e-4 and point.phase is Phase.BROKEN and elapsed < 60.0
    detail = _report(7, ok, elapsed,
                     f"effective |hopping| max {hop_max:.2e}, driven max|Im| = "
                     f"{point.max_im:.2e} ({point.phase.value})")
    assert ok, detail


def test_criterion_8_numerics_invariants():
    """Residual, exponential, Bessel, Jacobi-Anger and PT-relation bounds."""
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        spectrum = eig_dense(m)
        if spectrum.max_residual > TOL_EIG * matrix_norm_1(m):
            problems.append(f"eig residual dim {n}")
    for _ in range(10):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m *= 5.0 / matrix_norm_1(m)
        if np.abs(expm(m) @ expm(-m) - np.eye(8)).max() >= 1e-10:
            problems.append("expm group property")

    def j0_series(x):
        total, term, k = 0.0, 1.0, 0
        while abs(term) > 1e-20:
            total += term
            k += 1
            term *= -(x * x / 4.0) / (k * k)
        return total

    worst_j0 = max(abs(bessel_j0(x) - j0_series(x))
                   for x in np.linspace(0, 10, 1000))
    if worst_j0 >= 1e-12:
        problems.append(f"bessel vs series {worst_j0:.1e}")
    x = 2 * np.pi * np.arange(10_000) / 10_000
    for kappa in (0.5, 1.5, 3.0):
        quad = np.exp(1j * kappa * np.sin(x)).mean()
        if abs(quad - bessel_j0(kappa)) >= 1e-9:
            problems.append(f"jacobi-anger kappa={kappa}")
    pt_residual = check_pt_symmetry(
        ModelParams(**FIG1, phi_dim=0.7, kappa=0.4, omega=2.0))
    if pt_residual >= 1e-12:
        problems.append(f"pt residual {pt_residual:.1e}")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    detail = _report(8, ok, elapsed,
                     "all bounds hold" if not problems else "; ".join(problems))
    assert ok, detail


def test_criterion_9_threaded_determinism(tmp_path):
    """Criterion-1 sweep emits byte-identical CSV for any BLAS thread setting.

    The same sweep runs as four ``python -m floquet_ssh`` children, since
    OpenBLAS reads its settings only when it loads: with the thread
    variables unset (the package's one thread), with ``OPENBLAS_NUM_THREADS``
    set to 1 and to 2, and with a 2^4-cycle idle timeout.
    """
    start = time.perf_counter()
    base = {key: value for key, value in os.environ.items() if key not in
            ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    outputs = []
    for name, setting in (("unset", {}), ("threads_1", {"OPENBLAS_NUM_THREADS": "1"}),
                          ("threads_2", {"OPENBLAS_NUM_THREADS": "2"}),
                          ("timeout_4", {"OPENBLAS_THREAD_TIMEOUT": "4"})):
        path = tmp_path / f"sweep_{name}.csv"
        result = subprocess.run(
            [sys.executable, "-m", "floquet_ssh", "sweep-phi", "--preset", "fig1-static",
             "--phi-grid", "0:2pi:201", "-o", str(path)],
            env={**base, **setting}, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    ok = all(output == outputs[0] for output in outputs)
    detail = _report(9, ok, elapsed,
                     f"{len(outputs[0])} bytes, identical={ok} over {len(outputs)} BLAS settings")
    assert ok, detail
