import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floquet_ssh import (
    Method,
    ModelParams,
    ParameterError,
    Phase,
    SolverError,
    check_pt_symmetry,
    classify_pt,
    converge_nf,
    edge_weight,
    find_zero_modes,
    gamma_pt_threshold,
    hamiltonian_at,
    quasi_energies_extended,
    quasi_energies_propagator,
    static_spectrum,
)

FIG1_STATIC = dict(n_sites=40, tunneling=1.0, lam=0.4, gamma=0.2, impurity_site=2)


class TestClassifyPt:
    def test_hermitian_chain_is_unbroken(self):
        p = ModelParams(n_sites=20, lam=0.4, phi_dim=0.5, gamma=0.0)
        point = classify_pt(static_spectrum(p))
        assert point.phase is Phase.UNBROKEN
        assert point.max_im < 1e-9

    def test_low_frequency_drive_breaks(self):
        omega = 0.2 * math.pi
        for phi in (0.0, 0.3):
            p = ModelParams(**FIG1_STATIC, phi_dim=phi, kappa=0.05 / omega,
                            omega=omega)
            point = classify_pt(quasi_energies_propagator(p, 2048))
            assert point.phase is Phase.BROKEN

    def test_odd_chain_edge_impurities_break(self):
        # odd N leaves an unpaired zero mode on the odd sublattice; impurities
        # on that sublattice (odd j) make the spectrum complex at any gamma
        p = ModelParams(n_sites=39, tunneling=1.0, lam=0.4, phi_dim=0.3,
                        gamma=0.2, impurity_site=1)
        point = classify_pt(static_spectrum(p))
        assert point.phase is Phase.BROKEN
        p3 = ModelParams(n_sites=39, tunneling=1.0, lam=0.4, phi_dim=0.3,
                         gamma=0.2, impurity_site=3)
        assert classify_pt(static_spectrum(p3)).phase is Phase.BROKEN


class TestFindZeroModes:
    def test_topological_window_hosts_two_edge_modes(self):
        p = ModelParams(n_sites=40, lam=0.4, phi_dim=0.3, gamma=0.0)
        modes = find_zero_modes(static_spectrum(p))
        assert len(modes) == 2
        for zm in modes:
            assert zm.edge_weight > 0.8
            assert abs(zm.re_eps) < 1e-3

    def test_trivial_window_has_none(self):
        p = ModelParams(n_sites=40, lam=0.4, phi_dim=math.pi, gamma=0.0)
        assert find_zero_modes(static_spectrum(p)) == []

    def test_uniform_chain_has_none(self):
        p = ModelParams(n_sites=40, lam=0.0, phi_dim=0.8, gamma=0.0)
        assert find_zero_modes(static_spectrum(p)) == []

    def test_zero_mode_count_is_even_for_hermitian_even_chain(self):
        for phi in np.linspace(0, 2 * math.pi, 17):
            p = ModelParams(n_sites=20, lam=0.4, phi_dim=float(phi), gamma=0.0)
            assert len(find_zero_modes(static_spectrum(p))) % 2 == 0

    def test_edge_weight_bounds_and_monotonicity(self):
        p = ModelParams(n_sites=30, lam=0.4, phi_dim=0.3, gamma=0.0)
        fs = static_spectrum(p)
        for row in fs.mode_weights:
            assert 0.0 <= edge_weight(row) <= 1.0 + 1e-12

    def test_edge_weight_of_all_rows_at_once(self):
        p = ModelParams(n_sites=30, lam=0.4, phi_dim=0.3, gamma=0.0)
        weights = static_spectrum(p).mode_weights
        edges = edge_weight(weights)
        assert edges.shape == (30,)
        assert np.array_equal(edges, [edge_weight(row) for row in weights])


class TestGammaPtThreshold:
    def test_edge_impurities_break_at_zero(self):
        p = ModelParams(n_sites=40, lam=0.4, phi_dim=0.3, gamma=0.0,
                        impurity_site=1)
        result = gamma_pt_threshold(p, gamma_max=1.0)
        assert result.status == "broken_at_zero"
        assert result.value == 0.0

    def test_neighbor_impurities_have_positive_threshold(self):
        p = ModelParams(n_sites=40, lam=0.4, phi_dim=0.3, gamma=0.0,
                        impurity_site=2)
        result = gamma_pt_threshold(p, gamma_max=1.0)
        assert result.status == "ok"
        assert result.value > 0.01

    def test_threshold_decreases_with_size(self):
        thresholds = {}
        for n in (20, 40):
            p = ModelParams(n_sites=n, lam=0.4, phi_dim=0.3, gamma=0.0,
                            impurity_site=2)
            thresholds[n] = gamma_pt_threshold(p, gamma_max=1.0).value
        assert thresholds[40] <= thresholds[20]

    def test_unbroken_at_gamma_max_flag(self):
        p = ModelParams(n_sites=20, lam=0.4, phi_dim=0.3, gamma=0.0,
                        impurity_site=2)
        result = gamma_pt_threshold(p, gamma_max=0.05)
        assert result.status == "unbroken_at_gamma_max"
        assert result.value == 0.05

    def test_coarse_bracket_above_zero_is_ok(self):
        # gamma_PT = 0.1102: the pre-scan sees 0.0625 unbroken and 0.125
        # broken, a bracket already narrower than tol_gamma, whose midpoint
        # lies below tol_gamma.  A gamma > 0 was seen unbroken, so the
        # threshold is not at zero.
        p = ModelParams(n_sites=6, lam=0.4, impurity_site=1)
        result = gamma_pt_threshold(p, gamma_max=1.0, tol_gamma=0.1)
        assert result.status == "ok"
        assert result.value == 0.09375
        assert max(g for g, broken in result.scan if not broken) < result.value

    @pytest.mark.parametrize("tol_gamma", [1e-17, 1e-300])
    def test_bisection_ends_below_float_spacing(self, monkeypatch, tol_gamma):
        import floquet_ssh.analysis as analysis

        solves = []
        solve = analysis.compute_spectrum

        def counting(*args, **kwargs):
            solves.append(args[0].gamma)
            if len(solves) > 500:
                raise AssertionError("bisection did not end")
            return solve(*args, **kwargs)

        monkeypatch.setattr(analysis, "compute_spectrum", counting)
        p = ModelParams(n_sites=6, lam=0.4, impurity_site=2)
        result = gamma_pt_threshold(p, gamma_max=1.0, tol_gamma=tol_gamma)
        assert result.status == "ok"
        # the bracket ends as two adjacent floats around the threshold
        assert math.nextafter(result.value, 0.0) in solves or \
            math.nextafter(result.value, 1.0) in solves

    def test_extended_route_solves_each_gamma_and_nf_once(self, monkeypatch):
        import floquet_ssh.floquet as floquet

        p = ModelParams(n_sites=6, lam=0.4, impurity_site=2, kappa=0.3, omega=3.0)
        nf = converge_nf(replace(p, gamma=1.0), 1e-8)
        solved = []
        solve = floquet.quasi_energies_extended

        def recording(params, n_floquet):
            solved.append((params, n_floquet))
            return solve(params, n_floquet)

        monkeypatch.setattr(floquet, "quasi_energies_extended", recording)
        result = gamma_pt_threshold(p, gamma_max=1.0, tol_gamma=1e-2, method=Method.EXTENDED)
        assert result.status == "ok"
        assert len(solved) == len(set(solved))
        # N_F is converged at gamma_max only; every other gamma is solved there.
        assert {n for params, n in solved if params.gamma != 1.0} == {nf}

    def test_threshold_sanity_margins(self):
        p = ModelParams(n_sites=20, lam=0.4, phi_dim=0.3, gamma=0.0,
                        impurity_site=2)
        tol_gamma = 1e-4
        result = gamma_pt_threshold(p, gamma_max=1.0, tol_gamma=tol_gamma)
        assert result.monotone
        gamma_star = result.value
        below = static_spectrum(
            ModelParams(n_sites=20, lam=0.4, phi_dim=0.3,
                        gamma=gamma_star - 10 * tol_gamma, impurity_site=2))
        above = static_spectrum(
            ModelParams(n_sites=20, lam=0.4, phi_dim=0.3,
                        gamma=gamma_star + 10 * tol_gamma, impurity_site=2))
        assert classify_pt(below).phase is Phase.UNBROKEN
        assert classify_pt(above).phase is Phase.BROKEN

    def test_argument_guards(self):
        p = ModelParams(n_sites=20, lam=0.4, phi_dim=0.3, gamma=0.0,
                        impurity_site=2)
        with pytest.raises(ParameterError):
            gamma_pt_threshold(p, gamma_max=0.0)
        with pytest.raises(ParameterError):
            gamma_pt_threshold(p, gamma_max=0.5, tol_gamma=0.0)
        with pytest.raises(ParameterError):
            gamma_pt_threshold(p, gamma_max=math.nan)
        with pytest.raises(ParameterError):
            gamma_pt_threshold(p, gamma_max=0.5, tol_gamma=math.nan)
        with pytest.raises(ParameterError, match="gamma_max must be positive and finite"):
            gamma_pt_threshold(p, gamma_max=math.inf)
        with pytest.raises(ParameterError):
            gamma_pt_threshold(p, gamma_max=0.5, tol_gamma=math.inf)


def _pt_residual_64_samples(params):
    """The PT residual read at 64 evenly spaced drive times, as a reference."""
    peaks = []
    for z in np.linspace(0.0, params.drive_period, 64, endpoint=False):
        residual = np.conj(hamiltonian_at(-z, params))[::-1, ::-1] - hamiltonian_at(z, params)
        residual[np.diag_indices_from(residual)] -= np.trace(residual) / params.n_sites
        peaks.append(np.abs(residual).max())
    return float(np.max(peaks))


class TestCheckPtSymmetry:
    def test_two_drive_times_per_check(self, monkeypatch):
        import floquet_ssh.analysis as analysis

        times = []

        def counting(z, params):
            times.append(z)
            return hamiltonian_at(z, params)

        monkeypatch.setattr(analysis, "hamiltonian_at", counting)
        p = ModelParams(n_sites=9, lam=0.4, phi_dim=0.7, gamma=0.2,
                        impurity_site=2, kappa=0.5, omega=2.0)
        check_pt_symmetry(p)
        # H(-z) and H(z) at the drive's extremes z = Z_p/4 and 3Z_p/4
        assert len(times) == 4
        assert [abs(np.sin(p.omega * z)) for z in times] == pytest.approx([1.0] * 4)

    @pytest.mark.parametrize("n_sites", [6, 7, 20])
    def test_broken_drive_matches_64_samples(self, monkeypatch, n_sites):
        # D = diag(n^2) breaks the relation on every chain; the peak over the
        # period is still read at one of the two extremes, bit for bit
        import floquet_ssh.model as model

        monkeypatch.setattr(model, "drive_operator",
                            lambda params: np.diag(np.arange(1.0, params.n_sites + 1) ** 2))
        p = ModelParams(n_sites=n_sites, lam=0.4, phi_dim=0.7, gamma=0.2,
                        impurity_site=2, kappa=0.5, omega=2.0)
        residual = check_pt_symmetry(p)
        assert residual > 1.0
        assert residual == _pt_residual_64_samples(p)

    @pytest.mark.parametrize("n_sites", [3, 9, 21])
    def test_odd_chain_matches_64_samples(self, n_sites):
        p = ModelParams(n_sites=n_sites, lam=0.3, phi_dim=1.1, gamma=0.4,
                        impurity_site=1, kappa=1.7, omega=0.8)
        assert check_pt_symmetry(p) == _pt_residual_64_samples(p)

    def test_even_chain_integer_rule_gauged(self):
        p = ModelParams(n_sites=8, lam=0.4, phi_dim=0.7, gamma=0.3,
                        impurity_site=2, kappa=0.5, omega=2.0)
        assert check_pt_symmetry(p) < 1e-12

    def test_odd_chain_breaks_relation(self):
        p = ModelParams(n_sites=9, lam=0.4, phi_dim=0.7, gamma=0.2,
                        impurity_site=2, kappa=0.5, omega=2.0)
        assert check_pt_symmetry(p) > 1e-3

    @pytest.mark.parametrize("n_sites", [40, 41])
    def test_overflowing_drive_raises_without_warning(self, n_sites):
        # kappa*omega*max|n - n0| overflows in H(z), so the residual is inf - inf = NaN
        p = ModelParams(n_sites=n_sites, lam=0.4, kappa=1e307, omega=3.0)
        with pytest.raises(SolverError, match="PT residual is not finite"):
            check_pt_symmetry(p)

    @pytest.mark.parametrize("n_sites", [200, 201])
    def test_peak_memory_is_a_few_matrices(self, n_sites):
        # one H(z) at a time: about 64 B per N^2 (the 64 stacked copies took 3072)
        p = ModelParams(n_sites=n_sites, lam=0.4, phi_dim=0.7, gamma=0.2,
                        impurity_site=2, kappa=0.5, omega=2.0)
        tracemalloc.start()
        try:
            check_pt_symmetry(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * n_sites ** 2


class TestClassificationConsistency:
    def test_methods_agree_away_from_threshold(self):
        p = ModelParams(n_sites=8, lam=0.4, phi_dim=1.0, gamma=0.1,
                        impurity_site=2, kappa=0.3, omega=2 * math.pi)
        ext = classify_pt(quasi_energies_extended(p, 8))
        prop = classify_pt(quasi_energies_propagator(p, 2048))
        margin = 10 * 1e-8
        if (ext.max_im > margin) == (prop.max_im > margin):
            assert ext.phase == prop.phase
