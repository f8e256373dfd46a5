import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from floquet_ssh import (
    ConvergenceCapError,
    DimensionCapError,
    Method,
    ModelParams,
    N0Rule,
    ParameterError,
    build_floquet_matrix,
    build_static_hamiltonian,
    converge_nf,
    drive_operator,
    eig_dense,
    fold_real,
    matched_distance,
    one_period_propagator,
    quasi_energies_extended,
    quasi_energies_propagator,
    spectral_distance,
    static_spectrum,
)
from floquet_ssh.floquet import (
    DIM_CAP,
    SELECTION_GAP,
    _min_cost_assignment,
    _select_physical_modes,
    compute_spectrum,
    default_n_steps,
    drive_fourier_coefficients,
)
from floquet_ssh.linalg import Spectrum


def fourier_component_quadrature(params, harmonic, nodes=20000):
    """Oracle: (1/Z_p) * integral f(z) exp(-i*harmonic*omega*z) dz."""
    zp = 2 * np.pi / params.omega
    z = zp * (np.arange(nodes) + 0.5) / nodes
    f = params.kappa * params.omega * np.sin(params.omega * z + params.phase0)
    return (f * np.exp(-1j * harmonic * params.omega * z)).mean()


class TestFoldReal:
    def test_examples(self):
        assert fold_real(-1.0, 1.5) == pytest.approx(0.5)
        assert fold_real(1.0, 1.5) == pytest.approx(-0.5)

    def test_boundary_belongs_to_plus_half(self):
        omega = 2.0
        assert fold_real(omega / 2, omega) == pytest.approx(omega / 2)
        assert fold_real(-omega / 2, omega) == pytest.approx(omega / 2)

    def test_in_zone_values_unchanged(self):
        omega = 3.0
        xs = np.linspace(-1.49, 1.5, 101)
        assert_allclose(fold_real(xs, omega), xs)


class TestBuildFloquetMatrix:
    def test_fourier_coefficients_against_quadrature(self):
        p = ModelParams(n_sites=2, kappa=0.37, omega=1.7, phase0=0.6)
        c_plus, c_minus = drive_fourier_coefficients(p)
        assert abs(c_plus - fourier_component_quadrature(p, +1)) < 1e-12
        assert abs(c_minus - fourier_component_quadrature(p, -1)) < 1e-12
        # f real makes the pair Hermitian partners
        assert abs(c_plus - np.conj(c_minus)) < 1e-15

    def test_block_layout(self):
        p = ModelParams(n_sites=2, tunneling=1.0, lam=0.0, kappa=0.3, omega=1.7,
                        phase0=0.4)
        nf = 1
        hf = build_floquet_matrix(p, nf)
        assert hf.shape == (6, 6)
        h_static = build_static_hamiltonian(p)
        d = drive_operator(p)
        c_plus, c_minus = drive_fourier_coefficients(p)
        for i, m in enumerate((-1, 0, 1)):
            block = hf[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            assert_allclose(block, h_static + m * 1.7 * np.eye(2), atol=1e-15)
        # block (row m, col m') carries c_plus*D for m-m'=+1, c_minus*D for -1;
        # the coupling that feeds m=0 into m=-1 is block (row -1, col 0)
        assert_allclose(hf[0:2, 2:4], c_minus * d, atol=1e-15)
        assert_allclose(hf[2:4, 0:2], c_plus * d, atol=1e-15)
        assert_allclose(hf[2:4, 4:6], c_minus * d, atol=1e-15)
        assert_allclose(hf[4:6, 2:4], c_plus * d, atol=1e-15)
        assert np.abs(hf[0:2, 4:6]).max() == 0.0

    def test_undriven_matrix_is_block_diagonal_with_replicas(self):
        p = ModelParams(n_sites=4, lam=0.4, phi_dim=0.3, kappa=0.0, omega=2.5)
        nf = 2
        hf = build_floquet_matrix(p, nf)
        static_eigs = eig_dense(build_static_hamiltonian(p)).eigenvalues
        expected = np.sort([e.real + m * 2.5 for e in static_eigs
                            for m in range(-nf, nf + 1)])
        assert_allclose(np.sort(eig_dense(hf).eigenvalues.real), expected, atol=1e-10)

    def test_hermitian_for_gamma_zero(self):
        p = ModelParams(n_sites=4, lam=0.4, phi_dim=1.1, gamma=0.0, kappa=0.8,
                        omega=2.0, phase0=0.9)
        hf = build_floquet_matrix(p, 3)
        assert np.abs(hf - hf.conj().T).max() < 1e-15

    def test_dimension_cap(self):
        p = ModelParams(n_sites=40, kappa=0.1, omega=1.0)
        with pytest.raises(DimensionCapError):
            build_floquet_matrix(p, 300)
        with pytest.raises(ParameterError):
            build_floquet_matrix(p, 0)

    def test_dimension_just_above_cap_raises_without_allocating(self, monkeypatch):
        import tracemalloc

        import floquet_ssh.floquet as floquet

        def assemble(params):
            raise AssertionError("assembly started above the dimension cap")

        # a missing check fails here instead of starting a multi-GiB solve
        monkeypatch.setattr(floquet, "build_static_hamiltonian", assemble)
        # a solve peaks at about 68 B per dim^2: a capped one stays under 4 GiB
        assert 68 * DIM_CAP ** 2 < 4 << 30
        p = ModelParams(n_sites=40, kappa=0.1, omega=1.0)
        n_floquet = (DIM_CAP // 40 - 1) // 2 + 1
        assert 40 * (2 * n_floquet - 1) <= DIM_CAP < 40 * (2 * n_floquet + 1)
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            with pytest.raises(DimensionCapError):
                quasi_energies_extended(p, n_floquet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestQuasiEnergiesExtended:
    def test_undriven_small_chain(self):
        p = ModelParams(n_sites=2, tunneling=1.0, lam=0.0, gamma=0.0,
                        kappa=0.0, omega=10.0)
        fs = quasi_energies_extended(p, 2)
        assert_allclose(fs.quasi_energies, [-1, 1], atol=1e-10)
        assert fs.method is Method.EXTENDED

    def test_undriven_folding(self):
        p = ModelParams(n_sites=2, tunneling=1.0, lam=0.0, gamma=0.0,
                        kappa=0.0, omega=1.5)
        fs = quasi_energies_extended(p, 2)
        assert_allclose(fs.quasi_energies, [-0.5, 0.5], atol=1e-10)

    def test_zone_and_weight_invariants(self):
        p = ModelParams(n_sites=8, lam=0.4, phi_dim=1.0, gamma=0.1,
                        impurity_site=2, kappa=0.3, omega=2 * math.pi)
        fs = quasi_energies_extended(p, 6)
        assert fs.n_modes == 8
        assert np.all(fs.quasi_energies.real > -p.omega / 2)
        assert np.all(fs.quasi_energies.real <= p.omega / 2)
        assert_allclose(fs.mode_weights.sum(axis=1), np.ones(8), atol=1e-10)
        assert np.all(fs.mode_weights >= 0)

    def test_replica_periodicity_of_interior_eigenvalues(self):
        p = ModelParams(n_sites=4, lam=0.4, phi_dim=0.8, gamma=0.05,
                        impurity_site=2, kappa=0.4, omega=3.0)
        nf = 6
        hf = build_floquet_matrix(p, nf)
        spectrum = eig_dense(hf)
        n_blocks = 2 * nf + 1
        probs = np.abs(spectrum.eigenvectors) ** 2
        block_weight = probs.reshape(n_blocks, 4, 4 * n_blocks).sum(axis=1)
        interior = block_weight[2:-2].sum(axis=0) > 1.0 - 1e-8
        evals = spectrum.eigenvalues
        checked = 0
        for k in np.nonzero(interior)[0]:
            shifted = evals[k] + p.omega
            assert np.abs(evals - shifted).min() < 1e-6
            checked += 1
        assert checked > 0

    def test_gauge_covariance_of_n0(self):
        # scalar shift of the drive integrates to zero over a period
        base = dict(n_sites=6, lam=0.4, phi_dim=0.9, gamma=0.1, impurity_site=2,
                    kappa=0.4, omega=2 * math.pi)
        fs_even = quasi_energies_propagator(
            ModelParams(**base, n0_rule=N0Rule.EVEN), 2048)
        fs_centered = quasi_energies_propagator(
            ModelParams(**base, n0_rule=N0Rule.CENTERED), 2048)
        assert spectral_distance(fs_even, fs_centered) < 1e-8


class TestSelectPhysicalModes:
    """Hand-built N=2, N_F=1 spectra (blocks m = -1, 0, 1; omega = 2)."""

    @staticmethod
    def _select(w0_genuine, w0_extra):
        r = math.sqrt
        modes = [
            (0.1, {(-1, 0): r(0.4), (0, 0): r(0.6)}),    # 0: genuine, m=0 weight 0.6
            (2.1, {(0, 0): r(0.4), (1, 0): r(0.6)}),     # 1: mode 0 one block up
            (-0.5, {(0, 1): r(w0_genuine), (1, 1): r(1 - w0_genuine)}),  # 2: genuine
            (0.9, {(0, 1): r(w0_extra), (-1, 1): r(1 - w0_extra)}),      # 3: no replica
            (-1.5, {(-1, 0): 1.0}),
            (1.5, {(-1, 1): 1.0}),
        ]
        vectors = np.zeros((6, len(modes)), dtype=complex)
        for k, (_, amplitudes) in enumerate(modes):
            for (m, site), amplitude in amplitudes.items():
                vectors[(m + 1) * 2 + site, k] = amplitude
        evals = np.array([e for e, _ in modes], dtype=complex)
        return _select_physical_modes(Spectrum(evals, vectors, 0.0),
                                      ModelParams(n_sites=2, omega=2.0), 1)

    def test_replica_outranking_a_genuine_mode_is_skipped(self):
        sel, marginals, flags = self._select(0.3, 0.0)
        assert list(sel) == [0, 2]
        assert_allclose(marginals, [[0.6, 0.0], [0.0, 0.3]], atol=1e-15)
        assert flags == ()

    def test_near_tie_flags_only_a_non_replica(self):
        # mode 1 (a replica) ties the weakest selected weight: no flag
        sel, _, flags = self._select(0.4 + SELECTION_GAP / 10, 0.0)
        assert list(sel) == [0, 2]
        assert flags == ()
        # mode 3 (not a replica) ties it: flagged
        sel, _, flags = self._select(0.3, 0.3 - SELECTION_GAP / 10)
        assert list(sel) == [0, 2]
        assert flags == ("ambiguous_selection",)


class TestQuasiEnergiesPropagator:
    def test_undriven_equals_folded_static(self):
        p = ModelParams(n_sites=6, lam=0.4, phi_dim=0.7, gamma=0.1,
                        impurity_site=2, kappa=0.0, omega=2.0)
        fs = quasi_energies_propagator(p, 512)
        static_eigs = eig_dense(build_static_hamiltonian(p)).eigenvalues
        expected = fold_real(static_eigs.real, 2.0) + 1j * static_eigs.imag
        expected = expected[np.lexsort((expected.imag, expected.real))]
        assert np.abs(fs.quasi_energies - expected).max() < 1e-8

    def test_unitary_for_hermitian_chain(self):
        p = ModelParams(n_sites=6, lam=0.4, phi_dim=0.7, gamma=0.0, kappa=0.5,
                        omega=2.0)
        u = one_period_propagator(p, 1024)
        assert np.abs(u @ u.conj().T - np.eye(6)).max() < 1e-10
        fs = quasi_energies_propagator(p, 1024)
        assert fs.max_imag < 1e-9

    def test_cross_method_agreement(self):
        p = ModelParams(n_sites=8, tunneling=1.0, lam=0.4, phi_dim=1.0,
                        gamma=0.1, impurity_site=2, kappa=0.3, omega=2 * math.pi)
        nf = converge_nf(p, 1e-8)
        ext = quasi_energies_extended(p, nf)
        prop = quasi_energies_propagator(p, converge_tol=1e-8)
        assert spectral_distance(ext, prop) < 1e-6

    def test_cross_method_agreement_low_frequency_broken(self):
        p = ModelParams(n_sites=6, tunneling=1.0, lam=0.3, phi_dim=2.0,
                        gamma=0.15, impurity_site=2, kappa=0.5, omega=1.5,
                        phase0=0.7)
        nf = converge_nf(p, 1e-8)
        ext = quasi_energies_extended(p, nf)
        prop = quasi_energies_propagator(p, converge_tol=1e-8)
        assert matched_distance(ext, prop) < 1e-6

    def test_cross_method_agreement_strong_drive(self):
        # dynamical-localization regime: tunneling suppressed, spectrum broken
        p = ModelParams(n_sites=8, tunneling=1.0, lam=0.4, phi_dim=0.3,
                        gamma=0.1, impurity_site=2, kappa=2.405,
                        omega=20 * math.pi)
        nf = converge_nf(p, 1e-8)
        ext = quasi_energies_extended(p, nf)
        prop = quasi_energies_propagator(p, converge_tol=1e-8)
        assert matched_distance(ext, prop) < 1e-6
        assert ext.max_imag > 0.09  # impurity pair decoupled at J0's zero

    def test_high_frequency_tracks_static_spectrum(self):
        omega = 45 * math.pi
        driven = ModelParams(n_sites=40, tunneling=1.0, lam=0.4, phi_dim=0.0,
                             gamma=0.2, impurity_site=2, kappa=0.05 / omega,
                             omega=omega)
        undriven = ModelParams(n_sites=40, tunneling=1.0, lam=0.4, phi_dim=0.0,
                               gamma=0.2, impurity_site=2)
        ext = quasi_energies_extended(driven, 2)
        assert matched_distance(ext, static_spectrum(undriven)) < 5e-3

    def test_step_count_validation(self):
        p = ModelParams(n_sites=4, kappa=0.1, omega=2.0)
        with pytest.raises(ParameterError):
            quasi_energies_propagator(p, 50)
        for n_steps in (0, -5):
            with pytest.raises(ParameterError):
                one_period_propagator(p, n_steps)

    def test_split_step_is_fourth_order_against_midpoint_product(self):
        # oracle: time-ordered product of scipy.linalg.expm steps sampled at
        # the step midpoints, fine enough that its own error is negligible
        p = ModelParams(n_sites=6, tunneling=1.0, lam=0.3, phi_dim=2.0,
                        gamma=0.15, impurity_site=2, kappa=0.5, omega=1.5,
                        phase0=0.7)
        ref_steps = 1 << 14
        dz = p.drive_period / ref_steps
        z = (np.arange(ref_steps) + 0.5) * dz
        generators = np.repeat(build_static_hamiltonian(p)[None], ref_steps, axis=0)
        generators[:, np.arange(6), np.arange(6)] += (
            p.kappa * p.omega * np.sin(p.omega * z + p.phase0))[:, None] \
            * np.diag(drive_operator(p))
        reference = np.eye(6, dtype=complex)
        for step in scipy.linalg.expm(-1j * dz * generators):
            reference = step @ reference
        errors = [np.abs(one_period_propagator(p, n) - reference).max()
                  for n in (16, 32, 64)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 <= coarse / fine <= 20.0

    # bounds: U errors of the former second-order split step at its own
    # default of 64*||H||*Z_p steps, so the fourth-order default is never
    # less accurate than the step count it replaced
    @pytest.mark.parametrize("phi, omega, kappa, bound", [
        (0.35, 0.2 * math.pi, 0.05 / (0.2 * math.pi), 5.3e-8),
        (0.3, 0.8 * math.pi, 0.05 / (0.8 * math.pi), 3.5e-8),
        (0.3, 3.0, 2.0, 1.3e-8),
    ])
    def test_default_step_count_accuracy(self, phi, omega, kappa, bound):
        p = ModelParams(n_sites=40, tunneling=1.0, lam=0.4, phi_dim=phi,
                        gamma=0.2, impurity_site=2, kappa=kappa, omega=omega)
        steps = default_n_steps(p)
        error = np.abs(one_period_propagator(p, steps)
                       - one_period_propagator(p, 8 * steps)).max()
        assert error <= bound

    def test_default_step_count_at_low_frequency(self):
        omega = 0.2 * math.pi
        p = ModelParams(n_sites=40, tunneling=1.0, lam=0.4, phi_dim=0.35,
                        gamma=0.2, impurity_site=2, kappa=0.05 / omega, omega=omega)
        assert default_n_steps(p) <= 200


class TestMatchedDistance:
    def test_assignment_solver_against_brute_force(self):
        import itertools
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            cost = rng.random((n, n))
            cols = _min_cost_assignment(cost)
            assert sorted(cols) == list(range(n))
            got = cost[np.arange(n), cols].sum()
            best = min(cost[np.arange(n), list(perm)].sum()
                       for perm in itertools.permutations(range(n)))
            assert got == pytest.approx(best, abs=1e-12)

    def test_robust_to_tied_real_parts(self):
        # sorted (Re, Im) pairing scrambles these; the matcher must not
        base = ModelParams(n_sites=4, lam=0.4, omega=2.0)
        a = np.array([-1e-12 + 0.1j, 0.0 - 0.1j, 0.3, -0.3])
        b = np.array([+1e-12 + 0.1j, 0.0 - 0.1j, 0.3, -0.3])
        order_a = np.lexsort((a.imag, a.real))
        order_b = np.lexsort((b.imag, b.real))
        weights = np.full((4, 4), 0.25)
        from floquet_ssh import FloquetSpectrum
        fa = FloquetSpectrum(a[order_a], weights, Method.PROPAGATOR, 0, 2.0, base)
        fb = FloquetSpectrum(b[order_b], weights, Method.PROPAGATOR, 0, 2.0, base)
        assert spectral_distance(fa, fb) < 1e-11
        assert matched_distance(fa, fb) < 1e-11


class TestConvergeNf:
    def test_undriven_returns_minimum(self):
        p = ModelParams(n_sites=4, lam=0.4, phi_dim=0.5, gamma=0.1,
                        impurity_site=2, kappa=0.0, omega=3.0)
        assert converge_nf(p, 1e-8) == 2

    def test_high_frequency_needs_small_nf(self):
        omega = 45 * math.pi
        p = ModelParams(n_sites=8, lam=0.4, phi_dim=0.3, gamma=0.2,
                        impurity_site=2, kappa=0.05 / omega, omega=omega)
        assert converge_nf(p, 1e-8) <= 4

    def test_low_frequency_needs_more(self):
        base = dict(n_sites=8, lam=0.4, phi_dim=0.3, gamma=0.2, impurity_site=2)
        low, high = 0.2 * math.pi, 45 * math.pi
        nf_low = converge_nf(ModelParams(**base, kappa=0.05 / low, omega=low), 1e-8)
        nf_high = converge_nf(ModelParams(**base, kappa=0.05 / high, omega=high), 1e-8)
        assert nf_low > nf_high

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8])
    def test_rejects_nan_and_nonpositive_tol(self, tol):
        p = ModelParams(n_sites=4, lam=0.4, kappa=0.1, omega=3.0)
        with pytest.raises(ParameterError):
            converge_nf(p, tol)

    def test_cap(self, monkeypatch):
        import floquet_ssh.floquet as floquet
        monkeypatch.setattr(floquet, "NF_CAP", 8)
        p = ModelParams(n_sites=8, lam=0.4, kappa=3.0, omega=0.05)
        with pytest.raises((ConvergenceCapError, DimensionCapError)):
            converge_nf(p, 1e-12)

    def test_compute_spectrum_solves_each_nf_once(self, monkeypatch):
        import floquet_ssh.floquet as floquet
        p = ModelParams(n_sites=8, lam=0.4, phi_dim=0.3, gamma=0.2, impurity_site=2,
                        kappa=0.05 / (0.2 * math.pi), omega=0.2 * math.pi)
        solved = []
        original = floquet.quasi_energies_extended

        def counting(params, n_floquet, **kwargs):
            solved.append(n_floquet)
            return original(params, n_floquet, **kwargs)

        monkeypatch.setattr(floquet, "quasi_energies_extended", counting)
        got = compute_spectrum(p, Method.EXTENDED)
        assert len(solved) == len(set(solved))
        monkeypatch.undo()
        want = quasi_energies_extended(p, converge_nf(p, 1e-8))
        assert got.n_floquet == want.n_floquet
        assert np.array_equal(got.quasi_energies, want.quasi_energies)
        assert np.array_equal(got.mode_weights, want.mode_weights)
