import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from floquet_ssh import (
    ConvergenceCapError,
    DimensionCapError,
    FloquetSpectrum,
    Method,
    ModelParams,
    ParameterError,
    PropagatorCollapseError,
    SolverError,
    SweepSpec,
    build_floquet_matrix,
    build_static_hamiltonian,
    classify_pt,
    converge_nf,
    drive_operator,
    eig_dense,
    fold_real,
    gamma_pt_threshold,
    matched_distance,
    one_period_propagator,
    quasi_energies_extended,
    quasi_energies_propagator,
    run_sweep,
    spectral_distance,
    static_spectrum,
)
from floquet_ssh.floquet import (
    DIM_CAP,
    MAX_PROPAGATOR_STEPS,
    MIN_PROPAGATOR_STEPS,
    NF_TOL,
    PROPAGATOR_SITE_CAP,
    SELECTION_GAP,
    _block_shift_overlap,
    _min_cost_assignment,
    _select_physical_modes,
    compute_spectrum,
    default_n_steps,
)
from floquet_ssh.linalg import Spectrum, matrix_norm_1
from floquet_ssh.model import hamiltonian_at


def fourier_component_quadrature(params, harmonic, nodes=20000):
    """Oracle: (1/Z_p) * integral f(z) exp(-i*harmonic*omega*z) dz."""
    zp = 2 * np.pi / params.omega
    z = zp * (np.arange(nodes) + 0.5) / nodes
    f = params.kappa * params.omega * np.sin(params.omega * z)
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
        p = ModelParams(n_sites=3, kappa=0.37, omega=1.7)
        hf = build_floquet_matrix(p, 1)
        d = drive_operator(p)
        # block (row m, col m') carries harmonic m - m' of f times D
        above, below = hf[3:6, 0:3], hf[0:3, 3:6]
        assert np.abs(above - fourier_component_quadrature(p, +1) * d).max() < 1e-12
        assert np.abs(below - fourier_component_quadrature(p, -1) * d).max() < 1e-12
        # f real makes the pair Hermitian partners
        assert np.array_equal(above, below.conj())

    def test_block_layout(self):
        p = ModelParams(n_sites=2, tunneling=1.0, lam=0.0, kappa=0.3, omega=1.7)
        nf = 1
        hf = build_floquet_matrix(p, nf)
        assert hf.shape == (6, 6)
        h_static = build_static_hamiltonian(p)
        d = drive_operator(p)
        c_plus = 0.3 * 1.7 / 2j
        c_minus = np.conj(c_plus)
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
                        omega=2.0)
        hf = build_floquet_matrix(p, 3)
        assert np.abs(hf - hf.conj().T).max() < 1e-15

    def test_dimension_cap(self):
        p = ModelParams(n_sites=40, kappa=0.1, omega=1.0)
        with pytest.raises(DimensionCapError):
            build_floquet_matrix(p, 300)
        with pytest.raises(ParameterError):
            build_floquet_matrix(p, 0)

    def test_overflowing_diagonal_is_a_solver_error(self):
        # m*omega is inf at m = 2; ParameterError would pass a ValueError check
        p = ModelParams(n_sites=4, omega=1e308)
        with pytest.raises(SolverError, match="overflows"):
            quasi_energies_extended(p, 2)

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

    def test_gauge_covariance_of_n0(self, monkeypatch):
        # scalar shift of the drive integrates to zero over a period
        import floquet_ssh.floquet as floquet

        p = ModelParams(n_sites=6, lam=0.4, phi_dim=0.9, gamma=0.1, impurity_site=2,
                        kappa=0.4, omega=2 * math.pi)
        fs_integer = quasi_energies_propagator(p, 2048)
        monkeypatch.setattr(floquet, "drive_operator",
                            lambda params: drive_operator(params) - 0.5 * np.eye(params.n_sites))
        fs_centered = quasi_energies_propagator(p, 2048)
        assert spectral_distance(fs_integer, fs_centered) < 1e-8


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

    def test_block_shift_overlap_equals_the_zero_filled_shift(self):
        # oracle: shift `selected` by whole blocks into a zero-filled copy
        n_sites, n_blocks = 3, 5
        rng = np.random.default_rng(3)
        candidate, selected = rng.normal(size=(2, n_blocks * n_sites, 2)) @ [1, 1j]
        blocks = selected.reshape(n_blocks, n_sites)
        for shift in range(-n_blocks - 1, n_blocks + 2):
            shifted = np.zeros_like(blocks)
            for b in range(n_blocks):
                if 0 <= b - shift < n_blocks:
                    shifted[b] = blocks[b - shift]
            want = abs(np.vdot(candidate, shifted.ravel()))
            got = _block_shift_overlap(candidate, selected, shift, n_sites)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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
        # an odd chain, so U is built from two quarter-period products, without the PT reflection
        p = _N7_CHAIN
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
        message = f"n_steps must be between {MIN_PROPAGATOR_STEPS} and {MAX_PROPAGATOR_STEPS}"
        for route in (quasi_energies_propagator, one_period_propagator):
            for n_steps in (-5, 0, 10, MIN_PROPAGATOR_STEPS - 1, MAX_PROPAGATOR_STEPS + 1):
                with pytest.raises(ParameterError, match=message):
                    route(p, n_steps)

    def test_step_count_above_cap_raises_before_stepping(self, monkeypatch):
        import floquet_ssh.floquet as floquet

        def no_expm(m):
            raise AssertionError("propagator started above the step cap")

        # a missing check fails here instead of allocating gigabytes
        monkeypatch.setattr(floquet, "expm", no_expm)
        p = ModelParams(n_sites=40, lam=0.4, kappa=1e6, omega=1.0)
        with pytest.raises(ParameterError, match=str(MAX_PROPAGATOR_STEPS)):
            default_n_steps(p)  # the count would be 166386308
        with pytest.raises(ParameterError, match=str(MAX_PROPAGATOR_STEPS)):
            quasi_energies_propagator(p)
        with pytest.raises(ParameterError, match=str(MAX_PROPAGATOR_STEPS)):
            one_period_propagator(p, MAX_PROPAGATOR_STEPS + 1)

    @pytest.mark.parametrize("kappa, omega", [(1e307, 3.0), (1e300, 3.0), (0.05 / 1e-5, 1e-5)])
    def test_default_step_count_above_cap_names_the_rule(self, kappa, omega):
        # 1e307 overflows ||H||_1; 1e300 once printed a 300-digit count
        p = ModelParams(n_sites=40, lam=0.4, kappa=kappa, omega=omega)
        with pytest.raises(ParameterError) as excinfo:
            quasi_energies_propagator(p)
        message = str(excinfo.value)
        assert "ceil(1.35 * ||H||_1 * Z_p)" in message
        assert f"MAX_PROPAGATOR_STEPS = {MAX_PROPAGATOR_STEPS}" in message
        assert len(message) < 200

    @pytest.mark.parametrize("route, cap", [
        (static_spectrum, DIM_CAP),
        (lambda p: compute_spectrum(p, Method.STATIC_EFFECTIVE), DIM_CAP),
        (lambda p: quasi_energies_propagator(p, 20), PROPAGATOR_SITE_CAP),
        (quasi_energies_propagator, PROPAGATOR_SITE_CAP),
        (lambda p: one_period_propagator(p, 20), PROPAGATOR_SITE_CAP),
        (default_n_steps, PROPAGATOR_SITE_CAP),
    ], ids=["static", "effective", "propagator", "default-steps", "one-period-propagator",
            "default-n-steps"])
    def test_chain_length_cap_raises_without_allocating(self, monkeypatch, route, cap):
        import floquet_ssh.effective as effective
        import floquet_ssh.floquet as floquet

        class Assembled(Exception):
            pass

        def assemble(*args):
            raise Assembled

        for module, name in [(floquet, "build_static_hamiltonian"), (floquet, "hamiltonian_at"),
                             (effective, "build_static_hamiltonian")]:
            monkeypatch.setattr(module, name, assemble)
        with pytest.raises(DimensionCapError, match=f"N={cap + 1} exceeds"):
            route(ModelParams(n_sites=cap + 1, kappa=0.1))
        with pytest.raises(Assembled):  # a chain at the cap gets past the check
            route(ModelParams(n_sites=cap, kappa=0.1))

    @pytest.mark.parametrize("converge_tol", [0.0, -1.0, math.nan, math.inf])
    def test_converge_tol_validation(self, converge_tol):
        p = ModelParams(n_sites=6, lam=0.4, impurity_site=2, kappa=0.3, omega=3.0)
        with pytest.raises(ParameterError, match="converge_tol must be positive and finite"):
            quasi_energies_propagator(p, converge_tol=converge_tol)

    def test_split_step_is_fourth_order_against_midpoint_product(self):
        # oracle: time-ordered product of scipy.linalg.expm steps sampled at
        # the step midpoints, fine enough that its own error is negligible;
        # an odd chain, so U is built from two quarter-period products
        p = _N7_CHAIN
        ref_steps = 1 << 16
        dz = p.drive_period / ref_steps
        z = (np.arange(ref_steps) + 0.5) * dz
        generators = np.repeat(build_static_hamiltonian(p)[None], ref_steps, axis=0)
        generators[:, np.arange(7), np.arange(7)] += (
            p.kappa * p.omega * np.sin(p.omega * z))[:, None] * np.diag(drive_operator(p))
        reference = np.eye(7, dtype=complex)
        for step in scipy.linalg.expm(-1j * dz * generators):
            reference = step @ reference
        errors = [np.abs(one_period_propagator(p, n) - reference).max()
                  for n in (20, 40, 80)]
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

    @settings(max_examples=300, deadline=None)
    @given(n_sites=st.integers(2, 80), lam=st.floats(-1.0, 1.0), phi=st.floats(0.0, 7.0),
           gamma=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           log_kappa=st.one_of(st.floats(-3.0, 3.0), st.floats(290.0, 308.0)),
           log_omega=st.floats(-2.0, 2.5), tunneling=st.floats(0.1, 3.0), data=st.data())
    def test_default_step_count_equals_the_16_point_scan(self, n_sites, lam, phi, gamma,
                                                         log_kappa, log_omega, tunneling,
                                                         data):
        # the oracle assembles H(z) at all 16 midpoints; large kappa takes the count above the cap
        j = data.draw(st.integers(1, n_sites // 2))
        p = ModelParams(n_sites=n_sites, tunneling=tunneling, lam=lam, phi_dim=phi,
                        gamma=gamma, impurity_site=j, kappa=10.0 ** log_kappa,
                        omega=10.0 ** log_omega)
        want = _scanned_n_steps(p)
        if isinstance(want, str):
            with pytest.raises(ParameterError, match=re.escape(f"Z_p) = {want} exceeds")):
                default_n_steps(p)
        else:
            assert default_n_steps(p) == want <= MAX_PROPAGATOR_STEPS

    def test_one_hamiltonian_assembly_per_spectrum(self, monkeypatch):
        import floquet_ssh.floquet as floquet

        calls = []

        def counting(z, params):
            calls.append(z)
            return hamiltonian_at(z, params)

        monkeypatch.setattr(floquet, "hamiltonian_at", counting)
        quasi_energies_propagator(_fig1_chain())
        assert len(calls) == 1

    # the benchmark chain; N=140, where the product is flushed; N=41, two quarter products;
    # N=40 at 45pi, flushed though no part of its exponentials is subnormal (min 8.7e-182)
    @pytest.mark.parametrize("n_sites, flushed, omega", [
        pytest.param(40, False, 0.2 * math.pi, id="40-False"),
        pytest.param(140, True, 0.2 * math.pi, id="140-True"),
        pytest.param(41, False, 0.2 * math.pi, id="41-False"),
        pytest.param(40, True, 45 * math.pi, id="40-45pi-True"),
    ])
    def test_product_bits_match_plain_loop(self, monkeypatch, n_sites, flushed, omega):
        import floquet_ssh.floquet as floquet

        p = _fig1_chain(n_sites=n_sites, omega=omega)
        steps = default_n_steps(p)
        got = one_period_propagator(p, steps)
        flushes = []
        monkeypatch.setattr(floquet, "_s6_product", lambda params, h, d_diags, n: [
            _plain_s6_product(params, h, d, params.drive_period / 4, n, flushes)
            for d in d_diags])
        want = one_period_propagator(p, steps)
        assert flushes == [flushed] * (1 + n_sites % 2)
        assert got.tobytes() == want.tobytes()

    def test_static_products_per_period_at_low_frequency(self, monkeypatch):
        import floquet_ssh.floquet as floquet
        from floquet_ssh.linalg import expm

        products = 0

        class Counting(np.ndarray):
            # counts products by either spelling, a @ b and np.matmul(a, b, out=c)
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                nonlocal products
                products += ufunc is np.matmul
                if out is not None:
                    kwargs["out"] = tuple(np.asarray(o) for o in out)
                return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

        monkeypatch.setattr(floquet, "expm", lambda m: expm(m).view(Counting))
        # the chain and drive of the propagator_sweep benchmark workload
        omega = 0.2 * math.pi
        p = ModelParams(n_sites=40, tunneling=1.0, lam=0.4, phi_dim=0.35,
                        gamma=0.2, impurity_site=2, kappa=0.05 / omega, omega=omega)
        quasi_energies_propagator(p)
        assert 0 < products <= 70

    def test_flushed_product_matches_unflushed_on_long_chain(self):
        # the far corners of the static exponentials underflow at this length,
        # so the propagator zeroes tiny parts; compare with a plain product
        from floquet_ssh.floquet import _S6_NODES, _S6_STAGES
        from floquet_ssh.linalg import expm

        omega = 0.2 * math.pi
        p = ModelParams(n_sites=140, tunneling=1.0, lam=0.4, phi_dim=0.35,
                        gamma=0.2, impurity_site=2, kappa=0.05 / omega, omega=omega)
        n_steps = 40
        dz = p.drive_period / n_steps
        stages = [expm(-1j * a * dz * build_static_hamiltonian(p)) for a in _S6_STAGES]
        assert min(np.abs(e[e != 0]).min() for e in stages) < 1e-150
        d = np.diag(drive_operator(p))
        s = np.concatenate(([0.0], ((np.arange(n_steps)[:, None] + _S6_NODES) * dz).ravel(),
                            [p.drive_period]))
        increments = np.diff(p.kappa * (1.0 - np.cos(p.omega * s)))
        plain = np.diag(np.exp(-1j * increments[0] * d))
        for k, delta in enumerate(increments[1:]):
            plain = np.exp(-1j * delta * d)[:, None] * (stages[k % len(stages)] @ plain)
        assert np.abs(one_period_propagator(p, n_steps) - plain).max() < 1e-13


def _scanned_n_steps(params):
    """Default step count from ||H(z)||_1 at all 16 midpoints; as text above the cap."""
    z_period = params.drive_period
    grid = (np.arange(16) + 0.5) * (z_period / 16)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.max([matrix_norm_1(hamiltonian_at(z, params)) for z in grid]))
    steps = 1.35 * norm * z_period
    if not steps <= MAX_PROPAGATOR_STEPS:
        return f"{steps:.3g}"
    return max(MIN_PROPAGATOR_STEPS, math.ceil(steps))


def _plain_s6_product(params, h_static, d_diag, z_end, n_steps, flushes):
    """The S6 product with a new array per stage, u = stage @ u and u *= row."""
    from floquet_ssh.floquet import _PHASE_CHUNK, _S6_NODES, _S6_STAGES, _flush_tiny
    from floquet_ssh.linalg import expm

    dz = z_end / n_steps
    half = [expm(-1j * a * dz * h_static) for a in _S6_STAGES[:3]]
    flush = any([_flush_tiny(e) for e in half])
    flushes.append(flush)
    stages = half + half[::-1]
    s = np.concatenate(([0.0], ((np.arange(n_steps)[:, None] + _S6_NODES) * dz).ravel(),
                        [z_end]))
    phase_args = -1j * np.diff(params.kappa * (1.0 - np.cos(params.omega * s)))
    u = np.diag(np.exp(phase_args[0] * d_diag))
    for start in range(0, len(stages) * n_steps, _PHASE_CHUNK):
        rows = np.exp(np.multiply.outer(phase_args[start + 1:start + 1 + _PHASE_CHUNK], d_diag))
        for k, row in enumerate(rows, start):
            u = stages[k % len(stages)] @ u
            u *= row[:, None]
            if flush:
                _flush_tiny(u)
    return u


# the odd chain of the N=7 tests: low frequency, broken spectrum
_N7_CHAIN = ModelParams(n_sites=7, tunneling=1.0, lam=0.3, phi_dim=2.0, gamma=0.15,
                        impurity_site=2, kappa=0.5, omega=1.5)


def _fig1_chain(**changes):
    """The fig1 chain (N=40, lambda=0.4, gamma=0.2, j=2) at omega=0.2pi, kappa*omega=0.05."""
    omega = changes.pop("omega", 0.2 * math.pi)
    fields = dict(n_sites=40, tunneling=1.0, lam=0.4, phi_dim=0.35, gamma=0.2,
                  impurity_site=2, kappa=0.05 / omega, omega=omega)
    return ModelParams(**{**fields, **changes})


def _full_period_product(params, n_steps):
    """Reference U: the plain S6 product over the whole period in ``n_steps`` steps."""
    return _plain_s6_product(params, build_static_hamiltonian(params),
                             np.diag(drive_operator(params)), z_end=params.drive_period,
                             n_steps=n_steps, flushes=[])


def _full_period(monkeypatch):
    """Make the propagator route solve the full-period reference with a complex eigensolve."""
    import floquet_ssh.floquet as floquet

    monkeypatch.setattr(floquet, "one_period_propagator", _full_period_product)
    monkeypatch.setattr(floquet, "_pt_reflection_applies", lambda params: False)


class TestQuarterPeriodPropagator:
    """Every chain: U from quarter periods; even chains solved in real form."""

    # even chains, then odd ones: N=7 and, at N=41, the drives of test_default_step_count_accuracy
    @pytest.mark.parametrize("params", [
        _fig1_chain(),
        _fig1_chain(phi_dim=0.3, omega=0.8 * math.pi),
        _fig1_chain(phi_dim=0.3, omega=3.0, kappa=2.0),
        _fig1_chain(n_sites=140),
        _N7_CHAIN,
        _fig1_chain(n_sites=41),
        _fig1_chain(n_sites=41, phi_dim=0.3, omega=0.8 * math.pi),
        _fig1_chain(n_sites=41, phi_dim=0.3, omega=3.0, kappa=2.0),
    ], ids=["0.2pi", "0.8pi", "strong", "N140", "N7", "N41-0.2pi", "N41-0.8pi", "N41-strong"])
    def test_matches_full_period_product(self, params):
        steps = 4 * -(-default_n_steps(params) // 4)
        quarter = one_period_propagator(params, steps)
        full = _full_period_product(params, steps)
        assert np.abs(quarter - full).max() <= 1e-12 * np.abs(full).max()

    def test_step_count_rounds_up_to_a_multiple_of_four(self):
        for n_sites in (6, 7):
            p = _fig1_chain(n_sites=n_sites)
            assert np.array_equal(one_period_propagator(p, 41), one_period_propagator(p, 44))

    @pytest.mark.parametrize("changes, reflected", [
        ({}, True),
        ({"n_sites": 41}, False),
    ])
    def test_which_chains_take_the_quarter_period(self, monkeypatch, changes, reflected):
        # every chain steps [0, Z_p/4] in n_steps/4 steps; an odd chain twice, for D and -D,
        # and solves U with a complex eigensolve
        import floquet_ssh.floquet as floquet

        calls, dtypes = [], []
        product, solve = floquet._s6_product, floquet.eig_dense
        monkeypatch.setattr(floquet, "_s6_product",
                            lambda params, h, d_diags, n: calls.append((d_diags, n))
                            or product(params, h, d_diags, n))
        monkeypatch.setattr(floquet, "eig_dense", lambda m: dtypes.append(m.dtype) or solve(m))
        p = _fig1_chain(**changes)
        fs = quasi_energies_propagator(p, 40)
        [(d_diags, n)] = calls
        assert n == 10 and len(d_diags) == (1 if reflected else 2)
        if not reflected:
            assert np.array_equal(d_diags[1], -d_diags[0])
        assert dtypes == [np.float64 if reflected else np.complex128]
        # same spectrum as the full period at the same step count
        _full_period(monkeypatch)
        assert matched_distance(fs, quasi_energies_propagator(p, 40)) < 1e-12

    @pytest.mark.parametrize("n_sites", [200, 201])
    def test_peak_memory_per_site_squared(self, n_sites):
        # the basis of PROPAGATOR_SITE_CAP: no more than 200 B per N^2, the Pade
        # temporaries of the last static exponential included
        p = _fig1_chain(n_sites=n_sites)
        quasi_energies_propagator(p, 20)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            quasi_energies_propagator(p, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * n_sites ** 2, f"{peak / n_sites ** 2:.1f} B per N^2"

    @pytest.mark.parametrize("params", [
        _fig1_chain(phi_dim=0.9),
        _fig1_chain(gamma=0.0),
        _fig1_chain(phi_dim=0.3, omega=45 * math.pi),
    ], ids=["0.2pi", "hermitian", "45pi"])
    def test_unbroken_spectrum_is_exactly_real(self, params):
        eps = quasi_energies_propagator(params).quasi_energies
        assert np.all(eps.imag == 0.0)
        assert not np.any(np.signbit(eps.imag))  # no -0.0 reaches the CSV

    def test_broken_pair_matches_complex_route(self, monkeypatch):
        p = _fig1_chain()
        fs = quasi_energies_propagator(p)
        assert np.count_nonzero(fs.quasi_energies.imag) == 2
        _full_period(monkeypatch)
        full = quasi_energies_propagator(p)
        assert matched_distance(fs, full) < 1e-12
        assert fs.max_imag == pytest.approx(full.max_imag, rel=1e-9)

    def test_zone_edge(self):
        # undriven, with omega/2 equal to a static energy: U has an
        # eigenvalue at -1, where the unrotated Cayley transform is singular
        from floquet_ssh.floquet import _cayley

        for n_sites in (6, 7):
            static = ModelParams(n_sites=n_sites, lam=0.4, phi_dim=0.7, gamma=0.1,
                                 impurity_site=2)
            energies = static_spectrum(static).quasi_energies
            assert np.abs(energies.imag).max() < 1e-12  # unbroken
            energies = energies.real
            omega = 2.0 * energies.max()
            p = ModelParams(n_sites=n_sites, lam=0.4, phi_dim=0.7, gamma=0.1, impurity_site=2,
                            kappa=0.0, omega=omega)
            assert _cayley(one_period_propagator(p, 512))[0] != 0.0  # rotated off the edge
            fs = quasi_energies_propagator(p, 512)
            if n_sites % 2 == 0:
                assert np.all(fs.quasi_energies.imag == 0.0)
            else:
                assert fs.max_imag < 1e-12
            # compare on the unit circle: a mode at the edge may fold to either side
            z_period = p.drive_period
            deviation = np.abs(np.exp(-1j * z_period * fs.quasi_energies[:, None])
                               - np.exp(-1j * z_period * energies[None, :])).min(axis=1)
            assert deviation.max() < 1e-10

    def test_ill_conditioned_half_period(self, monkeypatch):
        # cond(V) ~ 4e5 here; the reflection still agrees with the full period
        omega = 0.01 * math.pi
        p = ModelParams(n_sites=12, lam=0.4, phi_dim=0.35, gamma=0.5, impurity_site=2,
                        kappa=0.05 / omega, omega=omega)
        steps = 4 * -(-default_n_steps(p) // 4)
        fs = quasi_energies_propagator(p, steps)
        _full_period(monkeypatch)
        assert matched_distance(fs, quasi_energies_propagator(p, steps)) < 1e-11

    def test_very_high_frequency(self):
        # ||C||_1 is about 1e-7 here while C's rounding is about 1e-16
        p = _fig1_chain(phi_dim=0.3, omega=1e8)
        fs = quasi_energies_propagator(p)
        assert np.all(fs.quasi_energies.imag == 0.0)
        assert matched_distance(fs, static_spectrum(p)) < 1e-9

    def test_propagator_without_the_relation_raises(self):
        from floquet_ssh.errors import SolverError
        from floquet_ssh.floquet import _propagator_modes

        u = np.random.default_rng(3).normal(size=(6, 6)) * (1 + 0.5j)
        with pytest.raises(SolverError, match=r"lacks the relation P conj\(U\) P = U\^-1"):
            _propagator_modes(u, ModelParams(n_sites=6))

    def test_ill_conditioned_chain_without_the_relation_raises(self):
        # the chain of test_ill_conditioned_half_period at half its frequency: cond(V) = 1.8e10,
        # and max |Im R| is 284 times its bound; U's smallest |mu| is 3.9e9 times U's rounding,
        # so the rounding guard alone would not stop it
        omega = 0.005 * math.pi
        p = ModelParams(n_sites=12, lam=0.4, phi_dim=0.35, gamma=0.5, impurity_site=2,
                        kappa=0.05 / omega, omega=omega)
        assert _rounding_ratio(one_period_propagator(p, default_n_steps(p))) > 1e6
        with pytest.raises(SolverError, match="lacks the relation"):
            quasi_energies_propagator(p)


def _guard_chain(n_sites, gamma):
    """The fig1-lowfreq drive (omega=0.2pi, kappa*omega=0.05, Phi=0.35) with gain at site 1."""
    return _fig1_chain(n_sites=n_sites, gamma=gamma, impurity_site=1)


def _rounding_ratio(u):
    """min |mu| over the eigenvalues of U, in units of U's rounding eps * ||U||_1."""
    return np.abs(np.linalg.eigvals(u)).min() / (np.finfo(float).eps * matrix_norm_1(u))


class TestRoundingGuard:
    """One map from U to quasi-energies, with one rounding guard on both parities."""

    @pytest.mark.parametrize("n_sites, gamma", [(7, 20.0), (41, 3.0)])
    def test_eigenvalue_below_rounding_raises(self, n_sites, gamma):
        # the old absolute 1e-14 guard returned these, 34 and 5.9e-7 from the extended route
        with pytest.raises(PropagatorCollapseError, match=r"eps \* \|\|U\|\|_1"):
            quasi_energies_propagator(_guard_chain(n_sites, gamma))

    @pytest.mark.parametrize("gamma, ratio_floor", [(2.0, 1e3), (2.5, 1.0)])
    def test_strongly_broken_odd_chain_still_returns(self, gamma, ratio_floor):
        p = _guard_chain(41, gamma)
        assert _rounding_ratio(one_period_propagator(p, default_n_steps(p))) > ratio_floor
        fs = quasi_energies_propagator(p)
        assert matched_distance(fs, compute_spectrum(p, Method.EXTENDED)) < 1e-8

    def test_preset_like_chains_are_far_from_the_guard(self):
        worst = math.inf
        for n_sites in (7, 12, 40, 41):
            for gamma in (0.2, 1.0):
                for omega, kappa in [(0.2 * math.pi, None), (0.8 * math.pi, None),
                                     (4 * math.pi, None), (45 * math.pi, None), (3.0, 2.0)]:
                    p = _fig1_chain(n_sites=n_sites, gamma=gamma, omega=omega,
                                    **({} if kappa is None else {"kappa": kappa}))
                    u = one_period_propagator(p, default_n_steps(p))
                    worst = min(worst, _rounding_ratio(u))
        assert worst > 1e12

    @pytest.mark.parametrize("n_sites", [7, 41])
    @pytest.mark.parametrize("omega, kappa", [(0.2 * math.pi, None), (0.8 * math.pi, None),
                                              (45 * math.pi, None), (3.0, 2.0)],
                             ids=["0.2pi", "0.8pi", "45pi", "strong"])
    def test_odd_chain_matches_the_logarithm_of_eigvals(self, n_sites, omega, kappa):
        # the reference: (i/Z_p) log of np.linalg.eigvals(U), folded, with no branch rule
        p = _fig1_chain(n_sites=n_sites, omega=omega,
                        **({} if kappa is None else {"kappa": kappa}))
        steps = default_n_steps(p)
        eps = 1j * np.log(np.linalg.eigvals(one_period_propagator(p, steps))) / p.drive_period
        eps = fold_real(eps.real, p.omega) + 1j * eps.imag
        reference = FloquetSpectrum(eps, np.ones((n_sites, n_sites)) / n_sites,
                                    Method.PROPAGATOR, 0, p)
        assert matched_distance(quasi_energies_propagator(p, steps), reference) < 1e-12


class TestRouteFuzz:
    """The two driven routes as oracles of each other on random small chains."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_sites=st.integers(4, 10), log_omega=st.floats(math.log(0.5), math.log(60.0)),
           kappa_alone=st.booleans(), u=st.floats(0.0, 1.0), lam=st.floats(-0.9, 0.9),
           phi=st.floats(0.0, 2 * math.pi, exclude_max=True), gamma=st.floats(0.0, 0.6),
           data=st.data())
    def test_routes_agree(self, n_sites, log_omega, kappa_alone, u, lam, phi, gamma, data):
        # the extended route converges to NF_TOL = 1e-8 only, so the bound is 1e-7; zero-mode
        # counts are not compared, since they may differ where the routes agree
        omega = math.exp(log_omega)
        p = ModelParams(n_sites=n_sites, lam=lam, phi_dim=phi, gamma=gamma,
                        impurity_site=data.draw(st.integers(1, n_sites // 2)),
                        kappa=3.0 * u if kappa_alone else 0.5 * u / omega, omega=omega)
        try:
            extended = compute_spectrum(p, Method.EXTENDED)
            propagator = quasi_energies_propagator(p, 4 * default_n_steps(p))
        except SolverError:
            assume(False)
        assert classify_pt(extended).phase is classify_pt(propagator).phase
        assert matched_distance(extended, propagator) <= 1e-7


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
        fa = FloquetSpectrum(a[order_a], weights, Method.PROPAGATOR, 0, base)
        fb = FloquetSpectrum(b[order_b], weights, Method.PROPAGATOR, 0, base)
        assert spectral_distance(fa, fb) < 1e-11
        assert matched_distance(fa, fb) < 1e-11


class TestConvergeNf:
    @staticmethod
    def _scripted(monkeypatch, stable):
        """Stub solves that return their N_F; delta(N_F) is 0 where stable(N_F), else 1.

        The solves refuse a matrix above ``DIM_CAP`` rows, as the real one does.
        The returned dict maps each solved N_F to whether a delta has used it.
        """
        import floquet_ssh.floquet as floquet
        solved = {}

        def solve(params, n_floquet):
            assert n_floquet not in solved
            if params.n_sites * (2 * n_floquet + 1) > floquet.DIM_CAP:
                raise DimensionCapError(f"N_F={n_floquet} exceeds the cap")
            solved[n_floquet] = False
            return n_floquet

        def distance(a, b):
            assert b == a + 2
            solved[a] = solved[b] = True
            return 0.0 if stable(a) else 1.0

        monkeypatch.setattr(floquet, "quasi_energies_extended", solve)
        monkeypatch.setattr(floquet, "matched_distance", distance)
        return solved

    def test_unit_steps_solve_no_overshoot(self, monkeypatch):
        solved = self._scripted(monkeypatch, lambda nf: nf >= 7)
        assert converge_nf(ModelParams(n_sites=4), 1e-8) == 7
        assert sorted(solved) == list(range(2, 10))

    def test_unit_steps_stay_below_doubling(self, monkeypatch):
        solved = self._scripted(monkeypatch, lambda nf: nf >= 10)
        assert converge_nf(ModelParams(n_sites=4), 1e-8) == 10
        assert max(solved) == 12

    def test_returns_first_stable_nf(self, monkeypatch):
        solved = self._scripted(monkeypatch, lambda nf: nf == 3 or nf >= 8)
        assert converge_nf(ModelParams(n_sites=4), 1e-8) == 3
        assert sorted(solved) == [2, 3, 4, 5]

    def test_failure_path_probes_powers_of_two(self, monkeypatch):
        import floquet_ssh.floquet as floquet
        solved = self._scripted(monkeypatch, lambda nf: False)
        monkeypatch.setattr(floquet, "DIM_CAP", 4 * (2 * 66 + 1))  # N_F = 130 is over
        with pytest.raises(ConvergenceCapError,
                           match=r"at N_F=128 the matrix at N_F\+2 would have 1044 rows, "
                                 r"more than DIM_CAP = 532 .*set n_floquet \(--n-floquet\)"):
            converge_nf(ModelParams(n_sites=4), 1e-8)
        assert sorted(nf for nf in solved if nf > 18) == [32, 34, 64, 66]

    @pytest.mark.parametrize("n_sites", [2, 3, 7, 8, 15, 40, 58, 115, 200, 800, 856, 1540])
    def test_failing_search_solves_no_probe_without_its_partner(self, monkeypatch, n_sites):
        solved = self._scripted(monkeypatch, lambda nf: False)
        with pytest.raises(ConvergenceCapError,
                           match=rf"more than DIM_CAP = {DIM_CAP} .*\(--n-floquet\)"):
            converge_nf(ModelParams(n_sites=n_sites), 1e-8)
        assert [nf for nf, paired in solved.items() if not paired] == []

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

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8, math.inf])
    def test_rejects_nan_and_nonpositive_tol(self, tol):
        p = ModelParams(n_sites=4, lam=0.4, kappa=0.1, omega=3.0)
        with pytest.raises(ParameterError):
            converge_nf(p, tol)

    @pytest.mark.parametrize("omega, tol, solved", [
        (1e8, 1e-8, []),         # delta(2) near 1e-7: fails before any solve
        (1e8, 1e-6, [2, 4]),     # within reach: converges at the first probe
        (45 * math.pi, 1e-14, []),
    ])
    def test_tolerance_below_rounding_fails_fast(self, monkeypatch, omega, tol, solved):
        import floquet_ssh.floquet as floquet

        p = ModelParams(n_sites=8, lam=0.4, phi_dim=0.3, gamma=0.2, impurity_site=2,
                        kappa=0.05 / omega, omega=omega)
        calls = []
        original = floquet.quasi_energies_extended

        def counting(params, n_floquet):
            calls.append(n_floquet)
            return original(params, n_floquet)

        monkeypatch.setattr(floquet, "quasi_energies_extended", counting)
        if solved:
            assert converge_nf(p, tol) == 2
        else:
            with pytest.raises(ConvergenceCapError, match="N_F search cannot reach tol"):
                converge_nf(p, tol)
        assert calls == solved

    def test_cap(self, monkeypatch):
        import floquet_ssh.floquet as floquet
        monkeypatch.setattr(floquet, "DIM_CAP", 8 * (2 * 10 + 1))  # N_F = 10 is the last to fit
        p = ModelParams(n_sites=8, lam=0.4, kappa=3.0, omega=0.05)
        with pytest.raises(ConvergenceCapError, match=r"at N_F=9 .*more than DIM_CAP = 168"):
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

    def test_every_caller_converges_to_nf_tol(self, monkeypatch):
        # the extended route without n_floquet has one tolerance, NF_TOL
        import floquet_ssh.floquet as floquet
        p = ModelParams(n_sites=6, lam=0.4, phi_dim=0.3, gamma=0.1, impurity_site=2,
                        kappa=0.3, omega=2 * math.pi)
        tols = []
        original = floquet.converge_nf

        def spy(params, tol, spectra=None):
            tols.append(tol)
            return original(params, tol, spectra=spectra)

        monkeypatch.setattr(floquet, "converge_nf", spy)
        compute_spectrum(p, Method.EXTENDED)
        run_sweep(SweepSpec(base=p, axes=(("phi_dim", (0.1, 0.2)),)))
        gamma_pt_threshold(p, gamma_max=0.2, tol_gamma=0.05, method=Method.EXTENDED)
        assert tols == [NF_TOL] * 3
