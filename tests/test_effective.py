import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from floquet_ssh import (
    AliasingError,
    ModelParams,
    ParameterError,
    bessel_j0,
    build_static_hamiltonian,
    compare_floquet_effective,
    effective_hamiltonian,
    effective_tunneling,
    eig_dense,
)


def j0_series_oracle(x: float) -> float:
    """Brute-force power series summed to machine convergence."""
    total = 0.0
    term = 1.0
    k = 0
    while True:
        total += term
        k += 1
        term *= -(x * x / 4.0) / (k * k)
        if abs(term) < 1e-20:
            return total


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero(self):
        assert abs(bessel_j0(2.405)) < 5e-4

    def test_reference_value(self):
        # frozen from the power-series oracle
        assert_allclose(j0_series_oracle(1.0), 0.7651976865579666, atol=1e-15)
        assert_allclose(bessel_j0(1.0), 0.765197686557967, atol=1e-12)

    def test_series_oracle_grid(self):
        xs = np.linspace(0.0, 10.0, 1000)
        worst = max(abs(bessel_j0(x) - j0_series_oracle(x)) for x in xs)
        assert worst < 1e-12

    def test_asymptotic_regime_against_scipy(self):
        # one uniform bound from 0 to 1e6
        xs = np.concatenate([np.linspace(0.0, 50, 501),
                             np.linspace(50, 2000, 196),
                             [1e4, 1e5, 1e6]])
        worst = max(abs(bessel_j0(x) - scipy.special.j0(x)) for x in xs)
        assert worst < 1e-12

    def test_even_function(self):
        for x in (0.5, 3.3, 42.0):
            assert bessel_j0(-x) == bessel_j0(x)

    def test_domain_guard(self):
        with pytest.raises(ParameterError):
            bessel_j0(2e6)
        with pytest.raises(ParameterError):
            bessel_j0(float("nan"))

    def test_jacobi_anger_quadrature(self):
        # (1/2pi) * integral of exp(i*kappa*sin x) over a period equals J0(kappa)
        nodes = 10_000
        x = 2 * np.pi * np.arange(nodes) / nodes
        for kappa in (0.5, 1.5, 3.0):
            quad = np.exp(1j * kappa * np.sin(x)).mean()
            assert abs(quad.imag) < 1e-12
            assert abs(quad.real - bessel_j0(kappa)) < 1e-9


class TestEffectiveHamiltonian:
    def test_kappa_zero_identical_to_static(self):
        p = ModelParams(n_sites=10, lam=0.4, phi_dim=0.7, gamma=0.2,
                        impurity_site=2, kappa=0.0)
        assert_allclose(effective_hamiltonian(p), build_static_hamiltonian(p))

    def test_dynamical_localization(self):
        p = ModelParams(n_sites=10, tunneling=1.0, lam=0.4, phi_dim=0.7,
                        gamma=0.2, impurity_site=2, kappa=2.405, omega=20.0)
        h = effective_hamiltonian(p)
        hop = h - np.diag(np.diag(h))
        assert np.abs(hop).max() < 5e-4 * 1.0 * 1.4

    def test_two_site_value_from_oracle(self):
        p = ModelParams(n_sites=2, tunneling=1.0, lam=0.0, kappa=1.0)
        h = effective_hamiltonian(p)
        assert_allclose(h[0, 1], -j0_series_oracle(1.0), atol=1e-12)

    def test_effective_tunneling_bounded(self):
        for kappa in np.linspace(0, 30, 61):
            p = ModelParams(n_sites=4, tunneling=1.3, kappa=float(kappa), omega=5.0)
            assert abs(effective_tunneling(p)) <= 1.3 + 1e-12

    def test_chiral_pairing_for_even_n(self):
        p = ModelParams(n_sites=12, lam=0.4, phi_dim=0.9, gamma=0.0, kappa=0.6,
                        omega=8.0)
        w = eig_dense(effective_hamiltonian(p)).eigenvalues
        ascending = np.sort(w.real)
        assert np.abs(ascending + ascending[::-1]).max() < 1e-10
        assert np.abs(w.imag).max() < 1e-12


class TestCompareFloquetEffective:
    def test_kappa_zero_coincides(self):
        p = ModelParams(n_sites=6, lam=0.4, phi_dim=0.5, gamma=0.1,
                        impurity_site=2, kappa=0.0, omega=8.0)
        comparison = compare_floquet_effective(p, 2)
        assert comparison.max_quasi_energy_deviation < 1e-9
        assert comparison.t_eff == 1.0

    def test_aliasing_guard(self):
        # omega/2 = 0.5 is far below the spectral reach ~2
        p = ModelParams(n_sites=6, lam=0.4, kappa=0.1, omega=1.0)
        with pytest.raises(AliasingError):
            compare_floquet_effective(p, 2)

    def test_deviation_shrinks_with_frequency(self):
        # fixed drive amplitude kappa*omega = 0.5, omega doubled
        devs = []
        for omega in (8 * math.pi, 16 * math.pi):
            p = ModelParams(n_sites=8, lam=0.4, phi_dim=0.9, gamma=0.1,
                            impurity_site=2, kappa=0.5 / omega, omega=omega)
            devs.append(compare_floquet_effective(p, 3).max_quasi_energy_deviation)
        assert devs[1] < devs[0]
