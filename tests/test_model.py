import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from floquet_ssh import (
    ModelParams,
    ParameterError,
    build_static_hamiltonian,
    drive_operator,
    drive_value,
    hamiltonian_at,
)
from floquet_ssh.model import hopping_amplitudes


def test_two_site_uniform_chain():
    p = ModelParams(n_sites=2, tunneling=1.0, lam=0.0, gamma=0.0)
    h = build_static_hamiltonian(p)
    assert_allclose(h, [[0, -1], [-1, 0]])
    assert_allclose(sorted(np.linalg.eigvals(h).real), [-1.0, 1.0], atol=1e-14)


def test_two_site_dimerized_hopping():
    # cos(pi*1 + 0) = -1, so the single bond is -(1 - 0.4) = -0.6
    p = ModelParams(n_sites=2, tunneling=1.0, lam=0.4, phi_dim=0.0, gamma=0.0)
    h = build_static_hamiltonian(p)
    assert_allclose(h[0, 1], -0.6)
    assert_allclose(sorted(np.linalg.eigvals(h).real), [-0.6, 0.6], atol=1e-14)


def test_impurities_on_diagonal():
    p = ModelParams(n_sites=4, gamma=0.2, impurity_site=1)
    h = build_static_hamiltonian(p)
    assert h[0, 0] == 0.2j
    assert h[3, 3] == -0.2j
    assert h[1, 1] == 0 and h[2, 2] == 0


def test_cos_identity_matches_direct_evaluation():
    p = ModelParams(n_sites=12, tunneling=0.7, lam=0.3, phi_dim=1.234, gamma=0.0)
    hops = hopping_amplitudes(p)
    direct = [-0.7 * (1 + 0.3 * math.cos(math.pi * n + 1.234)) for n in range(1, 12)]
    assert_allclose(hops, direct, atol=1e-12)


def test_rejects_single_site_chain():
    with pytest.raises(ParameterError):
        build_static_hamiltonian(ModelParams(n_sites=1))


def test_rejects_degenerate_impurity_collision():
    # N=5, j=3 puts gain and loss on the same site
    with pytest.raises(ParameterError):
        build_static_hamiltonian(ModelParams(n_sites=5, gamma=0.1, impurity_site=3))
    # gamma=0 makes the same placement legal
    build_static_hamiltonian(ModelParams(n_sites=5, gamma=0.0, impurity_site=3))


def test_impurity_site_range_validation():
    with pytest.raises(ParameterError):
        ModelParams(n_sites=10, impurity_site=0)
    with pytest.raises(ParameterError):
        ModelParams(n_sites=10, impurity_site=6)  # j > N-j+1
    ModelParams(n_sites=10, impurity_site=5)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ModelParams(n_sites=4, gamma=-0.1)
    with pytest.raises(ParameterError):
        ModelParams(n_sites=4, kappa=-1.0)
    with pytest.raises(ParameterError):
        ModelParams(n_sites=4, omega=0.0)
    with pytest.raises(ParameterError):
        ModelParams(n_sites=4, tunneling=float("nan"))


def test_subnormal_omega_rejected():
    # 2*pi/omega overflows to inf: no finite drive period
    with pytest.raises(ParameterError, match="finite drive period"):
        ModelParams(n_sites=6, lam=0.4, kappa=0.1, omega=1e-320)
    assert math.isfinite(ModelParams(n_sites=6, omega=1e-300).drive_period)


def test_n0_rules():
    assert_allclose(np.diag(drive_operator(ModelParams(n_sites=4))), [-1, 0, 1, 2])
    assert_allclose(np.diag(drive_operator(ModelParams(n_sites=3))), [-1, 0, 1])


@pytest.mark.parametrize("value", [6, np.int64(6), 6.0, np.float64(6.0)])
def test_integer_fields_accept_integral_values(value):
    p = ModelParams(n_sites=value, impurity_site=value // 3)
    assert (p.n_sites, p.impurity_site) == (6, 2)
    assert type(p.n_sites) is int and type(p.impurity_site) is int


@pytest.mark.parametrize("field", ["n_sites", "impurity_site"])
@pytest.mark.parametrize("value", [2.5, True, math.nan, math.inf, "2"])
def test_integer_fields_reject_fractions_and_booleans(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be an integer"):
        ModelParams(**{"n_sites": 6, field: value})


def test_drive_value():
    p = ModelParams(n_sites=4, kappa=0.1, omega=2 * math.pi)
    assert drive_value(0.0, p) == 0.0
    # omega*z = pi/2 -> amplitude kappa*omega
    assert_allclose(drive_value(0.25, p), 0.1 * 2 * math.pi, rtol=1e-14)
    p0 = ModelParams(n_sites=4, kappa=0.0, omega=3.0)
    assert drive_value(1.7, p0) == 0.0


def test_drive_periodicity():
    p = ModelParams(n_sites=4, kappa=0.7, omega=1.9)
    period = 2 * math.pi / 1.9
    for z in np.linspace(0, 10, 37):
        assert abs(drive_value(z, p) - drive_value(z + period, p)) < 1e-12


def test_drive_has_no_start_phase():
    # another start time only conjugates U(Z_p), a Floquet gauge
    with pytest.raises(TypeError):
        ModelParams(n_sites=4, phase0=0.3)


def test_hamiltonian_at_reduces_to_static():
    p = ModelParams(n_sites=6, lam=0.4, gamma=0.1, impurity_site=2,
                    kappa=0.0, omega=2.0)
    assert_allclose(hamiltonian_at(0.37, p), build_static_hamiltonian(p))
    # sin(omega*z) = 0 at z = pi/omega
    pd = ModelParams(n_sites=6, lam=0.4, gamma=0.1, impurity_site=2,
                     kappa=0.5, omega=2.0)
    assert_allclose(hamiltonian_at(math.pi / 2.0, pd), build_static_hamiltonian(pd),
                    atol=1e-15)


def test_hamiltonian_at_adds_the_drive_on_the_diagonal():
    p = ModelParams(n_sites=6, lam=0.4, phi_dim=0.9, gamma=0.1, impurity_site=2,
                    kappa=0.7, omega=1.9)
    for z in np.linspace(-2.0, 5.0, 12):
        assert np.array_equal(np.diag(hamiltonian_at(z, p) - build_static_hamiltonian(p)),
                              drive_value(float(z), p) * np.diag(drive_operator(p)))


def test_hamiltonian_at_takes_one_z():
    with pytest.raises(TypeError):
        hamiltonian_at(np.zeros(6), ModelParams(n_sites=6, kappa=0.7))


def test_hamiltonian_at_diagonal_arithmetic():
    p = ModelParams(n_sites=2, tunneling=0.0, kappa=0.1, omega=1.0)
    h = hamiltonian_at(math.pi / 2, p)
    assert_allclose(np.diag(h), [0.0, 0.1], atol=1e-15)


def test_hermiticity_split():
    hermitian = ModelParams(n_sites=8, lam=0.3, phi_dim=0.9, gamma=0.0,
                            kappa=0.4, omega=1.3)
    for z in (0.0, 0.3, 1.1):
        h = hamiltonian_at(z, hermitian)
        assert np.abs(h - h.conj().T).max() < 1e-15
    lossy = ModelParams(n_sites=8, lam=0.3, phi_dim=0.9, gamma=0.25,
                        impurity_site=3, kappa=0.4, omega=1.3)
    for z in (0.0, 0.3, 1.1):
        anti = hamiltonian_at(z, lossy) - hamiltonian_at(z, lossy).conj().T
        nonzero = np.argwhere(np.abs(anti) > 1e-15)
        assert len(nonzero) == 2
        assert_allclose(anti[2, 2], 0.5j, atol=1e-15)
        assert_allclose(anti[5, 5], -0.5j, atol=1e-15)


def test_static_parity_relation_even_n():
    # P H P equals entrywise conjugate of H for even N
    p = ModelParams(n_sites=10, lam=0.4, phi_dim=0.7, gamma=0.3, impurity_site=2)
    h = build_static_hamiltonian(p)
    rev = np.eye(10)[::-1]
    assert np.abs(rev @ h @ rev - h.conj()).max() == 0.0


def test_gradient_antisymmetry():
    rev = np.eye(8)[::-1]
    d = drive_operator(ModelParams(n_sites=8))  # n0 = N/2: P D P = -D + I
    assert np.abs(rev @ d @ rev + d - np.eye(8)).max() == 0.0
