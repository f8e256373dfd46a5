import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from floquet_ssh import (
    EigenConvergenceError,
    PropagatorCollapseError,
    SolverError,
    eig_dense,
    expm,
)
from floquet_ssh.floquet import principal_log_eigenvalues
from floquet_ssh.linalg import TOL_EIG, matrix_norm_1


def _random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def _cubic_roots_bisect(coeffs, brackets):
    """Independent scalar oracle: find real roots of a cubic by bisection."""

    def poly(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    roots = []
    for lo, hi in brackets:
        flo = poly(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = poly(mid)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    return roots


class TestEigDense:
    def test_two_site(self):
        spectrum = eig_dense(np.array([[0, -1], [-1, 0]], dtype=complex))
        assert_allclose(spectrum.eigenvalues, [-1, 1], atol=1e-14)

    def test_imaginary_pair_sorted_by_imag(self):
        spectrum = eig_dense(np.diag([1j, -1j]))
        assert_allclose(spectrum.eigenvalues, [-1j, 1j], atol=1e-15)

    def test_companion_matrix_against_root_oracle(self):
        # characteristic polynomial x^3 - 6x^2 + 11x - 6
        roots = _cubic_roots_bisect([1.0, -6.0, 11.0, -6.0],
                                    [(0.5, 1.5), (1.5, 2.5), (2.5, 3.5)])
        assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)
        m = np.array([[0, 1, 0], [0, 0, 1], [6, -11, 6]], dtype=complex)
        assert_allclose(eig_dense(m).eigenvalues, roots, atol=1e-10)

    def test_real_matrix_stays_real(self):
        # dgeev: real eigenvalues come out with imaginary part 0.0 exactly
        m = np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.3, 0.5]])
        spectrum = eig_dense(m)
        assert spectrum.eigenvalues.dtype == np.complex128
        assert np.all(spectrum.eigenvalues.imag == 0.0)
        assert spectrum.eigenvectors.dtype == np.float64
        assert_allclose(spectrum.eigenvalues.real, np.sort(np.linalg.eigvals(m).real),
                        atol=1e-14)
        rotation = eig_dense(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert_allclose(rotation.eigenvalues, [-1j, 1j], atol=1e-15)
        assert rotation.eigenvalues[0] == np.conj(rotation.eigenvalues[1])

    def test_residual_bound_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 65))
            m = _random_complex(rng, n)
            spectrum = eig_dense(m)
            assert spectrum.max_residual <= TOL_EIG * matrix_norm_1(m)
            assert spectrum.eigenvalues.shape == (n,)
            norms = np.linalg.norm(spectrum.eigenvectors, axis=0)
            assert_allclose(norms, 1.0, atol=1e-12)

    def test_ordering_convention(self):
        rng = np.random.default_rng(11)
        m = _random_complex(rng, 24)
        w = eig_dense(m).eigenvalues
        key = sorted(zip(w.real, w.imag))
        assert_allclose([k[0] for k in key], w.real)
        assert_allclose([k[1] for k in key], w.imag)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(2, 17))
            m = _random_complex(rng, n)
            q, _ = np.linalg.qr(_random_complex(rng, n))
            sim = q @ m @ q.conj().T
            w1 = eig_dense(m).eigenvalues
            w2 = eig_dense(sim).eigenvalues
            assert np.abs(w1 - w2).max() < 1e-8

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eig_dense(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eig_dense(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestExpm:
    def test_zero_matrix(self):
        assert_allclose(expm(np.zeros((3, 3), dtype=complex)), np.eye(3))

    def test_diagonal(self):
        a, b = 0.3 - 1.2j, -2.0 + 0.5j
        assert_allclose(expm(np.diag([a, b])), np.diag([np.exp(a), np.exp(b)]),
                        rtol=1e-14)

    def test_rotation_closed_form(self):
        theta = 0.7
        m = np.array([[0, theta], [-theta, 0]], dtype=complex)
        expected = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        assert_allclose(expm(m), expected, atol=1e-15)

    @pytest.mark.parametrize("scale", [0.01, 0.2, 0.3, 0.5, 1.0, 4.0, 19.9])
    def test_against_scipy_across_norm_regimes(self, scale):
        rng = np.random.default_rng(int(scale * 100))
        m = _random_complex(rng, 12)
        m *= scale / matrix_norm_1(m)
        ours = expm(m)
        reference = scipy.linalg.expm(m)
        assert np.abs(ours - reference).max() <= 1e-12 * matrix_norm_1(reference)

    def test_group_property(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            m = _random_complex(rng, 10)
            m *= 5.0 / matrix_norm_1(m)
            product = expm(m) @ expm(-m)
            assert np.abs(product - np.eye(10)).max() < 1e-10

    def test_stacked_input_raises(self):
        stack = 0.05 * np.ones((6, 5, 5), dtype=complex)
        with pytest.raises(ValueError):
            expm(stack)

    def test_overflow_raises(self):
        with pytest.raises(SolverError):
            expm(np.diag([2000.0 + 0j, 0.0]))


class TestLogmEig:
    """Eigenvalue logarithms: eig_dense followed by floquet.principal_log_eigenvalues."""

    def test_identity(self):
        assert_allclose(principal_log_eigenvalues(np.ones(3, dtype=complex)), np.zeros(3),
                        atol=1e-15)

    def test_phase(self):
        logs = principal_log_eigenvalues(np.array([np.exp(1j * np.pi / 3)]))
        assert_allclose(logs, [1j * np.pi / 3], atol=1e-15)

    def test_branch_edge_maps_to_plus_pi(self):
        mu = np.array([-1.0 + 0j, complex(-1.0, -0.0)])  # the second has np.angle -pi
        assert_array_equal(np.angle(mu), [np.pi, -np.pi])
        assert_array_equal(principal_log_eigenvalues(mu), [1j * np.pi, 1j * np.pi])

    def test_collapse_raises(self):
        with pytest.raises(PropagatorCollapseError):
            principal_log_eigenvalues(np.array([0.0 + 0j, 1.0]))

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((8, 8))
        h = 0.2 * (h + h.T)  # modest Hermitian generator keeps logs in branch
        u = expm(1j * h)
        logs = principal_log_eigenvalues(eig_dense(u).eigenvalues)
        assert np.abs(logs.real).max() < 1e-10
        assert np.abs(np.sort(logs.imag) - np.sort(np.linalg.eigvalsh(h))).max() < 1e-8
