"""Dense complex non-symmetric linear algebra with explicit contracts.

``eig_dense`` wraps the LAPACK general eigensolver but adds the contracts
the rest of the package relies on: a deterministic eigenvalue ordering
(ascending real part, ties by ascending imaginary part), unit-norm right
eigenvectors, and an enforced residual bound.  ``expm`` is a
scaling-and-squaring Pade exponential that accepts stacked matrices
(shape (..., n, n)), which is what makes the step-product propagator in
:mod:`floquet_ssh.floquet` cheap.  ``logm_eig`` extracts principal
eigenvalue logarithms with a fixed branch, Im(log) in (-pi, pi] and -pi
mapped to +pi, so propagator quasi-energies are deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EigenConvergenceError, PropagatorCollapseError, SolverError

#: Relative residual bound enforced by eig_dense, scaled by the matrix 1-norm.
TOL_EIG = 1e-10

# Pade numerator coefficients and backward-error norm bounds for the
# scaling-and-squaring exponential (double precision).
_PADE_COEFFS = {
    3: np.array([120.0, 60.0, 12.0, 1.0]),
    5: np.array([30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0]),
    7: np.array([17297280.0, 8648640.0, 1995840.0, 277200.0,
                 25200.0, 1512.0, 56.0, 1.0]),
    9: np.array([17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                 30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0]),
    13: np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                  1187353796428800.0, 129060195264000.0, 10559470521600.0,
                  670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                  960960.0, 16380.0, 182.0, 1.0]),
}
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 5.371920351148152,
}
_MAX_SQUARINGS = 100


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a dense matrix.

    ``eigenvalues`` are sorted ascending by (Re, Im); column k of
    ``eigenvectors`` is the unit-norm right eigenvector of
    ``eigenvalues[k]``; ``max_residual`` is max_k ||M v_k - w_k v_k||_2.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float


def _check_square(m: np.ndarray, allow_stack: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not allow_stack and m.ndim != 2:
        raise ValueError(f"expected a single 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def matrix_norm_1(m: np.ndarray) -> np.ndarray:
    """Matrix 1-norm (max column absolute sum), batched over leading dims."""
    return np.abs(m).sum(axis=-2).max(axis=-1)


def eig_dense(m: np.ndarray) -> Spectrum:
    """Full eigendecomposition with the package ordering and residual bound.

    Raises EigenConvergenceError if LAPACK fails to converge or if the
    residual exceeds TOL_EIG * ||m||_1 (never returns silent garbage).
    """
    m = _check_square(m)
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigensolver failed to converge for dim={m.shape[0]}, "
            f"norm1={matrix_norm_1(m):.3e}: {exc}"
        ) from exc
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    residual = float(np.linalg.norm(m @ v - v * w, axis=0).max())
    scale = float(matrix_norm_1(m))
    if residual > TOL_EIG * scale:
        raise EigenConvergenceError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{TOL_EIG:g} * ||m||_1 = {TOL_EIG * scale:.3e} (dim={m.shape[0]})"
        )
    return Spectrum(eigenvalues=w, eigenvectors=v, max_residual=residual)


def _pade_uv(a: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    b = _PADE_COEFFS[degree]
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape)
    a2 = a @ a
    if degree == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
        return u, v
    powers = [eye, a2]
    while 2 * len(powers) < degree + 1:
        powers.append(powers[-1] @ a2)
    u_poly = sum(b[2 * k + 1] * powers[k] for k in range((degree + 1) // 2))
    v = sum(b[2 * k] * powers[k] for k in range(degree // 2 + 1))
    return a @ u_poly, v


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with Pade kernels.

    Accepts stacked input of shape (..., n, n) and exponentiates each
    matrix.  The scaling/degree choice follows the usual double-precision
    norm thresholds, applied to the largest 1-norm in the stack.  Raises
    SolverError on overflow (non-finite result) or an absurd norm.
    """
    a = _check_square(m, allow_stack=True)
    norms = np.atleast_1d(matrix_norm_1(a))
    mu = float(norms.max())
    squarings = 0
    if mu <= _PADE_THETA[3]:
        degree = 3
    elif mu <= _PADE_THETA[5]:
        degree = 5
    elif mu <= _PADE_THETA[7]:
        degree = 7
    elif mu <= _PADE_THETA[9]:
        degree = 9
    else:
        degree = 13
        if mu > _PADE_THETA[13]:
            squarings = int(np.ceil(np.log2(mu / _PADE_THETA[13])))
        if squarings > _MAX_SQUARINGS:
            raise SolverError(
                f"matrix norm {mu:.3e} too large for expm "
                f"(needs {squarings} squarings)"
            )
        if squarings:
            a = a / (2.0 ** squarings)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _pade_uv(a, degree)
        result = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise SolverError(f"overflow in matrix exponential (norm1={mu:.3e})")
    return result


def principal_log_eigenvalues(mu: np.ndarray) -> np.ndarray:
    """log of eigenvalues with branch Im(log) in (-pi, pi], -pi -> +pi."""
    mu = np.asarray(mu, dtype=np.complex128)
    if np.any(np.abs(mu) < 1e-14):
        raise PropagatorCollapseError(
            f"eigenvalue magnitude below 1e-14 (min |mu| = {np.abs(mu).min():.3e})"
        )
    angles = np.angle(mu)
    angles = np.where(angles == -np.pi, np.pi, angles)
    return np.log(np.abs(mu)) + 1j * angles


def logm_eig(u: np.ndarray) -> np.ndarray:
    """Principal logarithms of the eigenvalues of u, ordered as eig_dense.

    Intended for one-period propagators.  Warns if the eigenvector matrix
    is badly conditioned (u close to defective); fails on eigenvalues at
    numerical zero, which signal propagator collapse.
    """
    spectrum = eig_dense(u)
    cond = np.linalg.cond(spectrum.eigenvectors)
    if cond > 1e12:
        warnings.warn(
            f"eigenvector matrix condition {cond:.3e}; matrix is close to "
            "defective and eigenvalue logs may be inaccurate",
            RuntimeWarning,
            stacklevel=2,
        )
    return principal_log_eigenvalues(spectrum.eigenvalues)
