"""Dense non-symmetric linear algebra with explicit contracts.

``eig_dense`` wraps the LAPACK general eigensolver (complex, or real for
a real matrix) but adds the contracts the rest of the package relies
on: a deterministic eigenvalue ordering (ascending real part, ties by
ascending imaginary part), unit-norm right eigenvectors, and an enforced
residual bound.  ``expm`` is a single-matrix scaling-and-squaring
exponential with one Pade degree (13) at every norm; the split-step
solver in :mod:`floquet_ssh.floquet` calls it once for each distinct
static stage of its splitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigenConvergenceError, SolverError

#: Relative residual bound enforced by eig_dense, scaled by the matrix 1-norm.
TOL_EIG = 1e-10

# Degree-13 Pade numerator coefficients and the 1-norm bound theta_13 up to
# which that approximant meets double-precision backward error (Higham 2005).
_PADE13 = np.array([64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                    1187353796428800.0, 129060195264000.0, 10559470521600.0,
                    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                    960960.0, 16380.0, 182.0, 1.0])
_THETA13 = 5.371920351148152
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


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a single square 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def matrix_norm_1(m: np.ndarray) -> float:
    """Matrix 1-norm (max column absolute sum) of one 2-D matrix."""
    return float(np.abs(m).sum(axis=0).max())


def eig_dense(m: np.ndarray) -> Spectrum:
    """Full eigendecomposition with the package ordering and residual bound.

    A real matrix stays real: LAPACK's real solver (dgeev) runs on it, and
    its real eigenvalues come out with imaginary part 0.0 exactly.  The
    eigenvalues are returned complex; the eigenvectors are real when m and
    its spectrum are.  Raises EigenConvergenceError if LAPACK fails to
    converge, if ||m||_1 overflows, or if the residual exceeds
    TOL_EIG * ||m||_1 (never returns silent garbage).
    """
    m = _check_square(m)
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(
            f"eigensolver failed to converge for dim={m.shape[0]}, "
            f"norm1={matrix_norm_1(m):.3e}: {exc}"
        ) from exc
    w = w.astype(np.complex128)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the bound below
        residual = float(np.linalg.norm(m @ v - v * w, axis=0).max())
        scale = matrix_norm_1(m)
    if not residual <= TOL_EIG * scale < np.inf:
        raise EigenConvergenceError(
            f"eigendecomposition residual {residual:.3e} is not within "
            f"{TOL_EIG:g} * ||m||_1 = {TOL_EIG * scale:.3e} (dim={m.shape[0]})"
        )
    return Spectrum(eigenvalues=w, eigenvectors=v, max_residual=residual)


def _pade_uv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    return u, v


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of one square matrix by degree-13 Pade scaling-and-squaring.

    The matrix is halved s times, s = ceil(log2(||m||_1 / theta_13)) when
    ||m||_1 exceeds theta_13 and 0 otherwise; the approximant is then
    squared s times.  Raises ValueError for non-square or stacked input,
    and SolverError on overflow (non-finite result) or an absurd norm.
    """
    a = _check_square(m)
    with np.errstate(over="ignore"):  # an overflowing norm fails the bound below
        mu = matrix_norm_1(a)
    if not mu <= _THETA13 * 2.0 ** _MAX_SQUARINGS:
        raise SolverError(
            f"matrix norm {mu:.3e} too large for expm (over {_MAX_SQUARINGS} squarings)"
        )
    squarings = int(np.ceil(np.log2(mu / _THETA13))) if mu > _THETA13 else 0
    a = a / (2.0 ** squarings)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _pade_uv(a)
        result = np.linalg.solve(v - u, v + u)
        for _ in range(squarings):
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise SolverError(f"overflow in matrix exponential (norm1={mu:.3e})")
    return result
