"""Quasi-energy spectra of the driven chain by two independent routes.

Route one builds the truncated extended-zone (Fourier-block) matrix:
blocks indexed by harmonics m, m' in [-N_F, N_F], diagonal blocks
H_static + m*omega*I, first off-diagonal blocks the Fourier components
of the drive f(z) = kappa*omega*sin(omega*z + phase0) times the gradient
operator D.  Route two builds the one-period propagator U(Z_p) in the
lab frame by a fourth-order (Yoshida triple-jump) composition of Strang
split steps, with two static exponentials per period and exact diagonal
drive phases, and takes eigenvalue logarithms.  Both
fold quasi-energy real parts into the first zone (-omega/2, omega/2] and
select/weight the N physical modes; their agreement is the strongest
correctness check in the package.

``compute_spectrum`` dispatches between these routes and the undriven
(static and Bessel-rescaled effective) chains.  Every route packages its
result the same way: modes sorted by (Re, Im), site weights normalized
to 1.  Spectra are compared by one distance, the largest pair distance
under the optimal matching (``matched_distance``, exported also as
``spectral_distance``).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .effective import effective_hamiltonian
from .errors import ConvergenceCapError, DimensionCapError, ParameterError, SolverError
from .linalg import Spectrum, eig_dense, expm, matrix_norm_1, principal_log_eigenvalues
from .model import ModelParams, build_static_hamiltonian, drive_operator, hamiltonian_at

#: Hard cap on the extended matrix dimension N*(2*N_F+1).  A solve peaks at
#: about 68 B per dim^2 (+65 MiB at dim 1000, +141 MiB at 1480), so one at the
#: cap stays near 3.8 GiB, inside a 7 GB machine.
DIM_CAP = 7700
#: Cap for the N_F convergence search.
NF_CAP = 512
#: Cap for propagator step doubling.
MAX_PROPAGATOR_STEPS = 1 << 21
#: Fewest propagator steps per period a caller may request.
MIN_PROPAGATOR_STEPS = 100
#: Eigenvector overlap above which two extended-matrix modes count as
#: folded replicas of each other.
REPLICA_OVERLAP = 0.99
#: m=0 weight gap below which two candidates competing for a slot are
#: flagged as an ambiguous selection.
SELECTION_GAP = 1e-6
#: Triple-jump weights of the fourth-order propagator composition.
_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_YOSHIDA_W0 = 1.0 - 2.0 * _YOSHIDA_W1


class Method(enum.Enum):
    """How a spectrum was produced."""

    EXTENDED = "extended"
    PROPAGATOR = "propagator"
    STATIC = "static"
    STATIC_EFFECTIVE = "effective"


@dataclass(frozen=True)
class FloquetSpectrum:
    """N physical quasi-energies with site-resolved mode weights.

    ``quasi_energies`` are sorted ascending by (Re, Im) with Re folded
    into (-omega/2, omega/2] (Im is reported unfolded).  Row k of
    ``mode_weights`` is the site probability profile of mode k,
    normalized to 1.  ``omega`` is the folding modulus; it is 0 for the
    static methods, which do not fold.  ``params`` are the model inputs;
    ``flags`` carries diagnostics such as ambiguous physical-mode selection.
    """

    quasi_energies: np.ndarray
    mode_weights: np.ndarray
    method: Method
    n_floquet: int
    omega: float
    params: ModelParams
    flags: tuple[str, ...] = field(default=())

    @property
    def n_modes(self) -> int:
        return self.quasi_energies.shape[0]

    @property
    def max_imag(self) -> float:
        return float(np.abs(self.quasi_energies.imag).max())


def _package(eps: np.ndarray, probs: np.ndarray, method: Method,
             params: ModelParams, omega: float = 0.0, n_floquet: int = 0,
             flags: tuple[str, ...] = ()) -> FloquetSpectrum:
    """Sort modes by (Re, Im) and normalize each row of ``probs`` (mode, site) to 1."""
    totals = probs.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise SolverError("selected mode has vanishing site weight")
    order = np.lexsort((eps.imag, eps.real))
    return FloquetSpectrum(
        quasi_energies=eps[order],
        mode_weights=(probs / totals)[order],
        method=method,
        n_floquet=n_floquet,
        omega=omega,
        params=params,
        flags=flags,
    )


def _eig_spectrum(h: np.ndarray, method: Method, params: ModelParams) -> FloquetSpectrum:
    """Spectrum of a time-independent Hamiltonian, packaged like a Floquet result."""
    sp = eig_dense(h)
    return _package(sp.eigenvalues, (np.abs(sp.eigenvectors) ** 2).T, method, params)


def static_spectrum(params: ModelParams) -> FloquetSpectrum:
    """Spectrum of the undriven chain, packaged like a Floquet result (no folding)."""
    return _eig_spectrum(build_static_hamiltonian(params), Method.STATIC, params)


def compute_spectrum(params: ModelParams, method: Method,
                     n_floquet: int | None = None,
                     n_steps: int | None = None,
                     nf_tol: float = 1e-8) -> FloquetSpectrum:
    """Dispatch a single spectrum computation by method.

    On the extended route ``n_floquet`` None means converge_nf(params, nf_tol);
    the spectrum that search solved at the converged N_F is returned as is.
    """
    if method is Method.STATIC:
        return static_spectrum(params)
    if method is Method.STATIC_EFFECTIVE:
        return _eig_spectrum(effective_hamiltonian(params), method, params)
    if method is Method.PROPAGATOR:
        return quasi_energies_propagator(params, n_steps)
    if method is Method.EXTENDED:
        if n_floquet is not None:
            return quasi_energies_extended(params, n_floquet)
        solved: dict[int, FloquetSpectrum] = {}
        return solved[converge_nf(params, nf_tol, spectra=solved)]
    raise ParameterError(f"unknown method {method!r}")


def fold_real(x, omega: float):
    """Fold real parts into the first zone (-omega/2, omega/2]."""
    x = np.asarray(x, dtype=np.float64)
    shifts = np.ceil((x - omega / 2.0) / omega)
    return x - omega * shifts


def drive_fourier_coefficients(params: ModelParams) -> tuple[complex, complex]:
    """(c_plus, c_minus) with f(z) = c_plus e^{i w z} + c_minus e^{-i w z}."""
    amplitude = params.kappa * params.omega
    c_plus = (amplitude / 2j) * np.exp(1j * params.phase0)
    c_minus = -(amplitude / 2j) * np.exp(-1j * params.phase0)
    return complex(c_plus), complex(c_minus)


def build_floquet_matrix(params: ModelParams, n_floquet: int) -> np.ndarray:
    """Truncated extended-zone matrix of dimension N*(2*N_F+1).

    Block (m, m') is H_static + m*omega*I on the diagonal, c_plus*D for
    m - m' = +1, c_minus*D for m - m' = -1, zero otherwise.  Blocks are
    stored in ascending-m order.
    """
    if n_floquet < 1:
        raise ParameterError(f"n_floquet must be >= 1, got {n_floquet}")
    n = params.n_sites
    n_blocks = 2 * n_floquet + 1
    dim = n * n_blocks
    if dim > DIM_CAP:
        raise DimensionCapError(
            f"extended matrix dimension {dim} = {n}*(2*{n_floquet}+1) "
            f"exceeds cap {DIM_CAP}"
        )
    h_static = build_static_hamiltonian(params)
    d = drive_operator(params)
    c_plus, c_minus = drive_fourier_coefficients(params)
    hf = np.zeros((dim, dim), dtype=np.complex128)
    eye = np.eye(n)
    for i in range(n_blocks):
        m = i - n_floquet
        hf[i * n:(i + 1) * n, i * n:(i + 1) * n] = h_static + m * params.omega * eye
    for i in range(n_blocks - 1):
        hf[(i + 1) * n:(i + 2) * n, i * n:(i + 1) * n] = c_plus * d
        hf[i * n:(i + 1) * n, (i + 1) * n:(i + 2) * n] = c_minus * d
    return hf


def _block_shift_overlap(candidate: np.ndarray, selected: np.ndarray,
                         shift: int, n_sites: int, n_blocks: int) -> float:
    """|<candidate, selected shifted by `shift` blocks>| for replica detection."""
    if abs(shift) >= n_blocks:
        return 0.0
    sel = selected.reshape(n_blocks, n_sites)
    shifted = np.zeros_like(sel)
    if shift >= 0:
        shifted[shift:] = sel[:n_blocks - shift]
    else:
        shifted[:n_blocks + shift] = sel[-shift:]
    return float(abs(np.vdot(candidate, shifted.reshape(-1))))


def _select_physical_modes(spectrum: Spectrum, params: ModelParams,
                           n_floquet: int) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Pick the N modes with maximal m=0 Fourier weight, skipping replicas."""
    n = params.n_sites
    n_blocks = 2 * n_floquet + 1
    dim = n * n_blocks
    probs = np.abs(spectrum.eigenvectors) ** 2
    site_weights_m0 = probs.reshape(n_blocks, n, dim)[n_floquet]  # (site, mode)
    w0 = site_weights_m0.sum(axis=0)
    evals = spectrum.eigenvalues
    vectors = spectrum.eigenvectors
    selected: list[int] = []

    def is_replica(idx) -> bool:
        for s in selected:
            shift = int(round((evals[idx].real - evals[s].real) / params.omega))
            if shift != 0 and _block_shift_overlap(
                    vectors[:, idx], vectors[:, s], shift, n, n_blocks) > REPLICA_OVERLAP:
                return True
        return False

    candidates = iter(np.argsort(-w0, kind="stable"))
    for idx in candidates:
        if not is_replica(idx):
            selected.append(int(idx))
            if len(selected) == n:
                break
    if len(selected) < n:
        raise SolverError(
            f"physical-mode selection found only {len(selected)} of {n} modes"
        )
    # Ambiguity diagnostic: a non-replica candidate nearly ties the weakest
    # selected mode.  Only candidates inside the weight gap can qualify.
    flags: tuple[str, ...] = ()
    floor_w0 = w0[selected].min()
    for idx in candidates:
        if w0[idx] < floor_w0 - SELECTION_GAP:
            break
        if not is_replica(idx):
            flags = ("ambiguous_selection",)
            break
    sel = np.array(selected, dtype=int)
    site_marginals = site_weights_m0[:, sel].T  # (mode, site)
    return sel, site_marginals, flags


def quasi_energies_extended(params: ModelParams, n_floquet: int) -> FloquetSpectrum:
    """Quasi-energies from the truncated extended-zone matrix.

    Diagonalizes the block matrix, folds real parts into the first zone,
    and keeps the N modes carrying maximal weight in the m=0 Fourier
    block (greedy by descending weight, with a replica guard rejecting
    candidates whose block-shifted eigenvector overlaps a selected mode
    by more than REPLICA_OVERLAP).  Mode weights are the renormalized
    m=0 site marginals.
    """
    hf = build_floquet_matrix(params, n_floquet)
    spectrum = eig_dense(hf)
    sel, marginals, flags = _select_physical_modes(spectrum, params, n_floquet)
    eps = fold_real(spectrum.eigenvalues[sel].real, params.omega) \
        + 1j * spectrum.eigenvalues[sel].imag
    return _package(eps, marginals, Method.EXTENDED, params, params.omega,
                    n_floquet, flags)


def default_n_steps(params: ModelParams) -> int:
    """max(MIN_PROPAGATOR_STEPS, ceil(4.5 * ||H||_1 * Z_p)), ||H||_1 the max over 16 z.

    The count is of fourth-order composition steps (three Strang sub-steps
    each, see ``one_period_propagator``).
    """
    z_period = params.drive_period
    grid = (np.arange(16) + 0.5) * (z_period / 16)
    norm = max(float(matrix_norm_1(hamiltonian_at(z, params))) for z in grid)
    return max(MIN_PROPAGATOR_STEPS, int(math.ceil(4.5 * norm * z_period)))


def one_period_propagator(params: ModelParams, n_steps: int) -> np.ndarray:
    """U(Z_p) by a fourth-order composition of Strang split steps.

    The drive f(z)*D is diagonal, so a Strang step S(h) splits exactly
    into the static exponential expm(-i*h*H_static) between diagonal
    phases exp(-i*(F(b) - F(a))*D), where
    F(z) = kappa*(cos(phase0) - cos(omega*z + phase0)) is the closed-form
    integral of f.  S is symmetric and second order, so each of the
    ``n_steps`` steps dz is the triple jump S(w1*dz) S(w0*dz) S(w1*dz)
    with w1 = 1/(2 - 2^(1/3)), w0 = 1 - 2*w1 (Yoshida, Phys. Lett. A 150,
    262 (1990)), which is fourth order in dz.  The two static
    exponentials are computed once per call; F is sampled at 0, the
    3*n_steps sub-step midpoints and Z_p.  Each phase is applied as a
    row scaling, so memory beyond O(n_steps) scalars is independent of
    n_steps.  The propagator stays in the lab frame.
    """
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    z_period = params.drive_period
    dz = z_period / n_steps
    h_static = build_static_hamiltonian(params)
    outer, inner = (expm(-1j * w * dz * h_static) for w in (_YOSHIDA_W1, _YOSHIDA_W0))
    d_diag = np.diag(drive_operator(params))
    midpoints = np.array([_YOSHIDA_W1 / 2, 0.5, 1.0 - _YOSHIDA_W1 / 2])
    s = np.concatenate(([0.0], ((np.arange(n_steps)[:, None] + midpoints) * dz).ravel(),
                        [z_period]))
    drive_integral = params.kappa * (math.cos(params.phase0)
                                     - np.cos(params.omega * s + params.phase0))
    increments = np.diff(drive_integral)
    u = np.diag(np.exp(-1j * increments[0] * d_diag))
    for step, delta in zip(itertools.cycle((outer, inner, outer)), increments[1:]):
        u = np.exp(-1j * delta * d_diag)[:, None] * (step @ u)
    return u


def quasi_energies_propagator(params: ModelParams, n_steps: int | None = None,
                              converge_tol: float | None = None) -> FloquetSpectrum:
    """Quasi-energies from the one-period propagator.

    eps = (i/Z_p) * log mu over the eigenvalues mu of U(Z_p), with the
    fixed principal branch; a final fold maps the -omega/2 branch edge
    onto +omega/2 so Re(eps) lies in (-omega/2, omega/2].  Mode weights
    come from the eigenvectors of U.  With ``converge_tol`` set, n_steps
    is doubled until no quasi-energy moves by more than the tolerance
    under the optimal matching, and the refined spectrum is returned.
    """
    if n_steps is None:
        n_steps = default_n_steps(params)
    elif n_steps < MIN_PROPAGATOR_STEPS:
        raise ParameterError(f"n_steps must be >= {MIN_PROPAGATOR_STEPS}, got {n_steps}")

    def compute(steps: int) -> FloquetSpectrum:
        u = one_period_propagator(params, steps)
        spectrum = eig_dense(u)
        logs = principal_log_eigenvalues(spectrum.eigenvalues)
        z_period = params.drive_period
        eps = 1j * logs / z_period
        eps = fold_real(eps.real, params.omega) + 1j * eps.imag
        return _package(eps, (np.abs(spectrum.eigenvectors) ** 2).T,
                        Method.PROPAGATOR, params, params.omega)

    result = compute(n_steps)
    if converge_tol is None:
        return result
    while True:
        if 2 * n_steps > MAX_PROPAGATOR_STEPS:
            raise ConvergenceCapError(
                f"propagator did not stabilize below {converge_tol:g} "
                f"within {MAX_PROPAGATOR_STEPS} steps"
            )
        refined = compute(2 * n_steps)
        move = matched_distance(result, refined)
        n_steps *= 2
        result = refined
        if move < converge_tol:
            return result


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row minimizing total cost (O(n^3) Hungarian)."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    row_of_col = np.zeros(n + 1, dtype=int)
    path = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        row_of_col[0] = i
        j0 = 0
        least = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of_col[j0]
            delta = np.inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
                if cur < least[j]:
                    least[j] = cur
                    path[j] = j0
                if least[j] < delta:
                    delta = least[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[row_of_col[j]] += delta
                    v[j] -= delta
                else:
                    least[j] -= delta
            j0 = j1
            if row_of_col[j0] == 0:
                break
        while j0 != 0:
            j1 = path[j0]
            row_of_col[j0] = row_of_col[j1]
            j0 = j1
    result = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        result[row_of_col[j] - 1] = j - 1
    return result


def _matched_deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_k - b_j| for each k, with j from the assignment minimizing the total."""
    cost = np.abs(a[:, None] - b[None, :])
    return cost[np.arange(cost.shape[0]), _min_cost_assignment(cost)]


def matched_distance(a: FloquetSpectrum, b: FloquetSpectrum) -> float:
    """Max pair distance between two spectra under the optimal matching.

    This is the package's one spectrum comparator, also exported as
    ``spectral_distance``.  Modes are paired by minimizing the total
    |eps_a - eps_b| cost, so modes whose real parts nearly tie, such as
    the two members of a complex-conjugate pair, are never mispaired.
    """
    if a.n_modes != b.n_modes:
        raise ParameterError("spectra have different mode counts")
    return float(_matched_deviations(a.quasi_energies, b.quasi_energies).max())


spectral_distance = matched_distance


def converge_nf(params: ModelParams, tol: float,
                spectra: dict[int, FloquetSpectrum] | None = None) -> int:
    """Smallest N_F at which the physical spectrum is stable under N_F -> N_F+2.

    Searches by doubling from 2, then bisects.  Stability means the
    selected quasi-energy multiset moves by less than ``tol`` under the
    optimal matching.  Raises ConvergenceCapError above ``NF_CAP``.
    Every spectrum solved on the way, the returned N_F's included, is
    stored in ``spectra`` (keyed by N_F) when a dict is given.
    """
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    cache = {} if spectra is None else spectra

    def spectrum(nf: int) -> FloquetSpectrum:
        if nf not in cache:
            cache[nf] = quasi_energies_extended(params, nf)
        return cache[nf]

    def delta(nf: int) -> float:
        return matched_distance(spectrum(nf), spectrum(nf + 2))

    nf = 2
    last = delta(nf)
    while last >= tol:
        if 2 * nf > NF_CAP:
            raise ConvergenceCapError(
                f"N_F search exceeded cap {NF_CAP}; last delta {last:.3e} at N_F={nf}"
            )
        nf *= 2
        last = delta(nf)
    if nf == 2:
        return 2
    lo = nf // 2  # delta(lo) >= tol
    hi = nf       # delta(hi) < tol
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if delta(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi
