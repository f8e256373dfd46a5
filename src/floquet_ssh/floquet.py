"""Quasi-energy spectra of the driven chain by two independent routes.

Route one builds the truncated extended-zone (Fourier-block) matrix:
blocks indexed by harmonics m, m' in [-N_F, N_F], diagonal blocks
H_static + m*omega*I, first off-diagonal blocks the Fourier components
of the drive f(z) = kappa*omega*sin(omega*z) times the gradient
operator D.  Route two builds the one-period propagator U(Z_p) in the
lab frame by the fourth-order Blanes-Moan splitting S6, with three
static exponentials per period and exact diagonal drive phases; its
quasi-energies are eps = (i/Z_p) log mu over the eigenvalues mu of U.
The drive's symmetries build U from products over the first quarter
period.  An even chain's U is solved through its Cayley transform in a
real basis, so an unbroken spectrum is real to the last bit; an odd
chain's U is solved as it is.  One guard on both raises when some |mu|
is lost in U's rounding (``_propagator_modes``).  Both routes fold
quasi-energy real parts into the first zone (-omega/2, omega/2] and
select/weight the N physical modes; their agreement is the strongest
correctness check in the package.

``compute_spectrum`` dispatches between these routes and the undriven
(static and Bessel-rescaled effective) chains.  Every route packages its
result the same way: modes sorted by (Re, Im), site weights normalized
to 1.  Spectra are compared by one distance, the largest pair distance
under the optimal matching (``matched_distance``, exported also as
``spectral_distance``); ``compare_with_effective`` pairs extended
quasi-energies with the effective chain's spectrum the same way.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .effective import effective_hamiltonian, effective_tunneling
from .errors import (AliasingError, ConvergenceCapError, DimensionCapError, ParameterError,
                     PropagatorCollapseError, SolverError, require_integer,
                     require_positive_finite)
from .linalg import Spectrum, eig_dense, expm, matrix_norm_1
from .model import (ModelParams, build_static_hamiltonian, drive_operator, drive_value,
                    hamiltonian_at)

#: Hard cap on the extended matrix dimension N*(2*N_F+1).  A solve peaks at
#: about 68 B per dim^2 (+65 MiB at dim 1000, +141 MiB at 1480), so one at the
#: cap stays near 3.8 GiB, inside a 7 GB machine.  A static or effective solve
#: (65 B per N^2) or the PT check (64 B) takes chains up to DIM_CAP sites.
DIM_CAP = 7700
#: Longest chain the propagator route takes.  A solve peaks at about 192 B
#: per N^2 (the Pade temporaries; tracemalloc at N = 200-401, even and odd,
#: given or default step count), so one at the cap stays below 3.8 GiB.
PROPAGATOR_SITE_CAP = 4500
#: Last N_F the convergence search reaches by unit steps; it doubles from there.
_NF_UNIT_STEPS = 16
#: Tolerance of the N_F convergence search when no N_F is given.
NF_TOL = 1e-8
#: Rounding floor of delta(N_F), the N_F search's distance, in units of eps
#: times the parameter bound on ||H_F||_1 at N_F + 2 (``_extended_norm_bound``).
#: Measured at the floor: 0.27-16 over N = 8-40, omega = 45pi-1e9, N_F = 2-6.
_NF_ROUNDING_FLOOR = 0.25
#: Top of that band: a delta(N_F) at or below it, in the same units, may be rounding noise.
_NF_ROUNDING_TOP = 16.0
#: Smallest |y^T x| of a mode (unit right and left eigenvectors) at which the
#: truncation estimate is formed; below it the mode is near an exceptional point.
_EP_OVERLAP_MIN = 1e-3
#: Largest condition number of H_static's eigenvectors at which the estimate
#: applies the resolvents in that eigenbasis.
_EIGENBASIS_COND_MAX = 1e8
#: Widest factor between the truncation estimate and the N_F - 1 -> N_F distance
#: at which the estimate still decides an N_F probe.
_ESTIMATE_CALIBRATION = 2.0
#: Factor by which the estimate must clear tol, on either side, to decide it.
_ESTIMATE_MARGIN = 1.25
#: Most propagator steps per period, requested or reached by doubling.
MAX_PROPAGATOR_STEPS = 1 << 21
#: Fewest propagator steps per period a caller may request.
MIN_PROPAGATOR_STEPS = 20
#: Eigenvector overlap above which two extended-matrix modes count as
#: folded replicas of each other.
REPLICA_OVERLAP = 0.99
#: m=0 weight gap below which two candidates competing for a slot are
#: flagged as an ambiguous selection.
SELECTION_GAP = 1e-6
#: Blanes-Moan S6 coefficients (J. Comput. Appl. Math. 142, 313 (2002)):
#: a for the static exponentials, b for the diagonal drive phases.
_S6_A1, _S6_A2 = 0.209515106613362, -0.143851773179818
_S6_B1, _S6_B2, _S6_B3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
#: Weights a1 a2 a3 a3 a2 a1 of the six static exponentials of a step.
_S6_STAGES = (_S6_A1, _S6_A2, 0.5 - _S6_A1 - _S6_A2, 0.5 - _S6_A1 - _S6_A2, _S6_A2, _S6_A1)
#: Where those six sit in a step, in units of the step: partial sums of the
#: phase weights b1 b2 b3 b4 b3 b2 (a final b1 closes the step).
_S6_NODES = np.cumsum((_S6_B1, _S6_B2, _S6_B3, 1.0 - 2.0 * (_S6_B1 + _S6_B2 + _S6_B3),
                       _S6_B3, _S6_B2))
#: Propagator sub-steps whose phase rows one vectorized exp computes.
_PHASE_CHUNK = 384
#: Real and imaginary parts smaller than this are zeroed in the propagator
#: product, so that no product runs on subnormal numbers.
_FLUSH_BELOW = 1e-150
#: Rotations e^{i*alpha} of a propagator tried, in order, for its Cayley
#: transform, which is singular at the zone edge (an eigenvalue at -1).
_EDGE_ROTATIONS = np.pi / 4 * np.arange(8)
#: Largest Cayley matrix 1-norm taken without trying another rotation.
_CAYLEY_NORM_MAX = 1e3
#: Largest imaginary part of the real Cayley form, relative to its 1-norm.
_REAL_FORM_TOL = 1e-10


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
    normalized to 1.  The driven routes fold by ``params.omega``; the
    static methods do not fold.  ``params`` are the model inputs;
    ``flags`` carries diagnostics such as ambiguous physical-mode selection.
    ``truncation_error`` is set on the extended route only: the largest
    first-order shift of a mode that the next harmonic blocks +-(N_F+1)
    would make (``_truncation_error``), which tracks the N_F -> N_F+2
    distance once it falls geometrically.  It is None on the other routes,
    and on the extended route when a mode is near an exceptional point.
    """

    quasi_energies: np.ndarray
    mode_weights: np.ndarray
    method: Method
    n_floquet: int
    params: ModelParams
    flags: tuple[str, ...] = field(default=())
    truncation_error: float | None = None

    @property
    def n_modes(self) -> int:
        return self.quasi_energies.shape[0]

    @property
    def max_imag(self) -> float:
        return float(np.abs(self.quasi_energies.imag).max())


def _package(eps: np.ndarray, probs: np.ndarray, method: Method, params: ModelParams,
             n_floquet: int = 0, flags: tuple[str, ...] = (),
             truncation_error: float | None = None) -> FloquetSpectrum:
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
        params=params,
        flags=flags,
        truncation_error=truncation_error,
    )


def _require_sites_within(params: ModelParams, cap: int) -> None:
    """Raise DimensionCapError if the chain is longer than ``cap`` sites."""
    if params.n_sites > cap:
        raise DimensionCapError(f"chain length N={params.n_sites} exceeds this route's "
                                f"cap {cap}")


def _eig_spectrum(build, method: Method, params: ModelParams) -> FloquetSpectrum:
    """Spectrum of the Hamiltonian build(params), packaged like a Floquet result."""
    _require_sites_within(params, DIM_CAP)
    sp = eig_dense(build(params))
    return _package(sp.eigenvalues, (np.abs(sp.eigenvectors) ** 2).T, method, params)


def static_spectrum(params: ModelParams) -> FloquetSpectrum:
    """Spectrum of the undriven chain, packaged like a Floquet result (no folding)."""
    return _eig_spectrum(build_static_hamiltonian, Method.STATIC, params)


def compute_spectrum(params: ModelParams, method: Method,
                     n_floquet: int | None = None,
                     n_steps: int | None = None) -> FloquetSpectrum:
    """Dispatch a single spectrum computation by method.

    On the extended route ``n_floquet`` None means converge_nf(params, NF_TOL);
    the spectrum that search solved at the converged N_F is returned as is.
    """
    if method is Method.STATIC:
        return static_spectrum(params)
    if method is Method.STATIC_EFFECTIVE:
        return _eig_spectrum(effective_hamiltonian, method, params)
    if method is Method.PROPAGATOR:
        return quasi_energies_propagator(params, n_steps)
    if method is Method.EXTENDED:
        if n_floquet is not None:
            return quasi_energies_extended(params, n_floquet)
        solved: dict[int, FloquetSpectrum] = {}
        return solved[converge_nf(params, NF_TOL, spectra=solved)]
    raise ParameterError(f"unknown method {method!r}")


def fold_real(x, omega: float):
    """Fold real parts into the first zone (-omega/2, omega/2]."""
    x = np.asarray(x, dtype=np.float64)
    shifts = np.ceil((x - omega / 2.0) / omega)
    return x - omega * shifts


def build_floquet_matrix(params: ModelParams, n_floquet: int) -> np.ndarray:
    """Truncated extended-zone matrix of dimension N*(2*N_F+1).

    Block (m, m') is H_static + m*omega*I on the diagonal, c_plus*D for
    m - m' = +1, c_minus*D for m - m' = -1, zero otherwise, where
    f(z) = c_plus e^{i omega z} + c_minus e^{-i omega z}.  Blocks are
    stored in ascending-m order.
    """
    n_floquet = require_integer("n_floquet", n_floquet)
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
    if not _extended_norm_bound(params, n_floquet) < math.inf:
        raise SolverError(f"the extended matrix at N_F = {n_floquet} overflows: its norm bound "
                          f"||H_static||_1 + N_F*omega + kappa*omega*max|n - n0| is infinite")
    h_static = build_static_hamiltonian(params)
    d = drive_operator(params)
    c_plus = params.kappa * params.omega / 2j
    c_minus = c_plus.conjugate()  # not -c_plus, whose real part is -0.0
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
                         shift: int, n_sites: int) -> float:
    """|<candidate, selected shifted by `shift` blocks>| for replica detection."""
    offset = abs(shift) * n_sites
    if offset >= candidate.size:  # no block overlaps, and a negative `end` would slice
        return 0.0
    end = candidate.size - offset
    if shift >= 0:
        return float(abs(np.vdot(candidate[offset:], selected[:end])))
    return float(abs(np.vdot(candidate[:end], selected[offset:])))


def _select_physical_modes(spectrum: Spectrum, params: ModelParams,
                           n_floquet: int) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Pick the N modes with maximal m=0 Fourier weight, skipping replicas."""
    n = params.n_sites
    vectors = spectrum.eigenvectors
    site_weights_m0 = np.abs(vectors[n_floquet * n:(n_floquet + 1) * n]) ** 2  # (site, mode)
    w0 = site_weights_m0.sum(axis=0)
    evals = spectrum.eigenvalues
    selected: list[int] = []

    def is_replica(idx) -> bool:
        # np.rint rounds half to even, as Python's round does.
        shifts = np.rint((evals[idx].real - evals[selected].real) / params.omega)
        for s, shift in zip(selected, shifts.astype(int).tolist()):
            if shift != 0 and _block_shift_overlap(
                    vectors[:, idx], vectors[:, s], shift, n) > REPLICA_OVERLAP:
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
    n_floquet = require_integer("n_floquet", n_floquet)
    hf = build_floquet_matrix(params, n_floquet)
    spectrum = eig_dense(hf)
    sel, marginals, flags = _select_physical_modes(spectrum, params, n_floquet)
    eps = fold_real(spectrum.eigenvalues[sel].real, params.omega) \
        + 1j * spectrum.eigenvalues[sel].imag
    return _package(eps, marginals, Method.EXTENDED, params, n_floquet, flags,
                    _truncation_error(params, n_floquet, spectrum.eigenvalues[sel],
                                      spectrum.eigenvectors[:, sel]))


def _truncation_error(params: ModelParams, n_floquet: int, lam: np.ndarray,
                      x: np.ndarray) -> float | None:
    """max_k |d lam_k|, the first-order shift of the modes (lam, x) from the blocks +-(N_F+1).

    Eliminating the first dropped block on each side of the extended
    matrix (one level of Loewdin partitioning of Shirley's matrix) gives

        d lam = [y+^T c-D G+ c+D x+  +  y-^T c+D G- c-D x-] / (y^T x),

    G+- = (lam -+ (N_F+1) omega - H_static)^-1, with x+- the blocks of x at
    m = +-N_F and y the left eigenvector.  c- = -c+ and H_static is complex
    symmetric, so H_F^T = S H_F S with S = diag((-1)^m) (x) I, and y = S x
    costs nothing, and y+- = (-1)^N_F x+- (a common sign, dropped here).  The
    resolvents act in one eigenbasis W of H_static.  None near an exceptional
    point of the extended matrix, where some |y^T x| (x and y have unit norm)
    is below _EP_OVERLAP_MIN, or of H_static, where cond(W) exceeds
    _EIGENBASIS_COND_MAX; and None when the shift is not finite.
    """
    n = params.n_sites
    signs = np.repeat((-1.0) ** np.arange(-n_floquet, n_floquet + 1), n)
    ytx = np.einsum("ik,ik->k", signs[:, None] * x, x)
    if np.abs(ytx).min() < _EP_OVERLAP_MIN or (static := _static_eigenbasis(params)) is None:
        return None
    d = np.diag(drive_operator(params))[:, None]
    c = params.kappa * params.omega / 2.0  # |c+| = |c-|, and c+ c- = c^2
    shift = np.zeros_like(lam)
    with np.errstate(all="ignore"):  # a non-finite shift returns None below
        for block, step in ((x[-n:], -(n_floquet + 1)), (x[:n], n_floquet + 1)):
            dx = c * d * block
            left = static.eigenvectors.T @ dx
            right = np.linalg.solve(static.eigenvectors, dx)
            shift += (left * right / (lam + step * params.omega
                                      - static.eigenvalues[:, None])).sum(axis=0)
        error = float(np.abs(shift / ytx).max())
    return error if math.isfinite(error) else None


@functools.lru_cache(maxsize=1)
def _static_eigenbasis(params: ModelParams) -> Spectrum | None:
    """H_static's eigendecomposition, None when cond(W) exceeds _EIGENBASIS_COND_MAX.

    Kept for the last ``params``, so the probes of one N_F search share one solve.
    """
    static = eig_dense(build_static_hamiltonian(params))
    with np.errstate(all="ignore"):
        return static if np.linalg.cond(static.eigenvectors) <= _EIGENBASIS_COND_MAX else None


def default_n_steps(params: ModelParams) -> int:
    """max(MIN_PROPAGATOR_STEPS, ceil(1.35 * ||H||_1 * Z_p)), ||H||_1 the max over 16 z.

    The 16 z are the midpoints of sixteen equal parts of the period.
    Column j of |H(z)| sums a fixed off-diagonal part and
    |H_static[j, j] + f(z) * D[j, j]|, and each of those rounded operations
    is monotone in |f(z)|, so ||H(z)||_1 never falls as |f(z)| grows and
    the maximum over the 16 z is, to the last bit, the norm at the z with
    the largest |f|.  That one H(z) is assembled, picked by the scalar f
    from ``drive_value``.  The count is of fourth-order
    splitting steps (six static products each, see
    ``one_period_propagator``).  Chains longer than PROPAGATOR_SITE_CAP
    raise DimensionCapError before H(z) is assembled, and a count above
    MAX_PROPAGATOR_STEPS (or an overflowing one) raises ParameterError,
    so every count returned is one the propagator takes.
    """
    _require_sites_within(params, PROPAGATOR_SITE_CAP)
    z_period = params.drive_period
    grid = (np.arange(16) + 0.5) * (z_period / 16)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        z_peak = max(grid, key=lambda z: abs(drive_value(z, params)))
        norm = matrix_norm_1(hamiltonian_at(z_peak, params))
    steps = 1.35 * norm * z_period
    if not steps <= MAX_PROPAGATOR_STEPS:  # also inf and nan
        raise ParameterError(f"the default step count ceil(1.35 * ||H||_1 * Z_p) = {steps:.3g} "
                             f"exceeds MAX_PROPAGATOR_STEPS = {MAX_PROPAGATOR_STEPS}; "
                             f"set n_steps to run with fewer steps")
    return max(MIN_PROPAGATOR_STEPS, math.ceil(steps))


def require_propagator_steps(n_steps: int) -> int:
    """``n_steps`` as an int; ParameterError unless MIN_ <= n_steps <= MAX_PROPAGATOR_STEPS."""
    n_steps = require_integer("n_steps", n_steps)
    if not MIN_PROPAGATOR_STEPS <= n_steps <= MAX_PROPAGATOR_STEPS:
        raise ParameterError(f"n_steps must be between {MIN_PROPAGATOR_STEPS} and "
                             f"{MAX_PROPAGATOR_STEPS}, got {n_steps}")
    return n_steps


def _flush_tiny(m: np.ndarray) -> bool:
    """Zero the nonzero real and imaginary parts of m below _FLUSH_BELOW; True if any."""
    parts = m.view(np.float64)
    tiny = (np.abs(parts) < _FLUSH_BELOW) & (parts != 0.0)
    parts[tiny] = 0.0
    return bool(tiny.any())


def _pt_reflection_applies(params: ModelParams) -> bool:
    """True when the chain is PT symmetric, so that U follows from its first half period.

    The drive is always even about Z_p/4 and odd about 0; an odd chain
    breaks the site reversal through its hopping texture.
    """
    return params.n_sites % 2 == 0


def _quarter_product(stages: list[np.ndarray], phase_args: np.ndarray, d: np.ndarray,
                     flush: bool) -> np.ndarray:
    """Time-ordered product of phase rows exp(phase_args * d) around ``stages``, in chunks."""
    u = np.diag(np.exp(phase_args[0] * d))
    product = np.empty_like(u)  # with u, the only N x N array a product allocates
    for start in range(0, len(phase_args) - 1, _PHASE_CHUNK):
        rows = np.exp(np.multiply.outer(phase_args[start + 1:start + 1 + _PHASE_CHUNK], d))
        for k, row in enumerate(rows[:, :, None], start):
            np.matmul(stages[k % len(stages)], u, out=product)
            np.multiply(product, row, out=u)
            if flush:
                _flush_tiny(u)
    return u


def one_period_propagator(params: ModelParams, n_steps: int) -> np.ndarray:
    """U(Z_p) by the Blanes-Moan fourth-order splitting S6.

    The drive f(z)*D is diagonal, so with z carried along as a variable
    the generator splits into two exactly solvable parts: the static
    exponential expm(-i*a*dz*H_static), z frozen, and the diagonal phase
    exp(-i*(F(z + b*dz) - F(z))*D), where F(z) = kappa*(1 - cos(omega*z))
    is the closed-form integral of f.  Each step dz is the symmetric 6-stage composition S6
    (J. Comput. Appl. Math. 142, 313 (2002)), fourth order in dz: seven
    phases with weights b1 b2 b3 b4 b3 b2 b1 around six static
    exponentials with weights a1 a2 a3 a3 a2 a1, the last phase of a step
    merged with the first of the next.  The three distinct static exponentials
    and the phase arguments are computed once per call; ``_quarter_product``
    applies the phases as row scalings, their rows computed a bounded chunk at
    a time, so memory beyond O(n_steps) scalars is independent of n_steps.

    Symmetries of the drive fix the period from its first quarter
    (Asboth, Tarasinski & Delplace, PRB 90, 125143 (2014); Bender,
    Rep. Prog. Phys. 70, 947 (2007)), with the trace removed from D:

    - time reversal: H(z) is complex symmetric and f is even about
      Z_p/4, so the product over [0, Z_p/2] is V = V1^T V1, with V1 the
      product over [0, Z_p/4] in ceil(n_steps/4) steps;
    - PT reflection, on an even chain: site reversal P negates D and f is
      odd about 0, so U = P conj(V)^-1 P V, one LU solve;
    - half-period shift, on an odd chain: f(z + Z_p/2) = -f(z), so
      U = W1^T W1 V, with W1 the product over [0, Z_p/4] for -D.

    The scalar trace part integrates to zero over a period, so U is
    unchanged by it, and S6 is symmetric, so this equals the full product
    at 4*ceil(n_steps/4) steps to rounding.  On a long chain the far
    corners of the exponentials underflow: parts below _FLUSH_BELOW are
    then zeroed in them and in the product after every stage, which moves
    U by far less than rounding does.  The propagator stays in the lab
    frame.  Chains longer than PROPAGATOR_SITE_CAP raise DimensionCapError
    and an ``n_steps`` that fails ``require_propagator_steps`` raises
    ParameterError, both before anything is allocated.  With T = 0 and
    gamma = 0, H(z) = f(z)*D is diagonal and F(Z_p) = F(0), so U is the
    identity, returned exactly rather than stepped to rounding.
    """
    _require_sites_within(params, PROPAGATOR_SITE_CAP)
    n_steps = require_propagator_steps(n_steps)
    if _static_norm_bound(params) == 0.0:
        return np.eye(params.n_sites, dtype=np.complex128)
    h_static = build_static_hamiltonian(params)
    d = np.diag(drive_operator(params))  # a view that holds the N x N D
    d = d - d.mean()  # a copy, so D is freed; on an odd chain the mean is 0.0 exactly
    quarter_steps = -(-n_steps // 4)
    z_end = params.drive_period / 4
    dz = z_end / quarter_steps
    half = [expm(-1j * a * dz * h_static) for a in _S6_STAGES[:3]]
    flush = any([_flush_tiny(e) for e in half])  # a list, so that all three are flushed
    stages = half + half[::-1]
    s = np.concatenate(([0.0], ((np.arange(quarter_steps)[:, None] + _S6_NODES) * dz).ravel(),
                        [z_end]))
    phase_args = -1j * np.diff(params.kappa * (1.0 - np.cos(params.omega * s)))
    v1 = _quarter_product(stages, phase_args, d, flush)
    # a contiguous copy of the transpose: numpy would send q.T @ q to BLAS
    # syrk, which rounds differently; the GEMM keeps U's bits, and at N=40 on
    # one thread both take about 13 us
    v = np.ascontiguousarray(v1.T) @ v1
    if _pt_reflection_applies(params):
        return np.linalg.solve(v.conj(), v[::-1])[::-1]
    w1 = _quarter_product(stages, phase_args, -d, flush)  # the second half period is V for -D
    return np.ascontiguousarray(w1.T) @ w1 @ v


def _cayley(u: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(alpha, C, ||C||_1), C = i(I - M)(I + M)^-1 the Cayley transform of M = e^{i alpha} U.

    C is singular where M has an eigenvalue at -1, the zone edge.  alpha
    is the first of _EDGE_ROTATIONS with ||C||_1 <= _CAYLEY_NORM_MAX, or
    else the one with the smallest ||C||_1.
    """
    eye = np.eye(u.shape[0])
    tried = []
    for alpha in _EDGE_ROTATIONS:
        m = np.exp(1j * alpha) * u
        try:
            c = np.linalg.solve(eye + m, 1j * (eye - m))
        except np.linalg.LinAlgError:  # an eigenvalue of M at -1 to the last bit
            continue
        norm = matrix_norm_1(c)
        if norm <= _CAYLEY_NORM_MAX:
            return alpha, c, norm
        tried.append((alpha, c, norm))
    if not tried:
        raise SolverError("I + e^{i alpha} U is singular at every edge rotation")
    return min(tried, key=lambda t: t[2])


def _propagator_modes(u: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Folded eps = (i/Z_p) log mu and eigenvectors over the eigenvalues mu of U.

    An even chain's P conj(U) P = U^-1 makes R = S^-1 C S real (C from
    ``_cayley``, S = I + iP): its eigenvalue lambda gives mu = e^{-i alpha}
    (1 + i lambda)/(1 - i lambda), eps real to the last bit or in exact
    conjugate pairs, and its eigenvector x gives Sx; an Im R above rounding
    (U lacks the relation) raises SolverError.  An odd chain solves U itself.
    Both raise PropagatorCollapseError if some |mu| <= eps * ||U||_1.
    """
    if _pt_reflection_applies(params):
        alpha, c, norm = _cayley(u)
        r = 0.5 * (c + c[::-1, ::-1] + 1j * (c[:, ::-1] - c[::-1]))
        defect = float(np.abs(r.imag).max())
        # C's rounding is absolute, about 1e-16, so the bound stops scaling below ||C||_1 = 1
        if defect > _REAL_FORM_TOL * max(norm, 1.0):
            raise SolverError(f"U lacks the relation P conj(U) P = U^-1 to rounding (max |Im R| "
                              f"= {defect:.3e}, ||C||_1 = {norm:.3e}): a very low drive frequency "
                              f"or strong gain/loss leaves the half-period product ill-conditioned")
        spectrum = eig_dense(r.real)
        lam = spectrum.eigenvalues
        with np.errstate(divide="ignore"):  # lambda = -i to the last bit is an infinite |mu|
            mu_abs = np.abs(1.0 + 1j * lam) / np.abs(1.0 - 1j * lam)
        eps = (alpha - 2.0 * np.arctan(lam)) / params.drive_period
        vectors = spectrum.eigenvectors + 1j * spectrum.eigenvectors[::-1]
    else:
        spectrum = eig_dense(u)
        mu_abs = np.abs(spectrum.eigenvalues)
        with np.errstate(divide="ignore"):  # mu = 0 to the last bit raises below
            log_mu = np.log(mu_abs) + 1j * np.angle(spectrum.eigenvalues)
        eps = 1j * log_mu / params.drive_period
        vectors = spectrum.eigenvectors
    rounding = np.finfo(float).eps * matrix_norm_1(u)
    if (smallest := float(mu_abs.min())) <= rounding:
        raise PropagatorCollapseError(f"an eigenvalue of U is lost in its rounding: min |mu| = "
                                      f"{smallest:.3e} <= eps * ||U||_1 = {rounding:.3e}")
    return fold_real(eps.real, params.omega) + 1j * eps.imag, vectors


def quasi_energies_propagator(params: ModelParams, n_steps: int | None = None,
                              converge_tol: float | None = None) -> FloquetSpectrum:
    """Quasi-energies from the one-period propagator.

    eps = (i/Z_p) * log mu over the eigenvalues mu of U(Z_p), folded, and
    mode weights from U's eigenvectors, both by ``_propagator_modes``; on an
    even chain an unbroken spectrum has Im eps = 0.0 exactly.
    With ``converge_tol`` set, n_steps is doubled until no quasi-energy
    moves by more than the tolerance under the optimal matching, and the
    refined spectrum is returned; ``converge_tol`` must be positive and
    finite.  ``n_steps`` None means ``default_n_steps``.  The chain length
    and the step count are checked by ``default_n_steps`` and
    ``one_period_propagator``, before anything is stepped.  A chain with
    0 < Z_p * (2|T|(1+|lambda|) + gamma) <= eps raises SolverError before
    stepping: that bounds Z_p * ||H_static||_1, so U is the identity to
    rounding and eps would be rounding noise divided by Z_p.  A chain with
    T = 0 and gamma = 0 keeps its exact eps = 0 on either parity, driven or
    not, since ``one_period_propagator`` returns its U = I exactly.
    """
    n_steps = default_n_steps(params) if n_steps is None else require_integer("n_steps", n_steps)
    if converge_tol is not None:
        require_positive_finite("converge_tol", converge_tol)
    phase = params.drive_period * _static_norm_bound(params)
    if 0.0 < phase <= np.finfo(float).eps:
        raise SolverError(f"Z_p * ||H_static||_1 <= {phase:.3e}, at most eps: U is the identity "
                          f"to rounding, so no digit of its quasi-energies survives")

    def compute(steps: int) -> FloquetSpectrum:
        eps, vectors = _propagator_modes(one_period_propagator(params, steps), params)
        return _package(eps, (np.abs(vectors) ** 2).T, Method.PROPAGATOR, params)

    result = compute(n_steps)
    while converge_tol is not None:
        if 2 * n_steps > MAX_PROPAGATOR_STEPS:
            raise ConvergenceCapError(f"propagator did not stabilize below {converge_tol:g} "
                                      f"within {MAX_PROPAGATOR_STEPS} steps")
        n_steps *= 2
        refined = compute(n_steps)
        if matched_distance(result, refined) < converge_tol:
            return refined
        result = refined
    return result


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row minimizing total cost (O(n^3) Hungarian).

    Shortest augmenting paths with row and column potentials u, v.  Each
    step of a row's search scans the free columns as arrays: their reduced
    costs, the update of ``least`` and ``path`` where a cost improves, and
    the first minimum.  Python loops over rows and steps, O(n^2) of them;
    the O(n^3) arithmetic stays in numpy.
    """
    n = cost.shape[0]
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    row_of_col, path = np.zeros((2, n + 1), dtype=int)
    for i in range(1, n + 1):
        row_of_col[0], j0 = i, 0
        least = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while row_of_col[j0]:
            used[j0] = True
            free = np.flatnonzero(~used)
            i0 = row_of_col[j0]
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < least[free]
            least[free[better]] = cur[better]
            path[free[better]] = j0
            j0 = free[np.argmin(least[free])]
            delta = least[j0]
            u[row_of_col[used]] += delta
            v[used] -= delta
            least[free] -= delta
        while j0:  # flip the augmenting path
            j1 = path[j0]
            row_of_col[j0], j0 = row_of_col[j1], j1
    return np.argsort(row_of_col[1:])  # the inverse of the permutation row_of_col[1:] - 1


def _matched_deviations(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_k - b_j| for each k, with j from the assignment minimizing the total."""
    cost = np.abs(a[:, None] - b[None, :])
    return cost[np.arange(cost.shape[0]), _min_cost_assignment(cost)]


@dataclass(frozen=True)
class EffectiveComparison:
    """Deviation between extended-matrix quasi-energies and the effective spectrum."""

    t_eff: float
    max_quasi_energy_deviation: float
    per_mode_deviation: np.ndarray


def compare_floquet_effective(params: ModelParams, n_floquet: int) -> EffectiveComparison:
    """``compare_with_effective`` of the extended spectrum at ``n_floquet``."""
    return compare_with_effective(quasi_energies_extended(params, n_floquet))


def compare_with_effective(floquet_spectrum: FloquetSpectrum) -> EffectiveComparison:
    """Pair quasi-energies with effective eigenvalues under the optimal matching.

    The effective chain is built from ``floquet_spectrum.params``.
    ``per_mode_deviation[k]`` belongs to quasi-energy k in the sorted
    Floquet order.  Requires omega/2 to exceed the spectral radius of the
    effective chain so that zone folding cannot alias the comparison;
    raises AliasingError otherwise.
    """
    params = floquet_spectrum.params
    effective = compute_spectrum(params, Method.STATIC_EFFECTIVE)
    reach = float(np.abs(effective.quasi_energies.real).max())
    if params.omega / 2.0 <= reach:
        raise AliasingError(
            f"omega/2 = {params.omega / 2.0:.4g} does not clear the effective "
            f"spectral reach {reach:.4g}; folding would alias the comparison"
        )
    deviation = _matched_deviations(floquet_spectrum.quasi_energies,
                                    effective.quasi_energies)
    return EffectiveComparison(
        t_eff=effective_tunneling(params),
        max_quasi_energy_deviation=float(deviation.max()),
        per_mode_deviation=deviation,
    )


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


def _static_norm_bound(params: ModelParams) -> float:
    """Bound on ||H_static||_1 from the parameters: 2|T|(1+|lambda|) + gamma."""
    return 2.0 * abs(params.tunneling) * (1.0 + abs(params.lam)) + params.gamma


def _extended_norm_bound(params: ModelParams, n_floquet: int) -> float:
    """Bound on ||H_F||_1 from the parameters: ||H_static||_1 + N_F*omega + kappa*omega*max|D|."""
    reach = max(params.n0 - 1.0, params.n_sites - params.n0)
    return (_static_norm_bound(params) + n_floquet * params.omega
            + params.kappa * params.omega * reach)


def converge_nf(params: ModelParams, tol: float,
                spectra: dict[int, FloquetSpectrum] | None = None) -> int:
    """Smallest N_F whose delta(N_F), measured or estimated, is below ``tol``.

    delta(N_F) is the ``matched_distance`` between the spectra at N_F and
    N_F+2.  It is measured, or for N_F <= _NF_UNIT_STEPS estimated
    (calibrated, as below) where the estimate clears ``tol``.  An answer
    the estimate decided rests on it, not on a measured delta:
    ``scripts/nf_scan.py`` checks such answers against the measured delta
    on random chains, and one may lie above the smallest N_F whose
    measured delta is below ``tol``.  N_F steps by one up to
    _NF_UNIT_STEPS, then doubles (32, 64, ...) up to the largest N_F whose
    N_F + 2 matrix fits, and bisects the last step, assuming that delta
    falls monotonically.  Up to 16 a unit step costs less than doubling's
    overshoot (eigensolve work 0.72x at N_F = 7, 0.25-0.35x at 9-10, at
    most 1.20x at 16); a search failing at N = 40 also solves N_F = 93 and
    95, 3.5x the work of doubling alone.

    A unit-step probe reads delta(N_F) off its own solve when it can: the
    spectrum's ``truncation_error`` estimates the shift that the next
    blocks would make, and the step before calibrates it for free, as
    ratio = est(N_F - 1) / ``matched_distance``(N_F - 1, N_F) (the floor
    probe N_F = 2 solves N_F = 1 for this).  The estimate decides the probe
    when the ratio lies within a factor _ESTIMATE_CALIBRATION of 1 and both
    est(N_F) and est(N_F) / ratio lie on one side of ``tol`` by a factor
    _ESTIMATE_MARGIN.  Otherwise, and whenever either spectrum has no
    estimate (a mode near an exceptional point), the probe solves N_F + 2
    and measures delta as above; doubling and bisection probes always do.

    It raises ConvergenceCapError before a probe whose N_F + 2 matrix would
    exceed ``DIM_CAP`` rows, so a search that never converges solves
    nothing it could not pair.  It raises it too before a probe whose delta
    cannot fall below ``tol``: delta never fell below
    _NF_ROUNDING_FLOOR * eps * ||H_F||_1, with ||H_F||_1 bounded from the
    parameters (at omega = 1e8, delta stays near 1e-7), and after a probe
    whose delta >= tol is below _NF_ROUNDING_TOP in those units, where one
    probe cannot tell it from rounding noise, so it may still be falling.
    Every spectrum solved, the returned N_F's included, goes into ``spectra`` by N_F.
    """
    require_positive_finite("tol", tol)
    cache = {} if spectra is None else spectra

    def spectrum(nf: int) -> FloquetSpectrum:
        if nf not in cache:
            cache[nf] = quasi_energies_extended(params, nf)
        return cache[nf]

    def unreachable(nf: int, why: str) -> ConvergenceCapError:
        return ConvergenceCapError(f"N_F search cannot reach tol {tol:g}: at N_F={nf} {why} "
                                   f"(omega = {params.omega:.3g}); "
                                   f"set n_floquet (--n-floquet) to solve at a fixed N_F")

    def estimated(nf: int) -> float | None:
        """The calibrated estimate of delta(nf) where it decides the probe, else None."""
        if (est := spectrum(nf).truncation_error) is None:
            return None
        if not (prev := spectrum(nf - 1).truncation_error):  # None, or 0.0 when undriven
            return None
        step = matched_distance(spectrum(nf - 1), spectrum(nf))
        if not step / _ESTIMATE_CALIBRATION <= prev <= _ESTIMATE_CALIBRATION * step:
            return None
        low, high = sorted((est, est * step / prev))
        if high * _ESTIMATE_MARGIN < tol:
            return high
        if low > _ESTIMATE_MARGIN * tol:
            return low
        return None

    def delta(nf: int) -> float:
        if (rows := params.n_sites * (2 * nf + 5)) > DIM_CAP:
            raise unreachable(nf, f"the matrix at N_F+2 would have {rows} rows, "
                                  f"more than DIM_CAP = {DIM_CAP}")
        floor = _NF_ROUNDING_FLOOR * np.finfo(float).eps * _extended_norm_bound(params, nf + 2)
        if tol < floor < math.inf:  # an overflowing bound is build_floquet_matrix's error
            raise unreachable(nf, f"rounding alone moves the spectrum by {floor:.1e} or more")
        if nf <= _NF_UNIT_STEPS and (guess := estimated(nf)) is not None:
            return guess
        return matched_distance(spectrum(nf), spectrum(nf + 2))

    top = (DIM_CAP // params.n_sites - 5) // 2  # the last N_F whose N_F+2 matrix fits
    lo, hi = 1, 2  # hi is the probe; delta(lo) >= tol once lo >= 2
    while (last := delta(hi)) >= tol:
        if last <= _NF_ROUNDING_TOP * np.finfo(float).eps * _extended_norm_bound(params, hi + 2):
            raise unreachable(hi, f"delta = {last:.1e} cannot be told from rounding noise")
        lo, hi = hi, hi + 1 if hi < _NF_UNIT_STEPS else max(hi + 1, min(2 * hi, top))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if delta(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi
