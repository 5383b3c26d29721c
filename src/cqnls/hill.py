"""Spectra of the linearized operators about a standing wave.

Writing a perturbed standing wave as e^{i omega t}(phi + v + i w) and
linearizing the flow decouples the real and imaginary parts into two
self-adjoint Hill operators on L-periodic functions,

    L1 v = -v'' + (omega - 3 phi^2 - 5 phi^4) v    (amplitude channel),
    L2 w = -w'' + (omega - phi^2 - phi^4) w        (phase channel).

Differentiating the profile equation once shows L1 phi' = 0, and the
profile equation itself says L2 phi = 0, so each operator carries an
explicit kernel element.  The operator routines take an operator as
its kind ("L1" or "L2") followed by the wave's parameters and grid
profile.  Both potentials are even, so the operators commute with the
grid reflection j -> (N - j) mod N and the eigenproblem is solved on
its even and odd blocks separately: every eigenvalue carries its parity
by construction.  The blocks are assembled from the circulant
second-derivative column, never from the N x N matrix.  A report reads
eigenvalues only, checked per block against the trace and the Frobenius
norm, plus the one kernel vector, found by inverse iteration on its
block; the block eigenvectors, and the N x N eigenvector matrix lifted
from them, are solved for only when first read.  The curve module gets
its tangent from L1 inverted on the even block alone: a sweep solves
all its points as rows, one LU per row of the shared folded -D2, with
the residuals of all rows checked in one pass.  Oscillation
theory pins the structure the stability argument needs: L1 has exactly
one negative eigenvalue (even, nodeless ground state) with zero next,
spanned by the odd function phi'; L2 is nonnegative with zero at the
bottom, spanned by the positive function phi.

Discretization is Fourier collocation (exact for trigonometric
polynomials below the Nyquist degree), which makes "zero is an
eigenvalue" sharp to near machine precision.  theta_constant integrates
the companion, linearly growing solution of the amplitude-channel Hill
equation over one period; its growth coefficient theta satisfies
dT/dB = -theta/2, tying the spectrum's zero position to the period's
dependence on the quadrature constant.  The equation is linear, so each
RK4 step is a 2 x 2 matrix, built for all steps at once from the
closed-form profile; a plain recurrence applies them in turn, and the
unit Wronskian is checked at every step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DegenerateError, NumericError
from .fourier import second_derivative_column, spectral_derivative
from .waves import Profile, WaveParams, _profile_and_slope

__all__ = [
    "SpectrumReport",
    "CombinedCounts",
    "sym_eig",
    "spectrum_report",
    "combined_counts",
    "theta_constant",
]

_KINDS = ("L1", "L2")
_SYMMETRY_TOL = 1e-10  # sym_eig rejects matrices less symmetric than this
_RESIDUAL_TOL = 1e-9  # eigenpair residual bound, relative to the spectral radius
_IDENTITY_TOL = 1e-12  # trace and Frobenius identity bound (rounding reads <= 4e-16)
_GRAM_TOL = 1e-10  # block eigenvector orthonormality bound
_SOLVE_TOL = 1e-8  # even-block solve residual bound, relative to the right side
_THETA_STEPS = 20_000  # theta's RK4 steps per period; 1e4 misses 1e-12 at (2 pi, 9.9)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectrum of one operator with parity and kernel bookkeeping.

    The eigenvalues are solved on the even and odd blocks of the operator
    and merged, so parity[i] ("even" or "odd") is the block eigenvalue i
    came from and holds by construction.  eigenvalues are ascending and
    order[i] is the merged (even, odd) block index of eigenvalue i.
    trace_defect and frobenius_defect are the larger of the two blocks'
    |sum lambda - tr B| / sum |lambda| and |sum lambda^2 - ||B||_F^2| /
    ||B||_F^2.  zero_match_error compares the unit-normalized zero
    eigenvector against the analytic kernel element (phi' for L1, phi for
    L2), ignoring overall sign, and kernel_residual is that eigenpair's
    ||B v - lambda v|| / ||B||; both are NaN when no eigenvalue falls
    inside the zero tolerance.

    The eigenvectors are solved for on first read: block_vectors holds the
    (even, odd) block columns, in block order, with orthonormality_defect
    the largest |V^T V - I| entry over both blocks, and eigenvectors lifts
    them to the grid in the report's own order, orthonormal under
    sum_j f_j g_j (L/N).
    """

    kind: str
    wp: WaveParams
    prof: Profile
    eigenvalues: np.ndarray
    parity: tuple
    n_negative: int
    zero_index: int | None
    zero_match_error: float
    kernel_residual: float
    tol_zero: float
    trace_defect: float
    frobenius_defect: float
    order: np.ndarray

    @functools.cached_property
    def _eigenpairs(self) -> tuple:
        merged = np.empty_like(self.eigenvalues)
        merged[self.order] = self.eigenvalues
        vecs = tuple(_block_vectors(block, vals) for block, vals in zip(
            _parity_blocks(self.kind, self.wp, self.prof),
            np.split(merged, [self.prof.N // 2 + 1])))
        ortho = max(float(np.max(np.abs(v.T @ v - np.eye(len(v))))) for v in vecs)
        if ortho > _GRAM_TOL:
            raise NumericError(f"eigenvector orthonormality defect {ortho:.3e}")
        return vecs, ortho

    @property
    def block_vectors(self) -> tuple:
        return self._eigenpairs[0]

    @property
    def orthonormality_defect(self) -> float:
        return self._eigenpairs[1]

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        even_vecs, odd_vecs = self.block_vectors
        half = self.prof.N // 2
        even = self.order <= half
        coef = np.zeros((half + 1, self.order.size))
        coef[:, even] = even_vecs[:, self.order[even]]
        coef[1:half, ~even] = odd_vecs[:, self.order[~even] - half - 1]
        return _lift(coef, even) * math.sqrt(self.order.size / self.wp.L)


@dataclass(frozen=True)
class CombinedCounts:
    """Negative/zero counts of the block-diagonal linearization diag(L1, L2).

    The *_even fields restrict both operators to even grid functions,
    which drops the odd kernel element phi' of L1.
    """

    n_negative: int
    zero_multiplicity: int
    n_negative_even: int
    zero_multiplicity_even: int


def _potential(kind: str, omega, phi: np.ndarray) -> np.ndarray:
    """Potential of kind from profile rows phi and a frequency (column) omega."""
    phi2 = phi**2
    if kind == "L1":
        return omega - 3.0 * phi2 - 5.0 * phi2 * phi2
    if kind == "L2":
        return omega - phi2 - phi2 * phi2
    raise ConfigError(f"operator kind must be one of {_KINDS}, got {kind!r}")


def sym_eig(matrix):
    """Eigenvalues of a real symmetric matrix, checked against two identities.

    Returns (eigenvalues ascending, trace_defect, frobenius_defect).  The
    whole spectrum must reproduce the trace and the Frobenius norm:
    |sum lambda - tr M| / sum |lambda| and |sum lambda^2 - ||M||_F^2| /
    ||M||_F^2 each at most 1e-12, both O(n^2) to check.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {mat.shape}")
    defect = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if defect > _SYMMETRY_TOL:
        raise ContractError(
            f"matrix symmetry defect {defect:.3e} exceeds {_SYMMETRY_TOL}"
        )
    sym = 0.5 * (mat + mat.T)
    evals = np.linalg.eigvalsh(sym)
    tiny = np.finfo(float).tiny
    frob2 = float(np.vdot(sym, sym))
    trace_defect = abs(float(np.sum(evals)) - float(np.trace(sym))) / max(
        float(np.sum(np.abs(evals))), tiny)
    frob_defect = abs(float(evals @ evals) - frob2) / max(frob2, tiny)
    if max(trace_defect, frob_defect) > _IDENTITY_TOL:
        raise NumericError(
            f"eigenvalue identity defects (trace {trace_defect:.3e}, Frobenius "
            f"{frob_defect:.3e}) exceed {_IDENTITY_TOL}"
        )
    return evals, trace_defect, frob_defect


def _check_residual(worst: float, scale: float) -> None:
    if worst > _RESIDUAL_TOL * scale:
        raise NumericError(
            f"eigenpair residual {worst:.3e} exceeds {_RESIDUAL_TOL} * ||M||"
        )


def _block_vectors(block: np.ndarray, evals: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvector columns of a symmetric block, paired with evals.

    evals are the block's eigenvalues, ascending, as sym_eig found them;
    each column must satisfy ||B v - lambda v|| <= 1e-9 ||B||.
    """
    evecs = np.linalg.eigh(0.5 * (block + block.T))[1]
    resid = block @ evecs - evecs * evals
    _check_residual(float(np.max(np.sqrt(np.sum(resid * resid, axis=0)))),
                    float(np.max(np.abs(evals))))
    return evecs


def _kernel_vector(block: np.ndarray, lam: float, scale: float) -> tuple[np.ndarray, float]:
    """Unit eigenvector of block for its eigenvalue lam, and its residual / scale.

    Two inverse-iteration solves of (B - lam I) from the all-ones vector;
    the kernel elements phi and phi' keep one sign on the half grid, so
    that start is far from orthogonal to them.  scale is ||B||.
    """
    shifted = block - lam * np.eye(len(block))
    vec = np.ones(len(block))
    for _ in range(2):
        try:
            vec = np.linalg.solve(shifted, vec)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"inverse iteration at {lam:.3e}: {exc}") from exc
        vec /= np.linalg.norm(vec)
    worst = float(np.linalg.norm(block @ vec - lam * vec))
    _check_residual(worst, scale)
    return vec, worst / scale


def _fold(N: int) -> np.ndarray:
    """Grid value of each parity basis vector on indices 0 .. N/2.

    The even basis is e_0, e_{N/2}, (e_j + e_{N-j})/sqrt(2) and the odd one
    (e_j - e_{N-j})/sqrt(2), 0 < j < N/2.
    """
    weight = np.full(N // 2 + 1, math.sqrt(0.5))
    weight[[0, -1]] = 1.0
    return weight


@functools.lru_cache(maxsize=1)
def _folded_d2(L: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """-D2 on the even and odd bases (read-only), from its circulant column.

    The column c is even, so on indices 0 .. N/2 the mirror sums of D2
    are the Toeplitz part c[|i - k|] plus (even) or minus (odd) the
    Hankel part c[i + k].
    """
    col = second_derivative_column(L, N)
    head = np.arange(N // 2 + 1)
    toeplitz = col[np.abs(head[:, None] - head)]
    hankel = col[(head[:, None] + head) % N]
    # a self-mirror point enters the Toeplitz and the Hankel part alike
    scale = math.sqrt(0.5) / _fold(N)
    even = -(toeplitz + hankel) * np.outer(scale, scale)
    odd = (hankel - toeplitz)[1:-1, 1:-1]
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


def _folded(pot: np.ndarray) -> np.ndarray:
    """Grid rows on indices 0 .. N/2, each averaged with its mirror value.

    A potential is even only up to rounding, so its mirror halves are
    averaged before it enters a parity block.
    """
    head = np.arange(pot.shape[-1] // 2 + 1)
    return 0.5 * (pot[..., head] + pot[..., -head])


def _parity_blocks(kind: str, wp: WaveParams, prof: Profile) -> list:
    """[even, odd] blocks P^T M P of M = -D2 + diag(V), never forming M."""
    pot = _folded(_potential(kind, wp.omega, prof.phi))
    return [d2 + np.diag(v) for d2, v in zip(_folded_d2(prof.L, prof.N), (pot, pot[1:-1]))]


def _solve_even_rows(kind: str, omega: np.ndarray, phi: np.ndarray, L: float,
                     rhs: np.ndarray) -> tuple[np.ndarray, list]:
    """Grid solutions u[i] of (-D2 + V) u = rhs[i], V the potential at (omega[i], phi[i]).

    Solved on the even block, so the operator need only be invertible on
    even functions (L1's kernel phi' is odd).  Each row gets its own LU of
    the shared folded -D2 plus its potential, never a stack of blocks; the
    residuals are checked on the full grid by FFT differentiation in one
    pass.  Returns the solution rows and, per row, the residual's
    ContractError or None.
    """
    N = phi.shape[-1]
    weight = _fold(N)
    pot = _potential(kind, omega[:, None], phi)
    even = _folded_d2(L, N)[0]
    half = np.empty((len(phi), N // 2 + 1))
    for row, (v, b) in enumerate(zip(_folded(pot), rhs[:, :N // 2 + 1] / weight)):
        half[row] = np.linalg.solve(even + np.diag(v), b)
    u = (weight * half)[:, np.minimum(np.arange(N), N - np.arange(N))]
    resid = -spectral_derivative(u, L, order=2) + pot * u - rhs
    worst = np.max(np.abs(resid), axis=-1).tolist()
    scale = np.max(np.abs(rhs), axis=-1).tolist()
    return u, [ContractError(f"even-block solve residual {w:.3e} exceeds "
                             f"{_SOLVE_TOL} * ||rhs||") if w > _SOLVE_TOL * r else None
               for w, r in zip(worst, scale)]


def _lift(coef: np.ndarray, even: np.ndarray) -> np.ndarray:
    """Grid columns P v, unit in sum_j v_j^2, of parity-basis columns.

    coef holds each column's coefficients on indices 0 .. N/2, an odd
    column with zeros at 0 and N/2; row j > N/2 repeats row N - j,
    negated in the columns that are not even.
    """
    half = coef.shape[0] - 1
    vecs = (_fold(2 * half)[:, None] * coef)[
        np.minimum(np.arange(2 * half), np.arange(2 * half, 0, -1))]
    vecs[half + 1:] *= np.where(even, 1.0, -1.0)
    return vecs


def spectrum_report(kind: str, wp: WaveParams, prof: Profile) -> SpectrumReport:
    """Eigenvalues with parity labels and zero-eigenvalue bookkeeping.

    Eigenvalues inside (-tol_zero, tol_zero) count as zero; the tolerance
    tol_zero = 1e-6 max(1, omega) separates spectral discretization error
    from genuine negative modes.  Eigenvectors are left to the report's
    first read, bar the kernel vector.
    """
    tol_zero = 1e-6 * max(1.0, wp.omega)
    half = prof.N // 2
    blocks = _parity_blocks(kind, wp, prof)
    (even_vals, even_trace, even_frob), (odd_vals, odd_trace, odd_frob) = map(sym_eig, blocks)
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    parity = tuple("even" if i <= half else "odd" for i in order)

    n_negative = int(np.sum(evals < -tol_zero))
    near = np.flatnonzero(np.abs(evals) <= tol_zero)
    zero_index, zero_match, kernel_residual = None, math.nan, math.nan
    if near.size:
        zero_index = int(near[np.argmin(np.abs(evals[near]))])
        even = bool(order[zero_index] <= half)
        block, block_vals = (blocks[0], even_vals) if even else (blocks[1], odd_vals)
        vec, kernel_residual = _kernel_vector(block, float(evals[zero_index]),
                                              float(np.max(np.abs(block_vals))))
        coef = np.zeros((half + 1, 1))
        coef[slice(None) if even else slice(1, half), 0] = vec
        vec = _lift(coef, np.array([even]))[:, 0]
        kernel = prof.dphi if kind == "L1" else prof.phi
        khat = kernel / np.linalg.norm(kernel)
        zero_match = float(min(np.linalg.norm(vec - khat),
                               np.linalg.norm(vec + khat)))

    return SpectrumReport(
        kind=kind,
        wp=wp,
        prof=prof,
        eigenvalues=evals,
        parity=parity,
        n_negative=n_negative,
        zero_index=zero_index,
        zero_match_error=zero_match,
        kernel_residual=kernel_residual,
        tol_zero=tol_zero,
        trace_defect=max(even_trace, odd_trace),
        frobenius_defect=max(even_frob, odd_frob),
        order=order,
    )


def combined_counts(r1: SpectrumReport, r2: SpectrumReport) -> CombinedCounts:
    """Merge the two channel spectra into full and even-restricted counts."""
    if r1.kind != "L1" or r2.kind != "L2":
        raise ContractError(
            f"expected reports for kinds ('L1', 'L2'), got ({r1.kind!r}, {r2.kind!r})"
        )
    if r1.wp != r2.wp:
        raise ContractError("spectrum reports come from different waves")
    n_negative = r1.n_negative + r2.n_negative
    zero_mult = int(
        np.sum(np.abs(r1.eigenvalues) <= r1.tol_zero)
        + np.sum(np.abs(r2.eigenvalues) <= r2.tol_zero)
    )
    n_neg_even = 0
    zero_even = 0
    for rep in (r1, r2):
        for idx, label in enumerate(rep.parity):
            if label != "even":
                continue
            lam = rep.eigenvalues[idx]
            if lam < -rep.tol_zero:
                n_neg_even += 1
            elif abs(lam) <= rep.tol_zero:
                zero_even += 1
    return CombinedCounts(int(n_negative), zero_mult, n_neg_even, zero_even)


def theta_constant(wp: WaveParams) -> float:
    """Growth coefficient of the companion amplitude-channel Hill solution.

    The equation y'' = (omega - 3 phi^2 - 5 phi^4) y has the L-periodic
    solution phi'.  The companion solution fixed by y(0) = -1/phi''(0),
    y'(0) = 0 has unit Wronskian against phi' and returns after one
    period with its slope shifted by a multiple of phi''(0); that
    multiple is theta = y'(L)/phi''(0).  Since phi'(0) = 0 the value
    y(L) equals y(0), so the slope alone carries the growth.

    Classical 4th-order Runge-Kutta with _THETA_STEPS steps over one
    period, the potential evaluated off-grid through the closed-form
    profile (no interpolation).  Each step is the RK4 step matrix of
    (y, y')' = (y', V y), applied by a plain recurrence; the unit
    Wronskian is monitored at every one of the _THETA_STEPS + 1 points.
    """
    phi0 = math.sqrt(wp.alpha3)
    ddphi0 = wp.omega * phi0 - phi0**3 - phi0**5
    if abs(ddphi0) < 1e-12:
        raise DegenerateError(
            "wave is an equilibrium: |phi''(0)| below 1e-12, no growth direction"
        )

    n = _THETA_STEPS
    h = wp.L / n
    # profile on the 2n + 1 half-step points of [0, L]
    phi, dphi = _profile_and_slope(wp, np.arange(2 * n + 1) * (0.5 * h))
    phi2 = np.square(phi)
    pot = wp.omega - 3.0 * phi2 - 5.0 * phi2 * phi2
    v0, vh, v1 = pot[:-1:2], pot[1::2], pot[2::2]

    # RK4 step of (y, z)' = (z, V y), with V = v0, vh, v1 at x, x + h/2,
    # x + h, as the matrix [[a, b], [c, d]]; w = h^2/6 + h^4 vh/24 and
    # t = h^2 vh/3:
    #   a = 1 + v0 w + t,                            b = h + h^3 vh/6,
    #   c = (v0 + v1)(h/6 + h^3 vh/12) + 2 h vh/3,   d = 1 + v1 w + t.
    hh = h * h
    w = vh * (hh * hh / 24.0) + hh / 6.0
    t = vh * (hh / 3.0)
    a = v0 * w + t + 1.0
    b = vh * (hh * h / 6.0) + h
    c = (v0 + v1) * (vh * (hh * h / 12.0) + h / 6.0) + t * (2.0 / h)
    d = v1 * w + t + 1.0

    # memoryviews hand out one float at a time: tolist() would make 4n float
    # objects at once, and the 2 MiB they leave behind raises a later peak
    ys, zs = np.empty(n + 1), np.empty(n + 1)
    y, z = -1.0 / ddphi0, 0.0
    ys[0], zs[0] = y, z
    for i, (ma, mb, mc, md) in enumerate(zip(*map(memoryview, (a, b, c, d))), 1):
        y, z = ma * y + mb * z, mc * y + md * z
        ys[i], zs[i] = y, z

    # W(phi', y) = phi' y' - phi'' y equals 1 at x = 0 by construction;
    # near the solitary limit the companion solution swings through huge
    # values before returning, so the drift is measured against the
    # largest flow magnitude rather than against W itself
    term_a = dphi[::2] * zs
    term_b = (phi * (wp.omega - phi2 - phi2 * phi2))[::2] * ys
    scale = max(1.0, float(np.max(np.abs(term_a))), float(np.max(np.abs(term_b))))
    drift = float(np.max(np.abs(term_a - term_b - 1.0)))
    if drift > 1e-6 * scale:
        raise NumericError(
            f"Wronskian drift {drift:.3e} exceeds 1e-6 of the flow scale {scale:.3e}"
        )
    return z / ddphi0
