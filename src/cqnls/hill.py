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
its even and odd blocks separately: every eigenvector is
reflection-symmetric or antisymmetric by construction.  The blocks are
assembled from the circulant second-derivative column, never from the
N x N matrix, and the eigenpairs stay in block form: a report lifts its
N x N eigenvector matrix only when first read.  solve_even inverts an
operator on the even block alone, which is how the curve module gets
its tangent from L1.  Oscillation
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
    "potential_values",
    "sym_eig",
    "solve_even",
    "spectrum_report",
    "combined_counts",
    "theta_constant",
]

_KINDS = ("L1", "L2")
_SYMMETRY_TOL = 1e-10  # sym_eig rejects matrices less symmetric than this
_RESIDUAL_TOL = 1e-9  # eigenpair residual bound, relative to the spectral radius
_SOLVE_TOL = 1e-8  # even-block solve residual bound, relative to the right side
_THETA_STEPS = 20_000  # theta's RK4 steps per period; 1e4 misses 1e-12 at (2 pi, 9.9)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Full eigendecomposition of one operator with parity bookkeeping.

    The spectrum is solved on the even and odd blocks of the operator and
    merged, so parity[i] ("even" or "odd") is the block eigenpair i came
    from and holds by construction.  eigenvalues are ascending; order[i]
    is its column among the (even, odd) block_vectors, and eigenvectors,
    lifted from them when first read, are orthonormal under sum_j f_j g_j
    (L/N).  orthonormality_defect is the largest |V^T V - I| entry over
    both blocks, the grid Gram defect up to rounding.  zero_match_error
    compares the unit-normalized zero eigenvector against the analytic
    kernel element (phi' for L1, phi for L2), ignoring overall sign; it is
    NaN when no eigenvalue falls inside the zero tolerance.
    """

    kind: str
    wp: WaveParams
    eigenvalues: np.ndarray
    parity: tuple
    n_negative: int
    zero_index: int | None
    zero_match_error: float
    tol_zero: float
    orthonormality_defect: float
    block_vectors: tuple
    order: np.ndarray

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        return _lift(*self.block_vectors, self.order) * math.sqrt(self.order.size / self.wp.L)


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


def potential_values(kind: str, wp: WaveParams, prof: Profile) -> np.ndarray:
    """Grid samples of the potential of operator kind, "L1" or "L2"."""
    phi2 = prof.phi**2
    if kind == "L1":
        return wp.omega - 3.0 * phi2 - 5.0 * phi2 * phi2
    if kind == "L2":
        return wp.omega - phi2 - phi2 * phi2
    raise ConfigError(f"operator kind must be one of {_KINDS}, got {kind!r}")


def sym_eig(matrix):
    """Full spectrum of a real symmetric matrix.

    Returns (eigenvalues ascending, orthonormal eigenvector columns) and
    enforces a per-pair residual ||M v - lambda v|| <= 1e-9 ||M||.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {mat.shape}")
    defect = float(np.max(np.abs(mat - mat.T))) if mat.size else 0.0
    if defect > _SYMMETRY_TOL:
        raise ContractError(
            f"matrix symmetry defect {defect:.3e} exceeds {_SYMMETRY_TOL}"
        )
    evals, evecs = np.linalg.eigh(0.5 * (mat + mat.T))
    scale = max(float(np.max(np.abs(evals))), np.finfo(float).tiny)
    resid = mat @ evecs - evecs * evals
    worst = float(np.max(np.sqrt(np.sum(resid * resid, axis=0))))
    if worst > _RESIDUAL_TOL * scale:
        raise NumericError(
            f"eigenpair residual {worst:.3e} exceeds {_RESIDUAL_TOL} * ||M||"
        )
    return evals, evecs


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


def _parity_blocks(kind: str, wp: WaveParams, prof: Profile, odd: bool = True) -> list:
    """[even, odd] blocks P^T M P of M = -D2 + diag(V), never forming M.

    V is even only up to rounding, so its mirror halves are averaged.
    """
    N = prof.N
    pot = potential_values(kind, wp, prof)
    pot = 0.5 * (pot[:N // 2 + 1] + pot[-np.arange(N // 2 + 1)])
    return [d2 + np.diag(v) for d2, v in
            zip(_folded_d2(prof.L, N)[:1 + odd], (pot, pot[1:-1]))]


def solve_even(kind: str, wp: WaveParams, prof: Profile, rhs) -> np.ndarray:
    """Grid solution u of (-D2 + V) u = rhs for an even right side.

    Solved on the even block, so the operator need only be invertible on
    even functions (L1's kernel phi' is odd).  The residual is checked on
    the full grid through FFT differentiation.
    """
    L, N = prof.L, prof.N
    rhs = np.asarray(rhs, dtype=float)
    weight = _fold(N)
    (even,) = _parity_blocks(kind, wp, prof, odd=False)
    u = weight * np.linalg.solve(even, rhs[:N // 2 + 1] / weight)
    u = u[np.minimum(np.arange(N), N - np.arange(N))]
    resid = -spectral_derivative(u, L, order=2) + potential_values(kind, wp, prof) * u - rhs
    worst = float(np.max(np.abs(resid)))
    if worst > _SOLVE_TOL * float(np.max(np.abs(rhs))):
        raise ContractError(f"even-block solve residual {worst:.3e} exceeds "
                            f"{_SOLVE_TOL} * ||rhs||")
    return u


def _lift(even_vecs: np.ndarray, odd_vecs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Grid columns P v, unit in sum_j v_j^2, of the merged block columns cols.

    Row j > N/2 repeats row N - j, negated in the odd columns (cols > N/2).
    """
    half = even_vecs.shape[0] - 1
    weight = _fold(2 * half)[:, None]
    even = cols <= half
    coef = np.zeros((half + 1, cols.size))
    coef[:, even] = weight * even_vecs[:, cols[even]]
    coef[1:half, ~even] = weight[1:-1] * odd_vecs[:, cols[~even] - half - 1]
    vecs = coef[np.minimum(np.arange(2 * half), np.arange(2 * half, 0, -1))]
    vecs[half + 1:] *= np.where(even, 1.0, -1.0)
    return vecs


def spectrum_report(kind: str, wp: WaveParams, prof: Profile) -> SpectrumReport:
    """Eigendecomposition with parity labels and zero-eigenvalue bookkeeping.

    Eigenvalues inside (-tol_zero, tol_zero) count as zero; the tolerance
    tol_zero = 1e-6 max(1, omega) separates spectral discretization error
    from genuine negative modes.
    """
    tol_zero = 1e-6 * max(1.0, wp.omega)
    (even_vals, even_vecs), (odd_vals, odd_vecs) = map(sym_eig, _parity_blocks(kind, wp, prof))
    ortho = max(float(np.max(np.abs(v.T @ v - np.eye(len(v))))) for v in (even_vecs, odd_vecs))
    if ortho > 1e-10:
        raise NumericError(f"eigenvector orthonormality defect {ortho:.3e}")
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    parity = tuple("even" if i <= prof.N // 2 else "odd" for i in order)

    n_negative = int(np.sum(evals < -tol_zero))
    near = np.flatnonzero(np.abs(evals) <= tol_zero)
    if near.size:
        zero_index = int(near[np.argmin(np.abs(evals[near]))])
        kernel = prof.dphi if kind == "L1" else prof.phi
        khat = kernel / np.linalg.norm(kernel)
        vec = _lift(even_vecs, odd_vecs, order[[zero_index]])[:, 0]
        zero_match = float(min(np.linalg.norm(vec - khat),
                               np.linalg.norm(vec + khat)))
    else:
        zero_index = None
        zero_match = math.nan

    return SpectrumReport(
        kind=kind,
        wp=wp,
        eigenvalues=evals,
        parity=parity,
        n_negative=n_negative,
        zero_index=zero_index,
        zero_match_error=zero_match,
        tol_zero=tol_zero,
        orthonormality_defect=ortho,
        block_vectors=(even_vecs, odd_vecs),
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
