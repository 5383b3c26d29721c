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
second-derivative column, read as sliding windows, never from the N x N
matrix.  A report solves eigenvalues only, checked per block against
the trace and the Frobenius norm, plus the one kernel vector, found by
one inverse-iteration solve on its block started from the analytic
kernel element; no other eigenvector is ever solved for.  Every
tolerance check fails on NaN.  The curve module gets
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
equation over half a period, which fixes the whole period's monodromy
because the potential is even; its growth coefficient theta satisfies
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
from numpy.lib.stride_tricks import sliding_window_view

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
_SOLVE_TOL = 1e-8  # even-block solve residual bound, relative to the right side
# theta's RK4 step is L / _THETA_STEPS, taken over half a period;
# L / 1e4 misses 1e-12 at (2 pi, 9.9)
_THETA_STEPS = 20_000


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectrum of one operator with parity and kernel bookkeeping.

    The eigenvalues are solved on the even and odd blocks of the operator
    and merged, so parity[i] ("even" or "odd") is the block eigenvalue i
    came from and holds by construction; eigenvalues are ascending.
    trace_defect and frobenius_defect are the larger of the two blocks'
    |sum lambda - tr B| / sum |lambda| and |sum lambda^2 - ||B||_F^2| /
    ||B||_F^2.  zero_match_error compares the unit-normalized zero
    eigenvector, the one eigenvector a report solves for, against the
    analytic kernel element (phi' for L1, phi for L2), ignoring overall
    sign, and kernel_residual is that eigenpair's ||B v - lambda v|| /
    ||B||; both are NaN when no eigenvalue falls inside the zero
    tolerance.
    """

    kind: str
    wp: WaveParams
    eigenvalues: np.ndarray
    parity: tuple
    n_negative: int
    zero_index: int | None
    zero_match_error: float
    kernel_residual: float
    tol_zero: float
    trace_defect: float
    frobenius_defect: float


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

    Returns (eigenvalues ascending, trace_defect, frobenius_defect).  A
    nonfinite entry is a NumericError.  An exactly symmetric matrix (the
    parity blocks are, by construction) is solved as it is; any other is
    rejected above a 1e-10 symmetry defect and symmetrized, which leaves
    an exactly symmetric one unchanged.  The whole spectrum must
    reproduce the trace and the Frobenius norm: |sum lambda - tr M| /
    sum |lambda| and |sum lambda^2 - ||M||_F^2| / ||M||_F^2 each at most
    1e-12, both O(n^2) to check.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericError("matrix has a nonfinite entry")
    sym = mat
    if not np.array_equal(mat, mat.T):
        defect = float(np.max(np.abs(mat - mat.T)))
        if not defect <= _SYMMETRY_TOL:
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
    if not (trace_defect <= _IDENTITY_TOL and frob_defect <= _IDENTITY_TOL):
        raise NumericError(
            f"eigenvalue identity defects (trace {trace_defect:.3e}, Frobenius "
            f"{frob_defect:.3e}) exceed {_IDENTITY_TOL}"
        )
    return evals, trace_defect, frob_defect


def _plus_diagonal(base: np.ndarray, diag) -> np.ndarray:
    """A copy of the square matrix base with diag added to its diagonal."""
    out = base.copy()
    out.flat[::len(out) + 1] += diag
    return out


def _kernel_vector(block: np.ndarray, lam: float, scale: float,
                   start: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit eigenvector of block for its eigenvalue lam, and its residual / scale.

    One inverse-iteration solve of (B - lam I) from start, the analytic
    kernel element in the block's coordinates: lam comes from eigvalsh,
    accurate to about eps ||B||, and start is already close to the
    eigenvector, so one step lands at rounding.  scale is ||B||, and the
    pair must satisfy ||B v - lam v|| <= 1e-9 ||B||.
    """
    try:
        vec = np.linalg.solve(_plus_diagonal(block, -lam), start)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"inverse iteration at {lam:.3e}: {exc}") from exc
    vec /= np.linalg.norm(vec)
    worst = float(np.linalg.norm(block @ vec - lam * vec))
    if not worst <= _RESIDUAL_TOL * scale:
        raise NumericError(
            f"eigenpair residual {worst:.3e} exceeds {_RESIDUAL_TOL} * ||M||"
        )
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
    Hankel part c[i + k], both read as sliding windows of the column.
    """
    col = second_derivative_column(L, N)
    n = N // 2 + 1
    # window s of [c[N/2] .. c[1], c[0] .. c[N/2]] holds c[|s + k - N/2|]
    toeplitz = sliding_window_view(np.concatenate((col[n - 1:0:-1], col[:n])), n)[::-1]
    hankel = sliding_window_view(np.append(col, col[0]), n)
    # a self-mirror point enters the Toeplitz and the Hankel part alike
    scale = math.sqrt(0.5) / _fold(N)
    even = toeplitz + hankel
    even *= np.outer(-scale, scale)
    odd = hankel[1:-1, 1:-1] - toeplitz[1:-1, 1:-1]
    even.flags.writeable = odd.flags.writeable = False
    return even, odd


def _folded(pot: np.ndarray) -> np.ndarray:
    """Grid rows on indices 0 .. N/2, each averaged with its mirror value.

    A potential is even only up to rounding, so its mirror halves are
    averaged before it enters a parity block.
    """
    head = np.arange(pot.shape[-1] // 2 + 1)
    return 0.5 * (pot[..., head] + pot[..., -head])


def _unfold(half: np.ndarray, even: bool) -> np.ndarray:
    """Grid values P v of parity-basis coefficients, along the last axis.

    half holds the coefficients on indices 0 .. N/2, an odd vector with
    zeros at 0 and N/2; value j > N/2 repeats value N - j, negated when
    the vector is odd.
    """
    N = 2 * (half.shape[-1] - 1)
    j = np.arange(N)
    grid = (_fold(N) * half)[..., np.minimum(j, N - j)]
    if not even:
        grid[..., N // 2 + 1:] *= -1.0
    return grid


def _parity_blocks(kind: str, wp: WaveParams, prof: Profile) -> list:
    """[even, odd] blocks P^T M P of M = -D2 + diag(V), never forming M."""
    pot = _folded(_potential(kind, wp.omega, prof.phi))
    d2_even, d2_odd = _folded_d2(prof.L, prof.N)
    return [_plus_diagonal(d2_even, pot), _plus_diagonal(d2_odd, pot[1:-1])]


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
        half[row] = np.linalg.solve(_plus_diagonal(even, v), b)
    u = _unfold(half, True)
    resid = -spectral_derivative(u, L, order=2) + pot * u - rhs
    worst = np.max(np.abs(resid), axis=-1).tolist()
    scale = np.max(np.abs(rhs), axis=-1).tolist()
    return u, [ContractError(f"even-block solve residual {w:.3e} exceeds "
                             f"{_SOLVE_TOL} * ||rhs||") if not w <= _SOLVE_TOL * r else None
               for w, r in zip(worst, scale)]


def spectrum_report(kind: str, wp: WaveParams, prof: Profile) -> SpectrumReport:
    """Eigenvalues with parity labels and zero-eigenvalue bookkeeping.

    Eigenvalues inside (-tol_zero, tol_zero) count as zero; the tolerance
    tol_zero = 1e-6 max(1, omega) separates spectral discretization error
    from genuine negative modes.  The kernel vector is the one
    eigenvector solved for.
    """
    tol_zero = 1e-6 * max(1.0, wp.omega)
    half = prof.N // 2
    blocks = _parity_blocks(kind, wp, prof)
    (even_vals, even_trace, even_frob), (odd_vals, odd_trace, odd_frob) = map(sym_eig, blocks)
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    parity = tuple(np.where(order <= half, "even", "odd").tolist())

    n_negative = int(np.sum(evals < -tol_zero))
    near = np.flatnonzero(np.abs(evals) <= tol_zero)
    zero_index, zero_match, kernel_residual = None, math.nan, math.nan
    if near.size:
        zero_index = int(near[np.argmin(np.abs(evals[near]))])
        even = bool(order[zero_index] <= half)
        block, block_vals = (blocks[0], even_vals) if even else (blocks[1], odd_vals)
        rows = slice(None) if even else slice(1, half)
        kernel = prof.dphi if kind == "L1" else prof.phi
        vec, kernel_residual = _kernel_vector(
            block, float(evals[zero_index]), float(np.max(np.abs(block_vals))),
            (kernel[:half + 1] / _fold(prof.N))[rows])
        coef = np.zeros(half + 1)
        coef[rows] = vec
        vec = _unfold(coef, even)
        khat = kernel / np.linalg.norm(kernel)
        zero_match = float(min(np.linalg.norm(vec - khat),
                               np.linalg.norm(vec + khat)))

    return SpectrumReport(
        kind=kind,
        wp=wp,
        eigenvalues=evals,
        parity=parity,
        n_negative=n_negative,
        zero_index=zero_index,
        zero_match_error=zero_match,
        kernel_residual=kernel_residual,
        tol_zero=tol_zero,
        trace_defect=max(even_trace, odd_trace),
        frobenius_defect=max(even_frob, odd_frob),
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
        even = rep.eigenvalues[np.array(rep.parity, dtype=object) == "even"]
        n_neg_even += int(np.sum(even < -rep.tol_zero))
        zero_even += int(np.sum(np.abs(even) <= rep.tol_zero))
    return CombinedCounts(int(n_negative), zero_mult, n_neg_even, zero_even)


def theta_constant(wp: WaveParams) -> float:
    """Growth coefficient of the companion amplitude-channel Hill solution.

    The equation y'' = (omega - 3 phi^2 - 5 phi^4) y has the L-periodic
    solution phi'.  The companion solution fixed by y(0) = -1/phi''(0),
    y'(0) = 0 has unit Wronskian against phi' and returns after one
    period with its slope shifted by a multiple of phi''(0); that
    multiple is theta = y'(L)/phi''(0).  The potential is even, so the
    monodromy follows from the half period (Magnus-Winkler 1966, 2.2):
    y'(L) = 2 y(L/2) y'(L/2) / y(0), which makes theta = -2 y(L/2) y'(L/2).

    Classical 4th-order Runge-Kutta with _THETA_STEPS // 2 steps of
    length L / _THETA_STEPS over [0, L/2], the potential evaluated
    off-grid through the closed-form profile (no interpolation).  Each
    step is the RK4 step matrix of (y, y')' = (y', V y), applied by a
    plain recurrence; the unit Wronskian is monitored at every step.
    """
    phi0 = math.sqrt(wp.alpha3)
    ddphi0 = wp.omega * phi0 - phi0**3 - phi0**5
    if abs(ddphi0) < 1e-12:
        raise DegenerateError(
            "wave is an equilibrium: |phi''(0)| below 1e-12, no growth direction"
        )

    n = _THETA_STEPS // 2
    h = wp.L / _THETA_STEPS
    # profile on the 2n + 1 half-step points of [0, L/2]
    phi, dphi = _profile_and_slope(wp, np.arange(2 * n + 1) * (0.5 * h))
    pot = _potential("L1", wp.omega, phi)
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
    term_b = (phi * _potential("L2", wp.omega, phi))[::2] * ys
    scale = max(1.0, float(np.max(np.abs(term_a))), float(np.max(np.abs(term_b))))
    drift = float(np.max(np.abs(term_a - term_b - 1.0)))
    if not drift <= 1e-6 * scale:
        raise NumericError(
            f"Wronskian drift {drift:.3e} exceeds 1e-6 of the flow scale {scale:.3e}"
        )
    return -2.0 * y * z
