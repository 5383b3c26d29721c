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
kernel element, and matched against that element in the block's
coordinates; no other eigenvector is ever solved for and no report
leaves the blocks.  Parity is a boolean mask on the merged spectrum.
Every tolerance check fails on NaN.  Oscillation theory pins the
structure the stability argument needs: L1 has exactly one negative
eigenvalue (even, nodeless ground state) with zero next, spanned by the
odd function phi'; L2 is nonnegative with zero at the bottom, spanned
by the positive function phi.

Discretization is Fourier collocation (exact for trigonometric
polynomials below the Nyquist degree), which makes "zero is an
eigenvalue" sharp to near machine precision.  theta_constant integrates
the companion, linearly growing solution of the amplitude-channel Hill
equation over half a period, which fixes the whole period's monodromy
because the potential is even; its growth coefficient theta satisfies
dT/dB = -theta/2, tying the spectrum's zero position to the period's
dependence on the quadrature constant.  The equation is linear, so each
RK4 step is a 2 x 2 matrix, built for all steps at once from the
closed-form profile on the half period; a plain recurrence applies them
in turn, and the unit Wronskian, which reads phi', is checked at every
step.  The profile and its slope come from waves' half-period reader,
so phi' is the closed form, not a grid derivative: the step points lie
off the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, DegenerateError, NumericError, _agree, _relative
from .fourier import second_derivative_column
from .waves import Profile, WaveParams, _half_period

__all__ = [
    "SpectrumReport",
    "CombinedCounts",
    "sym_eig",
    "spectrum_report",
    "combined_counts",
    "theta_constant",
]

_KINDS = ("L1", "L2")
_RESIDUAL_TOL = 1e-9  # eigenpair residual bound, relative to the spectral radius
_IDENTITY_TOL = 1e-12  # trace and Frobenius identity bound (rounding reads <= 4e-16)
# theta's RK4 step is L / _THETA_STEPS, taken over half a period;
# L / 1e4 misses 1e-12 at (2 pi, 9.9)
_THETA_STEPS = 20_000


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Spectrum of one operator with parity and kernel bookkeeping.

    The eigenvalues are solved on the even and odd blocks of the operator
    and merged, so even[i] (a boolean array) says whether eigenvalue i came
    from the even block, and holds by construction; eigenvalues are
    ascending.  trace_defect and frobenius_defect are the larger of the
    two blocks' |sum lambda - tr B| / sum |lambda| and |sum lambda^2 -
    ||B||_F^2| / ||B||_F^2.  zero_match_error is min ||v -+ s|| in the
    block's own coordinates, v the unit zero eigenvector (the one
    eigenvector a report solves for) and s the analytic kernel element
    (phi' for L1, phi for L2) folded onto that block and normalized; the
    fold is orthonormal, so this is the grid comparison up to the
    element's wrong-parity rounding part.  kernel_residual is that
    eigenpair's ||B v - lambda v|| / ||B||; both are NaN when no
    eigenvalue falls inside the zero tolerance.
    """

    kind: str
    wp: WaveParams
    eigenvalues: np.ndarray
    even: np.ndarray
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
    """Potential of kind at frequency omega on the profile samples phi."""
    phi2 = phi**2
    if kind == "L1":
        return omega - 3.0 * phi2 - 5.0 * phi2 * phi2
    if kind == "L2":
        return omega - phi2 - phi2 * phi2
    raise ConfigError(f"operator kind must be one of {_KINDS}, got {kind!r}")


def sym_eig(matrix):
    """Eigenvalues of a real symmetric matrix, checked against two identities.

    Returns (eigenvalues ascending, trace_defect, frobenius_defect).  A
    nonfinite entry is a NumericError.  The matrix must be exactly
    symmetric or it is a ContractError naming its largest defect; the
    parity blocks are, by construction, and are solved as they are, so
    no eigenvalue passes through a symmetrization.  The whole spectrum must
    reproduce the trace and the Frobenius norm: |sum lambda - tr M| /
    sum |lambda| and |sum lambda^2 - ||M||_F^2| / ||M||_F^2 each at most
    1e-12, both O(n^2) to check.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise NumericError("matrix has a nonfinite entry")
    if not np.array_equal(mat, mat.T):
        raise ContractError(
            f"matrix is not symmetric: defect {np.max(np.abs(mat - mat.T)):.3e}")
    evals = np.linalg.eigvalsh(mat)
    tiny = np.finfo(float).tiny
    frob2 = float(np.vdot(mat, mat))
    trace = (float(np.sum(evals)) - float(np.trace(mat)), (float(np.sum(np.abs(evals))), tiny))
    frob = (float(evals @ evals) - frob2, (frob2, tiny))
    for name, (residual, terms) in (("trace", trace), ("Frobenius", frob)):
        if error := _agree(f"eigenvalue identity defects: {name}", residual, terms,
                           _IDENTITY_TOL, NumericError):
            raise error
    return evals, _relative(*trace), _relative(*frob)


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
    if error := _agree("eigenpair residual", worst, (scale,), _RESIDUAL_TOL, NumericError):
        raise error
    return vec, _relative(worst, (scale,))


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


def _parity_blocks(kind: str, wp: WaveParams, prof: Profile) -> list:
    """[even, odd] blocks P^T M P of M = -D2 + diag(V), never forming M.

    A built profile is even bit for bit (waves.Profile), and so is its
    potential: the blocks read it on the half period, indices 0 .. N/2.
    """
    pot = _potential(kind, wp.omega, prof.phi[:prof.N // 2 + 1])
    d2_even, d2_odd = _folded_d2(prof.L, prof.N)
    return [_plus_diagonal(d2_even, pot), _plus_diagonal(d2_odd, pot[1:-1])]


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
    vals, trace_defects, frob_defects = zip(*map(sym_eig, blocks))
    evals = np.concatenate(vals)
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    even = order <= half

    n_negative = int(np.sum(evals < -tol_zero))
    near = np.flatnonzero(np.abs(evals) <= tol_zero)
    zero_index, zero_match, kernel_residual = None, math.nan, math.nan
    if near.size:
        zero_index = int(near[np.argmin(np.abs(evals[near]))])
        odd = int(not even[zero_index])  # blocks[1] drops grid indices 0 and N/2
        kernel = prof.dphi if kind == "L1" else prof.phi
        start = (kernel[:half + 1] / _fold(prof.N))[odd:half + 1 - odd]
        vec, kernel_residual = _kernel_vector(
            blocks[odd], float(evals[zero_index]), float(np.max(np.abs(vals[odd]))), start)
        start /= np.linalg.norm(start)
        zero_match = float(min(np.linalg.norm(vec - start), np.linalg.norm(vec + start)))

    return SpectrumReport(
        kind=kind,
        wp=wp,
        eigenvalues=evals,
        even=even,
        n_negative=n_negative,
        zero_index=zero_index,
        zero_match_error=zero_match,
        kernel_residual=kernel_residual,
        tol_zero=tol_zero,
        trace_defect=max(trace_defects),
        frobenius_defect=max(frob_defects),
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
        even = rep.eigenvalues[rep.even]
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
    off-grid through the closed-form profile (no interpolation), and the
    Wronskian through its closed-form slope on the same points.  Each
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
    phi, dphi = (row[0] for row in _half_period([wp], np.arange(2 * n + 1) * (0.5 * h)))
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
    drift = float(np.max(np.abs(term_a - term_b - 1.0)))
    flow = (1.0, float(np.max(np.abs(term_a))), float(np.max(np.abs(term_b))))
    if error := _agree("Wronskian drift", drift, flow, 1e-6, NumericError):
        raise error
    return -2.0 * y * z
