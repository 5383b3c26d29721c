"""Construction of dnoidal standing waves of the cubic-quintic NLS equation.

A standing wave u(x, t) = exp(i omega t) phi(x) of

    i u_t + u_xx + |u|^2 u + |u|^4 u = 0

has an L-periodic, positive, even profile solving

    -phi'' + omega phi - phi^3 - phi^5 = 0,

with first integral (phi')^2 = -phi^6/3 - phi^4/2 + omega phi^2 + B.  In
psi = phi^2 the level set reads psi'^2 = (4/3) psi (psi - alpha1)
(psi - alpha2)(alpha3 - psi), where alpha1 < 0 < alpha2 < alpha3 are the
roots of the cubic -s^3/3 - s^2/2 + omega s + B.  The profile oscillates
between sqrt(alpha2) and sqrt(alpha3):

    phi(x) = sqrt(alpha3) dn(c x, k) / sqrt(1 + beta_sq sn(c x, k)^2),

and its fundamental period is an explicit complete elliptic integral of
the roots.  This module solves the inverse problem: given (L, omega),
find the unique root triple whose period equals L, and sample the
resulting profile with certified residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _K_and_dK_dk, complete_K, jacobi_sn_cn_dn
from .errors import (
    ConfigError,
    ContractError,
    DegenerateError,
    DomainError,
    NoSolutionError,
)
from .fourier import grid, spectral_derivative

__all__ = [
    "WaveParams",
    "Profile",
    "omega_threshold",
    "min_period",
    "alpha_bounds",
    "q_poly",
    "r_poly",
    "b_threshold",
    "b_from_alpha",
    "roots_from_alpha3",
    "modulus_from",
    "period_map",
    "period_map_dalpha",
    "period_map_dB",
    "dk_dalpha",
    "dk_domega",
    "solve_alpha3",
    "params_from_alpha3",
    "sample_profile",
    "check_grid_size",
    "build_wave",
    "profile_value",
    "profile_derivative",
    "quadrature_residual",
    "solitary_profile",
    "period_of_B",
    "validate_wave_params",
    "validate_profile",
]

# Moduli closer to a degenerate limit than this are rejected: the wave is
# then numerically indistinguishable from the constant equilibrium (m -> 0)
# or from the solitary wave (m -> 1).
_M_DEGENERATE = 1e-14


@dataclass(frozen=True)
class WaveParams:
    """Algebraic parameter set of one dnoidal wave.

    alpha1 < 0 < alpha2 < alpha3 are the cubic roots of the quadrature
    level set (alpha3 is the squared amplitude, alpha2 the squared trough
    value), m the squared elliptic modulus, g the width parameter of the
    elliptic argument, beta_sq the sn^2 coefficient in the profile
    denominator, and B the integration constant of the first integral.
    """

    L: float
    omega: float
    alpha1: float
    alpha2: float
    alpha3: float
    m: float
    g: float
    beta_sq: float
    B: float


@dataclass(frozen=True, eq=False)
class Profile:
    """Samples of a profile and its derivative on the grid x_j = j L / N."""

    L: float
    N: int
    x: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray


def omega_threshold(L: float) -> float:
    """Closed-form frequency floor reported for period-L waves.

    Solvability of a concrete (L, omega) pair is decided by the sharper
    minimal-period bound enforced in solve_alpha3.
    """
    if L <= 0:
        raise DomainError(f"period must be positive, got L={L}")
    # dividing by L twice keeps a tiny L from underflowing L**2 to zero
    return (math.sqrt(L * L + 16 * math.pi) / L + 8 * math.pi / L / L - 1) / 8


def min_period(omega: float) -> float:
    """Infimum of attainable periods at frequency omega.

    Approached as alpha3 drops to the equilibrium amplitude where the wave
    flattens into the constant state; the period grows without bound at
    the opposite (solitary) end, so a period-L wave exists precisely when
    L exceeds this value.
    """
    if omega <= 0:
        raise DomainError(f"frequency must be positive, got omega={omega}")
    # s (s - 1) with s - 1 = 4 omega / (s + 1), which stays positive (and
    # accurate) where s rounds to 1
    s = math.sqrt(4.0 * omega + 1.0)
    return 2.0 * math.pi / math.sqrt(4.0 * omega / (1.0 + 1.0 / s))


def alpha_bounds(omega: float) -> tuple[float, float]:
    """Open interval of admissible squared amplitudes at frequency omega."""
    if omega <= 0:
        raise DomainError(f"frequency must be positive, got omega={omega}")
    lo = 2.0 * omega / (math.sqrt(1.0 + 4.0 * omega) + 1.0)  # (sqrt(1 + 4 omega) - 1)/2
    hi = 12.0 * omega / (math.sqrt(48.0 * omega + 9.0) + 3.0)  # (sqrt(48 omega + 9) - 3)/4
    return lo, hi


def q_poly(alpha: float, omega: float) -> float:
    """Quadratic 16 omega - 4 alpha^2 - 4 alpha + 3, positive on the admissible interval."""
    return 16.0 * omega - 4.0 * alpha * alpha - 4.0 * alpha + 3.0


def r_poly(alpha: float, omega: float) -> float:
    """Cubic entering the modulus derivative: 6a^3 + 9a^2 - 18 omega a + 48 omega^2 + 9 omega."""
    a = alpha
    return 6.0 * a**3 + 9.0 * a**2 - 18.0 * omega * a + 48.0 * omega**2 + 9.0 * omega


def b_threshold(omega: float) -> float:
    """Lower end of the admissible window (b_threshold, 0) of the constant B."""
    if omega <= 0:
        raise DomainError(f"frequency must be positive, got omega={omega}")
    return (1.0 - (4.0 * omega + 1.0) ** 1.5 + 6.0 * omega) / 12.0


def b_from_alpha(alpha: float, omega: float) -> float:
    """Integration constant pinned by one root alpha of the quadrature cubic."""
    return -alpha * omega + alpha**3 / 3.0 + alpha**2 / 2.0


def roots_from_alpha3(alpha3: float, omega: float) -> tuple[float, float]:
    """Remaining cubic roots (alpha1 < 0, alpha2 in (0, alpha3)) for a given alpha3."""
    lo, hi = alpha_bounds(omega)
    if not lo < alpha3 < hi:
        raise DomainError(
            f"alpha3={alpha3!r} outside the admissible interval ({lo!r}, {hi!r}) "
            f"at omega={omega}"
        )
    root = math.sqrt(3.0 * q_poly(alpha3, omega))
    alpha1 = -(root + 2.0 * alpha3 + 3.0) / 4.0
    alpha2 = (root - 2.0 * alpha3 - 3.0) / 4.0
    if not alpha1 < 0.0 < alpha2 < alpha3:
        raise DomainError(
            f"root ordering failed at alpha3={alpha3!r}, omega={omega}: "
            f"{alpha1!r}, {alpha2!r}"
        )
    return alpha1, alpha2


def modulus_from(alpha3: float, omega: float) -> float:
    """Squared elliptic modulus of the wave with squared amplitude alpha3.

    Evaluates the closed form in (alpha3, omega) and cross-checks the
    equivalent root-ratio form; moduli within 1e-14 of 0 or 1 raise
    DegenerateError.
    """
    alpha1, alpha2 = roots_from_alpha3(alpha3, omega)
    root = math.sqrt(3.0) * alpha3 * math.sqrt(q_poly(alpha3, omega))
    m = (root - 12.0 * omega + 6.0 * alpha3**2 + 9.0 * alpha3) / (2.0 * root)
    m_roots = -alpha1 * (alpha3 - alpha2) / (alpha3 * (alpha2 - alpha1))
    if abs(m - m_roots) > 1e-12:
        raise ContractError(f"modulus routes disagree: {m!r} vs {m_roots!r}")
    if m <= _M_DEGENERATE or m >= 1.0 - _M_DEGENERATE:
        raise DegenerateError(
            f"modulus m={m!r} indistinguishable from a degenerate limit"
        )
    return m


def period_map(alpha3: float, omega: float) -> float:
    """Fundamental period of the wave with squared amplitude alpha3.

    Strictly increasing in alpha3, from min_period(omega) at the lower
    admissible bound to +inf at the upper one.  Two algebraically equal
    routes are evaluated and cross-checked.
    """
    alpha1, alpha2 = roots_from_alpha3(alpha3, omega)
    m = modulus_from(alpha3, omega)
    K = complete_K(m)
    psi = math.sqrt(8.0) * 3.0**0.25 * K / (
        math.sqrt(alpha3) * q_poly(alpha3, omega) ** 0.25
    )
    alt = 2.0 * math.sqrt(3.0) * K / math.sqrt(alpha3 * (alpha2 - alpha1))
    if abs(psi - alt) > 1e-12 * psi:
        raise ContractError(f"period-map routes disagree: {psi!r} vs {alt!r}")
    return psi


def dk_dalpha(alpha3: float, omega: float) -> float:
    """Partial derivative of the modulus k in alpha3 at fixed omega (positive)."""
    return _dk_dalpha(alpha3, omega, modulus_from(alpha3, omega))


def _dk_dalpha(alpha3: float, omega: float, m: float) -> float:
    return r_poly(alpha3, omega) / (
        math.sqrt(3.0) * math.sqrt(m) * alpha3**2 * q_poly(alpha3, omega) ** 1.5
    )


def dk_domega(alpha3: float, omega: float) -> float:
    """Partial derivative of the modulus k in omega at fixed alpha3 (negative)."""
    m = modulus_from(alpha3, omega)
    k = math.sqrt(m)
    return -math.sqrt(3.0) * (2.0 * alpha3 + 8.0 * omega + 3.0) / (
        k * alpha3 * q_poly(alpha3, omega) ** 1.5
    )


def period_map_dalpha(alpha3: float, omega: float) -> float:
    """Closed-form partial of the period map in alpha3 (strictly positive)."""
    m = modulus_from(alpha3, omega)
    q = q_poly(alpha3, omega)
    pref = math.sqrt(8.0) * 3.0**0.25 / (math.sqrt(alpha3) * q**0.25)
    K, dK_dk = _K_and_dK_dk(m)
    dK_dalpha = dK_dk * _dk_dalpha(alpha3, omega, m)
    return pref * (
        dK_dalpha
        - K * (16.0 * omega - 8.0 * alpha3**2 - 6.0 * alpha3 + 3.0) / (2.0 * alpha3 * q)
    )


def period_map_dB(alpha3: float, omega: float) -> float:
    """Closed-form dT/dB at fixed omega: dT/dalpha3 over dB/dalpha3 (positive)."""
    return period_map_dalpha(alpha3, omega) / (alpha3**2 + alpha3 - omega)


def _log_gap_newton(f, df, lo, hi):
    """Root of an increasing f on (lo, hi) by bracketed Newton in log(hi - x).

    Near hi the period map grows like log 1/(hi - x), so it is almost
    linear in t = log(hi - x) and Newton in t converges in a few steps from
    the midpoint.  Each evaluated point shrinks the bracket [a, b] in which
    f changes sign.  A trial that leaves the bracket, is not finite, or
    fails in the domain (DomainError, DegenerateError) is replaced by the
    bracket's midpoint.  Stops when a Newton step is at most 4 ulp (and
    returns that last Newton point) or when the bracket is at most 1e-14
    wide (and returns the last evaluated point).  Endpoints are never
    evaluated (callers guarantee f < 0 near lo and f > 0 near hi in the
    limit).
    """
    a, b = lo, hi
    x = 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(200):
        if fx < 0.0:
            a = x
        elif fx > 0.0:
            b = x
        else:
            return x
        try:
            g = hi - x
            trial = hi - g * math.exp(fx / (df(x) * g))
        except (DomainError, DegenerateError, ZeroDivisionError, OverflowError):
            trial = math.nan
        inside = a < trial < b
        if abs(trial - x) <= 4.0 * math.ulp(x):
            return trial if inside else x
        if b - a <= 1e-14:
            return x
        if inside:
            try:
                fx = f(trial)
                x = trial
                continue
            except (DomainError, DegenerateError):
                pass
        x = 0.5 * (a + b)
        fx = f(x)
    return x


def solve_alpha3(L: float, omega: float) -> float:
    """Unique squared amplitude whose wave period equals L at frequency omega.

    The period map is strictly increasing on the admissible interval, so
    a bracketed Newton iteration in log(hi - alpha3) with the closed-form
    slope is safe; it takes about five period evaluations.  A trial point
    outside the bracket or outside the numerical domain becomes a
    bisection step.
    """
    if L <= 0:
        raise DomainError(f"period must be positive, got L={L}")
    if not (math.isfinite(L) and math.isfinite(omega)):
        raise DomainError(f"period and frequency must be finite, got L={L}, omega={omega}")
    tl = min_period(omega)
    if tl >= L:
        thr = omega_threshold(L)
        if omega <= thr:
            hint = f"below the admissibility threshold omega_threshold(L)={thr:.6g}"
        else:
            # frequency where the minimal attainable period equals L
            s = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * (2.0 * math.pi / L) ** 2))
            hint = f"waves of this period require omega > {(s * s - 1.0) / 4.0:.6g}"
        raise NoSolutionError(
            f"no period-{L} wave at omega={omega}: the minimal attainable period "
            f"is {tl:.6g}; {hint}"
        )
    lo, hi = alpha_bounds(omega)

    def deficit(alpha):
        # sign of period(alpha) - L; the degeneracy cut near either bound is
        # classified without evaluating the elliptic integral
        try:
            return period_map(alpha, omega) - L
        except DegenerateError:
            return (tl - L) if (alpha - lo) < (hi - alpha) else math.inf

    root = _log_gap_newton(deficit, lambda a: period_map_dalpha(a, omega), lo, hi)
    # periods beyond the last double-precision modulus saturate the root
    # finder at the solitary cut; refuse to return a wave of the wrong period
    attained = period_map(root, omega)
    if abs(attained - L) > 1e-3 * L:
        raise DegenerateError(
            f"period L={L} at omega={omega} is out of numerical reach: periods "
            f"resolvable in double precision top out near {attained:.6g}"
        )
    return root


def params_from_alpha3(L: float, omega: float, alpha3: float) -> WaveParams:
    """Assemble the full parameter set from a solved squared amplitude."""
    alpha1, alpha2 = roots_from_alpha3(alpha3, omega)
    m = modulus_from(alpha3, omega)
    beta_sq = -(alpha3 / alpha1) * m
    g = 2.0 / math.sqrt(alpha3 * (alpha2 - alpha1))
    B = b_from_alpha(alpha3, omega)
    B_alt = b_from_alpha(alpha1, omega)
    if abs(B - B_alt) > 1e-10:
        raise ContractError(
            f"integration constant disagrees between roots: {B!r} vs {B_alt!r}"
        )
    return WaveParams(
        L=L, omega=omega, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3,
        m=m, g=g, beta_sq=beta_sq, B=B,
    )


def _profile_and_slope(wp: WaveParams, x: np.ndarray) -> tuple:
    """Closed-form profile and its derivative at x, from one Jacobi pass."""
    # elliptic argument scaled by 2K/L so the sampled function is exactly
    # L-periodic; equals 2/(sqrt(3) g) x up to the period-solve residual
    c = 2.0 * complete_K(wp.m) / wp.L
    sn, cn, dn = jacobi_sn_cn_dn(c * x, wp.m)
    den = 1.0 + wp.beta_sq * np.square(sn)
    phi = math.sqrt(wp.alpha3) * dn / np.sqrt(den)
    dphi = (
        -math.sqrt(wp.alpha3) * c * sn * cn
        * (wp.m * den + wp.beta_sq * np.square(dn)) / den**1.5
    )
    return phi, dphi


def profile_value(wp: WaveParams, x):
    """Closed-form profile at arbitrary positions x (vectorized)."""
    xa = np.asarray(x, dtype=float)
    out = _profile_and_slope(wp, xa)[0]
    return float(out) if xa.ndim == 0 else out


def profile_derivative(wp: WaveParams, x):
    """Closed-form spatial derivative of the profile at arbitrary positions x."""
    xa = np.asarray(x, dtype=float)
    out = _profile_and_slope(wp, xa)[1]
    return float(out) if xa.ndim == 0 else out


def sample_profile(wp: WaveParams, N: int) -> Profile:
    """Sample the profile and its spectral derivative on N grid points."""
    x = grid(wp.L, N)
    phi = profile_value(wp, x)
    dphi = spectral_derivative(phi, wp.L)
    return Profile(L=wp.L, N=N, x=x, phi=phi, dphi=dphi)


def check_grid_size(N) -> None:
    """Raise ConfigError unless N is a power of two >= 64."""
    if not isinstance(N, (int, np.integer)) or N < 64 or N & (N - 1):
        raise ConfigError(f"N must be a power of two >= 64, got {N!r}")


def build_wave(L: float, omega: float, N: int) -> tuple[WaveParams, Profile]:
    """Construct the period-L wave at frequency omega, sampled on N points.

    Returns the algebraic parameter set and the grid profile (derivative by
    spectral differentiation).  Construction invariants are enforced and a
    violation raises ContractError.
    """
    check_grid_size(N)
    alpha3 = solve_alpha3(L, omega)
    wp = params_from_alpha3(L, omega, alpha3)
    prof = sample_profile(wp, int(N))
    validate_wave_params(wp)
    validate_profile(prof, wp)
    return wp, prof


def validate_wave_params(wp: WaveParams) -> None:
    """Check root identities and admissibility bounds; ContractError on failure."""
    a1, a2, a3, w = wp.alpha1, wp.alpha2, wp.alpha3, wp.omega
    residuals = [
        ("root sum", abs(a1 + a2 + a3 + 1.5), 1e-12),
        ("root pair sum", abs(a1 * a2 + a1 * a3 + a2 * a3 + 3.0 * w), 1e-10),
        ("root product", abs(a1 * a2 * a3 - 3.0 * wp.B), 1e-10),
    ]
    for name, err, tol in residuals:
        if not err <= tol:
            raise ContractError(f"{name} residual {err!r} exceeds {tol}")
    lo, hi = alpha_bounds(w)
    if not lo < a3 < hi:
        raise ContractError(f"alpha3={a3!r} escaped the admissible interval")
    if not 0.0 < wp.m < 1.0:
        raise ContractError(f"modulus m={wp.m!r} outside (0, 1)")
    if not wp.beta_sq > 0.0:
        raise ContractError(f"beta_sq={wp.beta_sq!r} must be positive")
    if not wp.g > 0.0:
        raise ContractError(f"width parameter g={wp.g!r} must be positive")
    if not b_threshold(w) < wp.B < 0.0:
        raise ContractError(f"B={wp.B!r} outside ({b_threshold(w)!r}, 0)")


def validate_profile(prof: Profile, wp: WaveParams) -> None:
    """Check positivity, evenness, and extreme values of sampled profiles."""
    phi, N = prof.phi, prof.N
    if not np.all(phi > 0.0):
        raise ContractError("profile samples must be positive")
    even_defect = float(np.max(np.abs(phi - phi[(-np.arange(N)) % N])))
    if even_defect > 1e-10:
        raise ContractError(f"profile evenness defect {even_defect!r}")
    if np.argmax(phi) != 0 or abs(phi[0] ** 2 - wp.alpha3) > 1e-10:
        raise ContractError("profile maximum must sit at x=0 with phi^2 = alpha3")
    if np.argmin(phi) != N // 2 or abs(phi[N // 2] ** 2 - wp.alpha2) > 1e-8:
        raise ContractError("profile minimum must sit at x=L/2 with phi^2 = alpha2")


def quadrature_residual(prof: Profile, wp: WaveParams) -> tuple[float, float]:
    """Sup-norm residuals of the first integral and of the profile equation.

    Both residuals use only the sampled data (derivatives spectral), so
    they certify the delivered samples rather than the closed form.
    """
    phi, dphi = prof.phi, prof.dphi
    r_quad = float(np.max(np.abs(
        dphi**2 + phi**6 / 3.0 + phi**4 / 2.0 - wp.omega * phi**2 - wp.B
    )))
    d2 = spectral_derivative(phi, prof.L, order=2)
    r_ode = float(np.max(np.abs(-d2 + wp.omega * phi - phi**3 - phi**5)))
    return r_quad, r_ode


def solitary_profile(omega: float, x):
    """Solitary profile on the line, the infinite-period limit of the family."""
    if omega <= 0:
        raise DomainError(f"frequency must be positive, got omega={omega}")
    xa = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        # cosh overflow gives den = inf and a correct zero tail
        den = 3.0 + math.sqrt(48.0 * omega + 9.0) * np.cosh(2.0 * math.sqrt(omega) * xa)
        out = np.sqrt(12.0 * omega / den)
    return float(out) if xa.ndim == 0 else out


def period_of_B(B: float, omega0: float) -> float:
    """Period of the wave whose quadrature constant equals B at frequency omega0.

    alpha3 -> B is strictly increasing on the admissible interval (its
    derivative alpha^2 + alpha - omega0 vanishes only at the lower bound),
    so the level set pins a unique alpha3, found by the same bracketed
    Newton iteration as solve_alpha3; the returned period is strictly
    increasing in B.
    """
    lo_B = b_threshold(omega0)
    if not lo_B < B < 0.0:
        raise DomainError(f"B={B!r} outside the admissible window ({lo_B!r}, 0)")
    lo, hi = alpha_bounds(omega0)
    alpha = _log_gap_newton(
        lambda a: b_from_alpha(a, omega0) - B,
        lambda a: a * a + a - omega0,
        lo, hi,
    )
    return period_map(alpha, omega0)
