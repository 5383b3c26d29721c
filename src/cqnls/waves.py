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
resulting profile with certified residuals.  build_wave samples one
profile; a curve sweep samples the profiles of all its frequencies in
one pass, as rows of one array, with build_wave's checks on each row.
A built wave's parameters come from the level set of the period solve's
attained-period evaluation.  The profile is even, so it is sampled on
the half period 0 <= x <= L/2, checked there, and mirrored: every built
profile is even bit for bit, and nothing checks its evenness.

Two derivatives of a profile are handed out.  The closed-form slope
comes from the same Jacobi pass as the profile, read on the half period
(_half_period), where sn and cn are nonnegative and no sign is taken;
a sweep's rows mirror it as an odd function, and the curve's tangent
and integrals and theta read it, free of the grid's truncation.
build_wave's Profile.dphi is the spectral derivative of its own
samples, the grid derivative that the spectra, the orbital distance
and quadrature_residual read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .elliptic import _agm_sequence, _complete_K_E, _dK_dk, _gauss_descent
from .errors import (
    ConfigError,
    ContractError,
    CqnlsError,
    DegenerateError,
    DomainError,
    NoSolutionError,
    _agree,
)
from .fourier import grid, spectral_derivative

__all__ = [
    "WaveParams",
    "Profile",
    "omega_threshold",
    "min_period",
    "alpha_bounds",
    "b_threshold",
    "b_from_alpha",
    "roots_from_alpha3",
    "period_map",
    "period_map_dalpha",
    "period_map_dB",
    "solve_alpha3",
    "params_from_alpha3",
    "check_grid_size",
    "build_wave",
    "profile_value",
    "quadrature_residual",
    "solitary_profile",
    "period_of_B",
]

# Moduli closer to a degenerate limit than this are rejected: the wave is
# then numerically indistinguishable from the constant equilibrium (m -> 0)
# or from the solitary wave (m -> 1).
_M_DEGENERATE = 1e-14
# below this omega, 48 omega + 9 (alpha_bounds' hi, the first closed form
# in omega to overflow) is a finite double: omega ~ 3.745e306
_OMEGA_MAX = sys.float_info.max / 48.0
_SQRT3 = math.sqrt(3.0)
# the period's prefactor sqrt(8) 3^(1/4), rounded as the closed form reads
_PERIOD_SCALE = math.sqrt(8.0) * 3.0**0.25


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
    """Samples of a profile and its derivative on fourier.grid(L, N), x_j = j L / N.

    A built profile is its half period mirrored: phi[j] == phi[N - j] bit
    for bit, and the Hill blocks read phi on the half period 0 <= j <= N/2
    alone.  dphi is the spectral derivative of phi, the grid derivative
    (not the closed-form slope that the curve reads).
    """

    L: float
    N: int
    phi: np.ndarray
    dphi: np.ndarray


def omega_threshold(L: float) -> float:
    """Exact existence threshold: the frequency whose minimal period is L.

    The inverse of min_period: a period-L wave exists precisely when
    omega > omega_threshold(L).  With s = sqrt(4 omega + 1), min_period
    is 2 pi / sqrt(s (s - 1)), so s (s - 1) = r = (2 pi / L)^2 and the
    threshold is (s - 1)(s + 1)/4 with s - 1 = 2 r / (1 + sqrt(1 + 4 r)).
    DomainError unless L is positive and finite, and where the threshold,
    about (pi / L)^2, leaves double range (L below about 4.7e-154, where
    (s - 1)(s + 1) overflows).
    """
    if not 0.0 < L < math.inf:
        raise DomainError(f"period must be positive and finite, got L={L}")
    # s - 1 divided through by sqrt(r) = 1 / y: no cancellation, and no
    # square of y or 1 / y to overflow or underflow at either end of L
    y = L / (2.0 * math.pi)
    s_minus_1 = 2.0 / y / (y + math.hypot(y, 2.0)) if y > 0.0 else math.inf
    threshold = s_minus_1 * (s_minus_1 + 2.0) / 4.0
    if threshold == math.inf:
        raise DomainError(f"the threshold frequency of period L={L} exceeds double range")
    return threshold


def _frequency_error(omega: float) -> DomainError:
    """The error for an omega outside (0, _OMEGA_MAX)."""
    if 0.0 < omega < math.inf:
        return DomainError(f"frequency omega={omega} is out of double-precision reach")
    return DomainError(f"frequency must be positive and finite, got omega={omega}")


def min_period(omega: float) -> float:
    """Infimum of attainable periods at frequency omega.

    Approached as alpha3 drops to the equilibrium amplitude where the wave
    flattens into the constant state; the period grows without bound at
    the opposite (solitary) end, so a period-L wave exists precisely when
    L exceeds this value.
    """
    if not 0.0 < omega < _OMEGA_MAX:
        raise _frequency_error(omega)
    # s (s - 1) with s - 1 = 4 omega / (s + 1), which stays positive (and
    # accurate) where s rounds to 1
    s = math.sqrt(4.0 * omega + 1.0)
    return 2.0 * math.pi / math.sqrt(4.0 * omega / (1.0 + 1.0 / s))


def alpha_bounds(omega: float) -> tuple[float, float]:
    """Open interval of admissible squared amplitudes at frequency omega."""
    if not 0.0 < omega < _OMEGA_MAX:
        raise _frequency_error(omega)
    lo = 2.0 * omega / (math.sqrt(1.0 + 4.0 * omega) + 1.0)  # (sqrt(1 + 4 omega) - 1)/2
    hi = 12.0 * omega / (math.sqrt(48.0 * omega + 9.0) + 3.0)  # (sqrt(48 omega + 9) - 3)/4
    return lo, hi


def _q_poly(alpha: float, omega: float) -> float:
    """Quadratic 16 omega - 4 alpha^2 - 4 alpha + 3, positive on the admissible interval."""
    return 16.0 * omega - 4.0 * alpha * alpha - 4.0 * alpha + 3.0


def b_threshold(omega: float) -> float:
    """Lower end of the admissible window (b_threshold, 0) of the constant B.

    b_from_alpha at the equilibrium root alpha_bounds(omega)[0], where the
    two upper roots merge; accurate also at small omega, where the closed
    form (1 - (4 omega + 1)^(3/2) + 6 omega)/12 cancels.
    """
    return b_from_alpha(alpha_bounds(omega)[0], omega)


def b_from_alpha(alpha: float, omega: float) -> float:
    """Integration constant pinned by one root alpha of the quadrature cubic."""
    # Python floats raise OverflowError where numpy scalars would only warn
    alpha, omega = float(alpha), float(omega)
    try:
        return -alpha * omega + alpha**3 / 3.0 + alpha**2 / 2.0
    except OverflowError:  # alpha^3 overflows a double beyond omega ~ 3e205
        raise DomainError(f"frequency omega={omega} is out of double-precision reach") from None


def roots_from_alpha3(alpha3: float, omega: float) -> tuple[float, float]:
    """Remaining cubic roots (alpha1 < 0, alpha2 in (0, alpha3)) for a given alpha3.

    DomainError outside the open interval alpha_bounds(omega).  Inside it,
    where rounding breaks alpha1 < 0 < alpha2 < alpha3, the level set sits
    at a degenerate limit (alpha2 -> 0 at the solitary end, alpha2 ->
    alpha3 at the equilibrium end) and DegenerateError is raised.
    """
    return _roots(alpha3, omega, alpha_bounds(omega))[:2]


def _roots(alpha3: float, omega: float, bounds: tuple) -> tuple[float, float, float]:
    """roots_from_alpha3's roots and checks, with q = _q_poly; bounds = alpha_bounds(omega)."""
    lo, hi = bounds
    if not lo < alpha3 < hi:
        raise DomainError(
            f"alpha3={alpha3!r} outside the admissible interval ({lo!r}, {hi!r}) "
            f"at omega={omega}"
        )
    q = _q_poly(alpha3, omega)
    root = math.sqrt(3.0 * q)
    alpha1 = -(root + 2.0 * alpha3 + 3.0) / 4.0
    alpha2 = (root - 2.0 * alpha3 - 3.0) / 4.0
    if not alpha1 < 0.0 < alpha2 < alpha3:
        raise DegenerateError(
            f"root ordering failed at alpha3={alpha3!r}, omega={omega}: "
            f"{alpha1!r}, {alpha2!r}"
        )
    return alpha1, alpha2, q


def _level(alpha3: float, omega: float, bounds: tuple | None = None) -> tuple:
    """Roots, q = _q_poly and checked modulus (alpha1, alpha2, q, m) of alpha3.

    bounds, when given, is alpha_bounds(omega), computed once per solve.
    """
    alpha1, alpha2, q = _roots(alpha3, omega, bounds or alpha_bounds(omega))
    root = _SQRT3 * alpha3 * math.sqrt(q)
    m = (root - 12.0 * omega + 6.0 * alpha3**2 + 9.0 * alpha3) / (2.0 * root)
    m_roots = -alpha1 * (alpha3 - alpha2) / (alpha3 * (alpha2 - alpha1))
    # both routes lie in (0, 1)
    if error := _agree("modulus route difference", m - m_roots, (1.0,), 1e-12):
        raise error
    if m <= _M_DEGENERATE or m >= 1.0 - _M_DEGENERATE:
        raise DegenerateError(
            f"modulus m={m!r} indistinguishable from a degenerate limit"
        )
    return alpha1, alpha2, q, m


def _period_and_slope(alpha3: float, omega: float, bounds: tuple | None = None) -> tuple:
    """Period and its alpha3 partial from one level set and one AGM sequence.

    Returns (period, slope, level) with _level's level set (alpha1,
    alpha2, q, m).
    """
    level = _level(alpha3, omega, bounds)
    q, m = level[2], level[3]
    K, E = _complete_K_E(m)
    den = math.sqrt(alpha3) * q**0.25
    return _PERIOD_SCALE * K / den, _PERIOD_SCALE / den * (
        _dK_dk(m, K, E) * _dk_dalpha(alpha3, omega, q, m)
        - K * (16.0 * omega - 8.0 * alpha3**2 - 6.0 * alpha3 + 3.0) / (2.0 * alpha3 * q)
    ), level


def period_map(alpha3: float, omega: float) -> float:
    """Fundamental period of the wave with squared amplitude alpha3.

    Strictly increasing in alpha3, from min_period(omega) at the lower
    admissible bound to +inf at the upper one.  One closed form,
    2 sqrt(2) 3^(1/4) K(m) / (sqrt(alpha3) q^(1/4)) with q = _q_poly, of
    the level set whose modulus _level cross-checks.
    """
    return _period_and_slope(alpha3, omega)[0]


def _dk_dalpha(a: float, omega: float, q: float, m: float) -> float:
    """Partial derivative of the modulus k in alpha3 at fixed omega (positive)."""
    a, omega, q = float(a), float(omega), float(q)  # as in b_from_alpha
    try:
        r = 6.0 * a**3 + 9.0 * a**2 - 18.0 * omega * a + 48.0 * omega**2 + 9.0 * omega
        return r / (_SQRT3 * math.sqrt(m) * a**2 * q**1.5)
    except OverflowError:
        # omega^2 overflows a double beyond omega ~ 1.3e154
        raise DomainError(
            f"frequency omega={omega} is out of double-precision reach"
        ) from None


def _dk_domega(a: float, omega: float, q: float, m: float) -> float:
    """Partial derivative of the modulus k in omega at fixed alpha3 (negative)."""
    return -math.sqrt(3.0) * (2.0 * a + 8.0 * omega + 3.0) / (math.sqrt(m) * a * q**1.5)


def period_map_dalpha(alpha3: float, omega: float) -> float:
    """Closed-form partial of the period map in alpha3 (strictly positive)."""
    return _period_and_slope(alpha3, omega)[1]


def period_map_dB(alpha3: float, omega: float) -> float:
    """Closed-form dT/dB at fixed omega: dT/dalpha3 over dB/dalpha3 (positive)."""
    return period_map_dalpha(alpha3, omega) / (alpha3**2 + alpha3 - omega)


def _log_gap_newton(fdf, lo, hi):
    """Root of an increasing f on (lo, hi) by bracketed Newton in log(hi - x).

    fdf(x) returns f(x) and f'(x).  Near hi the period map grows like
    log 1/(hi - x), so it is almost linear in t = log(hi - x) and Newton in
    t converges in a few steps from the midpoint.  Each evaluated point
    shrinks the bracket [a, b] in which f changes sign.  A trial that
    leaves the bracket or is not finite is replaced by the bracket's
    midpoint; an exception raised by fdf propagates.  Stops when a
    Newton step is at most 4 ulp (and returns that last Newton point) or
    when the bracket is at most 1e-14 wide (and returns the last evaluated
    point).  Endpoints are never evaluated (callers guarantee f < 0 near lo
    and f > 0 near hi in the limit).
    """
    exp, ulp = math.exp, math.ulp
    a, b = lo, hi
    x = 0.5 * (lo + hi)
    fx, dfx = fdf(x)
    for _ in range(200):
        if fx < 0.0:
            a = x
        elif fx > 0.0:
            b = x
        else:
            return x
        try:
            g = hi - x
            trial = hi - g * exp(fx / (dfx * g))
        except (ZeroDivisionError, OverflowError):
            trial = math.nan
        inside = a < trial < b
        if abs(trial - x) <= 4.0 * ulp(x):
            return trial if inside else x
        if b - a <= 1e-14:
            return x
        x = trial if inside else 0.5 * (a + b)
        fx, dfx = fdf(x)
    return x


def solve_alpha3(L: float, omega: float) -> float:
    """Unique squared amplitude whose wave period equals L at frequency omega.

    The period map is strictly increasing on the admissible interval, so
    a bracketed Newton iteration in log(hi - alpha3) with the closed-form
    slope is safe; it takes about five period evaluations.  A trial point
    outside the bracket becomes a bisection step.  A point whose level set
    is degenerate (DegenerateError from the roots or the modulus cut) is
    classified by its nearer bound, below L at the equilibrium end and
    above it at the solitary end, and shrinks the bracket like any other.
    """
    return _solve(L, omega)[0]


def _solve(L: float, omega: float) -> tuple:
    """solve_alpha3's root and the level set of its attained-period evaluation.

    Returns (alpha3, level), so a wave built on the root need not derive
    the level set again.  Where the root finder returns its last evaluated
    point, that evaluation is the attained-period one.
    """
    if L <= 0:
        raise DomainError(f"period must be positive, got L={L}")
    if not (math.isfinite(L) and math.isfinite(omega)):
        raise DomainError(f"period and frequency must be finite, got L={L}, omega={omega}")
    tl = min_period(omega)
    if tl >= L:
        try:
            need = f"omega > omega_threshold(L)={omega_threshold(L):.6g}"
        except DomainError:  # at tiny L the threshold leaves double range
            need = "a frequency beyond double range"
        raise NoSolutionError(
            f"no period-{L} wave at omega={omega}: the minimal attainable period "
            f"is {tl:.6g}; waves of this period require {need}"
        )
    bounds = lo, hi = alpha_bounds(omega)
    # the last evaluated point and its evaluation
    last_alpha, last = math.nan, None

    def deficit(alpha):
        # period(alpha) - L and its slope; the degeneracy cut near either
        # bound is classified without evaluating the elliptic integral, and
        # its NaN slope turns the next step into bisection
        nonlocal last_alpha, last
        try:
            last = _period_and_slope(alpha, omega, bounds)
        except DegenerateError:
            return ((tl - L) if (alpha - lo) < (hi - alpha) else math.inf), math.nan
        last_alpha = alpha
        return last[0] - L, last[1]

    root = _log_gap_newton(deficit, lo, hi)
    # periods beyond the last double-precision modulus saturate the root
    # finder at the solitary cut; refuse to return a wave of the wrong period
    attained, _, level = last if root == last_alpha else _period_and_slope(root, omega, bounds)
    if abs(attained - L) > 1e-3 * L:
        raise DegenerateError(
            f"period L={L} at omega={omega} is out of numerical reach: periods "
            f"resolvable in double precision top out near {attained:.6g}"
        )
    return root, level


def params_from_alpha3(L: float, omega: float, alpha3: float) -> WaveParams:
    """Parameter set of a solved squared amplitude, checked by _level.

    The roots and B are built from alpha3 by the cubic's own identities,
    so only _level's checks run: alpha3 in alpha_bounds and root ordering
    (roots_from_alpha3), the modulus cross-check and the degeneracy cut.
    The rest is then implied: beta_sq = -(alpha3/alpha1) m > 0 by alpha1 <
    0 < m, and B = b_from_alpha(alpha3), increasing from b_threshold at
    the lower bound to 0 at the upper one, lies in (b_threshold, 0).
    """
    return _params(L, omega, alpha3, _level(alpha3, omega))


def _params(L: float, omega: float, alpha3: float, level: tuple) -> WaveParams:
    """params_from_alpha3 from the level set _level(alpha3, omega)."""
    alpha1, alpha2, _, m = level
    return WaveParams(
        L=L, omega=omega, alpha1=alpha1, alpha2=alpha2, alpha3=alpha3, m=m,
        g=2.0 / math.sqrt(alpha3 * (alpha2 - alpha1)),
        beta_sq=-(alpha3 / alpha1) * m, B=b_from_alpha(alpha3, omega),
    )


def _profiles(wps: list, x: np.ndarray) -> tuple:
    """Closed-form profiles of the waves wps at the points x, one row per wave.

    Returns the profile rows and the Jacobi pass they are read from: the
    columns sqrt(alpha3), c = 2K/L and beta_sq, _gauss_descent's rows
    |sn|, |cn| and dn, and den = 1 + beta_sq sn^2.  Each row comes from one
    AGM sequence: the Jacobi pass runs on its levels, and K = pi / (2 mean)
    is read from its mean.  The profile reads sn^2 alone, so no sign of sn
    or cn is ever taken.
    """
    agms = [_agm_sequence(wp.m) for wp in wps]

    def column(values):
        return np.array(values, dtype=float)[:, None]

    # elliptic argument scaled by 2K/L so the sampled function is exactly
    # L-periodic; equals 2/(sqrt(3) g) x up to the period-solve residual
    c = column([2.0 * (math.pi / (2.0 * agm[2])) / wp.L for agm, wp in zip(agms, wps)])
    beta_sq = column([wp.beta_sq for wp in wps])
    amp = column([math.sqrt(wp.alpha3) for wp in wps])
    _, abs_sn, abs_cn, dn = _gauss_descent(c * x, agms)
    den = 1.0 + beta_sq * np.square(abs_sn)
    return amp * dn / np.sqrt(den), (amp, c, beta_sq, abs_sn, abs_cn, dn, den)


def _half_period(wps: list, x: np.ndarray) -> tuple:
    """Profile rows of the waves wps and their closed-form slope at x in [0, L/2].

    There the elliptic argument c x runs over [0, K], where sn and cn are
    nonnegative, so the slope
    phi' = -sqrt(alpha3) c sn cn (m den + beta_sq dn^2) / den^1.5 reads
    _gauss_descent's magnitudes as they are, with no sign pass.
    """
    phi, (amp, c, beta_sq, abs_sn, abs_cn, dn, den) = _profiles(wps, x)
    m = np.array([wp.m for wp in wps])[:, None]
    return phi, -amp * c * abs_sn * abs_cn * (m * den + beta_sq * np.square(dn)) / den**1.5


def profile_value(wp: WaveParams, x):
    """Closed-form profile at arbitrary positions x (vectorized)."""
    xa = np.asarray(x, dtype=float)
    out = _profiles([wp], xa.reshape(-1))[0].reshape(xa.shape)
    return float(out) if xa.ndim == 0 else out


def check_grid_size(N) -> None:
    """Raise ConfigError unless N is a power of two >= 64 that numpy can index."""
    if not isinstance(N, (int, np.integer)) or N < 64 or N & (N - 1):
        raise ConfigError(f"N must be a power of two >= 64, got {N!r}")
    if N > np.iinfo(np.intp).max:
        raise ConfigError(f"N={N!r} exceeds the largest array size {np.iinfo(np.intp).max}")


def build_wave(L: float, omega: float, N: int) -> tuple[WaveParams, Profile]:
    """Construct the period-L wave at frequency omega, sampled on N points.

    Returns the algebraic parameter set and the grid profile, whose
    derivative is the spectral derivative of its own samples.
    Construction invariants are enforced and a violation raises
    ContractError.
    """
    (entry,), phi, _ = _wave_rows(L, [omega], N)
    if isinstance(entry, CqnlsError):
        raise entry
    return entry, Profile(L=L, N=int(N), phi=phi[0], dphi=spectral_derivative(phi[0], L))


def _wave_rows(L: float, omegas, N: int) -> tuple[list, np.ndarray, np.ndarray]:
    """build_wave at each frequency, every grid profile and its slope in one pass.

    Returns (entries, phi, dphi): entries[i] is the WaveParams at omegas[i],
    or the CqnlsError its construction raised, and phi and dphi hold one
    row per WaveParams entry, in order.  A bad N raises ConfigError.  The
    period solve and parameter checks run per frequency, the parameters
    from the solve's own level set; the profiles, their slopes and their
    checks run on all rows at once.  Each profile and its closed-form
    slope (_half_period) are sampled on the half period 0 <= x <= L/2,
    the profile is checked there, and both are mirrored: phi as an even
    row, phi[N - j] == phi[j], and dphi as an odd one, dphi[N - j] ==
    -dphi[j] for 0 < j < N/2, each bit for bit.  dphi is the closed form's
    slope (at the trough a rounding of 0), free of the grid's truncation,
    not the spectral derivative that build_wave's Profile carries.
    """
    check_grid_size(N)
    N = int(N)
    entries: list = []
    for omega in omegas:
        try:
            entries.append(_params(L, omega, *_solve(L, omega)))
        except CqnlsError as exc:
            entries.append(exc)
    wps = [wp for _, wp in _live(entries)]
    if not wps:
        # no grid: a period that no wave has need not be finite
        return entries, np.empty((0, N)), np.empty((0, N))
    # x_j = j L / N for j <= N/2; the rest of each row is the mirror image
    half, slope = _half_period(wps, grid(L, N)[:N // 2 + 1])
    half, slope = _drop_failed(entries, _profile_errors(half, wps), half, slope)
    return (entries, np.concatenate((half, half[:, -2:0:-1]), axis=-1),
            np.concatenate((slope, -slope[:, -2:0:-1]), axis=-1))


def _live(entries: list) -> list:
    """(index, entry) of each entry of a batch that has not failed, in order.

    The j-th pair is the j-th row of the batch's arrays.
    """
    return [(i, e) for i, e in enumerate(entries) if not isinstance(e, CqnlsError)]


def _drop_failed(entries: list, errors: list, *rows: np.ndarray) -> tuple:
    """Record a batch's new failures and drop their rows.

    errors[j] is the error (or None) of the j-th live entry; it replaces
    that entry.  Returns each array of rows without the failed ones.
    """
    for (i, _), error in zip(_live(entries), errors):
        if error is not None:
            entries[i] = error
    keep = [error is None for error in errors]
    return rows if all(keep) else tuple(r[keep] for r in rows)


def _profile_errors(half: np.ndarray, wps: list) -> list:
    """The trough value of each half-period row, against alpha2.

    half[i] holds the samples x_j = j L / N, 0 <= j <= N/2, of the i-th
    wave, whose other half is their mirror image.  Returns each row's
    ContractError, or None.  The trough value, Jacobi at K, is a second
    route to alpha2 = (sqrt(3 q) - 2 alpha3 - 3)/4, bounded relative to
    the largest of alpha3 and the terms of alpha2.  The row's shape holds
    by construction on the half period, so nothing checks it: at x = 0 the
    Jacobi pass gives sn = 0 and dn = 1 exactly, so phi(0) is sqrt(alpha3)
    bit for bit; 0 < dn <= 1 <= den holds in floating point, so every
    sample is positive and none exceeds phi(0); and phi decreases on the
    half period, so an earlier sample can tie the trough only by rounding.
    """
    # the terms of alpha2: sqrt(3 q)/4 = (alpha2 - alpha1)/2, alpha3/2, 3/4
    return [_agree("profile trough phi(L/2)^2 - alpha2", trough**2 - wp.alpha2,
                   (wp.alpha3, 0.5 * (wp.alpha2 - wp.alpha1), 0.75), 1e-10)
            for wp, trough in zip(wps, half[:, -1].tolist())]


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
    if not 0.0 < omega < _OMEGA_MAX:
        raise _frequency_error(omega)
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
        lambda a: (b_from_alpha(a, omega0) - B, a * a + a - omega0), lo, hi)
    return period_map(alpha, omega0)
