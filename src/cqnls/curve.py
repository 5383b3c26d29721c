"""The fixed-period wave family and its exact frequency derivatives.

For fixed L the admissible frequencies parametrize a smooth curve of waves
omega -> (alpha3, B, k, phi).  This module samples that curve, evaluates
the integral quantities mass = int phi^2, p4 = int phi^4, p6 = int phi^6,
inv2 = int phi^-2, dphi2 = int phi'^2, ratio2 = int (phi'/phi)^2, checks
the algebraic identities tying them together, and takes every frequency
derivative from the tangent of the curve.

The tangent t = dphi/domega is the even solution of L1 t = -phi (the
kernel phi' of L1 is odd), and it has a closed form.  With psi = phi^2
the first integral is psi'^2 = 4 psi P(psi), where
P(psi) = -psi^3/3 - psi^2/2 + omega psi + B
       = -(psi - alpha1)(psi - alpha2)(psi - alpha3)/3;
taken along the curve at fixed x it gives
psi' s' - psi'' s = 2 psi (psi + B') for s = dpsi/domega.  Its even
periodic solution is b psi + c psi^2 plus e psi' times an antiderivative
of 1/(psi - alpha1): the reduction to elliptic integrals (Byrd-Friedman
1971) with its third-kind pole at the root alpha1 < 0, which psi never
reaches.  Matching powers of psi fixes b, c, e and B'; with q1 the grid
mean of 1/(phi^2 - alpha1) and r = 3 + 16 omega,

    t = (b phi + c phi^3)/2 + e phi' J,
    e = 2 / [8 B (4 - 3 q1)/r - 4 omega q1 + (4/3)(alpha2 + alpha3)],
    b = -e (16 omega q1 + 6 q1 - 4)/r,    c = (4/3) e (4 - 3 q1)/r,

J the zero-mean periodic antiderivative of 1/(phi^2 - alpha1), one
rfft/irfft pair for all rows.  Each rate is a quadrature or a crest
(x = 0) or trough (x = L/2) reading of t, and
d''(omega) = (1/2) d/domega int phi^2 = int phi t has a second route
through B and inv2.  The check ||(omega - D2)^-1 (L1 t + phi)|| <= 1e-8
||(omega - D2)^-1 phi|| (max norm, one more FFT pair) reads about half
the error of t, where the bare residual would read the grid's
truncation times k^2.  A grid too coarse for the wave, a profile whose
own ODE residual has grown (the solitary end) or a cancelled e fails it.

curve_sample builds one point with its integrals and rates, and each
audit below reads a CurveSample, so one build serves all of them.
sample_curve builds a whole sweep in one pass: the period solve and the
parameter checks run per frequency, while all grid work is rows of one
(points, N) array.  curve_sample is a sweep of one point, and a point
that fails in a sweep is the error that curve_sample raises there.

Every frequency derivative here is a total derivative along the fixed-L
curve unless explicitly named partial.  The documented sign expectations
for some of these derivatives (see DerivativeAudit.signs_ok) do not all
hold numerically; the audit reports the computed values and per-claim
booleans instead of asserting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import _complete_K_E
from .errors import ConfigError, ContractError, CqnlsError, _agree, _relative
from .fourier import trapezoid
from .waves import (
    WaveParams,
    _dk_dalpha,
    _dk_domega,
    _drop_failed,
    _live,
    _period_and_slope,
    _wave_rows,
    build_wave,  # unused here; perfbench's tracer test reads curve.build_wave
)

__all__ = [
    "CurveSample",
    "DerivativeAudit",
    "IdentityAudit",
    "inv2_closed_form",
    "curve_sample",
    "sample_curve",
    "derivative_audit",
    "d2d_direct",
    "d2d_identity",
    "identity_audit",
]


@dataclass(frozen=True)
class CurveSample:
    """One point of the fixed-L curve with its integrals and their rates.

    The rates d* are exact frequency derivatives along the curve, read
    off the tangent dphi/domega: dalpha3 and dalpha2 from the crest and
    trough values, dB from the trough root, dmass_domega, dp4, dp6 and
    dinv2 by quadrature.  d2_dd is d''(omega) = (1/2) dmass_domega.
    """

    L: float
    omega: float
    alpha3: float
    B: float
    m: float
    mass: float
    p4: float
    p6: float
    inv2: float
    dphi2: float
    ratio2: float
    dalpha3: float
    dalpha2: float
    dB: float
    dmass_domega: float
    dp4: float
    dp6: float
    dinv2: float
    d2_dd: float


def inv2_closed_form(wp: WaveParams) -> float:
    """Elliptic closed form of int_0^L phi^-2 dx.

    The trough weight uses the squared minimum alpha3 (1 - m)/(1 + beta_sq)
    rather than the stored alpha2: the two are algebraically equal, but the
    former shares its rounding with the sampled profile, keeping the
    comparison against grid quadrature meaningful near the solitary limit.
    """
    K, E = _complete_K_E(wp.m)
    ratio = E / K
    trough = wp.alpha3 * (1.0 - wp.m) / (1.0 + wp.beta_sq)
    return wp.L / wp.alpha1 - ratio * wp.L / wp.alpha1 + ratio * wp.L / trough


def curve_sample(L: float, omega: float, N: int = 256) -> CurveSample:
    """Build one self-checked curve point with its exact rates."""
    (entry,) = _sample_rows(L, [omega], N)
    if isinstance(entry, CqnlsError):
        raise entry
    return entry


def sample_curve(L: float, omegas, N: int = 256) -> list:
    """Sample the curve at each frequency, tolerating per-point failures.

    Returns one entry per frequency: its CurveSample, or the CqnlsError
    that curve_sample raises there.  A period that is not finite and
    positive, or a bad grid size (checked first thing by _wave_rows),
    fails every point alike, so it raises ConfigError instead.
    """
    if not (math.isfinite(L) and L > 0.0):
        raise ConfigError(f"period must be finite and positive, got L={L}")
    return _sample_rows(L, list(omegas), N)


def _sample_rows(L: float, omegas, N: int) -> list:
    """curve_sample at each frequency, the whole sweep in one pass.

    Returns, per frequency, its CurveSample or the CqnlsError that
    curve_sample raises there: every check runs per row, in curve_sample's
    order.
    """
    entries, phi, dphi = _wave_rows(L, omegas, N)
    wps = [wp for _, wp in _live(entries)]
    if not wps:
        # no wave: a period that no wave has need not be a valid grid period
        return entries
    # per row: mass, p4, p6, inv2 by quadrature and in closed form, dphi2, ratio2
    ints = np.stack([
        *(trapezoid(f, L) for f in (phi**2, phi**4, phi**6, phi**-2.0)),
        [inv2_closed_form(wp) for wp in wps],
        *(trapezoid(f, L) for f in (dphi**2, (dphi / phi) ** 2)),
    ], axis=-1)
    tangent, tangent_errors = _tangent_rows(wps, phi, dphi, L)
    # a point's first failure: its integrals, then its tangent
    errors = [_integral_error(wp, *row[:5]) or error
              for wp, row, error in zip(wps, ints.tolist(), tangent_errors)]
    phi, tangent, ints = _drop_failed(entries, errors, phi, tangent, ints)
    phi3 = phi**3
    rates = np.stack([
        trapezoid(phi * tangent, L),
        2.0 * phi[:, 0] * tangent[:, 0],
        2.0 * phi[:, N // 2] * tangent[:, N // 2],
        4.0 * trapezoid(phi3 * tangent, L),
        6.0 * trapezoid(phi**5 * tangent, L),
        -2.0 * trapezoid(tangent / phi3, L),
    ], axis=-1)

    for (i, wp), row, rate in zip(_live(entries), ints.tolist(), rates.tolist()):
        mass, p4, p6, _, inv2, dphi2, ratio2 = row
        d2, dalpha3, dalpha2, dp4, dp6, dinv2 = rate
        # B = b_from_alpha(alpha2, omega) differentiated at the trough; the
        # crest form (alpha3^2 + alpha3 - omega) dalpha3 - alpha3 cancels by
        # about alpha3 / B' near the solitary limit (5e6 at (2 pi, 10))
        a2, w = wp.alpha2, wp.omega
        entries[i] = CurveSample(
            L=L, omega=w, alpha3=wp.alpha3, B=wp.B, m=wp.m, mass=mass,
            p4=p4, p6=p6, inv2=inv2, dphi2=dphi2, ratio2=ratio2,
            dalpha3=dalpha3, dalpha2=dalpha2,
            dB=(a2 * a2 + a2 - w) * dalpha2 - a2, dmass_domega=2.0 * d2,
            dp4=dp4, dp6=dp6, dinv2=dinv2, d2_dd=d2,
        )
    return entries


def _tangent_rows(wps: list, phi: np.ndarray, dphi: np.ndarray,
                  L: float) -> tuple[np.ndarray, list]:
    """The closed-form tangent of each row, and per row its check's error or None."""
    N = phi.shape[-1]
    k = 2.0 * math.pi * np.fft.rfftfreq(N, d=L / N)
    # J from 1/(i k) on the rfft modes, the mean and Nyquist modes dropped
    to_J = np.concatenate(([0.0], -1j / k[1:-1], [0.0]))
    w, a1, a23, B = np.array([(wp.omega, wp.alpha1, wp.alpha2 + wp.alpha3, wp.B)
                              for wp in wps]).reshape(-1, 4).T[..., None]
    phi2 = phi * phi
    pole = 1.0 / (phi2 - a1)
    q1 = np.mean(pole, axis=-1, keepdims=True)
    r = 3.0 + 16.0 * w
    e = 2.0 / (8.0 * B * (4.0 - 3.0 * q1) / r - 4.0 * w * q1 + (4.0 / 3.0) * a23)
    b = -e * (16.0 * w * q1 + 6.0 * q1 - 4.0) / r
    c = (4.0 / 3.0) * e * (4.0 - 3.0 * q1) / r
    J = np.fft.irfft(np.fft.rfft(pole) * to_J, n=N)
    t = 0.5 * (b * phi + c * phi * phi2) + e * dphi * J
    # (omega - D2)^-1 phi and (omega - D2)^-1 (phi - (3 phi^2 + 5 phi^4) t)
    both = np.fft.irfft(np.fft.rfft(np.stack([phi, phi - (3.0 + 5.0 * phi2) * phi2 * t]))
                        / (w + k * k), n=N)
    residuals = np.max(np.abs(t + both[1]), axis=-1).tolist()
    scales = np.max(np.abs(both[0]), axis=-1).tolist()
    return t, [_agree("tangent residual", x, (scale,), 1e-8)
               for x, scale in zip(residuals, scales)]


def _integral_error(wp: WaveParams, mass, p4, p6, inv2_quad, inv2) -> ContractError | None:
    """The first failed check of one point's integrals, or None.

    Each check compares two routes: inv2 by quadrature against its closed
    form, and the quadratures against B through the mass/p4/p6 identity.
    Signs and orderings of the integrals are not checked: each is a
    trapezoid sum of powers of a profile that _profile_errors has already
    found positive, with its maximum sqrt(alpha3) at x = 0.
    """
    # algebraic identity 2 w mass = (3/2) p4 + (4/3) p6 - B L of the
    # quadrature polynomial; the companion identity through inv2 is checked
    # in the test suite, since its B * inv2 term amplifies modulus rounding
    # by 1/(1 - m) near the solitary limit
    terms = (2.0 * wp.omega * mass, 1.5 * p4, (4.0 / 3.0) * p6, wp.B * wp.L)
    return (_agree("inv2 quadrature/closed-form difference", inv2 - inv2_quad, (inv2,), 1e-8)
            or _agree("mass/p4/p6/B identity residual",
                      terms[0] - terms[1] - terms[2] + terms[3], terms, 2e-9))


@dataclass(frozen=True)
class DerivativeAudit:
    """Frequency derivatives of the curve parameters at one omega.

    All rates come from the curve's tangent.  dk_total is the derivative
    of the modulus k along the curve, from the root-ratio form of m;
    dk_partial, its rate at frozen alpha3, subtracts dk_dalpha * dalpha3
    and is checked against the closed form dk_partial_closed.  dT_dB is
    the period's closed-form slope in the quadrature constant.  signs_ok
    records whether each documented sign expectation holds for the
    computed value; the audit never raises on a sign mismatch so that the
    full record stays inspectable.
    """

    L: float
    omega: float
    dalpha3: float
    dalpha1: float
    dalpha2: float
    dB: float
    dk_total: float
    dk_partial: float
    dk_partial_closed: float
    dk_partial_match: float
    dT_dB: float
    signs_ok: dict


def derivative_audit(sample: CurveSample) -> DerivativeAudit:
    """Signed frequency derivatives of the curve parameters at one sample."""
    s, omega = sample, sample.omega
    a3, da3, da2 = s.alpha3, s.dalpha3, s.dalpha2
    _, slope, (a1, a2, q, m) = _period_and_slope(a3, omega)
    da1 = -da2 - da3  # the roots sum to -3/2
    # m = k^2 = -a1 (a3 - a2) / (a3 (a2 - a1)), differentiated by its log
    dlog_m = (da1 / a1 + (da3 - da2) / (a3 - a2)
              - da3 / a3 - (da2 - da1) / (a2 - a1))
    dk_total = 0.5 * math.sqrt(s.m) * dlog_m
    dk_partial = dk_total - _dk_dalpha(a3, omega, q, m) * da3
    dk_closed = _dk_domega(a3, omega, q, m)
    dT_dB = slope / (a3**2 + a3 - omega)  # period_map_dB from the same level set

    signs_ok = {
        "dalpha3_positive": da3 > 0.0,
        "dk_partial_negative": dk_partial < 0.0,
        "dB_negative": s.dB < 0.0,
        "dalpha1_positive": da1 > 0.0,
        "dalpha2_negative": da2 < 0.0,
        "dT_dB_positive": dT_dB > 0.0,
    }
    return DerivativeAudit(
        L=s.L, omega=omega, dalpha3=da3, dalpha1=da1, dalpha2=da2, dB=s.dB,
        dk_total=dk_total, dk_partial=dk_partial, dk_partial_closed=dk_closed,
        dk_partial_match=abs(dk_partial - dk_closed) / abs(dk_closed),
        dT_dB=dT_dB, signs_ok=signs_ok,
    )


def d2d_direct(sample: CurveSample) -> float:
    """Direct route to d''(omega): int phi dphi/domega."""
    return sample.d2_dd


def d2d_identity(sample: CurveSample) -> float:
    """Identity route to d''(omega) through B and the inverse-square integral.

    Uses (2 omega + 3/8) dmass/domega = -(3/4) B' inv2 - B' L - (3 B/4) inv2'
    with inv2 by the elliptic closed form.  Near the solitary limit the
    right side is a small difference of large terms.
    """
    s = sample
    rhs = -0.75 * s.dB * s.inv2 - s.dB * s.L - 0.75 * s.B * s.dinv2
    return rhs / (2.0 * (2.0 * s.omega + 3.0 / 8.0))


@dataclass(frozen=True)
class IdentityAudit:
    """Relative residuals of the four integral identities at one curve point.

    With ' = d/domega along the curve (the sample's exact rates) and
    integrals over one period:

    - quartic_rate:    (1/2) p4' + (2/3) p6' = mass
    - virial:          (1/2) dphi2 + (omega/2) mass = (1/2)(p4 + p6)
    - mass_rate:       2 omega mass' = (1/2) p4' - B' L
    - log_derivative:  ratio2 = omega L - mass - p4

    Each residual is normalized by the largest magnitude among the terms
    of its identity.
    """

    omega: float
    quartic_rate: float
    virial: float
    mass_rate: float
    log_derivative: float

    @property
    def max_residual(self) -> float:
        return max(self.quartic_rate, self.virial,
                   self.mass_rate, self.log_derivative)


def identity_audit(sample: CurveSample) -> IdentityAudit:
    """Audit the integral identities at one curve sample."""
    s, w, L = sample, sample.omega, sample.L

    r1 = _relative(0.5 * s.dp4 + (2.0 / 3.0) * s.dp6 - s.mass,
                   (0.5 * s.dp4, (2.0 / 3.0) * s.dp6, s.mass))
    r2 = _relative(0.5 * s.dphi2 + 0.5 * w * s.mass - 0.5 * s.p4 - 0.5 * s.p6,
                   (0.5 * s.dphi2, 0.5 * w * s.mass, 0.5 * s.p4, 0.5 * s.p6))
    r3 = _relative(2.0 * w * s.dmass_domega - 0.5 * s.dp4 + s.dB * L,
                   (2.0 * w * s.dmass_domega, 0.5 * s.dp4, s.dB * L))
    r4 = _relative(-s.ratio2 + w * L - s.mass - s.p4, (s.ratio2, w * L, s.mass, s.p4))
    return IdentityAudit(omega=w, quartic_rate=r1, virial=r2,
                         mass_rate=r3, log_derivative=r4)
