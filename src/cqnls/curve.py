"""The fixed-period wave family and its exact frequency derivatives.

For fixed L the admissible frequencies parametrize a smooth curve of waves
omega -> (alpha3, B, k, phi).  This module samples that curve, evaluates
the integral quantities mass = int phi^2, p4 = int phi^4, p6 = int phi^6,
inv2 = int phi^-2, dphi2 = int phi'^2, ratio2 = int (phi'/phi)^2, checks
the algebraic identities tying them together, and takes every frequency
derivative from the tangent of the curve.

Differentiating the profile equation along the curve gives
L1 dphi/domega = -phi.  L1 is invertible on even functions (its kernel
phi' is odd), so one solve on the even block of the grid operator gives
the tangent, and each rate follows by quadrature or by reading the crest
(x = 0) or trough (x = L/2) value.  The stability quantity
d''(omega) = (1/2) d/domega int phi^2 = int phi dphi/domega then has a
direct route and an independent one through B and inv2.

curve_sample builds one point with its integrals and rates, and each
audit below reads a CurveSample, so one build serves all of them.

Every frequency derivative here is a total derivative along the fixed-L
curve unless explicitly named partial.  The documented sign expectations
for some of these derivatives (see DerivativeAudit.signs_ok) do not all
hold numerically; the audit reports the computed values and per-claim
booleans instead of asserting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import _complete_K_E
from .errors import ConfigError, ContractError, CqnlsError
from .fourier import trapezoid
from .hill import solve_even
from .waves import (
    WaveParams,
    build_wave,
    check_grid_size,
    dk_dalpha,
    dk_domega,
    period_map_dB,
    roots_from_alpha3,
)

__all__ = [
    "CurveSample",
    "CurveError",
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


@dataclass(frozen=True)
class CurveError:
    """Per-frequency failure entry of a sweep (the sweep itself continues)."""

    omega: float
    message: str


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
    wp, prof = build_wave(L, omega, N)
    phi, dphi = prof.phi, prof.dphi
    mass = trapezoid(phi**2, L)
    p4 = trapezoid(phi**4, L)
    p6 = trapezoid(phi**6, L)
    dphi2 = trapezoid(dphi**2, L)
    ratio2 = trapezoid((dphi / phi) ** 2, L)
    inv2 = inv2_closed_form(wp)
    inv2_quad = trapezoid(phi**-2.0, L)

    for name, value in (("mass", mass), ("p4", p4), ("p6", p6), ("inv2", inv2)):
        if not value > 0.0:
            raise ContractError(f"{name} must be positive, got {value!r}")
    if not p6 < p4 * wp.alpha3:
        raise ContractError("p6 must be below p4 * max(phi^2)")
    if abs(inv2 - inv2_quad) > 1e-8 * inv2:
        raise ContractError(
            f"inv2 quadrature {inv2_quad!r} disagrees with closed form {inv2!r}"
        )
    # algebraic identity 2 w mass = (3/2) p4 + (4/3) p6 - B L of the
    # quadrature polynomial; the companion identity through inv2 is checked
    # in the test suite with largest-term normalization, since its B * inv2
    # term amplifies modulus rounding by 1/(1 - m) near the solitary limit
    r_a = 2.0 * omega * mass - 1.5 * p4 - (4.0 / 3.0) * p6 + wp.B * L
    if abs(r_a) > 1e-8 * max(1.0, abs(wp.B * L)):
        raise ContractError(f"mass/p4/p6/B identity residual {r_a!r}")

    # the curve's tangent: L1 dphi/domega = -phi on the even block
    tangent = solve_even("L1", wp, prof, -phi)
    d2 = trapezoid(phi * tangent, L)
    dalpha2 = 2.0 * phi[N // 2] * tangent[N // 2]
    # B = b_from_alpha(alpha2, omega) differentiated at the trough; the
    # crest form (alpha3^2 + alpha3 - omega) dalpha3 - alpha3 cancels by
    # about alpha3 / B' near the solitary limit (5e6 at (2 pi, 10))
    a2 = wp.alpha2
    return CurveSample(
        L=L, omega=omega, alpha3=wp.alpha3, B=wp.B, m=wp.m, mass=mass,
        p4=p4, p6=p6, inv2=inv2, dphi2=dphi2, ratio2=ratio2,
        dalpha3=2.0 * phi[0] * tangent[0], dalpha2=dalpha2,
        dB=(a2 * a2 + a2 - omega) * dalpha2 - a2, dmass_domega=2.0 * d2,
        dp4=4.0 * trapezoid(phi**3 * tangent, L),
        dp6=6.0 * trapezoid(phi**5 * tangent, L),
        dinv2=-2.0 * trapezoid(tangent / phi**3, L), d2_dd=d2,
    )


def sample_curve(L: float, omegas, N: int = 256) -> list:
    """Sample the curve at each frequency, tolerating per-point failures.

    Returns one entry per frequency, a CurveSample or a CurveError.  A
    period that is not finite and positive, or a bad grid size, fails
    every point alike, so it raises ConfigError instead.
    """
    if not (math.isfinite(L) and L > 0.0):
        raise ConfigError(f"period must be finite and positive, got L={L}")
    check_grid_size(N)
    entries: list = []
    for w in omegas:
        try:
            entries.append(curve_sample(L, w, N))
        except CqnlsError as exc:
            entries.append(CurveError(omega=float(w), message=str(exc)))
    return entries


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
    a1, a2 = roots_from_alpha3(a3, omega)
    da1 = -da2 - da3  # the roots sum to -3/2
    # m = k^2 = -a1 (a3 - a2) / (a3 (a2 - a1)), differentiated by its log
    dlog_m = (da1 / a1 + (da3 - da2) / (a3 - a2)
              - da3 / a3 - (da2 - da1) / (a2 - a1))
    dk_total = 0.5 * math.sqrt(s.m) * dlog_m
    dk_partial = dk_total - dk_dalpha(a3, omega) * da3
    dk_closed = dk_domega(a3, omega)
    dT_dB = period_map_dB(a3, omega)

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

    def rel(residual, *terms):
        return abs(residual) / max(abs(t) for t in terms)

    r1 = rel(0.5 * s.dp4 + (2.0 / 3.0) * s.dp6 - s.mass,
             0.5 * s.dp4, (2.0 / 3.0) * s.dp6, s.mass)
    r2 = rel(0.5 * s.dphi2 + 0.5 * w * s.mass - 0.5 * s.p4 - 0.5 * s.p6,
             0.5 * s.dphi2, 0.5 * w * s.mass, 0.5 * s.p4, 0.5 * s.p6)
    r3 = rel(2.0 * w * s.dmass_domega - 0.5 * s.dp4 + s.dB * L,
             2.0 * w * s.dmass_domega, 0.5 * s.dp4, s.dB * L)
    r4 = rel(-s.ratio2 + w * L - s.mass - s.p4,
             s.ratio2, w * L, s.mass, s.p4)
    return IdentityAudit(omega=w, quartic_rate=r1, virial=r2,
                         mass_rate=r3, log_derivative=r4)
