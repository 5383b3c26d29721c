"""Curve integrals, derivative audits, and the d''(omega) routes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cqnls import curve, waves
from cqnls.curve import CurveError, CurveSample
from cqnls.errors import ConfigError, NoSolutionError

from conftest import SWEEP, TWO_PI


@pytest.fixture(scope="module")
def sweep_samples():
    return {w: curve.curve_sample(TWO_PI, w) for w in SWEEP}


@pytest.fixture(scope="module")
def sweep_audits(sweep_samples):
    return {w: curve.derivative_audit(s) for w, s in sweep_samples.items()}


def test_frozen_reference_point(sweep_samples):
    s = sweep_samples[2.0]
    assert s.mass == pytest.approx(2.2123215363898985, rel=1e-12)
    assert s.p4 == pytest.approx(2.5874707868774771, rel=1e-12)
    assert s.p6 == pytest.approx(3.7015590517321098, rel=1e-12)
    assert s.inv2 == pytest.approx(544.52803534782879, rel=1e-11)
    assert s.dphi2 == pytest.approx(1.8643867658297417, rel=1e-11)
    assert s.ratio2 == pytest.approx(7.7665782910916095, rel=1e-11)
    assert s.d2_dd == pytest.approx(5.4746264e-2, rel=1e-8)
    assert s.dmass_domega == 2.0 * s.d2_dd


def test_positivity_and_orderings(sweep_samples):
    for s in sweep_samples.values():
        assert s.mass > 0 and s.p4 > 0 and s.p6 > 0 and s.inv2 > 0
        assert s.p6 < s.p4 * s.alpha3
        assert s.dphi2 > 0 and s.ratio2 > 0
    # the trough collapses toward the solitary end, so inv2 grows
    assert (sweep_samples[1.0].inv2 < sweep_samples[2.0].inv2
            < sweep_samples[5.0].inv2)


def test_inverse_square_closed_form_vs_quadrature(sweep_samples):
    for w, s in sweep_samples.items():
        wp, prof = waves.build_wave(TWO_PI, w, 256)
        quad = float(np.sum(prof.phi ** -2.0)) * (TWO_PI / prof.N)
        assert abs(s.inv2 - quad) <= 1e-8 * s.inv2


def test_level_weighted_identity(sweep_samples):
    # 0.5 mass + (2/3) p4 + B inv2 = 0; the B inv2 term amplifies modulus
    # rounding by 1/(1-m), hence the largest-term normalization
    for s in sweep_samples.values():
        t1 = 0.5 * s.mass
        t2 = (2.0 / 3.0) * s.p4
        t3 = s.B * s.inv2
        residual = abs(t1 + t2 + t3)
        assert residual <= 1e-8 * max(1.0, t1, t2, abs(t3))


def test_sample_identity_detects_tampering(sweep_samples):
    s = sweep_samples[2.0]
    bad = replace(s, B=s.B + 0.01)
    residual = abs(2.0 * bad.omega * bad.mass - 1.5 * bad.p4
                   - (4.0 / 3.0) * bad.p6 + bad.B * bad.L)
    assert residual > 1e-3


def test_curve_sample_propagates_no_solution():
    with pytest.raises(NoSolutionError):
        curve.curve_sample(TWO_PI, 0.3)


def test_sweep_tolerates_bad_points():
    entries = curve.sample_curve(TWO_PI, [0.3, 0.5, 1.0, 2.0])
    assert isinstance(entries[0], CurveError)
    assert entries[0].omega == 0.3
    assert "period" in entries[0].message
    assert all(isinstance(e, CurveSample) for e in entries[1:])
    # every success carries its exact rates
    for e in entries[1:]:
        assert math.isfinite(e.dmass_domega)
        assert e.d2_dd == pytest.approx(0.5 * e.dmass_domega, rel=1e-15)
    # the mass is strictly increasing along the curve
    assert entries[2].dmass_domega > 0.0


@pytest.mark.parametrize("L", [math.nan, math.inf, -1.0, 0.0])
def test_sweep_rejects_bad_period(L):
    # a bad period fails the whole sweep, not each point
    with pytest.raises(ConfigError):
        curve.sample_curve(L, [0.5, 2.0])


def test_sweep_isolated_points_carry_exact_rates():
    entries = curve.sample_curve(TWO_PI, [0.5, 0.3, 1.0])
    assert isinstance(entries[1], CurveError)
    for e in (entries[0], entries[2]):
        assert e == curve.curve_sample(TWO_PI, e.omega)
        assert math.isfinite(e.dmass_domega) and e.dmass_domega > 0.0


def test_mass_increases_along_curve():
    ws = np.linspace(0.8, 3.0, 12)
    masses = [curve.curve_sample(TWO_PI, float(w)).mass for w in ws]
    assert all(a < b for a, b in zip(masses, masses[1:]))


def test_audit_true_signs_hold(sweep_audits):
    for aud in sweep_audits.values():
        assert aud.signs_ok["dalpha3_positive"]
        assert aud.signs_ok["dalpha2_negative"]
        assert aud.signs_ok["dk_partial_negative"]
        assert aud.signs_ok["dT_dB_positive"]
        assert aud.dk_partial_match <= 1e-5
        assert aud.dk_partial_closed < 0.0


@pytest.mark.xfail(strict=True,
                   reason="documented sign expectation does not match the "
                          "computed derivative along the curve")
def test_audit_reported_level_rate_sign(sweep_audits):
    assert all(aud.signs_ok["dB_negative"] for aud in sweep_audits.values())


@pytest.mark.xfail(strict=True,
                   reason="documented sign expectation does not match the "
                          "computed derivative along the curve")
def test_audit_reported_lowest_root_rate_sign(sweep_audits):
    assert all(aud.signs_ok["dalpha1_positive"]
               for aud in sweep_audits.values())


@pytest.mark.xfail(strict=True,
                   reason="documented lower bound on the squared amplitude "
                          "fails throughout the admissible band")
def test_reported_squared_amplitude_bound(sweep_samples):
    # alpha3 exceeds the equilibrium root of a^2 + a - omega, so the
    # documented positivity has the opposite sign everywhere
    for s in sweep_samples.values():
        assert s.omega - s.alpha3 ** 2 - s.alpha3 > 0.0


@pytest.mark.xfail(strict=True,
                   reason="documented positivity of the rate combination "
                          "fails for every sampled frequency")
def test_reported_rate_combination_positivity(sweep_audits):
    for w, aud in sweep_audits.items():
        wp, _ = waves.build_wave(TWO_PI, w, 256)
        combo = -aud.dB + 0.75 - aud.dalpha1 * (0.5 * wp.alpha1 + 0.375)
        assert combo > 0.0


@pytest.mark.xfail(strict=True,
                   reason="documented sign of the leading identity terms "
                          "does not match the computed rates")
def test_reported_identity_leading_term_signs(sweep_samples, sweep_audits):
    for w in SWEEP:
        s, aud = sweep_samples[w], sweep_audits[w]
        assert -0.75 * aud.dB * s.inv2 > 0.0
        assert -aud.dB * s.L > 0.0


def test_second_derivative_routes_agree(sweep_samples):
    for s in sweep_samples.values():
        direct = curve.d2d_direct(s)
        via_identity = curve.d2d_identity(s)
        assert direct > 0.0
        assert abs(direct - via_identity) <= 1e-4 * direct


def test_second_derivative_frozen_value(sweep_samples):
    assert curve.d2d_direct(sweep_samples[2.0]) == pytest.approx(
        5.4746264e-2, rel=1e-6)


def test_integral_identities_along_curve(sweep_samples):
    for s in sweep_samples.values():
        audit = curve.identity_audit(s)
        assert audit.max_residual <= 1e-5


def _alpha2(L, w):
    return waves.roots_from_alpha3(curve.curve_sample(L, w).alpha3, w)[1]


def _richardson(f, w, h):
    # centered differences at h and h/2 combined to cancel the h^2 term
    def centered(step):
        return (f(w + step) - f(w - step)) / (2.0 * step)
    return (4.0 * centered(0.5 * h) - centered(h)) / 3.0


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0, 5.0])
def test_tangent_rates_match_finite_differences(omega):
    s = curve.curve_sample(TWO_PI, omega)
    h = 1e-3 * max(1.0, omega)
    for name, rate in (("alpha3", s.dalpha3), ("B", s.dB), ("mass", s.dmass_domega),
                       ("p4", s.dp4), ("p6", s.dp6), ("inv2", s.dinv2)):
        ref = _richardson(lambda w: getattr(curve.curve_sample(TWO_PI, w), name),
                          omega, h)
        assert rate == pytest.approx(ref, rel=1e-7), name
    ref = _richardson(lambda w: _alpha2(TWO_PI, w), omega, h)
    assert s.dalpha2 == pytest.approx(ref, rel=1e-7)


def test_modulus_partial_matches_frozen_amplitude_difference(sweep_samples,
                                                            sweep_audits):
    for w in SWEEP:
        alpha3 = sweep_samples[w].alpha3
        # alpha3 leaves the admissible set once omega drops below
        # alpha3 (2 alpha3 + 3)/6; keep the frozen-alpha3 difference inside
        h = min(1e-4 * max(1.0, w),
                0.3 * (w - alpha3 * (2.0 * alpha3 + 3.0) / 6.0))
        fd = (math.sqrt(waves.modulus_from(alpha3, w + h))
              - math.sqrt(waves.modulus_from(alpha3, w - h))) / (2.0 * h)
        closed = waves.dk_domega(alpha3, w)
        assert abs(fd - closed) <= 1e-5 * abs(closed)
        assert sweep_audits[w].dk_partial == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("L, omega", [(TWO_PI, 8.0), (TWO_PI, 10.0),
                                      (2.0 * TWO_PI, 2.0)])
def test_second_derivative_converged_in_grid(L, omega):
    coarse = curve.curve_sample(L, omega, 256).d2_dd
    fine = curve.curve_sample(L, omega, 512).d2_dd
    assert abs(coarse - fine) <= 1e-10


def test_modulus_ratio_quantities_decrease():
    # E/K falls along the curve (m rises with omega), and the trough-
    # weighted ratio E/(K alpha2) rises
    from cqnls.elliptic import complete_E, complete_K

    def ratio_and_weighted(w):
        s = curve.curve_sample(TWO_PI, w)
        wp = waves.params_from_alpha3(TWO_PI, w, s.alpha3)
        r = complete_E(s.m) / complete_K(s.m)
        return r, r / wp.alpha2

    for w in (0.5, 1.0, 2.0, 5.0):
        h = 1e-4 * max(1.0, w)
        r_lo, f_lo = ratio_and_weighted(w - h)
        r_hi, f_hi = ratio_and_weighted(w + h)
        assert r_hi < r_lo
        assert f_hi > f_lo


def test_frozen_amplitude_ratio_slope_term(sweep_samples, sweep_audits):
    # (1/alpha1) d/dk[(K-E)/K] dk/domega at frozen alpha3 is positive:
    # the middle factor grows in k while the frozen-amplitude modulus falls
    from cqnls.elliptic import complete_E, complete_K

    def shortfall(k):
        return 1.0 - complete_E(k * k) / complete_K(k * k)

    for w in SWEEP:
        s, aud = sweep_samples[w], sweep_audits[w]
        wp = waves.params_from_alpha3(TWO_PI, w, s.alpha3)
        k = math.sqrt(s.m)
        h = min(1e-6, 0.25 * (1.0 - k))
        slope = (shortfall(k + h) - shortfall(k - h)) / (2.0 * h)
        assert slope > 0.0
        assert slope * aud.dk_partial_closed / wp.alpha1 > 0.0
