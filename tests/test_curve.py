"""Curve integrals, derivative audits, and the d''(omega) routes."""

import math
import tracemalloc
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest

from cqnls import curve, elliptic, errors, waves
from cqnls.curve import CurveSample
from cqnls.errors import (
    ConfigError,
    ContractError,
    CqnlsError,
    DegenerateError,
    DomainError,
    NoSolutionError,
    NumericError,
)
from cqnls.fourier import trapezoid

from conftest import SWEEP, TWO_PI
from oracles import curve_sample_by_point

# the fields of a CurveSample read off the tangent
RATES = ("dalpha3", "dalpha2", "dB", "dmass_domega", "dp4", "dp6", "dinv2", "d2_dd")


@pytest.fixture(scope="module")
def sweep_samples():
    return dict(zip(SWEEP, curve.sample_curve(TWO_PI, SWEEP)))


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


def test_audit_takes_one_level_set_and_one_agm(monkeypatch, sweep_samples, sweep_audits):
    # an audit row reads its roots, q, m and dT/dB from one level set and
    # one K, E pass, and dT/dB keeps the bits of period_map_dB
    for omega, s in sweep_samples.items():
        assert sweep_audits[omega].dT_dB == waves.period_map_dB(s.alpha3, omega)
    calls = {}
    for module in (waves, curve):
        for name in ("_level", "_complete_K_E"):
            if hasattr(module, name):
                fn = getattr(module, name)

                def counted(*args, fn=fn, name=name):
                    calls[name] = calls.get(name, 0) + 1
                    return fn(*args)

                monkeypatch.setattr(module, name, counted)
    for s in sweep_samples.values():
        calls.clear()
        curve.derivative_audit(s)
        assert calls == {"_level": 1, "_complete_K_E": 1}, s.omega


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


def test_sample_identity_detects_tampering(ref_wave):
    # B off by 1e-6 relative moves the identity by 3.3e-8, 3.7e-9 of its
    # largest term 2 omega mass
    wp, prof = ref_wave
    mass, p4, p6, inv2_quad = (trapezoid(prof.phi**p, wp.L) for p in (2, 4, 6, -2.0))
    inv2 = curve.inv2_closed_form(wp)
    assert curve._integral_error(wp, mass, p4, p6, inv2_quad, inv2) is None
    error = curve._integral_error(replace(wp, B=wp.B * (1 + 1e-6)), mass, p4, p6,
                                  inv2_quad, inv2)
    assert isinstance(error, ContractError) and "mass/p4/p6/B identity" in str(error)


def test_route_check_fails_on_nan():
    assert errors._agree("check", 1e-13, (1.0,), 1e-12) is None
    error = errors._agree("check", math.nan, (1.0,), 1e-12)
    assert isinstance(error, ContractError) and "check nan" in str(error)
    # max skips a NaN that is not its first argument; the check must not
    for k in range(3):
        terms = [1.0, 2.0, 3.0]
        terms[k] = math.nan
        assert math.isnan(errors._relative(0.0, terms))
        error = errors._agree("check", 0.0, terms, 1e-12, NumericError)
        assert isinstance(error, NumericError) and "is nan of its scale" in str(error)


def test_identity_audit_ratios_keep_their_bits(sweep_samples):
    def rel(residual, *terms):  # the ratio identity_audit computed inline
        return abs(residual) / max(abs(t) for t in terms)

    for s in sweep_samples.values():
        w, L = s.omega, s.L
        assert curve.identity_audit(s) == curve.IdentityAudit(
            omega=w,
            quartic_rate=rel(0.5 * s.dp4 + (2.0 / 3.0) * s.dp6 - s.mass,
                             0.5 * s.dp4, (2.0 / 3.0) * s.dp6, s.mass),
            virial=rel(0.5 * s.dphi2 + 0.5 * w * s.mass - 0.5 * s.p4 - 0.5 * s.p6,
                       0.5 * s.dphi2, 0.5 * w * s.mass, 0.5 * s.p4, 0.5 * s.p6),
            mass_rate=rel(2.0 * w * s.dmass_domega - 0.5 * s.dp4 + s.dB * L,
                          2.0 * w * s.dmass_domega, 0.5 * s.dp4, s.dB * L),
            log_derivative=rel(-s.ratio2 + w * L - s.mass - s.p4,
                               s.ratio2, w * L, s.mass, s.p4))


@pytest.mark.parametrize("omega", [2.0, 1e160, 1e210])
def test_sweep_of_an_ndarray_matches_a_list(omega):
    # an ndarray hands out numpy scalars, which must fail (or build) as floats
    L = 3.0 * waves.min_period(omega)
    (listed,) = curve.sample_curve(L, [omega])
    (arrayed,) = curve.sample_curve(L, np.array([omega]))
    if isinstance(listed, CqnlsError):
        assert (type(arrayed), str(arrayed)) == (type(listed), str(listed))
    else:
        assert [float(v).hex() for v in astuple(arrayed)] == [
            float(v).hex() for v in astuple(listed)]


def test_curve_sample_propagates_no_solution():
    with pytest.raises(NoSolutionError):
        curve.curve_sample(TWO_PI, 0.3)


def test_sweep_tolerates_bad_points():
    entries = curve.sample_curve(TWO_PI, [0.3, 0.5, 1.0, 2.0])
    assert isinstance(entries[0], NoSolutionError)
    assert "period" in str(entries[0])
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


@pytest.mark.parametrize("L", [0.0, -0.0])
def test_curve_sample_rejects_nonpositive_period(L):
    with pytest.raises(DomainError, match="period must be positive"):
        curve.curve_sample(L, 2.0)


def test_sweep_at_a_period_without_waves_keeps_its_rows():
    # a tiny period passes the sweep's check but has no wave at any
    # frequency; each point fails alone and no grid is built at that period
    entries = curve.sample_curve(1e-160, [2.0, 3.0])
    assert all(isinstance(e, NoSolutionError) for e in entries)
    assert [str(e).split(":")[0] for e in entries] == [
        "no period-1e-160 wave at omega=2.0", "no period-1e-160 wave at omega=3.0"]


def test_sweep_whose_integrals_all_fail_keeps_its_rows(monkeypatch):
    # every point built a wave but fails its integral checks, which come
    # before its tangent's: the empty batch runs through the rates at a
    # valid period without warning or error, and each point keeps its failure
    failure = ContractError("integrals rejected")
    monkeypatch.setattr(curve, "_integral_error", lambda *row: failure)
    assert curve.sample_curve(TWO_PI, [1.0, 2.0], 64) == [failure, failure]


def test_sweep_isolated_points_carry_exact_rates():
    entries = curve.sample_curve(TWO_PI, [0.5, 0.3, 1.0])
    assert isinstance(entries[1], NoSolutionError)
    for e in (entries[0], entries[2]):
        assert e == curve.curve_sample(TWO_PI, e.omega)
        assert math.isfinite(e.dmass_domega) and e.dmass_domega > 0.0
    # a sweep from s = 0.76 to 7.99 mixes moduli of 6 and 7 AGM levels in
    # one Gauss descent; each row keeps every bit of its one-point sample.
    # Against the one-point oracle, whose tangent is an even-block LU,
    # every field but the rates keeps its bits and each rate agrees to 2e-9
    # relative (9.1e-10 at most, dmass_domega at (2 pi, 7.99))
    for L in (TWO_PI, 1.5 * TWO_PI, 2.0 * TWO_PI):
        omegas = (np.linspace(0.76, 7.99, 32) / (L / TWO_PI) ** 2).tolist()
        entries = curve.sample_curve(L, omegas)
        assert {len(elliptic._agm_sequence(e.m)[0]) for e in entries} == {6, 7}
        for e in entries:
            assert e == curve.curve_sample(L, e.omega)
            ref = curve_sample_by_point(L, e.omega)
            for name, value in asdict(e).items():
                if name in RATES:
                    assert abs(value - ref[name]) <= 2e-9 * abs(ref[name]), (L, e.omega, name)
                else:
                    assert value == ref[name], (L, e.omega, name)


def _closed_form_coefficients(wp, prof):
    # q1, e and b of the tangent's closed form (module docstring of curve)
    q1 = float(np.mean(1.0 / (prof.phi**2 - wp.alpha1)))
    w, scale = wp.omega, 3.0 + 16.0 * wp.omega
    e = 2.0 / (8.0 * wp.B * (4.0 - 3.0 * q1) / scale - 4.0 * w * q1
               + (4.0 / 3.0) * (wp.alpha2 + wp.alpha3))
    return q1, e, -e * (16.0 * w * q1 + 6.0 * q1 - 4.0) / scale


@pytest.mark.parametrize("L", [TWO_PI, 1.5 * TWO_PI, 2.0 * TWO_PI])
def test_level_rate_matches_its_closed_form(L):
    # matching powers of psi in the tangent's equation also fixes
    # B' = B b - 2 B q1 e - (2/3) alpha2 alpha3 e; the sample reads dB from
    # the tangent's trough value instead (2.0e-9 relative at most)
    omegas = (np.linspace(0.76, 7.99, 32) / (L / TWO_PI) ** 2).tolist()
    for s in curve.sample_curve(L, omegas):
        wp, prof = waves.build_wave(L, s.omega, 256)
        q1, e, b = _closed_form_coefficients(wp, prof)
        closed = wp.B * b - 2.0 * wp.B * q1 * e - (2.0 / 3.0) * wp.alpha2 * wp.alpha3 * e
        assert abs(closed - s.dB) <= 1e-8 * abs(s.dB), (L, s.omega)


def test_equilibrium_end_reach():
    # at L = L_min(2)(1 + delta) the curve builds at delta = 1e-6, where d''
    # agrees with a central difference of the mass to 1.3e-10, the step
    # inside the 3.6e-6 gap above the frequency where the wave leaves the
    # constant state.  At delta = 1e-8 the check fails
    L_min = waves.min_period(2.0)
    L = L_min * (1.0 + 1e-6)
    h = 0.25 * (2.0 - waves.omega_threshold(L))
    fd = (curve.curve_sample(L, 2.0 + h).mass - curve.curve_sample(L, 2.0 - h).mass) / (4.0 * h)
    assert abs(curve.curve_sample(L, 2.0).d2_dd - fd) <= 5e-9
    with pytest.raises(ContractError, match="tangent residual"):
        curve.curve_sample(L_min * (1.0 + 1e-8), 2.0)


@pytest.mark.parametrize("L", [22.0, 24.0, 25.0, 30.0])
def test_solitary_end_reach(L):
    # at omega = 1 the curve builds to L = 24, near d''_inf = 3/19; from
    # L = 25 on the tangent residual tracks the profile's own ODE residual
    # (1.1e-8 at L = 25, 3.6e-6 at L = 30), the modulus rounding of 1 - m
    if L < 25.0:
        assert abs(curve.curve_sample(L, 1.0).d2_dd - 3.0 / 19.0) <= 1e-6
    else:
        with pytest.raises(ContractError, match="tangent residual"):
            curve.curve_sample(L, 1.0)


@pytest.mark.parametrize("N, inside, beyond", [(64, 2.0, 3.0), (128, 8.5, 9.0)])
def test_coarse_grid_reach(N, inside, beyond):
    # at L = 2 pi the check holds up to s = 2.53 at N = 64 and s = 8.87 at
    # N = 128, where it reads the grid's aliasing of (3 phi^2 + 5 phi^4) t;
    # with the spectral slope in the tangent it stopped at 2.11 and 6.74
    assert curve.curve_sample(TWO_PI, inside, N).d2_dd > 0.0
    with pytest.raises(ContractError, match="tangent residual"):
        curve.curve_sample(TWO_PI, beyond, N)


def _tangent(L, omega, N):
    entries, phi, dphi = waves._wave_rows(L, [omega], N)
    return curve._tangent_rows(entries, phi, dphi, L)[0][0]


def test_tangent_is_free_of_the_grid_truncation():
    # at (2 pi, 4, N = 64) the tangent is within 7.3e-11 of the N = 4096
    # one (1.5e-5 with the spectral slope); its check still fails there
    t, ref = _tangent(TWO_PI, 4.0, 64), _tangent(TWO_PI, 4.0, 4096)[::64]
    assert np.max(np.abs(t - ref)) <= 1e-9 * np.max(np.abs(ref))
    with pytest.raises(ContractError, match="tangent residual"):
        curve.curve_sample(TWO_PI, 4.0, 64)


def test_tangent_at_the_existence_threshold_is_degenerate():
    # min_period(omega*) rounds below L, so the wave builds (m = 4.5e-8),
    # and e's denominator cancels to exactly 0: a DegenerateError, with no
    # numpy warning (the suite turns warnings into errors)
    L = 3.1471789888118327
    threshold = waves.omega_threshold(L)
    assert threshold == 1.3859803244356685
    waves.build_wave(L, threshold, 64)
    with pytest.raises(DegenerateError, match="existence threshold"):
        curve.curve_sample(L, threshold, 64)
    # in a sweep it fails its own row alone
    rest = [threshold * (1.0 + f) for f in (1e-3, 1e-1, 0.5)]
    first, *others = curve.sample_curve(L, [threshold] + rest, 64)
    assert isinstance(first, DegenerateError)
    assert [astuple(e) for e in others] == [astuple(e) for e in curve.sample_curve(L, rest, 64)]


def test_sweep_memory_peak():
    # one pass holds a few (32, 256) arrays
    omegas = np.linspace(0.76, 7.99, 32).tolist()
    curve.sample_curve(TWO_PI, omegas)
    tracemalloc.start()
    try:
        curve.sample_curve(TWO_PI, omegas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


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
        fd = (math.sqrt(waves._level(alpha3, w + h)[3])
              - math.sqrt(waves._level(alpha3, w - h)[3])) / (2.0 * h)
        closed = waves._dk_domega(alpha3, w, *waves._level(alpha3, w)[2:])
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
    def ratio_and_weighted(w):
        s = curve.curve_sample(TWO_PI, w)
        wp = waves.params_from_alpha3(TWO_PI, w, s.alpha3)
        K, E = elliptic._complete_K_E(s.m)
        r = E / K
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
    def shortfall(k):
        K, E = elliptic._complete_K_E(k * k)
        return 1.0 - E / K

    for w in SWEEP:
        s, aud = sweep_samples[w], sweep_audits[w]
        wp = waves.params_from_alpha3(TWO_PI, w, s.alpha3)
        k = math.sqrt(s.m)
        h = min(1e-6, 0.25 * (1.0 - k))
        slope = (shortfall(k + h) - shortfall(k - h)) / (2.0 * h)
        assert slope > 0.0
        assert slope * aud.dk_partial_closed / wp.alpha1 > 0.0
