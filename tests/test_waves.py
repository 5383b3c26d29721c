"""Wave construction: root algebra, period map, profiles, shooting checks."""

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cqnls import waves
from cqnls.errors import (
    ConfigError,
    ContractError,
    CqnlsError,
    DegenerateError,
    DomainError,
    NoSolutionError,
)

from conftest import SWEEP, TWO_PI
from oracles import (
    alpha3_by_bisection,
    central_difference,
    period_by_shooting,
    period_of_B_by_bisection,
    profile_by_mpmath,
    profile_by_shooting,
    richardson_difference,
)

# (omega, alpha3, m, B) at L = 2 pi, frozen from converged runs
FROZEN = [
    (0.5, 0.5791449859, 0.725305439047, -5.711791e-2),
    (1.0, 1.1200016267, 0.968771779750, -2.448843e-2),
    (2.0, 1.8100552161, 0.997779324488, -5.199257e-3),
    (5.0, 3.1949191364, 0.999987339475, -1.203493e-4),
    (10.0, 4.7783360390, 0.999999962412, -1.019866e-6),
]


def test_threshold_value():
    assert waves.omega_threshold(TWO_PI) == pytest.approx(
        0.1430432983859531, rel=1e-14)
    with pytest.raises(DomainError):
        waves.omega_threshold(0.0)


def test_min_period_closed_form():
    for omega in SWEEP:
        s = math.sqrt(4.0 * omega + 1.0)
        assert waves.min_period(omega) == pytest.approx(
            2.0 * math.pi / math.sqrt(s * (s - 1.0)), rel=1e-14)
    # strictly decreasing in omega
    ts = [waves.min_period(w) for w in np.linspace(0.2, 10.0, 50)]
    assert all(a > b for a, b in zip(ts, ts[1:]))
    # the frequency whose minimal period is exactly 2 pi
    assert waves.min_period(0.4045084971874737) == pytest.approx(
        TWO_PI, rel=1e-12)


def test_min_period_tiny_frequency():
    # s = sqrt(4 omega + 1) rounds to 1 here; the limit is pi sqrt(2 / omega)
    assert waves.min_period(1e-17) == pytest.approx(
        math.pi * math.sqrt(2.0 / 1e-17), rel=1e-12)


def test_threshold_tiny_period():
    # L**2 underflows to zero here; the floor grows without bound instead
    assert waves.omega_threshold(1e-300) == math.inf


def test_alpha_bounds_are_the_right_roots():
    for omega in SWEEP:
        lo, hi = waves.alpha_bounds(omega)
        assert 0.0 < lo < hi
        # lower bound kills the B-slope, upper bound kills B itself
        assert abs(lo * lo + lo - omega) <= 1e-12 * max(1.0, omega)
        assert abs(waves.b_from_alpha(hi, omega)) <= 1e-12 * max(1.0, omega)
        # the discriminant quadratic stays positive through the closure
        for a in np.linspace(lo, hi, 9):
            assert waves.q_poly(a, omega) > 0.0


def test_alpha_bounds_against_mpmath():
    # the roots in rationalized form, without the cancellation at small omega
    with mpmath.workdps(40):
        for omega in (1e-3, 1e-2, 2.0, 40.0):
            w = mpmath.mpf(omega)
            exact = ((mpmath.sqrt(1 + 4 * w) - 1) / 2, (mpmath.sqrt(48 * w + 9) - 3) / 4)
            for got, ref in zip(waves.alpha_bounds(omega), exact):
                assert abs(got - ref) <= 1e-15 * ref
    lo, hi = waves.alpha_bounds(1e-17)
    assert 0.0 < lo < hi


def test_b_threshold_matches_lower_bound():
    for omega in SWEEP:
        lo, _ = waves.alpha_bounds(omega)
        assert waves.b_threshold(omega) == pytest.approx(
            waves.b_from_alpha(lo, omega), rel=1e-13)
        assert waves.b_threshold(omega) < 0.0


def test_roots_vieta_identities():
    rng = np.random.default_rng(42)
    for omega in SWEEP:
        lo, hi = waves.alpha_bounds(omega)
        for t in rng.uniform(0.05, 0.95, 8):
            a3 = lo + t * (hi - lo)
            a1, a2 = waves.roots_from_alpha3(a3, omega)
            assert a1 < 0.0 < a2 < a3
            B = waves.b_from_alpha(a3, omega)
            assert abs(a1 + a2 + a3 + 1.5) <= 1e-12
            assert abs(a1 * a2 + a1 * a3 + a2 * a3 + 3.0 * omega) <= 1e-10
            assert abs(a1 * a2 * a3 - 3.0 * B) <= 1e-10
            # every root pins the same integration constant
            assert waves.b_from_alpha(a1, omega) == pytest.approx(B, abs=1e-10)
            assert waves.b_from_alpha(a2, omega) == pytest.approx(B, abs=1e-10)


def test_roots_domain_errors():
    lo, hi = waves.alpha_bounds(2.0)
    for bad in (lo, hi, lo - 0.1, hi + 0.1, 0.0):
        with pytest.raises(DomainError):
            waves.roots_from_alpha3(bad, 2.0)


def test_modulus_range_and_degenerate_cut():
    for omega, a3, m, _ in FROZEN:
        assert waves.modulus_from(a3, omega) == pytest.approx(m, abs=2e-10)
    with pytest.raises(DegenerateError):
        # one ulp above the equilibrium bound: m ~ 3e-16
        waves.modulus_from(1.0 + 3e-16, 2.0)


def test_modulus_partials_match_differences():
    for omega, a3, _, _ in FROZEN[:3]:
        k_of_alpha = lambda a: math.sqrt(waves.modulus_from(a, omega))
        ref = richardson_difference(k_of_alpha, a3, 1e-6)
        assert waves.dk_dalpha(a3, omega) == pytest.approx(ref, rel=1e-7)
        assert waves.dk_dalpha(a3, omega) > 0.0
        k_of_omega = lambda w: math.sqrt(waves.modulus_from(a3, w))
        ref = richardson_difference(k_of_omega, omega, 1e-6 * omega)
        assert waves.dk_domega(a3, omega) == pytest.approx(ref, rel=1e-7)
        assert waves.dk_domega(a3, omega) < 0.0


def test_period_map_monotone_and_consistent():
    for omega in (0.3, 0.7, 1.5, 4.0, 9.0):
        lo, hi = waves.alpha_bounds(omega)
        a_grid = lo + (hi - lo) * np.linspace(0.02, 0.9, 12)
        periods = [waves.period_map(a, omega) for a in a_grid]
        assert all(x < y for x, y in zip(periods, periods[1:]))
        assert periods[0] > waves.min_period(omega)
        for a in a_grid[::4]:
            slope = waves.period_map_dalpha(a, omega)
            assert slope > 0.0
            h = 1e-6 * (hi - lo)
            ref = central_difference(lambda t: waves.period_map(t, omega), a, h)
            assert slope == pytest.approx(ref, rel=1e-6)


def test_period_slope_takes_one_modulus_and_one_agm(monkeypatch):
    # m, K and dK/dk of the slope come from one modulus and one AGM sequence
    from cqnls import elliptic

    calls = {"modulus": 0, "agm": 0}
    modulus_from, agm = waves.modulus_from, elliptic._agm_sequence

    def counted_modulus(alpha3, omega):
        calls["modulus"] += 1
        return modulus_from(alpha3, omega)

    def counted_agm(m):
        calls["agm"] += 1
        return agm(m)

    monkeypatch.setattr(waves, "modulus_from", counted_modulus)
    monkeypatch.setattr(elliptic, "_agm_sequence", counted_agm)
    for omega in (0.7, 2.0, 9.0):
        lo, hi = waves.alpha_bounds(omega)
        calls.update(modulus=0, agm=0)
        assert waves.period_map_dalpha(0.5 * (lo + hi), omega) > 0.0
        assert calls == {"modulus": 1, "agm": 1}, omega


def _round_trip_tol(a3: float, omega: float, L: float) -> float:
    # the root is exact to ~2 ulps of a3; the period inherits the slope
    cond = 8.0 * waves.period_map_dalpha(a3, omega) * 2.3e-16 * a3 / L
    return max(1e-12, cond)


def test_solve_round_trip():
    for omega in SWEEP:
        a3 = waves.solve_alpha3(TWO_PI, omega)
        assert waves.period_map(a3, omega) == pytest.approx(
            TWO_PI, rel=_round_trip_tol(a3, omega, TWO_PI))
    rng = np.random.default_rng(7)
    for _ in range(10):
        omega = float(rng.uniform(0.5, 6.0))
        L = float(rng.uniform(1.2, 4.0)) * waves.min_period(omega)
        a3 = waves.solve_alpha3(L, omega)
        assert waves.period_map(a3, omega) == pytest.approx(
            L, rel=_round_trip_tol(a3, omega, L))


def _solve_points():
    # seeded (L, omega) with L in [2 pi, 4 pi] and s = omega (L / 2 pi)^2 in
    # [0.75, 8], plus the edge cases of the test suite and a long period
    rng = np.random.default_rng(20)
    L = rng.uniform(TWO_PI, 2.0 * TWO_PI, 200)
    s = rng.uniform(0.75, 8.0, 200)
    points = [(float(l), float(v * (TWO_PI / l) ** 2)) for l, v in zip(L, s)]
    points += [(TWO_PI, w) for w in (0.9045, 0.95, 8.0, 9.9, 10.0)]
    return points + [(2.0 * TWO_PI, 2.0), (40.0, 0.6)]


def test_solve_matches_bisection_with_few_period_evaluations(monkeypatch):
    calls = []
    period_map = waves.period_map

    def counted(alpha3, omega):
        calls.append(alpha3)
        return period_map(alpha3, omega)

    for L, omega in _solve_points():
        ref = alpha3_by_bisection(L, omega)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(waves, "period_map", counted)
            a3 = waves.solve_alpha3(L, omega)
        assert abs(a3 - ref) <= 1e-15 * ref, (L, omega)
        assert len(calls) <= 10, (L, omega, len(calls))


@pytest.mark.parametrize("L, omega", [(200.0, 2.0), (1000.0, 0.5), (TWO_PI, 0.1)])
def test_solve_fails_like_bisection(L, omega):
    with pytest.raises(CqnlsError) as ref:
        alpha3_by_bisection(L, omega)
    with pytest.raises(CqnlsError) as new:
        waves.solve_alpha3(L, omega)
    assert type(new.value) is type(ref.value)


def test_period_of_level_set_matches_bisection():
    # the level set's alpha3 is fixed only to the rounding of b_from_alpha
    # over its slope, and the period inherits that through dT/dalpha3
    for omega in (0.5, 1.0, 2.0, 5.0, 8.0, 9.9):
        lo, hi = waves.alpha_bounds(omega)
        for a3 in lo + (hi - lo) * np.array([0.05, 0.3, 0.6, 0.9, 0.99, 0.9999]):
            B = waves.b_from_alpha(a3, omega)
            T = period_of_B_by_bisection(B, omega)
            b_noise = 2.3e-16 * (a3 * omega + a3**3 / 3.0 + a3**2 / 2.0)
            cond = 8.0 * waves.period_map_dalpha(a3, omega) * b_noise / (
                (a3 * a3 + a3 - omega) * T)
            assert waves.period_of_B(B, omega) == pytest.approx(
                T, rel=max(1e-15, cond))


def test_no_solution_messages():
    # below the documented frequency floor
    with pytest.raises(NoSolutionError, match="omega_threshold"):
        waves.solve_alpha3(TWO_PI, 0.1)
    # above the floor but the minimal period still exceeds L
    with pytest.raises(NoSolutionError, match="0.404508"):
        waves.solve_alpha3(TWO_PI, 0.3)
    with pytest.raises(DomainError):
        waves.solve_alpha3(-1.0, 2.0)


@pytest.mark.parametrize("L, omega", [(math.inf, 2.0), (math.nan, 2.0),
                                      (TWO_PI, math.inf), (TWO_PI, math.nan)])
def test_nonfinite_period_or_frequency_is_a_domain_error(L, omega):
    with pytest.raises(DomainError, match="finite"):
        waves.solve_alpha3(L, omega)


def test_build_wave_frozen_values():
    for omega, a3, m, B in FROZEN:
        wp, prof = waves.build_wave(TWO_PI, omega, 128)
        assert wp.alpha3 == pytest.approx(a3, rel=1e-9)
        assert wp.m == pytest.approx(m, abs=2e-10)
        assert wp.B == pytest.approx(B, rel=1e-5)
        assert prof.N == 128 and prof.phi.shape == (128,)


def test_build_wave_config_errors():
    for bad_N in (100, 32, 0, 256.0, -64):
        with pytest.raises(ConfigError):
            waves.build_wave(TWO_PI, 2.0, bad_N)


def test_build_wave_degenerate_limits():
    # enormous periods push the modulus past the last double just below 1;
    # the solve must refuse rather than return a wave of the wrong period
    with pytest.raises(DegenerateError):
        waves.build_wave(200.0, 2.0, 64)
    with pytest.raises(DegenerateError):
        waves.solve_alpha3(1000.0, 0.5)


def test_profile_extremes_and_symmetry(ref_wave):
    wp, prof = ref_wave
    assert prof.phi[0] ** 2 == pytest.approx(wp.alpha3, abs=1e-12)
    assert prof.phi[prof.N // 2] ** 2 == pytest.approx(wp.alpha2, abs=1e-10)
    assert np.all(prof.phi > 0.0)
    mirrored = prof.phi[(-np.arange(prof.N)) % prof.N]
    assert np.max(np.abs(prof.phi - mirrored)) <= 1e-12
    waves.validate_wave_params(wp)
    waves.validate_profile(prof, wp)


def test_profile_closed_form_derivative(ref_wave):
    wp, prof = ref_wave
    d_closed = waves.profile_derivative(wp, prof.x)
    assert np.max(np.abs(d_closed - prof.dphi)) <= 1e-9
    # derivative of the closed form against a plain difference of it
    for x0 in (0.37, 1.1, 2.9):
        ref = central_difference(lambda x: waves.profile_value(wp, x), x0, 1e-6)
        assert waves.profile_derivative(wp, x0) == pytest.approx(ref, rel=1e-8)


def test_profile_closed_forms_keep_frozen_bits():
    # profile and slope share one Jacobi pass; both keep every bit of the
    # values frozen from their former separate evaluations.  The wave is
    # assembled from the stored alpha3, so the bit comparison does not rest
    # on the last bit of the period solve, which need only land within 2 ulp.
    frozen = json.loads((Path(__file__).parent / "frozen_profiles.json").read_text())
    for entry in frozen:
        a3 = waves.solve_alpha3(entry["L"], entry["omega"])
        assert abs(a3 - entry["alpha3"]) <= 2.0 * math.ulp(entry["alpha3"])
        wp = waves.params_from_alpha3(entry["L"], entry["omega"], entry["alpha3"])
        x = waves.grid(wp.L, entry["N"])
        assert np.array_equal(waves.profile_value(wp, x), entry["phi"])
        assert np.array_equal(waves.profile_derivative(wp, x), entry["dphi"])
        assert waves.profile_value(wp, x[5]) == entry["phi"][5]
        assert waves.profile_derivative(wp, x[5]) == entry["dphi"][5]


def test_frozen_profiles_against_mpmath():
    # the frozen bits are themselves checked against the 40-digit closed
    # form at the same WaveParams: the profile pointwise to 1e-14 relative
    # (down to its trough, 6e-4 at period 4 pi), the slope to 1e-14 of its peak
    frozen = json.loads((Path(__file__).parent / "frozen_profiles.json").read_text())
    for entry in frozen:
        wp = waves.params_from_alpha3(entry["L"], entry["omega"], entry["alpha3"])
        phi, dphi = profile_by_mpmath(wp, waves.grid(wp.L, entry["N"]))
        assert np.max(np.abs(entry["phi"] / phi - 1.0)) <= 1e-14
        assert np.max(np.abs(entry["dphi"] - dphi)) <= 1e-14 * np.max(np.abs(dphi))


def test_profile_periodicity(ref_wave):
    wp, _ = ref_wave
    x = np.linspace(0.0, TWO_PI, 17)
    base = waves.profile_value(wp, x)
    shifted = waves.profile_value(wp, x + wp.L)
    assert np.max(np.abs(base - shifted)) <= 1e-12
    val = waves.profile_value(wp, 0.25)
    assert isinstance(val, float)


def test_quadrature_residuals(ref_wave):
    wp, prof = ref_wave
    r_quad, r_ode = waves.quadrature_residual(prof, wp)
    assert r_quad <= 1e-10
    assert r_ode <= 1e-8


def test_profile_matches_shooting_oracle(ref_wave):
    wp, prof = ref_wave
    x = np.linspace(0.0, wp.L, 257)
    shot = profile_by_shooting(wp.omega, math.sqrt(wp.alpha3), x)
    closed = waves.profile_value(wp, x)
    assert np.max(np.abs(closed - shot)) <= 1e-8


def test_period_matches_shooting_oracle(ref_wave):
    wp, _ = ref_wave
    measured = period_by_shooting(wp.omega, math.sqrt(wp.alpha3), 2.0 * wp.L)
    assert measured == pytest.approx(wp.L, rel=1e-8)


def test_solitary_profile_solves_the_ode():
    for omega in (0.5, 1.0, 2.0):
        peak = math.sqrt(12.0 * omega / (3.0 + math.sqrt(48.0 * omega + 9.0)))
        assert waves.solitary_profile(omega, 0.0) == pytest.approx(peak, rel=1e-14)
        for x0 in (0.0, 0.8, 2.5, 6.0):
            p = waves.solitary_profile(omega, x0)
            h = 1e-4
            dd = (waves.solitary_profile(omega, x0 + h)
                  - 2.0 * p + waves.solitary_profile(omega, x0 - h)) / h**2
            assert abs(dd - (omega * p - p**3 - p**5)) <= 1e-6
        assert waves.solitary_profile(omega, 40.0) <= 1e-11
    with pytest.raises(DomainError):
        waves.solitary_profile(0.0, 1.0)


def test_period_of_level_set_round_trip():
    for omega in SWEEP:
        a3 = waves.solve_alpha3(TWO_PI, omega)
        B = waves.b_from_alpha(a3, omega)
        assert waves.period_of_B(B, omega) == pytest.approx(
            TWO_PI, rel=_round_trip_tol(a3, omega, TWO_PI))
        # period grows with the level
        step = 1e-3 * abs(B)
        assert waves.period_of_B(B + step, omega) > waves.period_of_B(B, omega)
    with pytest.raises(DomainError):
        waves.period_of_B(0.0, 2.0)
    with pytest.raises(DomainError):
        waves.period_of_B(waves.b_threshold(2.0), 2.0)
