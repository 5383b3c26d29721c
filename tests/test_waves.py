"""Wave construction: root algebra, period map, profiles, shooting checks."""

import json
import math
from dataclasses import astuple, replace
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
    # the frequency whose minimal period is 2 pi
    assert waves.omega_threshold(TWO_PI) == pytest.approx(
        (1.0 + math.sqrt(5.0)) / 8.0, rel=1e-14)
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
    # the threshold is about (pi / L)^2; its product (s - 1)(s + 1) leaves
    # double range below L ~ 4.7e-154
    assert waves.omega_threshold(4.7e-154) == pytest.approx((math.pi / 4.7e-154) ** 2)
    for L in (4.6e-154, 1e-300, 5e-324):
        with pytest.raises(DomainError, match="exceeds double range"):
            waves.omega_threshold(L)


def test_threshold_inverts_min_period():
    for L in np.logspace(-3, 100, 207):
        assert waves.min_period(waves.omega_threshold(L)) == pytest.approx(L, rel=1e-13)
    # a huge period has a subnormal threshold, not one that overflows to inf
    with pytest.raises(NoSolutionError,
                       match=r"require omega > omega_threshold\(L\)=1\.97389e-319$"):
        waves.solve_alpha3(1e160, 1e-320)


def test_alpha_bounds_are_the_right_roots():
    for omega in SWEEP:
        lo, hi = waves.alpha_bounds(omega)
        assert 0.0 < lo < hi
        # lower bound kills the B-slope, upper bound kills B itself
        assert abs(lo * lo + lo - omega) <= 1e-12 * max(1.0, omega)
        assert abs(waves.b_from_alpha(hi, omega)) <= 1e-12 * max(1.0, omega)
        # the discriminant quadratic stays positive through the closure
        for a in np.linspace(lo, hi, 9):
            assert waves._q_poly(a, omega) > 0.0


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
    # the closed form (1 - (4 omega + 1)^(3/2) + 6 omega)/12 at 50 digits:
    # about -omega^2/2 at small omega, where evaluating it in doubles cancels
    with mpmath.workdps(50):
        for omega in (1e-10, 1e-8, 1e-6, 1e-2, 2.0, 10.0, 1e100, 1e200):
            w = mpmath.mpf(omega)
            exact = (1 - (4 * w + 1) ** mpmath.mpf(1.5) + 6 * w) / 12
            assert abs(waves.b_threshold(omega) - exact) <= 1e-15 * abs(exact), omega


@pytest.mark.parametrize("call", [
    lambda: waves.b_threshold(1e206),
    # in range at its threshold, alpha^3 overflows inside the level-set solve
    lambda: waves.period_of_B(-1.0, 2.6e205),
], ids=["b_threshold", "period_of_B"])
def test_level_constant_beyond_double_reach_is_a_domain_error(call):
    with pytest.raises(DomainError, match="out of double-precision reach") as info:
        call()
    assert type(info.value) is DomainError


def _b_terms(alpha, omega):
    # the terms of b_from_alpha(alpha, omega)
    return (-alpha * omega, alpha**3 / 3.0, alpha**2 / 2.0)


def _root_identity_residuals(a1, a2, a3, w, B):
    """Root sum, pair sum, product and B via alpha1 and alpha2, each over its largest term.

    B enters the last three through b_from_alpha, so its terms count among
    theirs: B itself is a small difference of them near the solitary end.
    """
    identities = (
        (a1 + a2 + a3 + 1.5, (a1, a2, a3, 1.5)),
        (a1 * a2 + a1 * a3 + a2 * a3 + 3.0 * w, (a1 * a2, a1 * a3, a2 * a3, 3.0 * w)),
        (a1 * a2 * a3 - 3.0 * B, (a1 * a2 * a3, *(3.0 * t for t in _b_terms(a3, w)))),
        # every root pins the same integration constant
        *((waves.b_from_alpha(a, w) - B, (*_b_terms(a, w), *_b_terms(a3, w)))
          for a in (a1, a2)),
    )
    return [abs(r) / max(abs(t) for t in terms) for r, terms in identities]


def test_roots_vieta_identities():
    # the roots and B are built from alpha3 by these identities, so
    # build_wave does not recheck them, nor what follows from them (beta_sq
    # > 0, B in its window, the crest phi(0)^2 = alpha3); an absolute bound
    # would reject the waves of large omega, where each term grows like
    # omega^(3/2).  Eight in-band alpha3 per SWEEP omega, then the waves of
    # the reach: the worst relative residual, 5.7e-13, sits at omega =
    # 1e-4, where alpha2 carries the cancellation of sqrt(3 q) - 2 alpha3 -
    # 3.  Every wave at omega >= 10 builds, 1e5 and 1e14 among them, and
    # its crest is sqrt(alpha3) to within one ulp of alpha3
    rng = np.random.default_rng(42)
    worst = [0.0] * 5
    for omega in SWEEP:
        lo, hi = waves.alpha_bounds(omega)
        for t in rng.uniform(0.05, 0.95, 8):
            a3 = lo + t * (hi - lo)
            a1, a2 = waves.roots_from_alpha3(a3, omega)
            assert a1 < 0.0 < a2 < a3
            residuals = _root_identity_residuals(
                a1, a2, a3, omega, waves.b_from_alpha(a3, omega))
            worst = [max(a, b) for a, b in zip(worst, residuals)]
    built = 0
    for omega in np.logspace(-4.0, 14.0, 65).tolist():
        for f in (1.01, 1.5, 3.0, 10.0):
            try:
                wp, prof = waves.build_wave(f * waves.min_period(omega), omega, 64)
            except DegenerateError:
                # the solitary end of the reach table's last column
                assert f == 10.0 and omega < 10.0, omega
                continue
            built += 1
            assert wp.beta_sq > 0.0
            assert waves.b_threshold(omega) < wp.B < 0.0
            assert abs(prof.phi[0] ** 2 - wp.alpha3) <= math.ulp(wp.alpha3), omega
            residuals = _root_identity_residuals(
                wp.alpha1, wp.alpha2, wp.alpha3, wp.omega, wp.B)
            worst = [max(a, b) for a, b in zip(worst, residuals)]
    assert built >= 240
    assert max(worst) <= 1e-12, worst


def test_roots_domain_errors():
    lo, hi = waves.alpha_bounds(2.0)
    for bad in (lo, hi, lo - 0.1, hi + 0.1, 0.0):
        with pytest.raises(DomainError):
            waves.roots_from_alpha3(bad, 2.0)
    # inside the interval, a point of the (182.5, 0.04319) solve just below
    # the solitary bound 0.08190744677518064, where alpha2 rounds to 0
    with pytest.raises(DegenerateError, match="root ordering failed"):
        waves.roots_from_alpha3(0.08190744677518062, 0.04319)


def test_modulus_range_and_degenerate_cut():
    for omega, a3, m, _ in FROZEN:
        assert waves._level(a3, omega)[3] == pytest.approx(m, abs=2e-10)
    with pytest.raises(DegenerateError):
        # one ulp above the equilibrium bound: m ~ 3e-16
        waves._level(1.0 + 3e-16, 2.0)


def test_modulus_partials_match_differences():
    for omega, a3, _, _ in FROZEN[:3]:
        q_m = waves._level(a3, omega)[2:]
        k_of_alpha = lambda a: math.sqrt(waves._level(a, omega)[3])
        ref = richardson_difference(k_of_alpha, a3, 1e-6)
        assert waves._dk_dalpha(a3, omega, *q_m) == pytest.approx(ref, rel=1e-7)
        assert waves._dk_dalpha(a3, omega, *q_m) > 0.0
        k_of_omega = lambda w: math.sqrt(waves._level(a3, w)[3])
        ref = richardson_difference(k_of_omega, omega, 1e-6 * omega)
        assert waves._dk_domega(a3, omega, *q_m) == pytest.approx(ref, rel=1e-7)
        assert waves._dk_domega(a3, omega, *q_m) < 0.0


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


def _count_calls(patch, module, name, calls):
    # wrap module.name so that each call bumps calls[name]
    fn = getattr(module, name)

    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args)

    patch.setattr(module, name, counted)


def test_period_slope_takes_one_modulus_and_one_agm(monkeypatch):
    # m, K and dK/dk of the period and of its slope come from one level set
    # (roots, q and the checked modulus) and one AGM sequence, the K, E pass
    # that sums E's series as it goes
    calls = {}
    _count_calls(monkeypatch, waves, "_level", calls)
    _count_calls(monkeypatch, waves, "_complete_K_E", calls)
    for omega in (0.7, 2.0, 9.0):
        lo, hi = waves.alpha_bounds(omega)
        for fn in (waves.period_map, waves.period_map_dalpha):
            calls.clear()
            assert fn(0.5 * (lo + hi), omega) > 0.0
            assert calls == {"_level": 1, "_complete_K_E": 1}, (fn.__name__, omega)


def _count_agms(patch, calls):
    # every AGM sequence: the level lists of the Jacobi pass and the K, E
    # pass, each counted on every binding the library reads it through
    from cqnls import curve, elliptic

    for module, name in ((elliptic, "_agm_sequence"), (waves, "_agm_sequence"),
                         (elliptic, "_complete_K_E"), (waves, "_complete_K_E"),
                         (curve, "_complete_K_E")):
        fn = getattr(module, name)

        def counted(*args, fn=fn):
            calls["agm"] = calls.get("agm", 0) + 1
            return fn(*args)

        patch.setattr(module, name, counted)


def test_solve_and_curve_sample_agm_budget(monkeypatch):
    # one AGM per period evaluation of the solve (period and slope share
    # it), one for the attained-period check unless the root is the last
    # evaluated point; a curve sample adds one for the profile (its Jacobi
    # pass and its scale K) and one K, E pair for inv2, and derives no level
    # set beyond the solve's
    from cqnls import curve

    calls = {}
    _count_agms(monkeypatch, calls)
    waves.solve_alpha3(TWO_PI, 2.0)
    assert calls["agm"] <= 6
    calls.clear()
    _count_calls(monkeypatch, waves, "_level", calls)
    curve.curve_sample(TWO_PI, 2.0)
    assert calls["agm"] <= 8
    assert calls["_level"] <= 6


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
    # counts every period evaluation of the solve (the Newton and bisection
    # points, each with its slope) plus the attained-period check, which
    # reuses the last evaluation when the root is that point
    calls = {}
    for L, omega in _solve_points():
        ref = alpha3_by_bisection(L, omega)
        calls.clear()
        with monkeypatch.context() as patch:
            _count_calls(patch, waves, "_period_and_slope", calls)
            a3 = waves.solve_alpha3(L, omega)
        assert abs(a3 - ref) <= 1e-15 * ref, (L, omega)
        assert calls["_period_and_slope"] <= 10, (L, omega, calls)


def test_solve_keeps_the_frozen_bits_of_its_roots():
    # every bit of these roots is load-bearing: shifting each root of the
    # curve_audit benchmark by +-1 ulp moved its err_max (the largest audit
    # route difference on the s = 8 edge probes, 1.7556e-8) to 2.405e-8
    # (+37%) and 1.618e-8, and +4 ulp to 2.839e-8, while random ulps on the
    # profile moved it by at most 1e-5 relative.  So the period solve's
    # arithmetic (Newton start, iterates, evaluation order) is frozen: the
    # 22 points of the two edge-probe audit sweeps (L = 3 pi and 4 pi,
    # omega up to the edge s = 8) and 20 seeded (L, omega) with L in
    # [2 pi, 4 pi] and s in [0.75, 8], roots captured as hex
    frozen = json.loads((Path(__file__).parent / "frozen_roots.json").read_text())
    assert [e["kind"] for e in frozen].count("edge probe") == 22
    for entry in frozen:
        assert waves.solve_alpha3(entry["L"], entry["omega"]).hex() == entry["alpha3"], entry


def test_small_frequency_solve_beyond_reach_stays_in_the_bracket(monkeypatch):
    # near the solitary bound at small omega the level set's root order breaks
    # before the modulus cut; those points are classified like the cut and
    # shrink the bracket, so the solve ends in the attained-period check
    calls = {}
    _count_calls(monkeypatch, waves, "_period_and_slope", calls)
    with pytest.raises(DegenerateError, match="out of numerical reach"):
        waves.solve_alpha3(182.50, 0.04319)
    assert calls["_period_and_slope"] <= 50, calls


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
    # below the existence threshold, which the message names and states
    with pytest.raises(NoSolutionError, match="omega_threshold"):
        waves.solve_alpha3(TWO_PI, 0.1)
    with pytest.raises(NoSolutionError, match="0.404508"):
        waves.solve_alpha3(TWO_PI, 0.3)
    with pytest.raises(DomainError):
        waves.solve_alpha3(-1.0, 2.0)


@pytest.mark.parametrize("L, omega", [(math.inf, 2.0), (math.nan, 2.0),
                                      (TWO_PI, math.inf), (TWO_PI, math.nan)])
def test_nonfinite_period_or_frequency_is_a_domain_error(L, omega):
    with pytest.raises(DomainError, match="finite"):
        waves.solve_alpha3(L, omega)


@pytest.mark.parametrize("omega", [1.4e154, 1e200, 1e300])
def test_frequency_beyond_double_reach_is_a_domain_error(omega):
    # omega^2 overflows in the closed-form period slope; the solve reports it
    # as a domain error, not as Python's OverflowError
    with pytest.raises(DomainError, match="out of double-precision reach") as info:
        waves.solve_alpha3(TWO_PI, omega)
    assert type(info.value) is DomainError


@pytest.mark.parametrize("omega", [2.0, 1e160, 1e210])
def test_numpy_scalar_frequency_builds_like_a_float(omega):
    # only Python floats raise OverflowError, which the closed forms turn
    # into DomainError; a numpy scalar would overflow with a warning (an
    # error in this suite) and build on from inf
    L = 3.0 * waves.min_period(omega)

    def outcome(w):
        try:
            wp, prof = waves.build_wave(L, w, 64)
        except CqnlsError as exc:
            return type(exc), str(exc)
        return [float(v).hex() for v in astuple(wp)], prof.phi.tobytes()

    assert outcome(np.float64(omega)) == outcome(omega)


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


def _reach_cell(L, omega):
    # what build_wave gives at (L, omega): how close to the solitary end the
    # wave sits, or the class of the error that stops it
    try:
        wp, _ = waves.build_wave(L, omega, 64)
    except CqnlsError as exc:
        return type(exc).__name__
    return f"1 − m = {1.0 - wp.m:.1e}"


def _reach_tables():
    factors = (1.01, 1.5, 3.0, 10.0)
    lines = ["| ω | " + " | ".join(f"L = {f:g} min_period" for f in factors) + " |",
             "|---" * (len(factors) + 1) + "|"]
    for omega in (1e-6, 1e-5, 5.6e-5, 1e-4, 1e-2, 1.0, 10.0, 1e3, 1e4, 1e6, 1e10, 1e12,
                  1e14, 1e16, 1e50, 1e100, 1e150, 1e155):
        cells = [_reach_cell(f * waves.min_period(omega), omega) for f in factors]
        lines.append(f"| {omega:g} | " + " | ".join(cells) + " |")
    lines += ["", "| L | ω | build_wave |", "|---|---|---|"]
    for L, omega in ((40.0, 1.0), (200.0, 2.0), (1000.0, 0.5)):
        lines.append(f"| {L:g} | {omega:g} | {_reach_cell(L, omega)} |")
    return "\n".join(lines)


def test_readme_reach_table_matches_build_wave():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _reach_tables() in readme, _reach_tables()


def test_profile_extremes_and_symmetry(ref_wave):
    wp, prof = ref_wave
    N = prof.N
    assert prof.phi[0] ** 2 == pytest.approx(wp.alpha3, abs=1e-12)
    assert prof.phi[prof.N // 2] ** 2 == pytest.approx(wp.alpha2, abs=1e-10)
    assert np.all(prof.phi > 0.0)
    # every built row is its half period mirrored, bit for bit: the Hill
    # blocks read the half period alone
    mirror = (-np.arange(N)) % N
    assert np.array_equal(prof.phi, prof.phi[mirror])
    entries, phi, dphi = waves._wave_rows(TWO_PI, SWEEP, N)
    assert all(isinstance(e, waves.WaveParams) for e in entries) and len(phi) == len(SWEEP)
    assert np.array_equal(phi, phi[:, mirror])
    # the closed-form slope is mirrored as an odd row
    assert np.array_equal(dphi[:, N // 2 + 1:], -dphi[:, N // 2 - 1:0:-1])
    # the shape that _profile_errors leaves unchecked holds by construction:
    # the crest is sqrt(alpha3) bit for bit, and no sample is above it or at 0
    crest = np.array([math.sqrt(e.alpha3) for e in entries])
    assert np.array_equal(phi[:, 0], crest)
    assert np.all((phi > 0.0) & (phi <= crest[:, None]))
    assert waves._profile_errors(prof.phi[None, :N // 2 + 1], [wp]) == [None]


def test_profile_checks_reject_tampering(ref_wave):
    # alpha2 off by 1e-6 relative moves the trough route by 2.6e-9 (1.4e-9
    # of alpha3), which an absolute 1e-8 would pass
    wp, prof = ref_wave
    half = prof.phi[:prof.N // 2 + 1]
    assert waves._profile_errors(half[None], [wp]) == [None]
    (error,) = waves._profile_errors(half[None], [replace(wp, alpha2=wp.alpha2 * (1 + 1e-6))])
    assert isinstance(error, ContractError) and "trough" in str(error)


@pytest.mark.parametrize("omega", [1e16, 1e50, 1e100, 1e150])
@pytest.mark.parametrize("f", [1.01, 3.0, 10.0])
def test_large_frequency_builds_match_mpmath(omega, f):
    # checks scaled by the wave's own size let builds pass omega ~ 4e14,
    # where an absolute 1e-8 trough bound failed on rounding; the samples
    # still match the 40-digit closed form to 1e-14 of the crest
    wp, prof = waves.build_wave(f * waves.min_period(omega), omega, 64)
    phi = profile_by_mpmath(wp, waves.grid(wp.L, 64))[0]
    assert np.max(np.abs(prof.phi - phi)) <= 1e-14 * math.sqrt(wp.alpha3)


def test_profile_closed_form_derivative(ref_wave):
    # on the half period the closed-form slope matches the spectral
    # derivative that build_wave's Profile carries, and the full rows of
    # _wave_rows match it too, mirrored as an odd function
    wp, prof = ref_wave
    half = prof.N // 2 + 1
    phi, d_closed = waves._half_period([wp], waves.grid(prof.L, prof.N)[:half])
    assert np.array_equal(phi[0], prof.phi[:half])
    assert np.max(np.abs(d_closed[0] - prof.dphi[:half])) <= 1e-9
    _, _, dphi = waves._wave_rows(wp.L, [wp.omega], prof.N)
    assert np.max(np.abs(dphi[0] - prof.dphi)) <= 1e-9
    # derivative of the closed form against a plain difference of it
    for x0 in (0.37, 1.1, 2.9):
        ref = central_difference(lambda x: waves.profile_value(wp, x), x0, 1e-6)
        assert waves._half_period([wp], np.array([x0]))[1][0, 0] == pytest.approx(ref, rel=1e-8)


def test_profile_closed_forms_keep_frozen_bits():
    # profile and slope share one Jacobi pass; both keep every bit of the
    # values frozen from their former separate evaluations, the slope on
    # the half period 0 <= x < L/2 that _half_period reads.  The wave is
    # assembled from the stored alpha3, so the bit comparison does not rest
    # on the last bit of the period solve, which need only land within 2 ulp.
    frozen = json.loads((Path(__file__).parent / "frozen_profiles.json").read_text())
    for entry in frozen:
        a3 = waves.solve_alpha3(entry["L"], entry["omega"])
        assert abs(a3 - entry["alpha3"]) <= 2.0 * math.ulp(entry["alpha3"])
        wp = waves.params_from_alpha3(entry["L"], entry["omega"], entry["alpha3"])
        x = waves.grid(wp.L, entry["N"])
        half = entry["N"] // 2
        phi, dphi = waves._half_period([wp], x[:half])
        assert np.array_equal(waves.profile_value(wp, x), entry["phi"])
        assert np.array_equal(phi[0], entry["phi"][:half])
        assert np.array_equal(dphi[0], entry["dphi"][:half])
        assert waves.profile_value(wp, x[5]) == entry["phi"][5]
        assert waves._half_period([wp], x[5:6])[1][0, 0] == entry["dphi"][5]


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
