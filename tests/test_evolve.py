"""Split-step integrator: exact substeps, conservation, orbital tracking."""

import math

import numpy as np
import pytest

from cqnls import curve, evolve, fourier, waves
from cqnls.errors import BlowupError, ConfigError, ContractError

from conftest import TWO_PI
from oracles import advance_by_allocation, h1_inner, orbital_phase


def test_trajectory_checks_the_initial_field(ref_wave):
    _, prof = ref_wave

    def first_record(u):
        return next(evolve._trajectory(prof, u, 1e-3, 1e-3))

    u0 = prof.phi.astype(complex)
    t, u = first_record(u0)
    assert t == 0.0 and u is u0
    with pytest.raises(ConfigError):
        first_record(np.ones(64, dtype=complex))
    bad = u0.copy()
    bad[3] = np.nan + 0j
    with pytest.raises(ConfigError, match="finite"):
        first_record(bad)


def test_mass_and_energy_reference_fields():
    ones = np.ones(128, dtype=complex)
    assert evolve.mass(TWO_PI, ones) == pytest.approx(math.pi, rel=1e-14)
    assert evolve.energy(TWO_PI, ones) == pytest.approx(-5.0 * math.pi / 6.0, rel=1e-14)
    zero = np.zeros(128, dtype=complex)
    assert evolve.mass(TWO_PI, zero) == 0.0
    assert evolve.energy(TWO_PI, zero) == 0.0


def test_mass_matches_curve_integral(ref_wave):
    wp, prof = ref_wave
    s = curve.curve_sample(TWO_PI, wp.omega)
    assert evolve.mass(TWO_PI, prof.phi) == pytest.approx(0.5 * s.mass, rel=1e-13)


def test_constant_field_rotates_exactly():
    c = 0.7
    rate = c * c + c ** 4
    u = np.full(64, c, dtype=complex)
    dt = 1e-3
    kernel = np.exp(-1j * dt * fourier.wavenumbers(TWO_PI, 64) ** 2)
    for _ in range(1000):
        u = evolve._advance(u, kernel, dt, 1)
    exact = c * np.exp(1j * rate * 1000 * dt)
    assert np.max(np.abs(u - exact)) <= 1e-10


def test_plane_wave_phase_is_exact():
    k = 3.0
    c = 0.8
    x = np.arange(128) * (TWO_PI / 128)
    u = c * np.exp(1j * k * x)
    dt = 5e-4
    kernel = np.exp(-1j * dt * fourier.wavenumbers(TWO_PI, 128) ** 2)
    for _ in range(200):
        u = evolve._advance(u, kernel, dt, 1)
    rate = c * c + c ** 4 - k * k
    exact = c * np.exp(1j * (k * x + rate * 200 * dt))
    assert np.max(np.abs(u - exact)) <= 1e-10


def _unfused_strang(u, kernel, dt, steps):
    # reference: each step applies both nonlinear half rotations in full
    for _ in range(steps):
        a2 = np.abs(u) ** 2
        u = u * np.exp(0.5j * dt * (a2 + a2 * a2))
        u = np.fft.ifft(np.fft.fft(u) * kernel)
        a2 = np.abs(u) ** 2
        u = u * np.exp(0.5j * dt * (a2 + a2 * a2))
    return u


def test_fused_advance_matches_unfused_steps(ref_wave):
    _, prof = ref_wave
    rng = np.random.default_rng(17)
    fields = {
        "even": prof.phi.astype(complex)
        + 1e-2 * evolve.perturbation_shape("bump", TWO_PI, prof.N),
        "random": 0.5 * (rng.standard_normal(prof.N)
                         + 1j * rng.standard_normal(prof.N)),
    }
    dt = 2e-4
    kernel = np.exp(-1j * dt * np.fft.fftfreq(prof.N, d=1.0 / prof.N) ** 2)
    for name, u in fields.items():
        for steps in (1, 2, 7):
            fused = evolve._advance(u, kernel, dt, steps)
            ref = _unfused_strang(u, kernel, dt, steps)
            assert np.max(np.abs(fused - ref)) <= 1e-12, (name, steps)
        assert np.array_equal(evolve._advance(u, kernel, dt, 0), u)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_in_place_advance_matches_allocating_oracle(ref_wave):
    # the work buffers keep every rounding of the allocating loop, and the
    # input field is read, never written
    _, prof = ref_wave
    rng = np.random.default_rng(31)
    fields = {
        "even": prof.phi.astype(complex)
        + 1e-2 * evolve.perturbation_shape("bump", TWO_PI, prof.N),
        "random": 0.5 * (rng.standard_normal(prof.N)
                         + 1j * rng.standard_normal(prof.N)),
        "rows": 0.5 * (rng.standard_normal((3, prof.N))
                       + 1j * rng.standard_normal((3, prof.N))),
    }
    dt = 5e-4
    kernel = np.exp(-1j * dt * fourier.wavenumbers(TWO_PI, prof.N) ** 2)
    for name, u in fields.items():
        before = u.copy()
        for steps in (1, 2, 15, 40):
            out = evolve._advance(u, kernel, dt, steps)
            assert out is not u
            ref = advance_by_allocation(u, kernel, dt, steps)
            assert np.array_equal(_bits(out), _bits(ref)), (name, steps)
            assert np.array_equal(_bits(u), _bits(before)), (name, steps)


def test_split_steps_bypass_the_public_fft(monkeypatch, ref_wave):
    # the step loop calls pocketfft's gufuncs itself: with np.fft.fft and
    # np.fft.ifft made to raise, it still runs and matches the oracle
    _, prof = ref_wave
    rng = np.random.default_rng(37)
    fields = {
        "even": prof.phi.astype(complex)
        + 1e-2 * evolve.perturbation_shape("bump", TWO_PI, prof.N),
        "rows": 0.5 * (rng.standard_normal((3, prof.N))
                       + 1j * rng.standard_normal((3, prof.N))),
    }
    dt = 5e-4
    kernel = np.exp(-1j * dt * fourier.wavenumbers(TWO_PI, prof.N) ** 2)
    refs = {name: advance_by_allocation(u, kernel, dt, 15) for name, u in fields.items()}

    def public_transform(*args, **kwargs):
        raise AssertionError("np.fft called inside the split-step loop")

    monkeypatch.setattr(np.fft, "fft", public_transform)
    monkeypatch.setattr(np.fft, "ifft", public_transform)
    for name, u in fields.items():
        out = evolve._advance(u, kernel, dt, 15)
        assert np.array_equal(_bits(out), _bits(refs[name])), name


# (t_end, dt): 1234 steps over 200 intervals of 6 or 7; 50 steps, fewer
# than the 200 records; 2000 steps at the CLI's default dt, 200 equal
# intervals of 10
_SCHEDULES = {"uneven": (1.234, 1e-3), "short": (0.05, 1e-3), "equal": (0.2, 1e-4)}


@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
def test_runs_match_the_allocating_oracle_bit_for_bit(monkeypatch, schedule):
    t_end, dt = _SCHEDULES[schedule]
    _, prof = waves.build_wave(TWO_PI, 2.0, 64)
    u0 = (prof.phi + 1e-2 * evolve.perturbation_shape("bump", TWO_PI, 64)).astype(complex)

    def outcome():
        records = [(t, u.copy()) for t, u in evolve._trajectory(prof, u0, t_end, dt)]
        fid = evolve.run_fidelity(TWO_PI, 2.0, t_end=t_end, dt=dt, N=64)
        stab = evolve.run_stability(TWO_PI, 2.0, delta=1e-2, perturbation="bump",
                                    t_end=t_end, dt=dt, N=64)
        return records, fid, stab

    records, fid, stab = outcome()
    monkeypatch.setattr(evolve, "_advance", advance_by_allocation)
    ref_records, ref_fid, ref_stab = outcome()
    assert len(records) == len(ref_records) == min(200, round(t_end / dt)) + 1
    for (t, u), (ref_t, ref_u) in zip(records, ref_records):
        assert t == ref_t and np.array_equal(_bits(u), _bits(ref_u)), t
    for rep, ref in ((fid, ref_fid), (stab, ref_stab)):
        for name, value in vars(rep).items():
            assert np.array_equal(_bits(value), _bits(getattr(ref, name))), name


def test_yielded_fields_are_never_written(ref_wave):
    # the runs read the first and the last record after the loop
    _, prof = ref_wave
    u0 = prof.phi.astype(complex)
    seen = [(u, u.copy()) for _, u in evolve._trajectory(prof, u0, 0.05, 1e-3)]
    assert seen[0][0] is u0
    for u, snapshot in seen:
        assert np.array_equal(_bits(u), _bits(snapshot))


def _inject(monkeypatch, value, index=5):
    # every record interval hands back the field with one sample replaced
    def advance(u, kernel, dt, steps):
        u = u.copy()
        u[index] = value
        return u

    monkeypatch.setattr(evolve, "_advance", advance)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.inf),
                                   complex(math.nan, 1.0)],
                         ids=["nan", "inf", "minus_inf", "imag_inf", "real_nan"])
def test_record_check_names_a_nonfinite_field(monkeypatch, ref_wave, value):
    _, prof = ref_wave
    _inject(monkeypatch, value)
    with pytest.raises(BlowupError, match=r"^nonfinite field at t=0\.001$"):
        list(evolve._trajectory(prof, prof.phi.astype(complex), 0.01, 1e-3))


def test_record_check_names_a_finite_amplitude_above_the_cap(monkeypatch, ref_wave):
    _, prof = ref_wave
    # |u| overflows although both parts are finite: still an amplitude
    _inject(monkeypatch, complex(1.5e308, 1.5e308))
    with np.errstate(over="ignore"), pytest.raises(
            BlowupError, match=r"^amplitude inf exceeds 1000 x wave amplitude at t=0\.001$"):
        list(evolve._trajectory(prof, prof.phi.astype(complex), 0.01, 1e-3))
    monkeypatch.undo()
    monkeypatch.setattr(evolve, "_BLOWUP_FACTOR", 1.0)
    with pytest.raises(BlowupError, match=r"^amplitude \S+ exceeds 1 x wave amplitude at t="):
        evolve.run_stability(TWO_PI, 2.0, delta=1e-2, perturbation="bump",
                             t_end=0.01, dt=1e-3, N=256)


def test_overflowing_run_fails_only_as_a_blowup():
    # the field overflows in the first step; no floating-point warning
    # (errors under this suite's settings) comes before the record check
    with pytest.raises(BlowupError, match=r"^nonfinite field at t=0\.001$"):
        evolve.run_stability(TWO_PI, 2.0, 1e300, "bump", t_end=0.01, dt=1e-3, N=64)


def test_parity_defect_pairs_each_sample_with_its_mirror():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    mirror = (-np.arange(64)) % 64
    assert evolve._parity_defect(u) == float(np.max(np.abs(u - u[mirror])))
    assert evolve._parity_defect(u + u[mirror]) == 0.0


def test_orbit_point_has_zero_distance(ref_wave):
    _, prof = ref_wave
    u = np.exp(1.3j) * prof.phi
    assert evolve.orbital_distance(u, prof) <= 1e-12
    assert orbital_phase(u, prof) == pytest.approx(1.3, abs=1e-12)


@pytest.mark.parametrize("L", [TWO_PI, 2.0 * TWO_PI])
@pytest.mark.parametrize("eps", [1e-10, 1e-8, 1e-6])
def test_small_orbital_distance_is_resolved(L, eps):
    # an odd H^1-unit mode is H^1-orthogonal to the even profile, so phi +
    # eps psi lies at distance eps from the orbit; ||u||^2 + ||phi||^2 -
    # 2 |<u, phi>| loses this below about sqrt(eps) ||phi||
    _, prof = waves.build_wave(L, 2.0, 256)
    psi = np.sin(TWO_PI * fourier.grid(prof.L, prof.N) / L)
    psi /= evolve.h1_norm(L, psi)
    dist = evolve.orbital_distance(prof.phi + eps * psi + 0j, prof)
    assert dist == pytest.approx(eps, rel=1e-6)


def test_orbital_distance_lower_bound(ref_wave):
    _, prof = ref_wave
    rng = np.random.default_rng(9)
    for _ in range(5):
        u = (prof.phi + 0.1 * rng.standard_normal(prof.N)
             + 0.1j * rng.standard_normal(prof.N))
        dist = evolve.orbital_distance(u, prof)
        direct = evolve.h1_norm(TWO_PI, u - prof.phi)
        assert dist <= direct + 1e-12


def test_orbital_distance_matches_h1_pairing(ref_wave):
    _, prof = ref_wave
    rng = np.random.default_rng(23)
    for scale in (0.1, 1.0):
        u = (prof.phi + scale * rng.standard_normal(prof.N)
             + 1j * scale * rng.standard_normal(prof.N))
        pair = h1_inner(TWO_PI, u, prof.phi)
        sq = (evolve.h1_norm(TWO_PI, u) ** 2 + evolve.h1_norm(TWO_PI, prof.phi) ** 2
              - 2.0 * abs(pair))
        assert evolve.orbital_distance(u, prof) == pytest.approx(
            math.sqrt(max(sq, 0.0)), rel=1e-14)
        assert orbital_phase(u, prof) == float(np.angle(pair))


def test_orbital_distance_grid_mismatch(ref_wave):
    _, prof = ref_wave
    with pytest.raises(ContractError):
        evolve.orbital_distance(np.ones(64, dtype=complex), prof)


def test_perturbation_shapes():
    L, N = TWO_PI, 256
    mirror = (-np.arange(N)) % N
    for kind in ("mode_cos1", "bump", "random_even"):
        p = evolve.perturbation_shape(kind, L, N)
        assert evolve.h1_norm(L, p) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(p - p[mirror])) <= 1e-14
    x = np.arange(N) * (L / N)
    ref = np.cos(x)
    ref = ref / evolve.h1_norm(L, ref)
    assert np.allclose(evolve.perturbation_shape("mode_cos1", L, N), ref,
                       atol=1e-14)
    a = evolve.perturbation_shape("random_even", L, N, seed=4)
    b = evolve.perturbation_shape("random_even", L, N, seed=4)
    c = evolve.perturbation_shape("random_even", L, N, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ConfigError):
        evolve.perturbation_shape("square", L, N)


def test_fidelity_run_structure():
    rep = evolve.run_fidelity(TWO_PI, 2.0, t_end=1.0, dt=1e-4, N=256)
    assert rep.times.shape == (201,)
    assert rep.sup_error[0] == 0.0
    # second-order splitting: error ~ 1.3e-6 at this horizon and step
    assert 2e-7 <= float(np.max(rep.sup_error)) <= 3e-6
    assert rep.mass_drift <= 1e-11
    assert rep.energy_drift <= 1e-9
    assert rep.rotation_rate_error <= 1e-5


def test_runs_stop_at_requested_horizon():
    # 10 steps in all, recorded after each one
    rep = evolve.run_fidelity(TWO_PI, 2.0, t_end=0.01, dt=1e-3, N=64)
    assert rep.times.shape == (11,)
    assert rep.times[-1] == pytest.approx(0.01, rel=1e-12)
    # 3333 steps over 200 intervals of 16 or 17 steps
    rep = evolve.run_fidelity(TWO_PI, 2.0, t_end=1.0, dt=3e-4, N=64)
    steps = np.round(rep.times / 3e-4).astype(int)
    assert rep.times.shape == (201,)
    assert steps[-1] == 3333
    assert set(np.diff(steps)) == {16, 17}
    # a multiple of 200 dt keeps equal intervals, t = rec * chunk * dt
    rep = evolve.run_stability(TWO_PI, 2.0, delta=1e-3, perturbation="bump",
                               t_end=0.6, dt=1e-3, N=64)
    assert rep.times.tolist() == [rec * 3 * 1e-3 for rec in range(201)]


def test_fidelity_drifts_measured_at_horizon():
    # the drifts compare the field at the horizon with the initial one
    L, omega, t_end, dt, N = TWO_PI, 2.0, 0.01, 1e-3, 64
    rep = evolve.run_fidelity(L, omega, t_end=t_end, dt=dt, N=N)
    _, prof = waves.build_wave(L, omega, N)
    u0 = prof.phi.astype(complex)
    kernel = np.exp(-1j * dt * fourier.wavenumbers(L, N) ** 2)
    u = u0
    for _ in range(10):  # the run's 10 record intervals of one step
        u = evolve._advance(u, kernel, dt, 1)
    assert rep.times[-1] == pytest.approx(t_end, rel=1e-12)
    assert rep.mass_drift == abs(evolve.mass(L, u) - evolve.mass(L, u0))
    assert rep.energy_drift == abs(evolve.energy(L, u) - evolve.energy(L, u0))


def test_fidelity_rotation_rate_over_whole_run():
    # the mean rate is the phase lag at the horizon over |omega| T, and
    # that lag accounts for the sup error: sup ~ max(phi) |omega| T error
    L, omega, t_end, dt, N = TWO_PI, 2.0, 4.0, 1e-3, 64
    rep = evolve.run_fidelity(L, omega, t_end=t_end, dt=dt, N=N)
    _, prof = waves.build_wave(L, omega, N)
    kernel = np.exp(-1j * dt * fourier.wavenumbers(L, N) ** 2)
    u = prof.phi.astype(complex)
    for _ in range(200):  # the run's 200 record intervals of 20 steps
        u = evolve._advance(u, kernel, dt, 20)
    T = rep.times[-1]
    lag = np.angle(np.sum(u * np.conj(np.exp(1j * omega * T) * prof.phi)))
    assert rep.rotation_rate_error == abs(float(lag)) / (abs(omega) * T)
    explained = np.max(prof.phi) * abs(omega) * T * rep.rotation_rate_error
    assert rep.sup_error[-1] == pytest.approx(explained, rel=0.02)


def test_fidelity_and_unperturbed_stability_share_the_run():
    args = dict(L=TWO_PI, omega=2.0, t_end=0.2, dt=1e-3, N=64)
    fid = evolve.run_fidelity(**args)
    stab = evolve.run_stability(delta=0.0, perturbation="bump", **args)
    assert np.array_equal(fid.times, stab.times)
    assert fid.mass_drift == stab.mass_drift
    assert fid.energy_drift == stab.energy_drift


def test_fidelity_second_order_in_dt():
    sup = {}
    for dt in (2e-4, 1e-4):
        rep = evolve.run_fidelity(TWO_PI, 2.0, t_end=0.5, dt=dt, N=256)
        sup[dt] = float(rep.sup_error[-1])
    ratio = sup[2e-4] / sup[1e-4]
    assert 3.4 <= ratio <= 4.6


def test_fidelity_config_errors():
    with pytest.raises(ConfigError):
        evolve.run_fidelity(TWO_PI, 2.0, t_end=0.0, dt=1e-4, N=256)
    with pytest.raises(ConfigError):
        evolve.run_fidelity(TWO_PI, 2.0, t_end=1.0, dt=-1e-4, N=256)


@pytest.mark.parametrize("t_end, dt", [(math.inf, 1e-3), (0.01, math.nan), (1e300, 1e-300)])
def test_nonfinite_horizon_or_step_is_a_config_error(t_end, dt):
    with pytest.raises(ConfigError):
        evolve.run_fidelity(TWO_PI, 2.0, t_end=t_end, dt=dt, N=64)
    with pytest.raises(ConfigError):
        evolve.run_stability(TWO_PI, 2.0, delta=1e-3, perturbation="bump",
                             t_end=t_end, dt=dt, N=64)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_nonfinite_delta_is_a_config_error(delta):
    with pytest.raises(ConfigError, match="perturbation size"):
        evolve.run_stability(TWO_PI, 2.0, delta=delta, perturbation="bump",
                             t_end=0.01, dt=1e-3, N=64)


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed"):
        evolve.perturbation_shape("random_even", TWO_PI, 64, seed=-1)


def test_unperturbed_orbit_stays_put():
    rep = evolve.run_stability(TWO_PI, 2.0, delta=0.0,
                               perturbation="mode_cos1", t_end=5.0, dt=5e-5,
                               N=256)
    assert rep.max_dist <= 1e-6
    assert rep.orbital_dist[0] <= 1e-12
    assert rep.parity_defect <= 1e-8
    assert rep.mass_drift <= 1e-10
    assert rep.energy_drift <= 1e-8


def test_stability_linear_response():
    dists = {}
    for delta in (1e-3, 2e-3):
        rep = evolve.run_stability(TWO_PI, 2.0, delta=delta,
                                   perturbation="bump", t_end=2.0, dt=2e-4,
                                   N=256)
        dists[delta] = rep.max_dist
        assert rep.parity_defect <= 1e-8
        assert np.all(rep.orbital_dist >= 0.0)
    ratio = dists[2e-3] / dists[1e-3]
    assert 1.7 <= ratio <= 2.3


def test_stability_blowup_sentinel(monkeypatch):
    monkeypatch.setattr(evolve, "_BLOWUP_FACTOR", 1.0)
    with pytest.raises(BlowupError):
        evolve.run_stability(TWO_PI, 2.0, delta=1e-2, perturbation="bump",
                             t_end=0.01, dt=1e-3, N=256)


def test_stability_config_errors():
    with pytest.raises(ConfigError):
        evolve.run_stability(TWO_PI, 2.0, delta=-1e-3, perturbation="bump",
                             t_end=1.0, dt=1e-3, N=256)
    with pytest.raises(ConfigError):
        evolve.run_stability(TWO_PI, 2.0, delta=1e-3, perturbation="wedge",
                             t_end=1.0, dt=1e-3, N=256)


def test_stability_checks_perturbation_name_first():
    # the name is checked even without a kick, and before any wave is built
    with pytest.raises(ConfigError, match="perturbation kind"):
        evolve.run_stability(TWO_PI, 2.0, 0.0, "wedge", t_end=0.01, dt=1e-3, N=64)
    with pytest.raises(ConfigError, match="perturbation kind"):
        evolve.run_stability(TWO_PI, 0.1, 1e-3, "wedge", t_end=0.01, dt=1e-3, N=64)
