"""Split-step time integration and the orbital-stability experiment.

The flow i u_t + u_xx + |u|^2 u + |u|^4 u = 0 on the L-periodic line is
advanced by Strang splitting.  Both substeps are exact flows: the
nonlinear part only rotates the phase pointwise (|u| is invariant under
it), and the linear part diagonalizes in Fourier space.  The composition
is second-order accurate, conserves mass to rounding, and keeps the
energy bounded within O(dt^2) of its initial value.  Over a run of
steps the closing half rotation of one step and the opening half
rotation of the next are applied as one full rotation; this is exact
because the rotation leaves |u|, and hence its own rate, unchanged.

A standing wave evolves as a pure phase rotation e^{i omega t} phi, so
stability is measured against the orbit {e^{i theta} phi}: the discrete
H^1 distance to the orbit minimizes over the rotation angle in closed
form.  Translation is frozen out because the experiment lives in the
even subspace: even initial data stays even under both substeps, and the
run asserts that parity is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError, ContractError, NumericError
from .fourier import grid, spectral_derivative, trapezoid, wavenumbers
from .waves import Profile, build_wave

_PERTURBATIONS = ("mode_cos1", "bump", "random_even")
_PARITY_TOL = 1e-8  # max evenness defect tolerated during a stability run


@dataclass(frozen=True, eq=False)
class FieldState:
    """Complex field samples on the uniform periodic grid at one instant."""

    L: float
    N: int
    u: np.ndarray
    t: float


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Deviation of an evolved standing wave from its exact phase rotation.

    sup_error[i] is max_x |u(x, times[i]) - e^{i omega times[i]} phi(x)|;
    rotation_rate_error is the relative deviation of the measured phase
    rotation rate from omega over the final step.
    """

    times: np.ndarray
    sup_error: np.ndarray
    mass_drift: float
    energy_drift: float
    rotation_rate_error: float


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Time series and drift summary of one perturbed evolution run.

    orbital_dist[i] is the H^1 distance to the standing-wave orbit at
    times[i]; the drifts are |final - initial| of the conserved
    quantities; parity_defect is the largest evenness violation seen at
    any recorded instant.
    """

    times: np.ndarray
    orbital_dist: np.ndarray
    mass_drift: float
    energy_drift: float
    max_dist: float
    parity_defect: float


def validate_state(state: FieldState) -> None:
    """Reject states with wrong sample counts or nonfinite entries."""
    if state.u.shape != (state.N,):
        raise ConfigError(
            f"field has {state.u.shape} samples, expected ({state.N},)"
        )
    if not np.all(np.isfinite(state.u.real)) or not np.all(np.isfinite(state.u.imag)):
        raise NumericError("field contains nonfinite samples")


def mass(state: FieldState) -> float:
    """Half the squared L2 norm, exactly conserved by both substeps."""
    a2 = state.u.real**2 + state.u.imag**2
    return 0.5 * trapezoid(a2, state.L)


def energy(state: FieldState) -> float:
    """Hamiltonian (1/2) integral of |u_x|^2 - |u|^4/2 - |u|^6/3."""
    ux = spectral_derivative(state.u, state.L)
    a2 = state.u.real**2 + state.u.imag**2
    dens = ux.real**2 + ux.imag**2 - 0.5 * a2 * a2 - (a2 * a2 * a2) / 3.0
    return 0.5 * trapezoid(dens, state.L)


def _advance(u: np.ndarray, kernel: np.ndarray, dt: float, steps: int) -> np.ndarray:
    # `steps` Strang steps (half rotation, Fourier propagation, half rotation)
    # with adjacent half rotations fused: the rotation leaves |u| unchanged,
    # so the half closing one step and the half opening the next are exactly
    # one full rotation by the same |u|^2 + |u|^4
    if steps <= 0:
        return u
    a2 = u.real**2 + u.imag**2
    u = u * np.exp((0.5j * dt) * (a2 + a2 * a2))
    for step in range(steps):
        u = np.fft.ifft(np.fft.fft(u) * kernel)
        a2 = u.real**2 + u.imag**2
        h = dt if step < steps - 1 else 0.5 * dt
        u = u * np.exp((1j * h) * (a2 + a2 * a2))
    return u


def _record_steps(t_end: float, dt: float, records: int) -> list[int]:
    # cumulative step counts at the record instants: round(t_end / dt) steps
    # (at least one) over at most `records` intervals of near-equal length;
    # when t_end is a multiple of records * dt every interval has the same
    # round(t_end / (records * dt)) steps
    n = max(1, int(round(t_end / dt)))
    count = min(records, n)
    return [(rec * n) // count for rec in range(1, count + 1)]


def step_strang(state: FieldState, dt: float) -> FieldState:
    """One second-order split step; dt <= 0.5 (L/N)^2 keeps phases resolved."""
    if dt <= 0.0:
        raise ConfigError(f"time step must be positive, got dt={dt}")
    kernel = np.exp(-1j * dt * wavenumbers(state.L, state.N) ** 2)
    u = _advance(np.asarray(state.u, dtype=complex), kernel, dt, 1)
    return FieldState(L=state.L, N=state.N, u=u, t=state.t + dt)


def h1_inner(L: float, f, g):
    """Discrete H^1 pairing: L2 pairing of values plus spectral derivatives."""
    f = np.asarray(f)
    g = np.asarray(g)
    df = spectral_derivative(f, L)
    dg = spectral_derivative(g, L)
    return trapezoid(f * np.conj(g) + df * np.conj(dg), L)


def h1_norm(L: float, f) -> float:
    """Discrete H^1 norm matching h1_inner."""
    f = np.asarray(f)
    df = spectral_derivative(f, L)
    sq = trapezoid(f.real**2 + f.imag**2 + df.real**2 + df.imag**2, L)
    return math.sqrt(max(float(sq), 0.0))


def _h1_pairing(state: FieldState, prof: Profile) -> tuple[complex, np.ndarray]:
    # <u, phi> in H^1 and u_x from one FFT pair: prof.dphi is the same
    # spectral derivative of phi that h1_inner would recompute
    if state.N != prof.N or abs(state.L - prof.L) > 1e-12 * max(1.0, prof.L):
        raise ContractError("field and profile live on different grids")
    du = spectral_derivative(state.u, state.L)
    return trapezoid(state.u * prof.phi + du * prof.dphi, state.L), du


def orbital_phase(state: FieldState, prof: Profile) -> float:
    """Rotation angle minimizing the H^1 distance to e^{i theta} phi."""
    return float(np.angle(_h1_pairing(state, prof)[0]))


def orbital_distance(state: FieldState, prof: Profile) -> float:
    """H^1 distance from the field to the rotation orbit of the profile.

    The minimizing angle is the argument of the H^1 pairing <u, phi>, so
    the squared distance is ||u||^2 + ||phi||^2 - 2 |<u, phi>|.
    """
    pair, du = _h1_pairing(state, prof)
    nu = trapezoid(state.u.real**2 + state.u.imag**2 + du.real**2 + du.imag**2, state.L)
    nphi = trapezoid(prof.phi**2 + prof.dphi**2, prof.L)
    return math.sqrt(max(float(nu + nphi - 2.0 * abs(pair)), 0.0))


def perturbation_shape(kind: str, L: float, N: int, seed: int = 0) -> np.ndarray:
    """Even, real perturbation with unit discrete H^1 norm.

    mode_cos1 is the lowest cosine mode; bump is a smooth even bump
    centered on the wave crest; random_even draws uniform coefficients
    for cosine modes 1..10 from a seeded generator.
    """
    x = grid(L, N)
    if kind == "mode_cos1":
        p = np.cos(2.0 * math.pi * x / L)
    elif kind == "bump":
        s = np.sin(math.pi * x / L)
        p = np.exp(-((s / 0.15) ** 2))
    elif kind == "random_even":
        rng = np.random.default_rng(seed)
        coeff = rng.uniform(-1.0, 1.0, size=10)
        modes = np.arange(1, 11)[:, None] * (2.0 * math.pi / L) * x[None, :]
        p = coeff @ np.cos(modes)
    else:
        raise ConfigError(
            f"perturbation kind must be one of {_PERTURBATIONS}, got {kind!r}"
        )
    return p / h1_norm(L, p)


def _parity_defect(u: np.ndarray) -> float:
    rev = u[(-np.arange(u.shape[0])) % u.shape[0]]
    return float(np.max(np.abs(u - rev)))


def run_fidelity(
    L: float,
    omega: float,
    t_end: float,
    dt: float,
    N: int,
    *,
    records: int = 200,
) -> FidelityReport:
    """Evolve the unperturbed wave and compare against e^{i omega t} phi.

    The splitting is second order, so the sup error scales like
    t_end dt^2 (dominated by a coherent phase-rate shift); the drifts of
    the conserved quantities stay at rounding level regardless.

    The run takes n = max(1, round(t_end / dt)) steps and records the
    error after each of min(records, n) intervals whose step counts
    differ by at most one and sum to n, so the last record is at n dt.
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ConfigError(f"need positive t_end and dt, got {t_end}, {dt}")
    if records < 1:
        raise ConfigError(f"need at least one record interval, got {records}")
    wp, prof = build_wave(L, omega, N)
    u = prof.phi.astype(complex)
    state = FieldState(L=L, N=N, u=u, t=0.0)
    mass0 = mass(state)
    energy0 = energy(state)

    kernel = np.exp(-1j * dt * wavenumbers(L, N) ** 2)
    times = [0.0]
    sup = [0.0]
    done = 0
    for total in _record_steps(t_end, dt, records):
        u = _advance(u, kernel, dt, total - done)
        done = total
        t = total * dt
        if not np.all(np.isfinite(u.real)) or not np.all(np.isfinite(u.imag)):
            raise BlowupError(f"nonfinite field at t={t:.6g}")
        times.append(t)
        sup.append(float(np.max(np.abs(u - np.exp(1j * omega * t) * prof.phi))))
    u_prev = u
    u = _advance(u, kernel, dt, 1)
    rate = float(np.angle(np.sum(u * np.conj(u_prev)))) / dt
    final = FieldState(L=L, N=N, u=u, t=times[-1] + dt)
    return FidelityReport(
        times=np.asarray(times),
        sup_error=np.asarray(sup),
        mass_drift=abs(mass(final) - mass0),
        energy_drift=abs(energy(final) - energy0),
        rotation_rate_error=abs(rate - omega) / abs(omega),
    )


def run_stability(
    L: float,
    omega: float,
    delta: float,
    perturbation: str,
    t_end: float,
    dt: float,
    N: int,
    *,
    seed: int = 0,
    records: int = 200,
    blowup_factor: float = 1e3,
) -> StabilityReport:
    """Evolve phi + delta * (unit even perturbation) and track the orbit.

    Takes n = max(1, round(t_end / dt)) steps and records the orbital
    distance at the end of each of min(records, n) intervals whose step
    counts differ by at most one and sum to n (evenly spaced when n is a
    multiple of the interval count).  Asserts that evenness survives the
    whole run, and aborts with a blow-up error once the amplitude exceeds
    blowup_factor times the wave's (the quintic focusing term admits
    finite-time blow-up for large data, so overflow must fail loudly).
    """
    if delta < 0.0:
        raise ConfigError(f"perturbation size must be nonnegative, got {delta}")
    if t_end <= 0.0 or dt <= 0.0:
        raise ConfigError(f"need positive t_end and dt, got {t_end}, {dt}")
    if records < 1:
        raise ConfigError(f"need at least one record interval, got {records}")
    wp, prof = build_wave(L, omega, N)
    u = prof.phi.astype(complex)
    if delta > 0.0:
        u = u + delta * perturbation_shape(perturbation, L, N, seed=seed)
    state = FieldState(L=L, N=N, u=u, t=0.0)
    validate_state(state)

    kernel = np.exp(-1j * dt * wavenumbers(L, N) ** 2)
    amp_cap = blowup_factor * float(np.max(prof.phi))

    mass0 = mass(state)
    energy0 = energy(state)
    times = [0.0]
    dists = [orbital_distance(state, prof)]
    parity = _parity_defect(u)
    done = 0
    for total in _record_steps(t_end, dt, records):
        u = _advance(u, kernel, dt, total - done)
        done = total
        t = total * dt
        if not np.all(np.isfinite(u.real)) or not np.all(np.isfinite(u.imag)):
            raise BlowupError(f"nonfinite field at t={t:.6g}")
        amp = float(np.max(np.abs(u)))
        if amp > amp_cap:
            raise BlowupError(
                f"amplitude {amp:.3e} exceeds {blowup_factor:g} x wave amplitude at t={t:.6g}"
            )
        parity = max(parity, _parity_defect(u))
        state = FieldState(L=L, N=N, u=u, t=t)
        times.append(t)
        dists.append(orbital_distance(state, prof))
    if parity > _PARITY_TOL:
        raise NumericError(f"evenness defect {parity:.3e} exceeds {_PARITY_TOL}")

    dists_arr = np.asarray(dists)
    return StabilityReport(
        times=np.asarray(times),
        orbital_dist=dists_arr,
        mass_drift=abs(mass(state) - mass0),
        energy_drift=abs(energy(state) - energy0),
        max_dist=float(np.max(dists_arr)),
        parity_defect=parity,
    )
