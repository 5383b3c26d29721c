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

The fidelity and stability runs share one schedule.  A run takes
n = max(1, round(t_end / dt)) steps over min(200, n) record intervals
whose step counts differ by at most one and sum to n (equal when n is a
multiple of the interval count), so the last record is at n dt.  The
field is recorded at t = 0 and at the end of every interval, where a
nonfinite field, or an amplitude above 1e3 times the wave's, aborts the
run with a blow-up error: the quintic focusing term admits finite-time
blow-up for large data, so overflow must fail loudly.  The drifts of
mass and energy compare the last record with the initial field.  A
field is a plain complex array on the grid.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, ConfigError, ContractError, NumericError
from .fourier import grid, spectral_derivative, trapezoid, wavenumbers
from .waves import Profile, build_wave

__all__ = [
    "FidelityReport",
    "StabilityReport",
    "energy",
    "mass",
    "step_strang",
    "h1_norm",
    "orbital_distance",
    "perturbation_shape",
    "run_fidelity",
    "run_stability",
]

_PERTURBATIONS = ("mode_cos1", "bump", "random_even")
_PARITY_TOL = 1e-8  # max evenness defect tolerated during a stability run
_BLOWUP_FACTOR = 1e3  # amplitude cap, in multiples of the wave's
_RECORDS = 200  # record intervals per run (fewer if the run has fewer steps)


@dataclass(frozen=True, eq=False)
class FidelityReport:
    """Deviation of an evolved standing wave from its exact phase rotation.

    sup_error[i] is max_x |u(x, times[i]) - e^{i omega times[i]} phi(x)|;
    mass_drift and energy_drift are |value at times[-1] - initial value|;
    rotation_rate_error is the relative deviation of the mean phase
    rotation rate over the whole run from omega: the phase lag of
    u(times[-1]) behind e^{i omega times[-1]} phi, divided by
    |omega| times[-1].
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


def mass(L: float, u: np.ndarray) -> float:
    """Half the squared L2 norm, exactly conserved by both substeps."""
    return 0.5 * trapezoid(u.real**2 + u.imag**2, L)


def energy(L: float, u: np.ndarray) -> float:
    """Hamiltonian (1/2) integral of |u_x|^2 - |u|^4/2 - |u|^6/3."""
    ux = spectral_derivative(u, L)
    a2 = u.real**2 + u.imag**2
    dens = ux.real**2 + ux.imag**2 - 0.5 * a2 * a2 - (a2 * a2 * a2) / 3.0
    return 0.5 * trapezoid(dens, L)


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


def step_strang(L: float, u, dt: float) -> np.ndarray:
    """One second-order split step; dt <= 0.5 (L/N)^2 keeps phases resolved."""
    if dt <= 0.0:
        raise ConfigError(f"time step must be positive, got dt={dt}")
    u = np.asarray(u, dtype=complex)
    kernel = np.exp(-1j * dt * wavenumbers(L, u.shape[0]) ** 2)
    return _advance(u, kernel, dt, 1)


def h1_norm(L: float, f) -> float:
    """Discrete H^1 norm, the trapezoid integral of |f|^2 + |f'|^2 with f' spectral."""
    f = np.asarray(f)
    df = spectral_derivative(f, L)
    sq = trapezoid(f.real**2 + f.imag**2 + df.real**2 + df.imag**2, L)
    return math.sqrt(max(float(sq), 0.0))


def orbital_distance(u: np.ndarray, prof: Profile) -> float:
    """H^1 distance from the field u to the rotation orbit of the profile.

    The minimizing rotation is the phase of the H^1 pairing <u, phi>;
    the distance is the H^1 norm of the residual u - rot phi, taken
    directly rather than as ||u||^2 + ||phi||^2 - 2 |<u, phi>|, whose
    cancellation floors small distances near sqrt(eps) ||phi||.
    """
    if u.shape != prof.phi.shape:
        raise ContractError(f"field has {u.shape} samples, profile {prof.phi.shape}")
    # one FFT pair: prof.dphi is already the spectral derivative of phi
    du = spectral_derivative(u, prof.L)
    pair = trapezoid(u * prof.phi + du * prof.dphi, prof.L)
    rot = pair / abs(pair) if pair else 1.0
    r, dr = u - rot * prof.phi, du - rot * prof.dphi
    return math.sqrt(trapezoid(r.real**2 + r.imag**2 + dr.real**2 + dr.imag**2, prof.L))


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
        if seed < 0:
            raise ConfigError(f"random_even seed must be nonnegative, got {seed}")
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


def _trajectory(
    prof: Profile, u: np.ndarray, t_end: float, dt: float,
) -> Iterator[tuple[float, np.ndarray]]:
    # (t, u) at t = 0 and at the end of every record interval of the
    # schedule in the module docstring, with its checks after each interval
    if not (0.0 < t_end < math.inf and 0.0 < dt < math.inf):
        raise ConfigError(f"need positive t_end and dt, got {t_end}, {dt}")
    if u.shape != (prof.N,) or not np.all(np.isfinite(u)):
        raise ConfigError(f"initial field needs {prof.N} finite samples, got {u.shape}")
    kernel = np.exp(-1j * dt * wavenumbers(prof.L, prof.N) ** 2)
    amp_cap = _BLOWUP_FACTOR * float(np.max(prof.phi))
    yield 0.0, u
    n = max(1, int(round(t_end / dt)))
    count = min(_RECORDS, n)
    done = 0
    for rec in range(1, count + 1):
        total = (rec * n) // count
        u = _advance(u, kernel, dt, total - done)
        done = total
        t = total * dt
        if not np.all(np.isfinite(u.real)) or not np.all(np.isfinite(u.imag)):
            raise BlowupError(f"nonfinite field at t={t:.6g}")
        amp = float(np.max(np.abs(u)))
        if amp > amp_cap:
            raise BlowupError(
                f"amplitude {amp:.3e} exceeds {_BLOWUP_FACTOR:g} x wave amplitude at t={t:.6g}"
            )
        yield t, u


def _drifts(L: float, u0: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    # |change| of mass and energy from the field u0 to the field u
    return abs(mass(L, u) - mass(L, u0)), abs(energy(L, u) - energy(L, u0))


def run_fidelity(
    L: float,
    omega: float,
    t_end: float,
    dt: float,
    N: int,
) -> FidelityReport:
    """Evolve the unperturbed wave and compare against e^{i omega t} phi.

    The splitting is second order, so the sup error scales like
    t_end dt^2 (dominated by a coherent phase-rate shift); the drifts of
    the conserved quantities stay at rounding level regardless.
    """
    wp, prof = build_wave(L, omega, N)
    u0 = prof.phi.astype(complex)
    times, sup = [], []
    for t, u in _trajectory(prof, u0, t_end, dt):
        exact = np.exp(1j * omega * t) * prof.phi
        times.append(t)
        sup.append(float(np.max(np.abs(u - exact))))
    # u and exact are now those of the last record
    lag = float(np.angle(np.sum(u * np.conj(exact))))
    mass_drift, energy_drift = _drifts(L, u0, u)
    return FidelityReport(
        times=np.asarray(times),
        sup_error=np.asarray(sup),
        mass_drift=mass_drift,
        energy_drift=energy_drift,
        rotation_rate_error=abs(lag) / (abs(omega) * times[-1]),
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
) -> StabilityReport:
    """Evolve phi + delta * (unit even perturbation) and track the orbit.

    Records the orbital distance, asserts that evenness survives the
    whole run, and aborts once the amplitude exceeds 1e3 times the
    wave's.
    """
    if not 0.0 <= delta < math.inf:
        raise ConfigError(
            f"perturbation size must be nonnegative and finite, got {delta}"
        )
    shape = perturbation_shape(perturbation, L, N, seed=seed)
    wp, prof = build_wave(L, omega, N)
    u0 = (prof.phi + delta * shape).astype(complex)
    times, dists, parity = [], [], 0.0
    for t, u in _trajectory(prof, u0, t_end, dt):
        times.append(t)
        dists.append(orbital_distance(u, prof))
        parity = max(parity, _parity_defect(u))
    if parity > _PARITY_TOL:
        raise NumericError(f"evenness defect {parity:.3e} exceeds {_PARITY_TOL}")
    mass_drift, energy_drift = _drifts(L, u0, u)
    return StabilityReport(
        times=np.asarray(times),
        orbital_dist=np.asarray(dists),
        mass_drift=mass_drift,
        energy_drift=energy_drift,
        max_dist=float(np.max(dists)),
        parity_defect=parity,
    )
