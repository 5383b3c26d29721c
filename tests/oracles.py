"""Independent numerical oracles used by the test suite.

Everything here is deliberately built from different primitives than the
library under test: adaptive quadrature for the complete integrals, a
Runge-Kutta integration of the defining first-order system for the
Jacobi functions, high-order shooting for the profile equation, and
40-digit mpmath for the closed-form profile.
Agreement between a library routine and the matching oracle is then
evidence for both, since they share no code and no method.  Some
entries are references instead: theta_by_rk4_loop is the RK4 integration of
hill.theta_constant written out stage by stage, run with more steps to
bound its step error, and alpha3_by_bisection and period_of_B_by_bisection
keep the former bisection solves that waves.solve_alpha3 and
waves.period_of_B replaced by a bracketed Newton iteration, and
spectrum_by_eager_lift keeps the former body of hill.spectrum_report,
which lifted every block eigenvector to the grid and checked the full
N x N Gram matrix.  The last five are small routines the library itself does not need: the dense
second-derivative matrix and the full collocation matrix that the parity
blocks of hill are checked against, an eigenvector sign-change counter for
the oscillation counts, and the H^1 pairing and orbital phase that
evolve.orbital_distance is checked against.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from cqnls import hill, waves
from cqnls.errors import DegenerateError, DomainError, NoSolutionError
from cqnls.fourier import second_derivative_column, spectral_derivative, trapezoid


def elliptic_first_by_quadrature(m: float) -> float:
    """K(m) as the defining trigonometric integral, by tanh-sinh quadrature.

    Evaluated in 30-digit arithmetic; the node clustering at the endpoints
    resolves the sharp (but finite) peak at pi/2 for m near 1.
    """
    with mpmath.workdps(30):
        mm = mpmath.mpf(m)
        val = mpmath.quad(lambda t: 1.0 / mpmath.sqrt(1.0 - mm * mpmath.sin(t) ** 2),
                          [0, mpmath.pi / 2])
        return float(val)


def elliptic_second_by_quadrature(m: float) -> float:
    """E(m) as the defining trigonometric integral, by tanh-sinh quadrature."""
    with mpmath.workdps(30):
        mm = mpmath.mpf(m)
        val = mpmath.quad(lambda t: mpmath.sqrt(1.0 - mm * mpmath.sin(t) ** 2),
                          [0, mpmath.pi / 2])
        return float(val)


def rk4(rhs, y0, t0: float, t1: float, steps: int) -> np.ndarray:
    """Classical fixed-step RK4 from t0 to t1; returns the final state."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def jacobi_by_ode(u: float, m: float) -> tuple[float, float, float]:
    """sn, cn, dn at argument u by integrating their first-order system.

    sn' = cn dn, cn' = -sn dn, dn' = -m sn cn,  (sn, cn, dn)(0) = (0, 1, 1).
    Step count scales with |u| so the local error stays ~1e-13.
    """
    def rhs(_t, y):
        sn, cn, dn = y
        return np.array([cn * dn, -sn * dn, -m * sn * cn])

    steps = max(400, int(300 * abs(u)) + 1)
    sn, cn, dn = rk4(rhs, [0.0, 1.0, 1.0], 0.0, u, steps)
    return sn, cn, dn


def profile_by_shooting(omega: float, phi0: float, x_eval: np.ndarray
                        ) -> np.ndarray:
    """Integrate phi'' = omega phi - phi^3 - phi^5 from the crest.

    Initial data (phi, phi')(0) = (phi0, 0); evaluated at x_eval with a
    high-order adaptive integrator at tight tolerances, so the result is
    trustworthy to ~1e-10 and independent of the closed-form profile.
    """
    def rhs(_x, y):
        p, dp = y
        return [dp, omega * p - p ** 3 - p ** 5]

    x_eval = np.asarray(x_eval, dtype=float)
    sol = solve_ivp(rhs, (0.0, float(x_eval[-1])), [phi0, 0.0],
                    method="DOP853", t_eval=x_eval, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"shooting integration failed: {sol.message}")
    return sol.y[0]


def profile_by_mpmath(wp, x) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form profile and slope of the wave wp at x, in 40-digit arithmetic.

    The same formulas as waves.profile_value and waves.profile_derivative,
    phi = sqrt(alpha3) dn(cx) / sqrt(1 + beta^2 sn^2(cx)) with c = 2K/L,
    evaluated with mpmath's K and Jacobi functions from the stored
    (L, alpha3, m, beta^2), so only the final rounding is in doubles.
    """
    with mpmath.workdps(40):
        m, b2 = mpmath.mpf(wp.m), mpmath.mpf(wp.beta_sq)
        root = mpmath.sqrt(mpmath.mpf(wp.alpha3))
        c = 2 * mpmath.ellipk(m) / mpmath.mpf(wp.L)
        phi, dphi = [], []
        for xi in np.asarray(x, dtype=float):
            u = c * mpmath.mpf(float(xi))
            sn, cn, dn = (mpmath.ellipfun(f, u, m=m) for f in ("sn", "cn", "dn"))
            den = 1 + b2 * sn**2
            phi.append(float(root * dn / mpmath.sqrt(den)))
            dphi.append(float(-root * c * sn * cn * (m * den + b2 * dn**2) / den**1.5))
    return np.array(phi), np.array(dphi)


def period_by_shooting(omega: float, phi0: float, horizon: float) -> float:
    """Measured period of the orbit through (phi0, 0) in the profile ODE.

    Detects the trough (the next zero of phi' with phi' rising) and
    doubles the crossing time; even symmetry of the orbit makes that the
    full period.
    """
    def rhs(_x, y):
        p, dp = y
        return [dp, omega * p - p ** 3 - p ** 5]

    def trough(_x, y):
        return y[1]

    trough.terminal = True
    trough.direction = 1.0

    sol = solve_ivp(rhs, (0.0, horizon), [phi0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=trough,
                    max_step=horizon / 50.0)
    if not sol.success or len(sol.t_events[0]) == 0:
        raise RuntimeError("no trough detected within the horizon")
    return 2.0 * float(sol.t_events[0][0])


def companion_by_ivp(omega: float, length: float, phi0: float,
                     potential) -> tuple[float, float]:
    """Solve y'' = potential(x) y from (y, y')(0) = (y0, 0) adaptively.

    y0 = -1 / phi''(0) with phi''(0) = omega phi0 - phi0^3 - phi0^5.
    Returns (y(L), y'(L)); an independent check on the fixed-step
    companion-solution integrator in the library.
    """
    ddphi0 = omega * phi0 - phi0 ** 3 - phi0 ** 5
    y0 = -1.0 / ddphi0

    def rhs(x, y):
        return [y[1], potential(x) * y[0]]

    sol = solve_ivp(rhs, (0.0, length), [y0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, max_step=length / 200.0)
    if not sol.success:
        raise RuntimeError(f"companion integration failed: {sol.message}")
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def theta_by_rk4_loop(wp, steps: int) -> float:
    """Companion-solution growth coefficient by a plain sequential RK4 loop.

    The reference for hill.theta_constant: fixed-step RK4 on
    y'' = (omega - 3 phi^2 - 5 phi^4) y from (y, y')(0) = (-1/phi''(0), 0)
    over one period, one step at a time in scalar arithmetic through the
    four RK4 stages rather than the step matrix, with the potential
    sampled on the whole half-step grid.
    Returns theta = y'(L) / phi''(0).
    """
    from cqnls.waves import profile_value

    phi0 = math.sqrt(wp.alpha3)
    ddphi0 = wp.omega * phi0 - phi0 ** 3 - phi0 ** 5
    h = wp.L / steps
    phi2 = profile_value(wp, np.arange(2 * steps + 1) * (0.5 * h)) ** 2
    pot = (wp.omega - 3.0 * phi2 - 5.0 * phi2 * phi2).tolist()
    y = -1.0 / ddphi0
    z = 0.0
    for i in range(steps):
        v0 = pot[2 * i]
        vh = pot[2 * i + 1]
        v1 = pot[2 * i + 2]
        k1y = z
        k1z = v0 * y
        k2y = z + 0.5 * h * k1z
        k2z = vh * (y + 0.5 * h * k1y)
        k3y = z + 0.5 * h * k2z
        k3z = vh * (y + 0.5 * h * k2y)
        k4y = z + h * k3z
        k4z = v1 * (y + h * k3y)
        y += (h / 6.0) * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += (h / 6.0) * (k1z + 2.0 * (k2z + k3z) + k4z)
    return z / ddphi0


def second_difference(f, x: float, h: float) -> float:
    """Plain central second difference, used to spot-check curvature."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def central_difference(f, x: float, h: float) -> float:
    """Plain central first difference."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_difference(f, x: float, h: float) -> float:
    """Central difference with one Richardson extrapolation step."""
    coarse = central_difference(f, x, h)
    fine = central_difference(f, x, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def _bisect_newton(f, df, lo, hi, width=1e-14, newton_steps=2):
    """Root of an increasing f on (lo, hi): bisection to `width`, then Newton.

    Endpoints are never evaluated (callers guarantee f < 0 near lo and
    f > 0 near hi in the limit).  Newton steps are kept inside (lo, hi)
    and abandoned on any domain failure.
    """
    a, b = lo, hi
    for _ in range(200):
        if b - a <= width:
            break
        mid = 0.5 * (a + b)
        if f(mid) < 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    for _ in range(newton_steps):
        try:
            step = f(root) / df(root)
        except (DomainError, DegenerateError, ZeroDivisionError):
            break
        trial = root - step
        if not (lo < trial < hi) or not math.isfinite(trial):
            break
        root = trial
    return root


def alpha3_by_bisection(L: float, omega: float) -> float:
    """Squared amplitude of the period-L wave by bisection plus two Newton steps.

    The former body of waves.solve_alpha3, errors included: about fifty
    period evaluations per solve.
    """
    if L <= 0:
        raise DomainError(f"period must be positive, got L={L}")
    if not (math.isfinite(L) and math.isfinite(omega)):
        raise DomainError(f"period and frequency must be finite, got L={L}, omega={omega}")
    tl = waves.min_period(omega)
    if tl >= L:
        raise NoSolutionError(f"no period-{L} wave at omega={omega}")
    lo, hi = waves.alpha_bounds(omega)

    def deficit(alpha):
        try:
            return waves.period_map(alpha, omega) - L
        except DegenerateError:
            return (tl - L) if (alpha - lo) < (hi - alpha) else math.inf

    root = _bisect_newton(deficit, lambda a: waves.period_map_dalpha(a, omega), lo, hi)
    attained = waves.period_map(root, omega)
    if abs(attained - L) > 1e-3 * L:
        raise DegenerateError(f"period L={L} at omega={omega} is out of numerical reach")
    return root


def period_of_B_by_bisection(B: float, omega0: float) -> float:
    """Former waves.period_of_B: the level set's alpha3 by bisection plus Newton."""
    lo_B = waves.b_threshold(omega0)
    if not lo_B < B < 0.0:
        raise DomainError(f"B={B!r} outside the admissible window ({lo_B!r}, 0)")
    lo, hi = waves.alpha_bounds(omega0)
    alpha = _bisect_newton(
        lambda a: waves.b_from_alpha(a, omega0) - B,
        lambda a: a * a + a - omega0,
        lo, hi,
    )
    return waves.period_map(alpha, omega0)


def spectrum_by_eager_lift(kind: str, wp, prof) -> dict:
    """Former hill.spectrum_report: every eigenvector lifted, full Gram check.

    Returns the eigenvalues, the scaled grid eigenvectors, the parity
    labels, the zero index, the zero match error and the largest
    |V^T V - I| entry of the N x N Gram matrix of the unit grid columns.
    """
    tol_zero = 1e-6 * max(1.0, wp.omega)
    (even_vals, even_vecs), (odd_vals, odd_vecs) = map(
        hill.sym_eig, hill._parity_blocks(kind, wp, prof))
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    half = prof.N // 2
    weight = hill._fold(prof.N)[:, None]
    coef = np.zeros((half + 1, prof.N))
    coef[:, :half + 1] = weight * even_vecs
    coef[1:half, half + 1:] = weight[1:-1] * odd_vecs
    j = np.arange(prof.N)
    evecs = coef[:, order][np.minimum(j, prof.N - j)]
    evecs[half + 1:] *= np.where(order <= half, 1.0, -1.0)
    gram = evecs.T @ evecs
    gram[np.diag_indices_from(gram)] -= 1.0
    near = np.flatnonzero(np.abs(evals) <= tol_zero)
    zero_index, zero_match = None, math.nan
    if near.size:
        zero_index = int(near[np.argmin(np.abs(evals[near]))])
        kernel = prof.dphi if kind == "L1" else prof.phi
        khat = kernel / np.linalg.norm(kernel)
        vec = evecs[:, zero_index]
        zero_match = float(min(np.linalg.norm(vec - khat),
                               np.linalg.norm(vec + khat)))
    return {
        "eigenvalues": evals,
        "eigenvectors": evecs * math.sqrt(prof.N / prof.L),
        "parity": tuple("even" if i <= half else "odd" for i in order),
        "zero_index": zero_index,
        "zero_match_error": zero_match,
        "gram_defect": float(np.max(np.abs(gram))),
    }


def second_derivative_matrix(L: float, N: int) -> np.ndarray:
    """Dense spectral second-derivative matrix (exactly symmetric).

    Eigenvalues are -(2 pi j / L)^2, each nonzero one doubled; for L = 2 pi
    they are {0, -1, -1, -4, -4, ..., -(N/2)^2}.
    """
    i = np.arange(N)
    return second_derivative_column(L, N)[(i[:, None] - i[None, :]) % N]


def collocation_matrix(kind: str, wp, prof) -> np.ndarray:
    """Dense symmetric discretization -D2 + diag(V) on the wave's grid."""
    mat = -second_derivative_matrix(prof.L, prof.N)
    mat[np.diag_indices_from(mat)] += hill.potential_values(kind, wp, prof)
    return mat


def sign_changes(values, rel_floor: float = 1e-8) -> int:
    """Count sign alternations around the periodic grid, ignoring near-zeros."""
    vals = np.asarray(values, dtype=float)
    keep = vals[np.abs(vals) > rel_floor * np.max(np.abs(vals))]
    if keep.size < 2:
        return 0
    circ = np.append(keep, keep[0])
    return int(np.sum(circ[1:] * circ[:-1] < 0.0))


def h1_inner(L: float, f, g):
    """Discrete H^1 pairing: L2 pairing of values plus spectral derivatives."""
    f = np.asarray(f)
    g = np.asarray(g)
    df = spectral_derivative(f, L)
    dg = spectral_derivative(g, L)
    return trapezoid(f * np.conj(g) + df * np.conj(dg), L)


def orbital_phase(u: np.ndarray, prof) -> float:
    """Rotation angle minimizing the H^1 distance from u to e^{i theta} phi.

    The pairing <u, phi> is taken as evolve.orbital_distance takes it,
    with the profile's stored derivative prof.dphi.
    """
    du = spectral_derivative(u, prof.L)
    return float(np.angle(trapezoid(u * prof.phi + du * prof.dphi, prof.L)))
