"""Independent numerical oracles used by the test suite.

Everything here is deliberately built from different primitives than the
library under test: adaptive quadrature for the complete integrals, a
Runge-Kutta integration of the defining first-order system for the
Jacobi functions, and high-order shooting for the profile equation.
Agreement between a library routine and the matching oracle is then
evidence for both, since they share no code and no method.  One entry is
a reference instead: theta_by_rk4_loop is the plain sequential form of
the RK4 integration that hill.theta_constant runs as a blocked scan.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp


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

    The reference for hill.theta_constant: the same fixed-step RK4 on
    y'' = (omega - 3 phi^2 - 5 phi^4) y from (y, y')(0) = (-1/phi''(0), 0)
    over one period, one step at a time in scalar arithmetic, with the
    potential sampled on the whole half-step grid (no mirroring).
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
