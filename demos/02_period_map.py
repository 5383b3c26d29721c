#!/usr/bin/env python3
"""Walk the period map: admissible band, monotonicity, and solvability.

The squared crest amplitude alpha ranges over an open band
(alpha_lo, alpha_hi) at each frequency; the period map is strictly
increasing there, so waves of a given period are unique.  Below the
band's left edge the wave degenerates to the constant equilibrium
(period -> minimal period), at the right edge the modulus reaches 1 and
the wave opens into the solitary pulse (period -> infinity).
"""

import math

import numpy as np

from cqnls import waves
from cqnls.errors import NoSolutionError

L = 2.0 * math.pi

print("admissible amplitude band and attainable periods:")
print(f"{'omega':>6} {'alpha_lo':>10} {'alpha_hi':>10} "
      f"{'min period':>11} {'B threshold':>12}")
for omega in (0.5, 1.0, 2.0, 5.0, 10.0):
    lo, hi = waves.alpha_bounds(omega)
    print(f"{omega:6.1f} {lo:10.6f} {hi:10.6f} "
          f"{waves.min_period(omega):11.6f} {waves.b_threshold(omega):12.5e}")

# strict monotonicity of the map alpha -> period at fixed omega
omega = 2.0
lo, hi = waves.alpha_bounds(omega)
alphas = lo + (hi - lo) * np.linspace(0.05, 0.95, 7)
periods = [waves.period_map(a, omega) for a in alphas]
print(f"\nperiod map at omega = {omega} (increasing in alpha):")
for a, t in zip(alphas, periods):
    print(f"  alpha = {a:.6f}  period = {t:10.6f}  "
          f"slope = {waves.period_map_dalpha(a, omega):+.4e}")

# inverting the map: the wave of period 2*pi at omega = 2
a3 = waves.solve_alpha3(L, omega)
print(f"\nsolve_alpha3({L:.6f}, {omega}) = {a3:.12f}")
print(f"  attained period = {waves.period_map(a3, omega):.12f}")
# the other roots of the level set; the profile oscillates between
# sqrt(alpha2) and sqrt(alpha3)
a1, a2 = waves.roots_from_alpha3(a3, omega)
print(f"  level-set roots alpha1 = {a1:.6f} < 0 < alpha2 = {a2:.6f} < alpha3")

# below the frequency threshold no period-L wave exists
for bad in (0.1, 0.3):
    try:
        waves.solve_alpha3(L, bad)
    except NoSolutionError as exc:
        print(f"\nomega = {bad}: {exc}")
