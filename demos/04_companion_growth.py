#!/usr/bin/env python3
"""The companion-solution growth constant and what its sign buys.

The amplitude-channel Hill equation y'' = (omega - 3 phi^2 - 5 phi^4) y
has the periodic solution phi'.  A second solution grows linearly,
picking up theta * phi' per period.  theta < 0 places the second
amplitude-channel eigenvalue above zero, which is the spectral half of
the stability proof; the same constant shows up as the derivative of the
period with respect to the quadrature level B through
dT/dB = -theta / 2.
"""

import math

from cqnls import build_wave, hill, waves

L = 2.0 * math.pi

print(f"{'omega':>6} {'theta':>14} {'dT/dB (FD)':>14} "
      f"{'-theta/2':>14} {'rel gap':>10}")
for omega in (1.0, 2.0, 5.0):
    wp, _ = build_wave(L, omega, 256)
    theta = hill.theta_constant(wp)
    # centered difference of the period through the quadrature level
    h = min(1e-6, 0.1 * abs(wp.B))
    slope = (waves.period_of_B(wp.B + h, omega)
             - waves.period_of_B(wp.B - h, omega)) / (2.0 * h)
    gap = abs(slope + 0.5 * theta) / abs(theta)
    print(f"{omega:6.1f} {theta:14.4f} {slope:14.4f} "
          f"{-0.5 * theta:14.4f} {gap:10.2e}")

print("\ntheta stays negative across the band, so the period grows with "
      "the level and the zero eigenvalue of the amplitude channel is the "
      "second one (lambda_1), exactly the configuration the stability "
      "theory requires")
