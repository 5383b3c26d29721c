#!/usr/bin/env python3
"""Eigenvalue structure of the two linearized operators on the wave.

Linearizing about the standing wave splits into an amplitude channel
L1 = -d2/dx2 + omega - 3 phi^2 - 5 phi^4 and a phase channel
L2 = -d2/dx2 + omega - phi^2 - phi^4.  The stability argument needs
exactly one negative direction overall and a kernel of dimension two
(phi' from translation in L1, phi from phase rotation in L2), dropping
to one negative and a simple kernel on even functions.
"""

import math

from cqnls import build_wave, hill

L = 2.0 * math.pi
wp, prof = build_wave(L, 2.0, 256)

reports = []
for kind in ("L1", "L2"):
    rep = hill.spectrum_report(kind, wp, prof)
    reports.append(rep)
    print(f"{kind}: lowest eigenvalues")
    for j in range(5):
        lam = rep.eigenvalues[j]
        marks = [rep.parity[j]]
        if j == rep.zero_index:
            marks.append("kernel")
        print(f"  lambda_{j} = {lam:+14.9f}   {', '.join(marks)}")
    print(f"  negative count = {rep.n_negative}, "
          f"kernel matches analytic element to {rep.zero_match_error:.2e}\n")

counts = hill.combined_counts(*reports)
print("combined linearization diag(L1, L2):")
print(f"  full space:      {counts.n_negative} negative, "
      f"kernel multiplicity {counts.zero_multiplicity}")
print(f"  even functions:  {counts.n_negative_even} negative, "
      f"kernel multiplicity {counts.zero_multiplicity_even}")
print("\nfreezing translation (even subspace) removes the odd kernel "
      "element phi', which is what the orbital-stability argument needs")
