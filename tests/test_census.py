"""Seeded census: every entry point ends in a finite value or a typed error.

Inputs range over the whole double line, log-uniform on [1e-300, 1e300],
plus non-finite, signed-zero and subnormal values and draws from the
working range.  Each call must return finite values (checked recursively
through tuples, arrays and report dataclasses) or raise a CqnlsError; the
suite's filterwarnings = error turns any numpy warning into a failure.
"""

import dataclasses
import math
import random

import numpy as np

from cqnls import curve_sample, hill, run_stability, waves
from cqnls.errors import CqnlsError

SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, -1.0, 1.0, 2.0,
           2.0 * math.pi)


def _finite(value) -> bool:
    # None, labels and counts pass; every number must be finite
    if value is None or isinstance(value, (str, int)):
        return True
    if isinstance(value, (float, np.ndarray)):
        return bool(np.all(np.isfinite(value)))
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise TypeError(f"census cannot check a {type(value).__name__}")


def _outcome(fn, *args):
    """fn(*args) if it returns finite values, None if it raises a CqnlsError."""
    try:
        value = fn(*args)
    except CqnlsError:
        return None
    assert _finite(value), (fn.__name__, args, value)
    return value


def _log_uniform(rng):
    return 10.0 ** rng.uniform(-300.0, 300.0)


def _draws(seed, wild, working):
    """(L, omega, B) triples: wild log-uniform draws, specials, working range."""
    rng = random.Random(seed)
    draws = [(_log_uniform(rng), _log_uniform(rng), -_log_uniform(rng)) for _ in range(wild)]
    draws += [(a, b, -abs(b)) for a in SPECIAL for b in SPECIAL]
    for _ in range(working):
        omega = 10.0 ** rng.uniform(-6.0, 3.0)
        L = waves.min_period(omega) * 10.0 ** rng.uniform(-0.1, 2.0)
        draws.append((L, omega, waves.b_threshold(omega) * rng.uniform(-0.1, 1.1)))
    return draws


def test_scalar_entry_points_end_in_finite_values_or_typed_errors():
    for L, omega, B in _draws(18, wild=3000, working=300):
        threshold = _outcome(waves.omega_threshold, L)
        assert threshold is None or threshold >= 0.0, (L, threshold)
        T_min = _outcome(waves.min_period, omega)
        assert T_min is None or T_min > 0.0, (omega, T_min)
        bounds = _outcome(waves.alpha_bounds, omega)
        assert bounds is None or 0.0 < bounds[0] < bounds[1], (omega, bounds)
        # -omega^2/2 at small omega: underflows to -0.0 below omega ~ 1e-162
        B_min = _outcome(waves.b_threshold, omega)
        assert B_min is None or B_min <= 0.0, (omega, B_min)
        T = _outcome(waves.period_of_B, B, omega)
        assert T is None or T > 0.0, (B, omega, T)
        alpha3 = _outcome(waves.solve_alpha3, L, omega)
        assert alpha3 is None or bounds[0] < alpha3 < bounds[1], (L, omega, alpha3)


def _spectrum(kind, wave):
    # the kernel fields are NaN by definition when no eigenvalue is zero
    report = hill.spectrum_report(kind, *wave)
    if report.zero_index is None:
        assert math.isnan(report.zero_match_error) and math.isnan(report.kernel_residual)
        return dataclasses.replace(report, zero_match_error=0.0, kernel_residual=0.0)
    return report


def test_wave_consumers_end_in_finite_values_or_typed_errors():
    built = 0
    for L, omega, _ in _draws(26, wild=300, working=12):
        wave = _outcome(waves.build_wave, L, omega, 64)
        _outcome(curve_sample, L, omega, 64)
        _outcome(run_stability, L, omega, 1e-3, "mode_cos1", 3e-3, 1e-3, 64)
        if wave is None:
            continue
        built += 1
        for kind in ("L1", "L2"):
            _outcome(_spectrum, kind, wave)
        _outcome(hill.theta_constant, wave[0])
    # the census reaches the consumers of a wave, not only its rejections
    assert built >= 5
