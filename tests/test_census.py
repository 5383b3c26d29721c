"""Seeded census: every entry point ends in a finite value or a typed error.

Inputs range over the whole double line, log-uniform on [1e-300, 1e300]
and on its top [1e300, 1.7e308], plus non-finite, signed-zero and
subnormal values and draws from the working range.  Each call must return
finite values (checked recursively through tuples, arrays and report
dataclasses) or raise a CqnlsError; the suite's filterwarnings = error
turns any numpy warning into a failure.  The command line gets its own
census over all seven subcommands, which must end in a documented exit
code with no traceback.
"""

import dataclasses
import math
import random

import numpy as np

from cqnls import cli, curve_sample, evolve, fourier, hill, run_stability, waves
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


def _top(rng):
    # the top of double range, 1e300 .. 1.7e308
    return 10.0 ** rng.uniform(300.0, math.log10(1.7e308))


def _draws(seed, wild, working, top=0):
    """(L, omega, B) triples: wild log-uniform draws, specials, working range.

    top further triples draw each entry from the top of double range or
    log-uniformly, at even odds.
    """
    rng = random.Random(seed)
    draws = [(_log_uniform(rng), _log_uniform(rng), -_log_uniform(rng)) for _ in range(wild)]
    draws += [tuple(sign * rng.choice((_top, _log_uniform))(rng) for sign in (1, 1, -1))
              for _ in range(top)]
    draws += [(a, b, -abs(b)) for a in SPECIAL for b in SPECIAL]
    for _ in range(working):
        omega = 10.0 ** rng.uniform(-6.0, 3.0)
        L = waves.min_period(omega) * 10.0 ** rng.uniform(-0.1, 2.0)
        draws.append((L, omega, waves.b_threshold(omega) * rng.uniform(-0.1, 1.1)))
    return draws


def test_scalar_entry_points_end_in_finite_values_or_typed_errors():
    for L, omega, B in _draws(18, wild=3000, working=300, top=300):
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
        # any x but NaN: a NaN position is a NaN sample
        peak = _outcome(waves.solitary_profile, omega, 0.0 if math.isnan(L) else L)
        assert peak is None or peak >= 0.0, (omega, L, peak)


def test_period_helpers_end_in_finite_values_or_typed_errors():
    # the fourier and evolve routines that take a period L, on a fixed
    # smooth field of unit size: every L is checked, never the field.  At
    # each L the grid sizes -1 and 0 (an empty field) must raise ConfigError
    N = 64
    x = 2.0 * math.pi * np.arange(N) / N
    f = 0.5 + np.cos(x) + 0.25 * np.sin(3.0 * x)
    empty = np.empty(0)
    for L, _, _ in _draws(33, wild=600, working=60, top=300):
        _outcome(fourier.grid, L, N)
        _outcome(fourier.wavenumbers, L, N)
        _outcome(fourier.spectral_derivative, f, L)
        _outcome(fourier.spectral_derivative, f.astype(complex), L, 2)
        _outcome(fourier.second_derivative_column, L, N)
        _outcome(fourier.trapezoid, f, L)
        mass = _outcome(evolve.mass, L, f.astype(complex))
        norm = _outcome(evolve.h1_norm, L, f)
        assert mass is None or mass > 0.0, (L, mass)
        assert norm is None or norm > 0.0, (L, norm)
        _outcome(evolve.energy, L, f.astype(complex))
        for kind in ("mode_cos1", "bump", "random_even"):
            _outcome(evolve.perturbation_shape, kind, L, N)
        for bad in (-1, 0):
            values = [
                _outcome(fourier.grid, L, bad),
                _outcome(fourier.wavenumbers, L, bad),
                _outcome(fourier.second_derivative_column, L, bad),
                *(_outcome(evolve.perturbation_shape, kind, L, bad)
                  for kind in ("mode_cos1", "bump", "random_even")),
            ]
            assert all(v is None for v in values), (L, bad, values)
        values = [
            _outcome(fourier.spectral_derivative, empty, L),
            _outcome(fourier.spectral_derivative, empty.astype(complex), L, 2),
            _outcome(fourier.trapezoid, empty, L),
            _outcome(evolve.mass, L, empty.astype(complex)),
            _outcome(evolve.h1_norm, L, empty),
            _outcome(evolve.energy, L, empty.astype(complex)),
        ]
        assert all(v is None for v in values), (L, values)


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


def test_curve_samples_end_in_finite_values_or_typed_errors():
    # curve points on coarse grids and long periods, where the tangent's
    # check fails (e's denominator tends to 0 at the solitary limit): L on
    # [1, 40], omega log-uniform on [0.05, 50], N in {64, 128}; and each L
    # again at omega = omega_threshold(L), where a wave can still build and
    # e's denominator cancels to exactly 0 or to a few ulps
    rng = random.Random(44)
    outcomes, at_threshold = {}, {}
    for _ in range(300):
        L, omega = rng.uniform(1.0, 40.0), 10.0 ** rng.uniform(-1.3, 1.7)
        N = rng.choice((64, 128))
        for w, tally in ((omega, outcomes), (waves.omega_threshold(L), at_threshold)):
            try:
                sample = curve_sample(L, w, N)
            except CqnlsError as exc:
                key = next((k for k in ("tangent residual", "existence threshold")
                            if k in str(exc)), "other")
            else:
                assert _finite(sample), (L, w, sample)
                key = "ok"
            tally[key] = tally.get(key, 0) + 1
    # the census reaches built points, the tangent's own failure and its
    # divergence, the only tangent failure at the threshold
    assert (outcomes.get("ok", 0) >= 30
            and outcomes.get("tangent residual", 0) >= 10
            and at_threshold.get("existence threshold", 0) >= 1
            and "tangent residual" not in at_threshold), (outcomes, at_threshold)


# census values, mixed into the CLI draws with working ones
CLI_SPECIAL = ("nan", "inf", "-inf", "0.0", "-0.0", "1e-320", "1e+300", "1.7e+308")
CLI_WORKING = {
    "L": ("6.283185307179586", "9.42477796076938", "10.0"),
    "omega": ("2.0", "0.75", "8.0"),
    "N": ("64", "128"),
    "delta": ("0.001", "0.0"),
    "perturbation": ("mode_cos1", "bump", "random_even"),
    "seed": ("0", "7", str(2**70)),
    "format": ("csv", "json"),
    "output": ("-",),
}
# bad values a flag can take besides the census ones
CLI_BAD = {"N": ("0", "-64", "96"), "delta": ("-0.001",), "perturbation": ("wedge",),
           "seed": ("-1",), "omega": ("3.0:1.0:3", "1:2:1", "1:2", "1.5:3.0:3")}
SWEEPS = ("1.5:3.0:3", "0.5:9.0:4", "7.99:8.0:2")  # working omega of curve and audit


def _cli_argv(rng, subcommand, unwritable):
    """One argv: every flag the subcommand reads, with up to two bad values.

    A bad value is a census value, a flag's own bad value or, for
    --output, the unwritable path.  Caps that keep a run short: N <= 128,
    t_end / dt <= 2000, sweep counts <= 4.  Every value is passed as
    --flag=value, so that one starting with a minus sign reaches the
    library.
    """
    flags = cli._SUBCOMMANDS[subcommand].flags
    values = {flag: rng.choice(CLI_WORKING[flag]) for flag in flags
              if flag not in ("dt", "t_end")}
    if subcommand in ("curve", "audit") and rng.random() < 0.5:
        values["omega"] = rng.choice(SWEEPS)
    if "dt" in flags:
        values["dt"] = repr(rng.uniform(1e-3, 1e-2))
        values["t_end"] = repr(rng.uniform(1e-3, 1.0))
    for flag in rng.sample(sorted(values), rng.choice((0, 1, 1, 2))):
        bad = str(unwritable) if flag == "output" else rng.choice(
            CLI_SPECIAL + CLI_BAD.get(flag, ()))
        values[flag] = bad
    if "dt" in flags:
        dt, t_end = float(values["dt"]), float(values["t_end"])
        if dt != 0.0 and 2000.0 < t_end / dt < math.inf:
            values["t_end"] = repr(dt * rng.uniform(1.0, 2000.0))
    return [subcommand] + [f"--{flag.replace('_', '-')}={value}"
                           for flag, value in values.items()]


def test_cli_runs_end_in_documented_exit_codes(tmp_path, capsys):
    """Seeded argv over all seven subcommands: exit 0, 1, 2, 64 or 74, no traceback.

    Values mix the census values (NaN, +-inf, +-0, 1e-320, 1e300, 1.7e308)
    with working ones; one output path lies in a directory that does not
    exist.  Caps, to stay near a second: N <= 128, t_end / dt <= 2000 and
    sweep counts <= 4.
    """
    unwritable = tmp_path / "missing" / "report.txt"
    rng = random.Random(27)
    codes = {}
    for _ in range(240):
        argv = _cli_argv(rng, rng.choice(sorted(cli._SUBCOMMANDS)), unwritable)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 64, 74), (argv, code, err)
        assert "Traceback" not in out + err, argv
        assert code != 74 or "cannot write" in err, (argv, err)
        codes[code] = codes.get(code, 0) + 1
    # every outcome is reached, working runs among them
    assert set(codes) == {0, 1, 2, 64, 74}, codes
    assert not unwritable.parent.exists()
