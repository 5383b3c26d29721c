"""Command-line front end emitting machine-readable reports.

Subcommands map onto the library one-to-one:

- construct: one wave, its parameter set and construction residuals
- curve:     sweep omega, tabulate the wave family and its derivatives
- spectrum:  eigenvalue structure of both linearized operators
- theta:     growth coefficient of the companion Hill solution vs dT/dB
- evolve:    standing-wave fidelity run (sup error against the rotation)
- stability: perturbed evolution, orbital distance time series
- audit:     per-frequency derivative and integral-identity checks

Reports embed the resolved configuration and library version.  JSON
reports are written by json.dumps (NaN and Infinity as bare words) and
CSV cells with the same float rule, Python's repr: the shortest decimal
that reads back as the same double, so an integral float prints as 2.0.
Identical configurations produce byte-identical output.

Exit codes: 0 success; 1 domain or configuration error; 2 a numeric
assertion failed (an audit threshold or an internal consistency check);
64 usage error; 74 output could not be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .curve import (
    CurveError,
    curve_sample,
    d2d_direct,
    d2d_identity,
    derivative_audit,
    identity_audit,
    sample_curve,
)
from .errors import ConfigError, ContractError, CqnlsError, NumericError
from .evolve import _PERTURBATIONS, run_fidelity, run_stability
from .hill import HillOperatorSpec, combined_counts, spectrum_report, theta_constant
from .waves import build_wave, period_map_dB, quadrature_residual

_USAGE_EXIT = 64
_IO_EXIT = 74

_CURVE_COLUMNS = (
    "omega", "alpha3", "B", "m", "mass", "p4", "p6", "inv2",
    "dphi2", "ratio2", "dmass_domega", "d2_dd", "status", "message",
)
_AUDIT_COLUMNS = (
    "omega", "dalpha3_domega", "dB_domega", "dalpha1_domega", "dalpha2_domega",
    "dk_partial", "dk_partial_closed", "dk_partial_match", "dT_dB",
    "d2_direct", "d2_identity", "d2_route_reldiff",
    "ident_quartic_rate", "ident_virial", "ident_mass_rate", "ident_log_derivative",
    "status",
)
_SPECTRUM_COLUMNS = ("operator", "index", "eigenvalue", "parity")
_EVOLVE_COLUMNS = ("t", "sup_error")
_STABILITY_COLUMNS = ("t", "orbital_dist")
_DEFAULT_DT = 1e-4  # evolve and stability time step
_DEFAULT_T_END = {"evolve": 10.0, "stability": 50.0}


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying the message for exit code 64."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand plus every numeric knob."""

    subcommand: str
    L: float
    omega: object  # float or tuple of floats for start:stop:count sweeps
    N: int
    dt: float | None
    t_end: float | None
    delta: float
    perturbation: str
    seed: int
    output_path: str
    format: str
    max_identity_residual: float


def _cell(value) -> str:
    # repr is the shortest string that reads back as the same double
    if isinstance(value, list):
        return "[" + " ".join(map(_cell, value)) + "]"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _parse_omega(text: str):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"omega range must be start:stop:count, got {text!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"malformed omega range {text!r}") from exc
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"omega range ends must be finite, got {text!r}")
        if count < 2 or stop <= start:
            raise ConfigError(
                f"omega range needs stop > start and count >= 2, got {text!r}"
            )
        return tuple(np.linspace(start, stop, count).tolist())
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"omega must be a number or start:stop:count, got {text!r}") from exc


def _scalar_omega(config: RunConfig) -> float:
    if isinstance(config.omega, tuple):
        raise ConfigError(
            f"subcommand {config.subcommand!r} needs a single omega, got a range"
        )
    return config.omega


def _config_echo(config: RunConfig) -> dict:
    # the output path does not influence any computed value, and leaving it
    # out keeps reports from identical numeric configs byte-identical
    doc = asdict(config)
    del doc["output_path"]
    doc["version"] = __version__
    if isinstance(config.omega, tuple):
        doc["omega"] = list(config.omega)
    return doc


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path in ("-", ""):
        sys.stdout.write(text + "\n")
        return
    try:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _OutputError(f"cannot write {config.output_path!r}: {exc}") from exc


class _OutputError(Exception):
    pass


@dataclass(frozen=True)
class _Report:
    """What one subcommand computed, before it is formatted.

    columns and rows are the CSV table.  The JSON body is `fields` when
    given, else the summary and the rows keyed by column.  summary scalars
    also head a CSV report as `# name = value` lines.  A set failure makes
    the run exit 2 after the report is written.
    """

    columns: tuple
    rows: list
    fields: dict | None = None
    summary: dict = field(default_factory=dict)
    failure: str | None = None


def _report(config: RunConfig, report: _Report) -> None:
    """Format and write one report; the only code that knows csv from json."""
    echo = _config_echo(config)
    if config.format == "json":
        body = report.fields
        if body is None:
            body = {"summary": report.summary} if report.summary else {}
            body["rows"] = [dict(zip(report.columns, row)) for row in report.rows]
        _emit(config, json.dumps({"config": echo, **body}, indent=2))
        return
    del echo["version"]
    head = [*report.summary.items(), *sorted(echo.items())]
    lines = [f"# cqnls {config.subcommand} report, version {__version__}"]
    lines += [f"# {key} = {_cell(value)}" for key, value in head]
    lines.append(",".join(report.columns))
    lines += [",".join(map(_cell, row)) for row in report.rows]
    _emit(config, "\n".join(lines))


def _run_construct(config: RunConfig) -> _Report:
    wp, prof = build_wave(config.L, _scalar_omega(config), config.N)
    r_quad, r_ode = quadrature_residual(prof, wp)
    wave = {
        "L": wp.L, "omega": wp.omega,
        "alpha1": wp.alpha1, "alpha2": wp.alpha2, "alpha3": wp.alpha3,
        "m": wp.m, "g": wp.g, "beta_sq": wp.beta_sq, "B": wp.B,
    }
    residuals = {"r_quad": r_quad, "r_ode": r_ode}
    row = {**wave, **residuals}
    return _Report(tuple(row), [list(row.values())],
                   fields={"wave": wave, "residuals": residuals})


def _omega_list(config: RunConfig) -> list[float]:
    if isinstance(config.omega, tuple):
        return list(config.omega)
    return [config.omega]


def _run_curve(config: RunConfig) -> _Report:
    omegas = _omega_list(config)
    samples = sample_curve(config.L, omegas, config.N)
    rows = []
    for entry in samples:
        if isinstance(entry, CurveError):
            rows.append([entry.omega] + [math.nan] * 11 + ["error", entry.message])
        else:
            rows.append([
                entry.omega, entry.alpha3, entry.B, entry.m, entry.mass,
                entry.p4, entry.p6, entry.inv2, entry.dphi2, entry.ratio2,
                entry.dmass_domega, entry.d2_dd, "ok", "",
            ])
    return _Report(_CURVE_COLUMNS, rows)


def _run_spectrum(config: RunConfig) -> _Report:
    wp, prof = build_wave(config.L, _scalar_omega(config), config.N)
    reports = {kind: spectrum_report(HillOperatorSpec(kind, wp, prof))
               for kind in ("L1", "L2")}
    fields = {
        kind: {
            "eigenvalues_low": rep.eigenvalues[:10].tolist(),
            "parity_low": list(rep.parity[:10]),
            "n_negative": rep.n_negative,
            "zero_index": rep.zero_index,
            "zero_match_error": rep.zero_match_error,
            "tol_zero": rep.tol_zero,
        }
        for kind, rep in reports.items()
    }
    fields["combined"] = asdict(combined_counts(reports["L1"], reports["L2"]))
    rows = [[kind, idx, float(rep.eigenvalues[idx]), rep.parity[idx]]
            for kind, rep in reports.items() for idx in range(10)]
    return _Report(_SPECTRUM_COLUMNS, rows, fields=fields)


def _run_theta(config: RunConfig) -> _Report:
    omega = _scalar_omega(config)
    wp, _ = build_wave(config.L, omega, config.N)
    theta = theta_constant(wp, config.dt)
    dT_dB = period_map_dB(wp.alpha3, omega)
    mismatch = abs(dT_dB + theta / 2.0) / abs(theta)
    fields = {
        "theta": theta,
        "dT_dB": dT_dB,
        "relative_mismatch": mismatch,
        "sign_link_holds": (theta < 0.0) == (dT_dB > 0.0),
    }
    failure = None
    if mismatch > 1e-4:
        failure = f"theta/period cross-check mismatch {mismatch:.3e} exceeds 1e-4"
    return _Report(("omega", *fields), [[omega, *fields.values()]],
                   fields=fields, failure=failure)


def _run_evolve(config: RunConfig) -> _Report:
    omega = _scalar_omega(config)
    dt = config.dt if config.dt is not None else _DEFAULT_DT
    t_end = config.t_end if config.t_end is not None else _DEFAULT_T_END[config.subcommand]
    rep = run_fidelity(config.L, omega, t_end, dt, config.N)
    summary = {
        "mass_drift": rep.mass_drift,
        "energy_drift": rep.energy_drift,
        "rotation_rate_error": rep.rotation_rate_error,
        "max_sup_error": float(np.max(rep.sup_error)),
    }
    return _Report(_EVOLVE_COLUMNS, list(zip(rep.times, rep.sup_error)),
                   summary=summary)


def _run_stability(config: RunConfig) -> _Report:
    omega = _scalar_omega(config)
    dt = config.dt if config.dt is not None else _DEFAULT_DT
    t_end = config.t_end if config.t_end is not None else _DEFAULT_T_END[config.subcommand]
    rep = run_stability(
        config.L, omega, config.delta, config.perturbation, t_end, dt,
        config.N, seed=config.seed,
    )
    summary = {
        "mass_drift": rep.mass_drift,
        "energy_drift": rep.energy_drift,
        "max_dist": rep.max_dist,
        "parity_defect": rep.parity_defect,
    }
    return _Report(_STABILITY_COLUMNS, list(zip(rep.times, rep.orbital_dist)),
                   summary=summary)


def _audit_row(config: RunConfig, omega: float) -> list:
    sample = curve_sample(config.L, omega, config.N)
    audit = derivative_audit(sample)
    direct = d2d_direct(sample)
    ident = d2d_identity(sample)
    route_rel = abs(direct - ident) / max(abs(direct), 1e-300)
    ia = identity_audit(sample)
    residuals = [ia.quartic_rate, ia.virial, ia.mass_rate, ia.log_derivative]

    ok = (
        audit.dalpha3 > 0.0
        and audit.dalpha2 < 0.0
        and audit.dk_partial < 0.0
        and audit.dk_partial_match <= 1e-5
        and audit.dT_dB > 0.0
        and direct > 0.0
        and ident > 0.0
        and route_rel <= 1e-4
        and all(r <= config.max_identity_residual for r in residuals)
    )
    return [
        omega, audit.dalpha3, audit.dB, audit.dalpha1, audit.dalpha2,
        audit.dk_partial, audit.dk_partial_closed, audit.dk_partial_match,
        audit.dT_dB, direct, ident, route_rel,
    ] + residuals + ["ok" if ok else "fail"]


def _run_audit(config: RunConfig) -> _Report:
    if not config.max_identity_residual >= 0.0:
        raise ConfigError("--max-identity-residual must be a nonnegative number, "
                          f"got {config.max_identity_residual!r}")
    rows = [_audit_row(config, omega) for omega in _omega_list(config)]
    failure = None
    if any(row[-1] != "ok" for row in rows):
        failure = "one or more audited quantities violated its threshold"
    return _Report(_AUDIT_COLUMNS, rows, failure=failure)


_DISPATCH = {
    "construct": _run_construct,
    "curve": _run_curve,
    "spectrum": _run_spectrum,
    "theta": _run_theta,
    "evolve": _run_evolve,
    "stability": _run_stability,
    "audit": _run_audit,
}

_DEFAULT_FORMAT = {
    "construct": "json",
    "curve": "csv",
    "spectrum": "json",
    "theta": "json",
    "evolve": "csv",
    "stability": "csv",
    "audit": "json",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cqnls",
        description="Periodic standing waves of the cubic-quintic Schrodinger "
        "equation: construction, spectra, and stability experiments.",
    )
    parser.add_argument("--version", action="version", version=f"cqnls {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    docs = {
        "construct": "build one wave; report parameters and residuals (json default)",
        "curve": "sweep omega; CSV columns: " + ",".join(_CURVE_COLUMNS),
        "spectrum": "linearized-operator spectra; CSV columns: "
        + ",".join(_SPECTRUM_COLUMNS),
        "theta": "Hill growth coefficient and dT/dB cross-check (json default)",
        "evolve": "standing-wave fidelity run; CSV columns: " + ",".join(_EVOLVE_COLUMNS),
        "stability": "perturbed run; CSV columns: " + ",".join(_STABILITY_COLUMNS),
        "audit": "derivative/identity audit at each omega (one value or a "
        "sweep), every rate exact from the curve's tangent; CSV columns: "
        + ",".join(_AUDIT_COLUMNS),
    }
    for name, help_text in docs.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--L", type=float, default=2.0 * math.pi,
                       help="spatial period (default 2*pi)")
        p.add_argument("--omega", required=True,
                       help="frequency, a number or start:stop:count sweep")
        p.add_argument("--N", type=int, default=256,
                       help="grid size, a power of two >= 64 (default 256)")
        p.add_argument("--dt", type=float, default=None,
                       help="time step (evolve/stability) or Hill RK4 step (theta)")
        p.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="final time (default "
                       + ", ".join(f"{t:g} for {name}" for name, t in _DEFAULT_T_END.items())
                       + ")")
        p.add_argument("--delta", type=float, default=1e-3,
                       help="perturbation size for stability (default 1e-3)")
        p.add_argument("--perturbation", default="mode_cos1",
                       choices=_PERTURBATIONS,
                       help="perturbation shape for stability")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for random_even (default 0)")
        p.add_argument("--output", default="-",
                       help="output path, - for stdout (default)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="report format (subcommand-specific default)")
        p.add_argument("--max-identity-residual", type=float, default=1e-5,
                       help="audit threshold for integral-identity residuals")
    return parser


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        L=args.L,
        omega=_parse_omega(args.omega),
        N=args.N,
        dt=args.dt,
        t_end=args.t_end,
        delta=args.delta,
        perturbation=args.perturbation,
        seed=args.seed,
        output_path=args.output,
        format=args.format or _DEFAULT_FORMAT[args.subcommand],
        max_identity_residual=args.max_identity_residual,
    )


def run(config: RunConfig) -> int:
    """Dispatch one resolved configuration; returns the exit status."""
    try:
        report = _DISPATCH[config.subcommand](config)
        _report(config, report)
        if report.failure:
            raise NumericError(report.failure)
        return 0
    except (ContractError, NumericError) as exc:
        print(f"cqnls {config.subcommand}: numeric assertion failed: {exc}",
              file=sys.stderr)
        return 2
    except CqnlsError as exc:
        print(f"cqnls {config.subcommand}: {exc}", file=sys.stderr)
        return 1
    except _OutputError as exc:
        print(f"cqnls {config.subcommand}: {exc}", file=sys.stderr)
        return _IO_EXIT


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
    except SystemExit2 as exc:
        print(f"cqnls: usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except ConfigError as exc:
        print(f"cqnls: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
