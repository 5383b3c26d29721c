"""Command-line front end emitting machine-readable reports.

Subcommands map onto the library one-to-one; _SUBCOMMANDS gives each its
runner, default format, the flags it reads and help, and _OPTIONS sets up
every flag.  Every subcommand takes --L, --omega, --output and --format,
and all but theta take --N; evolve and stability add the flags they
read, and any other flag is a usage error.  Reports
echo the subcommand's own settings (all but --output), its name and the
library version.  JSON reports are the text of json.dumps(doc, indent=2)
(NaN and Infinity as bare words; _json_text writes the flat parts with
the C encoder) and CSV cells follow the same float rule, Python's
repr: the shortest decimal that reads back as the same double, so an
integral float prints as 2.0.  Identical configurations produce
byte-identical output.

Exit codes: 0 success; 1 domain or configuration error; 2 a numeric
assertion failed (an audit threshold or an internal consistency check);
64 usage error; 74 output could not be written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .curve import (
    _sample_rows,
    d2d_direct,
    d2d_identity,
    derivative_audit,
    identity_audit,
    sample_curve,
)
from .errors import ConfigError, ContractError, CqnlsError, NumericError
from .evolve import _PERTURBATIONS, run_fidelity, run_stability
from .hill import combined_counts, spectrum_report, theta_constant
from .waves import (build_wave, params_from_alpha3, period_map, period_map_dB,
                    quadrature_residual, solve_alpha3)

_USAGE_EXIT = 64
_IO_EXIT = 74
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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
# values that json.dumps writes the same at any depth, and the keys it
# writes as they are
_SCALAR_TYPES = frozenset({float, int, str, bool, type(None), np.float64})
_KEY_TYPES = frozenset({str})
_IDENTITY_RESIDUAL_MAX = 1e-5  # largest integral-identity residual an audit passes


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code instead of 2.

    A negative number with an exponent, such as -1e-3, is read as a value
    like -1 is, so that the library's own check sees it; argparse's
    default pattern takes it for an unknown option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    """Usage error carrying the message for exit code 64."""


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
        try:
            if count <= np.iinfo(np.intp).max:
                return np.linspace(start, stop, count).tolist()
        except (ValueError, MemoryError):  # bytes numpy refuses to allocate, up front
            pass
        raise ConfigError(f"omega range count exceeds the largest array size: {text!r}")
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"omega must be a number or start:stop:count, got {text!r}") from exc


def _scalar_omega(config: argparse.Namespace) -> float:
    if isinstance(config.omega, list):
        raise ConfigError(
            f"subcommand {config.subcommand!r} needs a single omega, got a range"
        )
    return config.omega


def _config_echo(config: argparse.Namespace) -> dict:
    # the output path does not influence any computed value, and leaving it
    # out keeps reports from identical numeric configs byte-identical
    doc = {key: value for key, value in vars(config).items() if key != "output"}
    return {**doc, "version": __version__}


def _emit(config: argparse.Namespace, text: str) -> None:
    if config.output in ("-", ""):
        sys.stdout.write(text + "\n")
        return
    try:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _OutputError(f"cannot write {config.output!r}: {exc}") from exc


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


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), as it reads placed at `indent` in a larger text.

    json.dumps takes its pure-Python encoder whenever it indents.  Here
    the C encoder writes each flat container, a non-empty dict or list
    of scalars or a list of such dicts, with the line break and
    indentation of its items as its item separator (a line break in the
    C encoder's text is always such a separator: strings escape theirs).
    Other dicts with string keys are taken apart, and anything else is
    left to json.dumps.  The text is json.dumps's, byte for byte.
    """
    inner = indent + "  "
    kind = type(value)
    if kind is list and value and all(type(row) is dict and row for row in value):
        rows = itertools.chain.from_iterable
        if (_KEY_TYPES.issuperset(map(type, rows(value)))
                and _SCALAR_TYPES.issuperset(map(type, rows(map(dict.values, value))))):
            cell = ",\n" + inner + "  "
            text = json.JSONEncoder(separators=(cell, ": ")).encode(value)[2:-2]
            text = text.replace("}" + cell + "{", "\n" + inner + "},\n" + inner + "{" + cell[1:])
            return "[\n" + inner + "{" + cell[1:] + text + "\n" + inner + "}\n" + indent + "]"
    if kind in (dict, list) and value:
        keys = value if kind is dict else ()
        if _KEY_TYPES.issuperset(map(type, keys)):
            if _SCALAR_TYPES.issuperset(map(type, value.values() if keys else value)):
                text = json.JSONEncoder(separators=(",\n" + inner, ": ")).encode(value)
                return text[0] + "\n" + inner + text[1:-1] + "\n" + indent + text[-1]
            if keys:
                return "{\n" + inner + (",\n" + inner).join(
                    json.dumps(key) + ": " + _json_text(item, inner)
                    for key, item in value.items()) + "\n" + indent + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _report(config: argparse.Namespace, report: _Report) -> None:
    """Format and write one report; the only code that knows csv from json."""
    echo = _config_echo(config)
    if config.format == "json":
        body = report.fields
        if body is None:
            body = {"summary": report.summary} if report.summary else {}
            body["rows"] = [dict(zip(report.columns, row)) for row in report.rows]
        _emit(config, _json_text({"config": echo, **body}))
        return
    del echo["version"]
    head = [*report.summary.items(), *sorted(echo.items())]
    lines = [f"# cqnls {config.subcommand} report, version {__version__}"]
    lines += [f"# {key} = {_cell(value)}" for key, value in head]
    lines.append(",".join(report.columns))
    lines += [",".join(map(_cell, row)) for row in report.rows]
    _emit(config, "\n".join(lines))


def _run_construct(config: argparse.Namespace) -> _Report:
    wp, prof = build_wave(config.L, _scalar_omega(config), config.N)
    r_quad, r_ode = quadrature_residual(prof, wp)
    wave = asdict(wp)
    attained = period_map(wp.alpha3, wp.omega)
    residuals = {"r_quad": r_quad, "r_ode": r_ode,
                 "period_rel_residual": abs(attained - wp.L) / wp.L}
    row = {**wave, **residuals}
    return _Report(tuple(row), [list(row.values())],
                   fields={"wave": wave, "residuals": residuals})


def _omega_list(config: argparse.Namespace) -> list[float]:
    return config.omega if isinstance(config.omega, list) else [config.omega]


def _run_curve(config: argparse.Namespace) -> _Report:
    fields = _CURVE_COLUMNS[:-2]  # CurveSample attributes, then status and message
    rows = []
    omegas = _omega_list(config)
    for omega, entry in zip(omegas, sample_curve(config.L, omegas, config.N)):
        if isinstance(entry, CqnlsError):
            rows.append([omega] + [math.nan] * (len(fields) - 1) + ["error", str(entry)])
        else:
            rows.append([getattr(entry, name) for name in fields] + ["ok", ""])
    return _Report(_CURVE_COLUMNS, rows)


def _run_spectrum(config: argparse.Namespace) -> _Report:
    wp, prof = build_wave(config.L, _scalar_omega(config), config.N)
    reports = {kind: spectrum_report(kind, wp, prof) for kind in ("L1", "L2")}
    labels = {kind: np.where(rep.even[:10], "even", "odd").tolist()
              for kind, rep in reports.items()}
    fields = {
        kind: {
            "eigenvalues_low": rep.eigenvalues[:10].tolist(),
            "parity_low": labels[kind],
            "n_negative": rep.n_negative,
            "zero_index": rep.zero_index,
            "zero_match_error": rep.zero_match_error,
            "tol_zero": rep.tol_zero,
        }
        for kind, rep in reports.items()
    }
    fields["combined"] = asdict(combined_counts(reports["L1"], reports["L2"]))
    rows = [[kind, idx, float(rep.eigenvalues[idx]), labels[kind][idx]]
            for kind, rep in reports.items() for idx in range(10)]
    return _Report(_SPECTRUM_COLUMNS, rows, fields=fields)


def _run_theta(config: argparse.Namespace) -> _Report:
    omega = _scalar_omega(config)
    # theta and dT/dB read the wave parameters alone, so no grid is sampled
    wp = params_from_alpha3(config.L, omega, solve_alpha3(config.L, omega))
    theta = theta_constant(wp)
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


def _run_evolve(config: argparse.Namespace) -> _Report:
    rep = run_fidelity(config.L, _scalar_omega(config), config.t_end, config.dt,
                       config.N)
    summary = {
        "mass_drift": rep.mass_drift,
        "energy_drift": rep.energy_drift,
        "rotation_rate_error": rep.rotation_rate_error,
        "max_sup_error": float(np.max(rep.sup_error)),
    }
    return _Report(_EVOLVE_COLUMNS, list(zip(rep.times, rep.sup_error)),
                   summary=summary)


def _run_stability(config: argparse.Namespace) -> _Report:
    rep = run_stability(
        config.L, _scalar_omega(config), config.delta, config.perturbation,
        config.t_end, config.dt, config.N, seed=config.seed,
    )
    summary = {
        "mass_drift": rep.mass_drift,
        "energy_drift": rep.energy_drift,
        "max_dist": rep.max_dist,
        "parity_defect": rep.parity_defect,
    }
    return _Report(_STABILITY_COLUMNS, list(zip(rep.times, rep.orbital_dist)),
                   summary=summary)


def _audit_row(sample) -> list:
    audit = derivative_audit(sample)
    direct = d2d_direct(sample)
    ident = d2d_identity(sample)
    route_rel = abs(direct - ident) / max(abs(direct), 1e-300)
    ia = identity_audit(sample)
    residuals = [ia.quartic_rate, ia.virial, ia.mass_rate, ia.log_derivative]

    claims = ("dalpha3_positive", "dalpha2_negative", "dk_partial_negative", "dT_dB_positive")
    ok = (
        all(audit.signs_ok[claim] for claim in claims)
        and audit.dk_partial_match <= 1e-5
        and direct > 0.0
        and ident > 0.0
        and route_rel <= 1e-4
        and all(r <= _IDENTITY_RESIDUAL_MAX for r in residuals)
    )
    return [
        sample.omega, audit.dalpha3, audit.dB, audit.dalpha1, audit.dalpha2,
        audit.dk_partial, audit.dk_partial_closed, audit.dk_partial_match,
        audit.dT_dB, direct, ident, route_rel,
    ] + residuals + ["ok" if ok else "fail"]


def _run_audit(config: argparse.Namespace) -> _Report:
    # the sweep is sampled in one pass; the first failing omega, in sweep
    # order, raises the error that curve_sample raises there
    rows = []
    for entry in _sample_rows(config.L, _omega_list(config), config.N):
        if isinstance(entry, CqnlsError):
            raise entry
        rows.append(_audit_row(entry))
    failure = None
    if any(row[-1] != "ok" for row in rows):
        failure = "one or more audited quantities violated its threshold"
    return _Report(_AUDIT_COLUMNS, rows, failure=failure)


@dataclass(frozen=True)
class _Subcommand:
    """A subcommand's runner, default report format, flags and help.

    flags names every flag the subcommand reads, each set up as _OPTIONS
    says; defaults holds the defaults that differ between subcommands,
    over those of _OPTIONS.
    """

    run: Callable[[argparse.Namespace], _Report]
    format: str
    flags: tuple
    help: str
    defaults: dict = field(default_factory=dict)


_SUBCOMMANDS = {
    "construct": _Subcommand(
        _run_construct, "json", ("L", "omega", "N", "output", "format"),
        "build one wave; report its parameter set and construction residuals "
        "(profile equation, first integral, attained period)"),
    "curve": _Subcommand(
        _run_curve, "csv", ("L", "omega", "N", "output", "format"),
        "sweep omega, tabulate the wave family and its derivatives; "
        "CSV columns: " + ",".join(_CURVE_COLUMNS)),
    "spectrum": _Subcommand(
        _run_spectrum, "json", ("L", "omega", "N", "output", "format"),
        "eigenvalue structure of both linearized operators; "
        "CSV columns: " + ",".join(_SPECTRUM_COLUMNS)),
    "theta": _Subcommand(
        _run_theta, "json", ("L", "omega", "output", "format"),
        "growth coefficient of the companion Hill solution vs dT/dB"),
    "evolve": _Subcommand(
        _run_evolve, "csv", ("L", "omega", "N", "dt", "t_end", "output", "format"),
        "standing-wave fidelity run (sup error against the rotation); "
        "CSV columns: " + ",".join(_EVOLVE_COLUMNS),
        {"dt": _DEFAULT_DT, "t_end": 10.0}),
    "stability": _Subcommand(
        _run_stability, "csv",
        ("L", "omega", "N", "dt", "t_end", "delta", "perturbation", "seed", "output", "format"),
        "perturbed evolution, orbital distance time series; "
        "CSV columns: " + ",".join(_STABILITY_COLUMNS),
        {"dt": _DEFAULT_DT, "t_end": 50.0}),
    "audit": _Subcommand(
        _run_audit, "json", ("L", "omega", "N", "output", "format"),
        "derivative and integral-identity checks at each omega (one value or "
        "a sweep), every rate exact from the curve's tangent; "
        "CSV columns: " + ",".join(_AUDIT_COLUMNS)),
}

# argparse settings and help of every flag, in the order reports echo them
_OPTIONS = {
    "L": {"type": float, "default": 2.0 * math.pi, "help": "spatial period (default 2*pi)"},
    "omega": {"required": True, "help": "frequency, a number or start:stop:count sweep"},
    "N": {"type": int, "default": 256,
          "help": "grid size, a power of two >= 64 (default %(default)d)"},
    "dt": {"type": float, "help": "split-step time step (default %(default)g)"},
    "t_end": {"type": float, "help": "final time (default %(default)g)"},
    "delta": {"type": float, "default": 1e-3,
              "help": "size of the initial perturbation (default %(default)g)"},
    "perturbation": {"choices": _PERTURBATIONS, "default": "mode_cos1",
                     "help": "shape of the initial perturbation (default %(default)s)"},
    "seed": {"type": int, "default": 0,
             "help": "seed of the random_even shape (default %(default)d)"},
    "output": {"default": "-", "help": "output path, - for stdout (default)"},
    "format": {"choices": ("csv", "json"), "help": "report format (default %(default)s)"},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Help text is formatted when printed, so it still follows COLUMNS.
    """
    parser = _Parser(
        prog="cqnls",
        description="Periodic standing waves of the cubic-quintic Schrodinger "
        "equation: construction, spectra, and stability experiments.",
    )
    parser.add_argument("--version", action="version", version=f"cqnls {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help, description=spec.help)
        for flag, options in _OPTIONS.items():
            if flag in spec.flags:
                p.add_argument("--" + flag.replace("_", "-"), **options)
        p.set_defaults(format=spec.format, **spec.defaults)
    return parser


def run(config: argparse.Namespace) -> int:
    """Run one parsed command line (omega parsed); returns the exit status."""
    try:
        report = _SUBCOMMANDS[config.subcommand].run(config)
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
    try:
        config = build_parser().parse_args(argv)
        config.omega = _parse_omega(config.omega)
    except SystemExit2 as exc:
        print(f"cqnls: usage error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except ConfigError as exc:
        print(f"cqnls: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
