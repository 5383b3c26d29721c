"""Command-line interface: exit codes, report formats, determinism."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import cqnls
from cqnls import __version__, cli, hill, waves
from cqnls.cli import SystemExit2, build_parser, main

from conftest import TWO_PI

L_FLAG = f"{TWO_PI!r}"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _data_lines(text):
    return [ln for ln in text.strip().splitlines() if not ln.startswith("#")]


def test_construct_json(capsys):
    code, out, err = _run(capsys, "construct", "--omega", "2")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["wave"]["alpha3"] == pytest.approx(1.8100552161149976, rel=1e-12)
    assert doc["wave"]["B"] < 0.0
    assert doc["residuals"]["r_quad"] <= 1e-8
    assert doc["residuals"]["r_ode"] <= 1e-6
    assert doc["config"]["version"] == __version__
    assert doc["config"]["omega"] == 2.0
    # the output path never enters the report
    assert "output_path" not in doc["config"]


@pytest.mark.parametrize("omega", ["2", "8"])
def test_construct_reports_attained_period(capsys, omega):
    # the CSV column carries the same number (test_csv_and_json_carry_equal_numbers)
    code, out, err = _run(capsys, "construct", "--omega", omega)
    assert code == 0
    assert 0.0 <= json.loads(out)["residuals"]["period_rel_residual"] <= 1e-10


# at omega = 1e16 and f = 3 an absolute trough bound of 1e-8 fails on rounding
@pytest.mark.parametrize("omega, f", [("5000", 1.5), ("1e13", 1.5), ("1e16", 3.0)],
                         ids=["5000", "1e13", "1e16"])
def test_construct_at_a_large_frequency(capsys, omega, f):
    L = f * waves.min_period(float(omega))
    code, out, err = _run(capsys, "construct", "--omega", omega, "--L", repr(L))
    assert code == 0 and err == ""
    assert json.loads(out)["wave"]["omega"] == float(omega)


def test_construct_csv(capsys):
    code, out, err = _run(capsys, "construct", "--omega", "2",
                          "--format", "csv")
    assert code == 0
    lines = _data_lines(out)
    assert lines[0].split(",")[:3] == ["L", "omega", "alpha1"]
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[1]) == 2.0
    # repr round-trips doubles exactly
    assert float(row[4]) == pytest.approx(1.8100552161149976, rel=0)


def test_construct_below_threshold_exits_1(capsys):
    code, out, err = _run(capsys, "construct", "--omega", "0.1")
    assert code == 1
    assert "omega_threshold" in err


@pytest.mark.parametrize("argv", [("--omega", "1e-300"),
                                  ("--L", "1e-300", "--omega", "2")],
                         ids=["tiny_omega", "tiny_L"])
def test_construct_tiny_omega_or_period_exits_1(capsys, argv):
    # s - 1 rounds to 0 at omega < 5e-17, and L**2 underflows at L < 1e-162
    code, out, err = _run(capsys, "construct", *argv)
    assert code == 1 and out == ""
    assert err.startswith("cqnls construct: ") and err.count("\n") == 1


@pytest.mark.parametrize("omega", ["1.4e154", "1e200", "1e300"])
def test_frequency_beyond_double_reach_is_a_domain_error(capsys, omega):
    # 48 omega^2 in the period slope overflows a double above omega ~ 1.3e154
    code, out, err = _run(capsys, "construct", "--omega", omega)
    assert code == 1 and out == ""
    message = f"frequency omega={float(omega)} is out of double-precision reach"
    assert err == f"cqnls construct: {message}\n"
    code, out, err = _run(capsys, "curve", "--omega", omega)
    assert code == 0 and err == ""
    (row,) = _data_lines(out)[1:]
    assert row.split(",")[-2:] == ["error", message]


def test_construct_rejects_range(capsys):
    code, out, err = _run(capsys, "construct", "--omega", "1:2:5")
    assert code == 1
    assert "single omega" in err


def test_curve_sweep_csv(capsys):
    code, out, err = _run(capsys, "curve", "--omega", "1.9:2.1:3")
    assert code == 0
    lines = _data_lines(out)
    header = lines[0].split(",")
    assert header[0] == "omega" and "status" in header
    assert len(lines) == 4
    mid = dict(zip(header, lines[2].split(",")))
    assert float(mid["omega"]) == 2.0
    assert mid["status"] == "ok"
    assert float(mid["dmass_domega"]) > 0.0
    # config echo names the sweep
    assert "# omega = [" in out


def test_curve_sweep_with_bad_point(capsys):
    code, out, err = _run(capsys, "curve", "--omega", "0.3:0.5:3")
    assert code == 0
    lines = _data_lines(out)
    first = lines[1].split(",")
    assert first[-2] == "error"
    assert math.isnan(float(first[1]))
    assert _data_lines(out)[3].split(",")[-2] == "ok"


@pytest.mark.parametrize("L, omega", [("nan", "2"), ("-1", "2:3:2")])
def test_curve_bad_period_exits_1(capsys, L, omega):
    code, out, err = _run(capsys, "curve", "--L", L, "--omega", omega)
    assert code == 1 and out == ""
    assert "period must be finite and positive" in err


def test_curve_bad_grid_size_exits_1(capsys):
    code, out, err = _run(capsys, "curve", "--omega", "2:3:2", "--N", "100")
    assert code == 1 and out == ""
    assert "N must be a power of two" in err


def test_curve_frequency_without_wave_keeps_its_row(capsys):
    # no period-2 pi wave exists at omega = 0.1; the sweep goes on
    code, out, err = _run(capsys, "curve", "--omega", "0.1:2:2")
    assert code == 0
    assert [ln.split(",")[-2] for ln in _data_lines(out)[1:]] == ["error", "ok"]


def test_curve_tiny_frequency_keeps_its_row(capsys):
    code, out, err = _run(capsys, "curve", "--omega", "1e-300:1.0:3")
    assert code == 0
    rows = [ln.split(",") for ln in _data_lines(out)[1:]]
    assert [(row[0], row[-2]) for row in rows] == [
        ("1e-300", "error"), ("0.5", "ok"), ("1.0", "ok")]


def test_curve_json(capsys):
    code, out, err = _run(capsys, "curve", "--omega", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["status"] == "ok"
    assert doc["rows"][0]["mass"] == pytest.approx(2.2123215363898985,
                                                   rel=1e-12)


def test_spectrum_json(capsys):
    code, out, err = _run(capsys, "spectrum", "--omega", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["L1"]["n_negative"] == 1
    assert doc["L2"]["n_negative"] == 0
    assert len(doc["L1"]["eigenvalues_low"]) == 10
    assert doc["L1"]["eigenvalues_low"][0] == pytest.approx(
        -11.391713037069591, rel=1e-10)
    assert doc["combined"] == {"n_negative": 1, "zero_multiplicity": 2,
                               "n_negative_even": 1,
                               "zero_multiplicity_even": 1}


def test_spectrum_csv(capsys):
    code, out, err = _run(capsys, "spectrum", "--omega", "2", "--N", "128",
                          "--format", "csv")
    assert code == 0
    lines = _data_lines(out)
    assert lines[0] == "operator,index,eigenvalue,parity"
    assert len(lines) == 21
    assert lines[1].startswith("L1,0,")
    assert lines[1].endswith(",even")


def test_theta_json(capsys):
    code, out, err = _run(capsys, "theta", "--omega", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == pytest.approx(-271.3542123500556, rel=1e-9)
    assert doc["relative_mismatch"] <= 1e-4
    assert doc["sign_link_holds"] is True
    # theta reads the wave parameters alone: no grid size, same bits
    assert "N" not in doc["config"]
    wp = waves.params_from_alpha3(TWO_PI, 2.0, waves.solve_alpha3(TWO_PI, 2.0))
    assert doc["theta"] == hill.theta_constant(wp)


def test_theta_closed_form_dT_dB(capsys):
    # near the solitary end a finite difference of the period in B loses
    # about 2.5e-6 to its step; the closed-form dT/dB does not
    code, out, err = _run(capsys, "theta", "--omega", "8")
    assert code == 0
    assert json.loads(out)["relative_mismatch"] <= 1e-8


def test_evolve_csv(capsys):
    code, out, err = _run(capsys, "evolve", "--omega", "2",
                          "--t-end", "0.2", "--dt", "1e-3")
    assert code == 0
    assert "# mass_drift = " in out
    lines = _data_lines(out)
    assert lines[0] == "t,sup_error"
    assert len(lines) == 202
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.2, rel=1e-12)


def test_stability_csv(capsys):
    code, out, err = _run(capsys, "stability", "--omega", "2",
                          "--t-end", "0.5", "--dt", "1e-3",
                          "--perturbation", "bump")
    assert code == 0
    assert "# max_dist = " in out
    assert "# parity_defect = " in out
    lines = _data_lines(out)
    assert lines[0] == "t,orbital_dist"
    assert len(lines) == 202
    dists = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(d >= 0.0 for d in dists)
    assert max(dists) <= 1e-2


def test_audit_fine_sweep_passes(capsys):
    code, out, err = _run(capsys, "audit", "--omega", "1.996:2.004:5",
                          "--format", "csv")
    assert code == 0
    lines = _data_lines(out)
    assert all(ln.endswith(",ok") for ln in lines[1:])


def test_audit_coarse_sweep_passes(capsys):
    # every rate is exact, so 0.1 spacing audits as cleanly as a fine sweep
    code, out, err = _run(capsys, "audit", "--omega", "1.9:2.1:3",
                          "--format", "csv")
    assert code == 0 and err == ""
    assert all(ln.endswith(",ok") for ln in _data_lines(out)[1:])


def test_audit_threshold_knob(capsys, monkeypatch):
    code, out, err = _run(capsys, "audit", "--omega", "1.9:2.1:3",
                          "--format", "json")
    assert code == 0
    worst = max(value for row in json.loads(out)["rows"]
                for key, value in row.items() if key.startswith("ident_"))
    # a threshold below the printed residuals fails the audit
    monkeypatch.setattr(cli, "_IDENTITY_RESIDUAL_MAX", 0.5 * worst)
    code, out, err = _run(capsys, "audit", "--omega", "1.9:2.1:3",
                          "--format", "csv")
    assert code == 2
    assert "numeric assertion failed" in err
    assert any(ln.endswith(",fail") for ln in _data_lines(out)[1:])


@pytest.mark.parametrize("argv, message", [
    (("curve", "--L", "-1e-3", "--omega", "2"), "period must be finite and positive"),
    (("stability", "--omega", "2", "--delta", "-1e-3"),
     "perturbation size must be nonnegative"),
], ids=["curve_L", "stability_delta"])
def test_negative_exponent_values_reach_the_library_check(capsys, argv, message):
    # argparse alone reads -1e-3 as an option name and exits 64
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err


def test_audit_single_omega(capsys):
    code, out, err = _run(capsys, "audit", "--omega", "2", "--format", "csv")
    assert code == 0
    lines = _data_lines(out)
    assert len(lines) == 2 and lines[1].endswith(",ok")


@pytest.mark.parametrize("flags, sweep, first_failure, code", [
    (("--N", "64"), "2:9:8", "3", 2),  # grid too coarse: tangent residual
    (("--L", "40"), "0.2:0.8:2", "0.8", 1),  # period out of numerical reach
], ids=["contract", "degenerate"])
def test_audit_sweep_fails_like_its_first_failing_omega(capsys, flags, sweep,
                                                        first_failure, code):
    # the sweep is sampled in one pass, yet it stops with the error of its
    # first failing omega, as the one-omega audit of that point does; the
    # sweep's first point is sampled, and its later points fail too, each with
    # its own message
    swept = _run(capsys, "audit", *flags, "--omega", sweep)
    alone = _run(capsys, "audit", *flags, "--omega", first_failure)
    assert swept == alone
    assert alone[0] == code and alone[1] == "" and alone[2]
    assert _run(capsys, "audit", *flags, "--omega", sweep.split(":")[0])[1] != ""


@pytest.mark.parametrize("L, omega, message", [
    ("0", "2", "period must be positive, got L=0.0"),
    ("-0.0", "1:3:4", "period must be positive, got L=-0.0"),
    ("1e-160", "2:3:2", "no period-1e-160 wave at omega=2.0"),
], ids=["zero", "negative_zero_sweep", "tiny"])
def test_audit_period_without_waves_exits_1(capsys, L, omega, message):
    code, out, err = _run(capsys, "audit", "--L", L, "--omega", omega)
    assert code == 1 and out == ""
    assert err.startswith(f"cqnls audit: {message}")


def test_curve_period_without_waves_keeps_its_rows(capsys):
    code, out, err = _run(capsys, "curve", "--L", "1e-160", "--omega", "2:3:2")
    assert code == 0 and err == ""
    assert [ln.split(",")[-2] for ln in _data_lines(out)[1:]] == ["error", "error"]


@pytest.mark.parametrize("L, sweep", [(TWO_PI, "7.99:8.0:11"),
                                      (1.5 * TWO_PI, "1.9:2.1:11")])
def test_audit_near_solitary_and_long_period_sweeps_pass(capsys, L, sweep):
    code, out, err = _run(capsys, "audit", "--L", repr(L), "--omega", sweep,
                          "--format", "csv")
    assert code == 0 and err == ""
    lines = _data_lines(out)
    assert len(lines) == 12
    assert all(ln.endswith(",ok") for ln in lines[1:])


def test_usage_errors_exit_64(capsys):
    code, out, err = _run(capsys, "construct", "--omega", "2", "--bogus")
    assert code == 64
    assert "usage error" in err
    code, out, err = _run(capsys)
    assert code == 64
    code, out, err = _run(capsys, "frobnicate", "--omega", "2")
    assert code == 64


_COMMON_FLAGS = ("--L", "--omega", "--output", "--format")
_FLAG_VALUES = {
    "--L": "7", "--omega": "2", "--N": "64", "--output": "-", "--format": "csv",
    "--dt": "1e-3", "--t-end": "1", "--delta": "1e-3", "--perturbation": "bump",
    "--seed": "1",
}
_OWN_FLAGS = {
    "construct": ("--N",), "curve": ("--N",), "spectrum": ("--N",), "theta": (),
    "evolve": ("--N", "--dt", "--t-end"),
    "stability": ("--N", "--dt", "--t-end", "--delta", "--perturbation", "--seed"),
    "audit": ("--N",),
}


def _takes(subcommand, flag):
    try:
        build_parser().parse_args(
            [subcommand, "--omega", "2", flag, _FLAG_VALUES[flag]])
    except SystemExit2:
        return False
    return True


def test_each_subcommand_takes_only_its_own_flags():
    taken = {(sub, flag) for sub in _OWN_FLAGS for flag in _FLAG_VALUES
             if _takes(sub, flag)}
    expected = {(sub, flag) for sub, own in _OWN_FLAGS.items()
                for flag in (*_COMMON_FLAGS, *own)}
    assert taken == expected
    assert len(taken) == 41


def test_readme_flag_table_matches_the_subcommand_table():
    # each README row `| \`name\` | \`--flag\` (note), ... |` lists the flags
    # that subcommand adds to the common ones and --N; a subcommand without
    # a row adds none
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {row.group(1): set(re.findall(r"`(--[a-z-]+)`", row.group(2)))
             for row in re.finditer(r"^\| `(\w+)`\s*\|(.*)\|$", readme, re.M)}
    assert table and set(table) <= set(cli._SUBCOMMANDS)
    for name, spec in cli._SUBCOMMANDS.items():
        own = {"--" + flag.replace("_", "-") for flag in spec.flags}
        assert table.get(name, set()) == own - {*_COMMON_FLAGS, "--N"}, name


@pytest.mark.parametrize("argv", [
    ("construct", "--delta", "1"),
    ("curve", "--dt", "1e-3"),
    ("spectrum", "--seed", "1"),
    ("theta", "--t-end", "5"),
    ("theta", "--N", "64"),
    ("evolve", "--seed", "1"),
    ("audit", "--dt", "1e-3"),
], ids=lambda argv: "_".join(argv[:2]))
def test_unread_flag_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, argv[0], "--omega", "2", *argv[1:])
    assert code == 64 and out == ""
    assert "usage error" in err


@pytest.mark.parametrize("subcommand", sorted(_OWN_FLAGS))
def test_config_echoes_only_the_subcommand_settings(capsys, subcommand):
    _, out, _ = _run(capsys, subcommand, *_SMALL[subcommand], "--format", "json")
    own = {flag[2:].replace("-", "_") for flag in _OWN_FLAGS[subcommand]}
    assert set(json.loads(out)["config"]) == {
        "subcommand", "version", "L", "omega", "format", *own}


@pytest.mark.parametrize("argv, key, value", [
    (("evolve", "--t-end", "0.01"), "dt", 1e-4),
    (("stability", "--dt", "0.01"), "t_end", 50.0),
])
def test_config_echoes_the_default_time_grid(capsys, argv, key, value):
    # a default the run uses is echoed as that value, not as null
    code, out, _ = _run(capsys, *argv, "--omega", "2", "--N", "64", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"][key] == value


def _load_perfbench(name):
    # executes perfbench/<name>.py from its source, writing nothing there
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("workload", ["evolve", "spectral", "curve_audit"])
def test_benchmark_rounds_parse(workload):
    # a flag change that turned benchmark ops into usage errors fails here
    ops = _load_perfbench("workloads").make_round(workload, 1)
    assert any(op.probe for op in ops)
    parser = build_parser()
    for op in ops:
        assert parser.parse_args(list(op.argv)).subcommand == op.kind


def test_benchmark_traced_names_exist():
    # a library cut that left a traced name dangling would silently drop
    # its per-layer metric from the benchmark
    for layer, names in _load_perfbench("tracing").LAYERS.items():
        home = getattr(cqnls, layer)
        missing = [name for name in names if not callable(getattr(home, name, None))]
        assert not missing, (layer, missing)


def test_public_names_are_pinned():
    # a change that adds or drops a public name must update this list
    assert sorted(cqnls.__all__) == [
        "BlowupError", "CombinedCounts", "ConfigError", "ContractError", "CqnlsError",
        "CurveSample", "DegenerateError", "DerivativeAudit", "DomainError",
        "FidelityReport", "IdentityAudit", "NoSolutionError", "NumericError", "Profile",
        "SpectrumReport", "StabilityReport", "WaveParams", "__version__", "alpha_bounds",
        "b_from_alpha", "b_threshold", "build_wave", "check_grid_size", "combined_counts",
        "complete_K", "curve_sample", "d2d_direct", "d2d_identity",
        "derivative_audit", "energy", "grid", "h1_norm",
        "identity_audit", "inv2_closed_form", "jacobi_sn_cn_dn", "mass", "min_period",
        "omega_threshold", "orbital_distance", "params_from_alpha3",
        "period_map", "period_map_dB", "period_map_dalpha", "period_of_B",
        "perturbation_shape", "profile_value", "quadrature_residual",
        "roots_from_alpha3", "run_fidelity", "run_stability", "sample_curve",
        "second_derivative_column", "solitary_profile", "solve_alpha3",
        "spectral_derivative", "spectrum_report", "sym_eig", "theta_constant",
        "trapezoid", "wavenumbers",
    ]


def test_every_public_name_has_a_production_reader():
    # a public name that only the tests read is a twin of the private code
    # behind it; reading it (a Name or an Attribute) in the library, the
    # demos or the benchmark counts, as do the benchmark's strings (the
    # tracer's LAYERS), while its definition and its __all__ entry do not
    root = Path(__file__).resolve().parents[1]
    read = set()
    for folder in ("src/cqnls", "demos", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (folder == "perfbench" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    read.add(node.value)
    assert sorted(set(cqnls.__all__) - read) == []


def test_malformed_omega_exits_1(capsys):
    code, out, err = _run(capsys, "construct", "--omega", "2:1:5")
    assert code == 1
    assert "stop > start" in err
    code, out, err = _run(capsys, "construct", "--omega", "abc")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("curve", "--omega", "2:3:100000000000000000000"),
    ("curve", "--omega", "2:3:9223372036854775808"),
    ("curve", "--omega", "2:3:2305843009213693952"),
    ("curve", "--omega", "2:3:1000000000000"),
    ("construct", "--omega", "2", "--N", "9223372036854775808"),
], ids=["count_1e20", "count_2_63", "count_2_61", "count_1e12", "N_2_63"])
def test_count_or_grid_beyond_array_size_exits_1(capsys, argv):
    # each is rejected before anything is allocated; numpy itself would
    # raise ValueError or IndexError, or build an empty grid for N = 2^63.
    # 2^61 doubles overflow numpy's byte count ("array is too big"), and
    # 1e12 doubles (8 TB) are a MemoryError: numpy refuses both up front
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert "exceeds the largest array size" in err


@pytest.mark.parametrize("argv", [
    ("construct", "--L", "inf", "--omega", "2"),
    ("construct", "--L", "nan", "--omega", "2"),
    ("curve", "--omega", "nan:1:3"),
    ("curve", "--omega", "1:inf:3"),
    ("evolve", "--omega", "2", "--N", "64", "--t-end", "1e300", "--dt", "1e-300"),
    ("stability", "--omega", "2", "--N", "64", "--t-end", "1e300", "--dt", "1e-300"),
], ids=["L_inf", "L_nan", "omega_nan_start", "omega_inf_stop", "evolve_steps",
        "stability_steps"])
def test_nonfinite_period_or_frequency_exits_1(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("subcommand", ["evolve", "stability"])
def test_step_count_above_the_cap_exits_1(capsys, subcommand):
    # 1e302 split steps would never return; the count is refused before
    # the first step
    code, out, err = _run(capsys, subcommand, "--omega", "2", "--N", "64",
                          "--t-end", "1e300", "--dt", "0.01")
    assert code == 1 and out == ""
    assert err == (f"cqnls {subcommand}: need finite t_end, dt > 0, "
                   "t_end/dt <= 1e+08: 1e+300, 0.01\n")


@pytest.mark.parametrize("flag, value, word", [("--seed", "-1", "seed"),
                                               ("--delta", "nan", "perturbation size")],
                         ids=["seed", "delta"])
def test_stability_rejects_bad_seed_or_delta(capsys, flag, value, word):
    code, out, err = _run(capsys, "stability", "--omega", "2", "--t-end", "0.01",
                          "--dt", "1e-3", "--N", "64", "--perturbation", "random_even",
                          flag, value)
    assert code == 1
    assert err.startswith("cqnls stability: ") and word in err


def test_stability_overflow_reports_one_blowup_line(capsys):
    # the field overflows in the first step; numpy stays silent and the
    # record check alone reports it
    code, out, err = _run(capsys, "stability", "--omega", "2", "--N", "64",
                          "--t-end", "0.01", "--dt", "1e-3", "--delta", "1e300")
    assert code == 2 and out == ""
    assert err == "cqnls stability: numeric assertion failed: nonfinite field at t=0.001\n"


def test_byte_determinism(capsys):
    args = ("curve", "--omega", "1.5:2.5:5")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


# small configurations; the curve sweep holds an error row and the audit
# fails an identity threshold set below its identity residuals, whose
# largest per row reads 1.9e-14 to 2.0e-13 at N=64 (exit 2;
# _IDENTITY_RESIDUAL_MAX is patched to 1e-14 there)
_SMALL = {
    "construct": ("--omega", "2", "--N", "64"),
    "curve": ("--omega", "0.3:0.5:3", "--N", "64"),
    "spectrum": ("--omega", "2", "--N", "64"),
    "theta": ("--omega", "2"),
    "evolve": ("--omega", "2", "--N", "64", "--t-end", "0.01", "--dt", "1e-3"),
    "stability": ("--omega", "2", "--N", "64", "--t-end", "0.01",
                  "--dt", "1e-3", "--perturbation", "random_even"),
    "audit": ("--omega", "1.9:2.1:3", "--N", "64"),
}


def test_cli_runs_leave_numpy_random_unimported():
    # a fresh interpreter, since this suite's own imports load numpy.random
    argvs = [[subcommand, *args] for subcommand, args in _SMALL.items()]
    script = ("import contextlib, io, sys\n"
              "from cqnls.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [main(argv) for argv in {argvs!r}]\n"
              "print(codes, 'numpy.random' in sys.modules)\n")
    src = str(Path(cqnls.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.stdout == f"{[0] * len(argvs)} False\n", proc.stdout + proc.stderr


def _json_table(subcommand, doc):
    """The CSV table a report must carry, read from its JSON document."""
    if subcommand == "construct":
        return [{**doc["wave"], **doc["residuals"]}]
    if subcommand == "theta":
        fields = ("theta", "dT_dB", "relative_mismatch", "sign_link_holds")
        return [{"omega": doc["config"]["omega"], **{k: doc[k] for k in fields}}]
    if subcommand == "spectrum":
        return [{"operator": op, "index": i, "eigenvalue": value, "parity": label}
                for op in ("L1", "L2")
                for i, (value, label) in enumerate(
                    zip(doc[op]["eigenvalues_low"], doc[op]["parity_low"]))]
    return doc["rows"]


def _same(cell, value):
    if isinstance(value, list):
        return all(map(_same, cell.strip("[]").split(), value))
    if isinstance(value, float):
        return float(cell) == value or (math.isnan(value) and math.isnan(float(cell)))
    return cell == str(value)


@pytest.mark.parametrize("subcommand", sorted(_SMALL))
def test_csv_and_json_carry_equal_numbers(capsys, monkeypatch, subcommand):
    monkeypatch.setattr(cli, "_IDENTITY_RESIDUAL_MAX", 1e-14)
    args = (subcommand, *_SMALL[subcommand])
    json_code, json_out, _ = _run(capsys, *args, "--format", "json")
    csv_code, csv_out, _ = _run(capsys, *args, "--format", "csv")
    assert json_code == csv_code == (2 if subcommand == "audit" else 0)
    doc = json.loads(json_out)
    echo = dict(ln[2:].split(" = ", 1) for ln in csv_out.splitlines()
                if ln.startswith("# ") and " = " in ln)
    expected = {**doc.get("summary", {}), **doc["config"], "format": "csv"}
    del expected["version"]
    assert set(echo) == set(expected)
    assert all(_same(echo[key], value) for key, value in expected.items())
    header, *lines = _data_lines(csv_out)
    table = _json_table(subcommand, doc)
    assert len(lines) == len(table)
    for line, row in zip(lines, table):
        assert header.split(",") == list(row)
        assert all(map(_same, line.split(","), row.values()))


# every subcommand's JSON report; the curve sweep holds an error row (NaN
# cells and a message) and the audit is of one point
_JSON_REPORTS = {**_SMALL, "audit": ("--omega", "2", "--N", "64")}


@pytest.mark.parametrize("subcommand", sorted(_JSON_REPORTS))
def test_json_report_is_the_text_of_json_dumps(capsys, monkeypatch, subcommand):
    # rows go through the C encoder; the text stays json.dumps(doc, indent=2)
    docs = []
    encode = cli._json_text

    def recorded(value, indent=""):
        if not indent:
            docs.append(value)
        return encode(value, indent)

    monkeypatch.setattr(cli, "_json_text", recorded)
    code, out, _ = _run(capsys, subcommand, *_JSON_REPORTS[subcommand], "--format", "json")
    assert code == 0
    (doc,) = docs
    assert out == json.dumps(doc, indent=2) + "\n"
    if subcommand == "curve":
        assert "NaN" in out and json.loads(out)["rows"][0]["status"] == "error"


@pytest.mark.parametrize("doc", [
    {}, [], {"rows": []}, [{}], [[]], {"a": {}}, 2.5, "text",
    {"config": {"L": 1.0, "omega": [1.0, 2.0, math.nan], "s": 'a\nb"},{', "v": None},
     "rows": [{"a": 1.0, "b": "x},\n      {"}, {"a": math.inf, "b": "\u00e9"}]},
    {"summary": {"x": -math.inf, "y": True, "n": 3},
     "rows": [{"t": np.float64(0.1), "e": np.float64(1e-300)}]},
    {"L1": {"ev": [1.0, 2.0], "par": ["even", "odd"], "n": 1, "d": {"k": (1, 2)}},
     1: "int key", "z": [1, [2, 3], {"q": 1}]},
    [{"a": 1}, {"a": [1]}], [{"a": 1}, 2], [{"a": {"b": 1}}], {"a": [{"b": 1}, {"b": 2}]},
    {"a": (1, 2)}, [(1, 2)], {"k": {"x": {"y": {"z": [1.5]}}}}, {True: 1}, {"a": 1, 2: 3},
], ids=lambda doc: json.dumps(doc, default=str)[:40])
def test_json_text_matches_json_dumps(doc):
    # flat containers at any depth, rows of flat dicts, and what falls back
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("subcommand",
                         ["curve", "spectrum", "evolve", "stability", "audit"])
def test_help_names_the_csv_columns(capsys, monkeypatch, subcommand):
    # a wide terminal keeps argparse from wrapping the column list
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit):
        main([subcommand, "--help"])
    documented = re.search(r"CSV columns: (\S+)", capsys.readouterr().out)
    _, out, _ = _run(capsys, subcommand, *_SMALL[subcommand], "--format", "csv")
    assert _data_lines(out)[0] == documented.group(1)


def test_output_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, err = _run(capsys, "curve", "--omega", "2",
                          "--output", str(target))
    assert code == 0 and out == ""
    _, direct, _ = _run(capsys, "curve", "--omega", "2")
    assert target.read_text() == direct


def test_unwritable_output_exits_74(capsys):
    code, out, err = _run(capsys, "curve", "--omega", "2",
                          "--output", "/nonexistent/dir/report.csv")
    assert code == 74
    assert "cannot write" in err
