"""Command-line interface: exit codes, report formats, determinism."""

import json
import math
import re

import pytest

from cqnls import __version__
from cqnls.cli import main

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


def test_curve_frequency_without_wave_keeps_its_row(capsys):
    # no period-2 pi wave exists at omega = 0.1; the sweep goes on
    code, out, err = _run(capsys, "curve", "--omega", "0.1:2:2")
    assert code == 0
    assert [ln.split(",")[-2] for ln in _data_lines(out)[1:]] == ["error", "ok"]


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


def test_audit_threshold_knob(capsys):
    code, out, err = _run(capsys, "audit", "--omega", "1.9:2.1:3",
                          "--format", "json")
    assert code == 0
    worst = max(value for row in json.loads(out)["rows"]
                for key, value in row.items() if key.startswith("ident_"))
    # a threshold below the printed residuals fails the audit
    code, out, err = _run(capsys, "audit", "--omega", "1.9:2.1:3",
                          "--max-identity-residual", repr(0.5 * worst),
                          "--format", "csv")
    assert code == 2
    assert "numeric assertion failed" in err
    assert any(ln.endswith(",fail") for ln in _data_lines(out)[1:])


@pytest.mark.parametrize("value", ["nan", "-0.5"])
def test_audit_rejects_bad_threshold(capsys, value):
    code, out, err = _run(capsys, "audit", "--omega", "2",
                          "--max-identity-residual", value)
    assert code == 1 and out == ""
    assert err.startswith("cqnls audit: --max-identity-residual")


def test_audit_single_omega(capsys):
    code, out, err = _run(capsys, "audit", "--omega", "2", "--format", "csv")
    assert code == 0
    lines = _data_lines(out)
    assert len(lines) == 2 and lines[1].endswith(",ok")


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


def test_malformed_omega_exits_1(capsys):
    code, out, err = _run(capsys, "construct", "--omega", "2:1:5")
    assert code == 1
    assert "stop > start" in err
    code, out, err = _run(capsys, "construct", "--omega", "abc")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("construct", "--L", "inf", "--omega", "2"),
    ("construct", "--L", "nan", "--omega", "2"),
    ("curve", "--omega", "nan:1:3"),
    ("curve", "--omega", "1:inf:3"),
], ids=["L_inf", "L_nan", "omega_nan_start", "omega_inf_stop"])
def test_nonfinite_period_or_frequency_exits_1(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("flag, value, word", [("--seed", "-1", "seed"),
                                               ("--delta", "nan", "perturbation size")],
                         ids=["seed", "delta"])
def test_stability_rejects_bad_seed_or_delta(capsys, flag, value, word):
    code, out, err = _run(capsys, "stability", "--omega", "2", "--t-end", "0.01",
                          "--dt", "1e-3", "--N", "64", "--perturbation", "random_even",
                          flag, value)
    assert code == 1
    assert err.startswith("cqnls stability: ") and word in err


def test_byte_determinism(capsys):
    args = ("curve", "--omega", "1.5:2.5:5")
    _, first, _ = _run(capsys, *args)
    _, second, _ = _run(capsys, *args)
    assert first == second


# small configurations; the curve sweep holds an error row and the audit
# fails an identity threshold set below its mass_rate residuals, about
# 5e-11 at N=64 (exit 2)
_SMALL = {
    "construct": ("--omega", "2", "--N", "64"),
    "curve": ("--omega", "0.3:0.5:3", "--N", "64"),
    "spectrum": ("--omega", "2", "--N", "64"),
    "theta": ("--omega", "2", "--N", "64"),
    "evolve": ("--omega", "2", "--N", "64", "--t-end", "0.01", "--dt", "1e-3"),
    "stability": ("--omega", "2", "--N", "64", "--t-end", "0.01",
                  "--dt", "1e-3", "--perturbation", "random_even"),
    "audit": ("--omega", "1.9:2.1:3", "--N", "64",
              "--max-identity-residual", "1e-12"),
}


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
def test_csv_and_json_carry_equal_numbers(capsys, subcommand):
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
