"""Tests of the benchmark itself: seeded inputs, checks, tracing, repeatability.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ALLOWED_FLAGS = {"--L", "--omega", "--N", "--dt", "--t-end", "--delta",
                 "--perturbation", "--seed", "--format", "--output"}
EXACT = ("waves.period_map.per_solve", "curve.cache_hit_ratio", "evolve.steps",
         "hill.sym_eig.dim", "elliptic.complete_K.calls", "curve.curve_sample.calls",
         "evolve.orbital_distance.calls", "hill.theta_constant.steps",
         "elliptic.jacobi.points", "cli.report_bytes")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_round_is_seeded_and_inside_the_domain(workload):
    ops = workloads.make_round(workload, 3)
    assert ops == workloads.make_round(workload, 3)
    assert ops != workloads.make_round(workload, 4)
    assert sum(op.probe for op in ops) == len(workloads.PROBES[workload])
    for op in ops:
        flags = set(op.argv[1::2])
        assert flags <= ALLOWED_FLAGS, op.argv
        assert op.argv[-4:] == ("--format", "json", "--output", "-")
        L = float(op.argv[2])
        assert workloads.L_RANGE[0] <= L <= workloads.L_RANGE[1]
        omegas = [float(x) for x in op.argv[4].split(":")[:2]]
        for omega in omegas:
            s = omega * (L / workloads.TWO_PI) ** 2
            assert workloads.S_RANGE[0] <= s <= workloads.S_RANGE[1] * (1 + 1e-12)
        if op.kind == "audit":
            lo, hi = omegas
            assert math.isclose(hi - lo, workloads.AUDIT_WIDTH, rel_tol=1e-9)


def _report(**fields):
    return json.dumps(fields)


def _op(kind):
    return next(op for w in workloads.WORKLOADS
                for op in workloads.make_round(w, 1) if op.kind == kind)


@pytest.mark.parametrize("kind, report", [
    ("spectrum", _report(combined={"n_negative": 2, "zero_multiplicity": 2,
                                   "n_negative_even": 1, "zero_multiplicity_even": 1})),
    ("theta", _report(sign_link_holds=False, relative_mismatch=1e-9)),
    ("audit", _report(rows=[{"omega": 1.0, "status": "ok", "d2_route_reldiff": 1e-8},
                            {"omega": 1.001, "status": "fail", "d2_route_reldiff": 1e-8}])),
    ("curve", _report(rows=[{"omega": 1.0, "status": "error"}])),
    ("stability", _report(summary={"mass_drift": 1e-6, "max_dist": 1e-6})),
    ("stability", _report(summary={"mass_drift": 1e-13, "max_dist": 10.0})),
    ("evolve", _report(summary={"max_sup_error": 1.0})),
    ("evolve", "not json"),
    ("theta", _report(theta=-1.0)),
])
def test_check_rejects_bad_reports(kind, report):
    error, _ = workloads.check(_op(kind), 0, report)
    assert error is not None


def test_check_rejects_nonzero_exit():
    error, _ = workloads.check(_op("theta"), 2, _report(sign_link_holds=True))
    assert error == "exit code 2"


def test_tracer_patches_every_binding_and_restores_them():
    cli, _, error = run.setup("spectral")
    assert error is None
    import cqnls
    import cqnls.curve
    import cqnls.waves

    original = cqnls.waves.build_wave
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        wrapped = cqnls.waves.build_wave
        assert wrapped is not original
        assert cqnls.build_wave is wrapped and cqnls.curve.build_wave is wrapped
        tracer.op = 0
        code, _, _ = run.invoke(cli, workloads.PROBES["spectral"][0].argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert cqnls.waves.build_wave is original and cqnls.curve.build_wave is original
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[0] == "cli.main" and spans["parent"][0] == -1
    assert "hill.sym_eig" in names
    assert (spans["self"] >= -1e-9).all()
    assert math.isclose(spans["self"].sum(), spans["duration"][0], rel_tol=1e-9)


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _table(stdout):
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            rows[parts[0]] = float(parts[1])
    return rows


def _declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_untraced_result_line_has_every_end_to_end_metric():
    proc = _bench("--workload", "curve_audit", "--seed", "2", "--seconds", "0",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    table = _table(proc.stdout)
    assert set(run.TABLE_ONLY) <= set(table)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_exact_counts_and_err_max(workload):
    outputs = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0",
                      "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == _declared("per_layer")
        outputs.append((result["metrics"], _table(proc.stdout)))
    (first, first_table), (second, second_table) = outputs
    for name in EXACT:
        assert first[name] == second[name], name
    assert first_table["err_max"] == second_table["err_max"]
    assert first_table["err_max"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "evolve", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
