"""Smoke runs of the demo scripts, each checked for its closing claim."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# 06_evolution is left out: it takes about 4 s and calls only run_fidelity
# and run_stability, which the evolution tests already exercise.
EXPECTED = {
    "01_build_a_wave": "positive: dn-type, no nodes",
    "02_period_map": "attained period = 6.283185307180",
    "03_linearized_spectra": "even functions:  1 negative, kernel multiplicity 1",
    "04_companion_growth": "theta stays negative across the band",
    "05_stability_curvature": "orbitally stable",
    "07_solitary_limit": "build_wave(200, 2): DegenerateError",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert EXPECTED[name] in capsys.readouterr().out
