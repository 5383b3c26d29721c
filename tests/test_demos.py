"""Smoke runs of the demo scripts and the README library tour, each checked for a claim."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
README = DEMOS.parent / "README.md"

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


def test_readme_tour_runs(capsys):
    # the tour is the README's one fenced python block
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(tour, str(README), "exec"), {"__name__": "__main__"})
    assert ("CombinedCounts(n_negative=1, zero_multiplicity=2, n_negative_even=1, "
            "zero_multiplicity_even=1)") in capsys.readouterr().out
