"""Shared fixtures and the acceptance-report terminal hook."""

from __future__ import annotations

import math

import pytest

from cqnls import build_wave, hill

TWO_PI = 2.0 * math.pi

# Standard frequency sweep used across the suite.
SWEEP = (0.5, 1.0, 2.0, 5.0, 10.0)

# One printed line per acceptance criterion, shown after the test run.
ACCEPTANCE_LINES: list[str] = []


def record_criterion(name: str, passed: bool, detail: str = "",
                     expected_failure: bool = False) -> None:
    """Register a pass/fail line for the end-of-run acceptance report."""
    if passed:
        tag = "PASS"
    elif expected_failure:
        tag = "FAIL (expected)"
    else:
        tag = "FAIL"
    line = f"{tag}: {name}" + (f" -- {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ref_wave():
    """Reference wave at (L, omega, N) = (2*pi, 2, 256)."""
    return build_wave(TWO_PI, 2.0, 256)


@pytest.fixture(scope="session")
def ref_spectra(ref_wave):
    """Spectral reports for both linearization channels at the reference wave."""
    wp, prof = ref_wave
    r1 = hill.spectrum_report("L1", wp, prof)
    r2 = hill.spectrum_report("L2", wp, prof)
    return r1, r2
