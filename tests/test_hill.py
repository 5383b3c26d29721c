"""Spectra of the linearized operators and the companion-solution constant."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cqnls import fourier, hill, waves
from cqnls.errors import (
    ConfigError,
    ContractError,
    DegenerateError,
    NumericError,
)

from conftest import TWO_PI
from oracles import (
    collocation_matrix,
    companion_by_ivp,
    second_derivative_matrix,
    sign_changes,
    spectrum_by_eager_lift,
    theta_by_rk4_loop,
)

# leading eigenvalues at (L, omega, N) = (2 pi, 2, 256), frozen
L1_LOW = [-11.391713037069591, 0.0, 2.143311806416148, 3.882714, 4.089495]
L2_LOW = [0.0, 2.4159414434692192, 2.692481, 5.265804]


def test_sym_eig_known_matrix():
    evals, evecs = hill.sym_eig([[2.0, 1.0], [1.0, 2.0]])
    assert evals == pytest.approx([1.0, 3.0], abs=1e-14)
    assert np.allclose(np.abs(evecs[:, 0]), [math.sqrt(0.5)] * 2, atol=1e-14)


def test_sym_eig_random_matrix():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    mat = 0.5 * (a + a.T)
    evals, evecs = hill.sym_eig(mat)
    assert np.all(np.diff(evals) >= 0)
    assert np.max(np.abs(evecs @ np.diag(evals) @ evecs.T - mat)) <= 1e-12 * 40


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ContractError):
        hill.sym_eig([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        hill.sym_eig(np.zeros((3, 2)))


def test_potential_values(ref_wave):
    wp, prof = ref_wave
    phi2 = prof.phi ** 2
    v1 = hill.potential_values("L1", wp, prof)
    v2 = hill.potential_values("L2", wp, prof)
    assert np.allclose(v1, wp.omega - 3.0 * phi2 - 5.0 * phi2 ** 2,
                       rtol=0, atol=1e-13)
    assert np.allclose(v2, wp.omega - phi2 - phi2 ** 2, rtol=0, atol=1e-13)
    with pytest.raises(ConfigError):
        hill.potential_values("L3", wp, prof)


def test_collocation_matrix_structure(ref_wave):
    wp, prof = ref_wave
    mat = collocation_matrix("L2", wp, prof)
    assert np.array_equal(mat, mat.T)
    ref = -second_derivative_matrix(prof.L, prof.N)
    off = mat - np.diag(hill.potential_values("L2", wp, prof))
    assert np.array_equal(off, ref)


def test_constant_potential_shifts_spectrum():
    N, L, c = 32, TWO_PI, 1.7
    base = -second_derivative_matrix(L, N)
    shifted, _ = hill.sym_eig(base + c * np.eye(N))
    plain, _ = hill.sym_eig(base)
    assert np.max(np.abs(shifted - (plain + c))) <= 1e-10


def test_amplitude_channel_structure(ref_spectra):
    r1, _ = ref_spectra
    assert r1.kind == "L1"
    assert r1.n_negative == 1
    assert r1.zero_index == 1
    assert r1.zero_match_error <= 1e-10
    for frozen, got in zip(L1_LOW, r1.eigenvalues):
        assert got == pytest.approx(frozen, rel=1e-6, abs=1e-9)
    assert r1.eigenvalues[0] == pytest.approx(L1_LOW[0], rel=1e-12)
    assert r1.eigenvalues[2] == pytest.approx(L1_LOW[2], rel=1e-11)
    # even nodeless ground state; odd kernel with exactly two sign changes
    assert r1.parity[0] == "even"
    assert r1.parity[1] == "odd"
    assert sign_changes(r1.eigenvectors[:, 0]) == 0
    assert sign_changes(r1.eigenvectors[:, 1]) == 2


def test_phase_channel_structure(ref_spectra):
    _, r2 = ref_spectra
    assert r2.kind == "L2"
    assert r2.n_negative == 0
    assert r2.zero_index == 0
    assert r2.zero_match_error <= 1e-10
    for frozen, got in zip(L2_LOW, r2.eigenvalues):
        assert got == pytest.approx(frozen, rel=1e-6, abs=1e-9)
    assert r2.eigenvalues[1] == pytest.approx(L2_LOW[1], rel=1e-11)
    # ground state is the positive profile itself
    assert r2.parity[0] == "even"
    vec = r2.eigenvectors[:, 0]
    assert np.all(vec > 0) or np.all(vec < 0)
    # the rest of the spectrum stays bounded away from zero
    assert r2.eigenvalues[1] > 1e-3 * r2.wp.omega


def test_spectra_parity_is_pure(ref_spectra):
    for rep in ref_spectra:
        assert set(rep.parity) <= {"even", "odd"}
        # the reflection splits N grid points into N/2 + 1 even and
        # N/2 - 1 odd basis functions
        N = rep.eigenvectors.shape[0]
        assert rep.parity.count("even") == N // 2 + 1
        assert rep.parity.count("odd") == N // 2 - 1


def _reflection_signs(rep):
    # +1 for columns that are exactly reflection-symmetric, -1 for exactly
    # antisymmetric ones, 0 for anything else
    vecs = rep.eigenvectors
    mirror = (-np.arange(vecs.shape[0])) % vecs.shape[0]
    signs = []
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        signs.append(1 if np.array_equal(v[mirror], v)
                     else -1 if np.array_equal(v[mirror], -v) else 0)
    return signs


@pytest.mark.parametrize("omega, N", [(2.0, 256), (8.0, 512)])
@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_parity_blocks_match_full_solve(kind, omega, N):
    op = (kind, *waves.build_wave(TWO_PI, omega, N))
    rep = hill.spectrum_report(*op)
    full = np.linalg.eigh(collocation_matrix(*op))[0]
    scale = np.max(np.abs(full))
    assert np.max(np.abs(rep.eigenvalues - full)) <= 1e-12 * scale
    expected = [1 if label == "even" else -1 for label in rep.parity]
    assert _reflection_signs(rep) == expected


@pytest.mark.parametrize("omega, N", [(2.0, 128), (10.0, 256)])
def test_even_solve_matches_full_collocation_solve(omega, N):
    wp, prof = waves.build_wave(TWO_PI, omega, N)
    # the full operator is singular along phi'; border it by u . phi' = 0
    bordered = np.zeros((N + 1, N + 1))
    bordered[:N, :N] = collocation_matrix("L1", wp, prof)
    bordered[:N, N] = bordered[N, :N] = prof.dphi
    full = np.linalg.solve(bordered, np.append(-prof.phi, 0.0))[:N]
    u = hill.solve_even("L1", wp, prof, -prof.phi)
    assert np.max(np.abs(u - full)) <= 1e-10 * np.max(np.abs(full))
    assert np.array_equal(u, u[(-np.arange(N)) % N])


def test_even_solve_rejects_an_odd_right_side(ref_wave):
    # the even block cannot represent an odd part, and the residual says so
    with pytest.raises(ContractError):
        hill.solve_even("L1", *ref_wave, ref_wave[1].dphi)


def _flat(wp, prof):
    # zero profile: the potential is the constant omega
    return wp, waves.Profile(L=prof.L, N=prof.N, x=prof.x, phi=np.zeros(prof.N),
                             dphi=np.zeros(prof.N))


def test_degenerate_spectrum_splits_into_parity_blocks(ref_wave):
    # a zero profile leaves the constant potential omega, so every cosine
    # mode is exactly degenerate with its sine partner
    wp, flat = _flat(*ref_wave)
    N, L = flat.N, flat.L
    for kind in ("L1", "L2"):
        rep = hill.spectrum_report(kind, wp, flat)
        assert rep.parity.count("even") == N // 2 + 1
        assert rep.parity.count("odd") == N // 2 - 1
        expected = [1 if label == "even" else -1 for label in rep.parity]
        assert _reflection_signs(rep) == expected
        modes = np.concatenate([np.arange(N // 2 + 1), np.arange(1, N // 2)])
        exact = np.sort(wp.omega + (2.0 * math.pi * modes / L) ** 2)
        assert np.max(np.abs(rep.eigenvalues - exact)) <= 1e-12 * exact[-1]


@pytest.mark.parametrize("omega, N, flat", [
    (2.0, 256, False), (8.0, 512, False), (2.0, 256, True)])
@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_block_form_matches_eager_lift(kind, omega, N, flat):
    # the report keeps the eigenpairs in block form and lifts them on first
    # read; every field equals the former eager lift bit for bit
    wave = waves.build_wave(TWO_PI, omega, N)
    wp, prof = _flat(*wave) if flat else wave
    rep = hill.spectrum_report(kind, wp, prof)
    ref = spectrum_by_eager_lift(kind, wp, prof)
    assert "eigenvectors" not in vars(rep)
    assert np.array_equal(rep.eigenvectors, ref["eigenvectors"])
    assert rep.eigenvectors is rep.eigenvectors
    assert np.array_equal(rep.eigenvalues, ref["eigenvalues"])
    assert rep.parity == ref["parity"]
    assert rep.zero_index == ref["zero_index"]
    assert np.array_equal(rep.zero_match_error, ref["zero_match_error"], equal_nan=True)
    assert ref["gram_defect"] <= 1e-10
    # the block check sees the full Gram defect up to rounding
    assert rep.orthonormality_defect <= 1e-10
    assert abs(rep.orthonormality_defect - ref["gram_defect"]) <= 4.0 * np.finfo(float).eps


def test_orthonormality_defect_is_the_block_maximum(ref_spectra):
    for rep in ref_spectra:
        defects = [np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) for v in rep.block_vectors]
        assert rep.orthonormality_defect == max(defects)


def test_block_orthonormality_check_fires(ref_wave, monkeypatch):
    # odd block eigenvectors off unit length by 1e-9 give a defect of 2e-9
    exact = hill.sym_eig

    def skewed(matrix):
        evals, evecs = exact(matrix)
        odd = len(evals) < ref_wave[1].N // 2
        return evals, (evecs * (1.0 + 1e-9) if odd else evecs)

    monkeypatch.setattr(hill, "sym_eig", skewed)
    with pytest.raises(NumericError, match="orthonormality defect"):
        hill.spectrum_report("L1", *ref_wave)


def test_spectrum_report_memory_peak():
    # block form: no N x N matrix until eigenvectors is read.  Measured at
    # N = 512: 3.06 MiB; 4.1 MiB with an eager lift, 8.0 MiB with the lift
    # and the full N x N Gram check
    wp, prof = waves.build_wave(TWO_PI, 8.0, 512)
    hill.spectrum_report("L2", wp, prof)  # caches -D2 on the blocks
    tracemalloc.start()
    try:
        rep = hill.spectrum_report("L1", wp, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_negative == 1
    assert peak <= 3.5 * 2**20


def test_oscillation_counts_phase_channel(ref_spectra):
    _, r2 = ref_spectra
    for j in range(7):
        expected = 2 * ((j + 1) // 2)
        assert sign_changes(r2.eigenvectors[:, j]) == expected


def test_eigenvectors_orthonormal_under_trapezoid(ref_spectra):
    r1, _ = ref_spectra
    L = r1.wp.L
    v = r1.eigenvectors
    for i, j in ((0, 0), (3, 3), (0, 2), (1, 4)):
        inner = fourier.trapezoid(v[:, i] * v[:, j], L)
        assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)


def test_combined_counts(ref_spectra):
    r1, r2 = ref_spectra
    counts = hill.combined_counts(r1, r2)
    assert counts.n_negative == 1
    assert counts.zero_multiplicity == 2
    assert counts.n_negative_even == 1
    assert counts.zero_multiplicity_even == 1


def test_combined_counts_contract_errors(ref_spectra):
    r1, r2 = ref_spectra
    with pytest.raises(ContractError):
        hill.combined_counts(r2, r1)
    other = waves.build_wave(TWO_PI, 1.0, 256)
    r2_other = hill.spectrum_report("L2", *other)
    with pytest.raises(ContractError):
        hill.combined_counts(r1, r2_other)


def test_spectrum_stability_under_refinement():
    coarse_wave = waves.build_wave(TWO_PI, 2.0, 128)
    fine_wave = waves.build_wave(TWO_PI, 2.0, 256)
    for kind in ("L1", "L2"):
        coarse = hill.spectrum_report(kind, *coarse_wave)
        fine = hill.spectrum_report(kind, *fine_wave)
        diff = np.abs(coarse.eigenvalues[:5] - fine.eigenvalues[:5])
        assert np.max(diff) <= 1e-8


def test_sign_changes_counter():
    assert sign_changes([1.0, 1.0, 1.0]) == 0
    assert sign_changes([1.0, -1.0, 1.0, -1.0]) == 4
    x = np.sin(2.0 * np.pi * np.arange(64) / 64)
    assert sign_changes(x) == 2
    # near-zero samples do not flip the count
    assert sign_changes([1.0, 1e-12, -1.0, 1.0]) == 2


def test_theta_reference_value(ref_wave):
    wp, _ = ref_wave
    theta = hill.theta_constant(wp)
    assert theta == pytest.approx(-271.3542123500556, rel=1e-9)
    assert theta < 0.0


def test_theta_against_adaptive_oracle(ref_wave):
    wp, prof = ref_wave

    def potential(x):
        p2 = waves.profile_value(wp, x) ** 2
        return wp.omega - 3.0 * p2 - 5.0 * p2 * p2

    phi0 = math.sqrt(wp.alpha3)
    _, z_end = companion_by_ivp(wp.omega, wp.L, phi0, potential)
    ddphi0 = wp.omega * phi0 - phi0 ** 3 - phi0 ** 5
    assert hill.theta_constant(wp) == pytest.approx(z_end / ddphi0, rel=1e-8)


def test_theta_slope_identity(ref_wave):
    # dT/dB = -theta/2 at the reference wave
    wp, _ = ref_wave
    theta = hill.theta_constant(wp)
    hB = min(1e-6, 0.1 * abs(wp.B))
    slope = (waves.period_of_B(wp.B + hB, wp.omega)
             - waves.period_of_B(wp.B - hB, wp.omega)) / (2.0 * hB)
    assert abs(slope + 0.5 * theta) <= 1e-6 * abs(theta)


@pytest.mark.parametrize("L, omega, steps", [
    (TWO_PI, 2.0, 100_000),
    (TWO_PI, 8.0, 100_003),
    (TWO_PI, 9.9, 100_000),
    (2.0 * TWO_PI, 2.0, 100_001),
    (1.5 * TWO_PI, 8.0 / 2.25, 100_489),
])
def test_theta_matches_sequential_loop(L, omega, steps):
    # the sequential loop at five times theta's steps or more has a step
    # error far below theta's own, so it bounds theta's RK4 error
    wp, _ = waves.build_wave(L, omega, 64)
    ref = theta_by_rk4_loop(wp, steps)
    assert abs(hill.theta_constant(wp) - ref) <= 1e-12 * abs(ref)


def test_theta_wronskian_check_fires(ref_wave):
    # a frequency off by 1e-4 makes phi' no solution of the Hill equation:
    # the drift is 5.1e-2 against a bound of 5.5e-4
    wp, _ = ref_wave
    with pytest.raises(NumericError, match="Wronskian drift"):
        hill.theta_constant(replace(wp, omega=wp.omega * 1.0001))


def test_theta_rejects_equilibrium(ref_wave):
    wp, _ = ref_wave
    lo, _ = waves.alpha_bounds(wp.omega)
    with pytest.raises(DegenerateError):
        hill.theta_constant(replace(wp, alpha3=lo))
