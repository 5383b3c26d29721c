"""Spectra of the linearized operators and the companion-solution constant."""

import dataclasses
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cqnls import cli, curve, fourier, hill, waves
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
    folded_d2_by_fancy_index,
    parity_blocks_by_average,
    second_derivative_matrix,
    sign_changes,
    spectrum_by_eager_lift,
    theta_by_rk4_loop,
    zero_match_by_grid_lift,
)

# leading eigenvalues at (L, omega, N) = (2 pi, 2, 256), frozen
L1_LOW = [-11.391713037069591, 0.0, 2.143311806416148, 3.882714, 4.089495]
L2_LOW = [0.0, 2.4159414434692192, 2.692481, 5.265804]


def test_sym_eig_known_matrix():
    evals, trace_defect, frob_defect = hill.sym_eig([[2.0, 1.0], [1.0, 2.0]])
    assert evals == pytest.approx([1.0, 3.0], abs=1e-14)
    assert trace_defect <= 1e-15 and frob_defect <= 1e-15


def test_sym_eig_random_matrix():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    mat = 0.5 * (a + a.T)
    evals, trace_defect, frob_defect = hill.sym_eig(mat)
    assert np.all(np.diff(evals) >= 0)
    assert max(trace_defect, frob_defect) <= 1e-12
    # the eigenvalues rebuild the matrix on an independent eigenvector basis
    evecs = np.linalg.eigh(mat)[1]
    assert np.max(np.abs(evecs @ np.diag(evals) @ evecs.T - mat)) <= 1e-12 * 40


def test_sym_eig_identity_check_fires(ref_wave, monkeypatch):
    # one eigenvalue of a parity block off by 1e-9 ||M|| moves the trace by
    # 2e-11 of sum |lambda|, against a bound of 1e-12
    exact = np.linalg.eigvalsh

    def skewed(matrix):
        evals = exact(matrix).copy()
        evals[0] += 1e-9 * np.max(np.abs(evals))
        return evals

    monkeypatch.setattr(np.linalg, "eigvalsh", skewed)
    with pytest.raises(NumericError, match="identity defects"):
        hill.spectrum_report("L1", *ref_wave)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ContractError):
        hill.sym_eig([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        hill.sym_eig(np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sym_eig_rejects_nonfinite_input(bad):
    # rejected before the symmetry defect, where inf - inf would warn
    with pytest.raises(NumericError, match="nonfinite"):
        hill.sym_eig([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericError, match="nonfinite"):
        hill.sym_eig([[0.0, bad], [bad, 1.0]])


def test_sym_eig_identity_check_fires_on_nan(monkeypatch):
    exact = np.linalg.eigvalsh

    def poisoned(matrix):
        evals = exact(matrix).copy()
        evals[-1] = math.nan
        return evals

    monkeypatch.setattr(np.linalg, "eigvalsh", poisoned)
    with pytest.raises(NumericError, match="identity defects"):
        hill.sym_eig([[2.0, 1.0], [1.0, 2.0]])


def test_sym_eig_solves_exact_symmetry_and_rejects_skew():
    # an exactly symmetric matrix is solved as it is, bit for bit; a
    # 1e-13 asymmetry is a ContractError naming the defect, never
    # symmetrized
    rng = np.random.default_rng(7)
    a = rng.standard_normal((60, 60))
    mat = a + a.T
    assert np.array_equal(mat, mat.T)
    evals, trace_defect, frob_defect = hill.sym_eig(mat)
    assert np.array_equal(evals, np.linalg.eigvalsh(mat))
    assert max(trace_defect, frob_defect) <= 1e-12
    skew = mat.copy()
    skew[3, 17] += 1e-13
    with pytest.raises(ContractError, match="not symmetric: defect 1.0"):
        hill.sym_eig(skew)


@pytest.mark.parametrize("N", [64, 256, 512])
@pytest.mark.parametrize("L", [1e-3, TWO_PI, 1.5 * TWO_PI, 1e3])
def test_folded_d2_matches_fancy_index(L, N):
    # sliding windows of the column gather the same entries as index arrays
    blocks = hill._folded_d2(L, N)
    for block, ref in zip(blocks, folded_d2_by_fancy_index(L, N)):
        assert np.array_equal(block, ref)
        assert block.shape == ref.shape
        assert not block.flags.writeable


def test_potential_values(ref_wave):
    wp, prof = ref_wave
    phi2 = prof.phi ** 2
    v1 = hill._potential("L1", wp.omega, prof.phi)
    v2 = hill._potential("L2", wp.omega, prof.phi)
    assert np.allclose(v1, wp.omega - 3.0 * phi2 - 5.0 * phi2 ** 2,
                       rtol=0, atol=1e-13)
    assert np.allclose(v2, wp.omega - phi2 - phi2 ** 2, rtol=0, atol=1e-13)
    with pytest.raises(ConfigError):
        hill._potential("L3", wp.omega, prof.phi)


def test_collocation_matrix_structure(ref_wave):
    wp, prof = ref_wave
    mat = collocation_matrix("L2", wp, prof)
    assert np.array_equal(mat, mat.T)
    ref = -second_derivative_matrix(prof.L, prof.N)
    off = mat - np.diag(hill._potential("L2", wp.omega, prof.phi))
    assert np.array_equal(off, ref)


def test_constant_potential_shifts_spectrum():
    N, L, c = 32, TWO_PI, 1.7
    base = -second_derivative_matrix(L, N)
    shifted = hill.sym_eig(base + c * np.eye(N))[0]
    plain = hill.sym_eig(base)[0]
    assert np.max(np.abs(shifted - (plain + c))) <= 1e-10


def test_amplitude_channel_structure(ref_wave, ref_spectra):
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
    assert r1.even[0]
    assert not r1.even[1]
    ref = spectrum_by_eager_lift("L1", *ref_wave)
    assert np.array_equal(ref["even"][:2], r1.even[:2])
    assert sign_changes(ref["eigenvectors"][:, 0]) == 0
    assert sign_changes(ref["eigenvectors"][:, 1]) == 2


def test_phase_channel_structure(ref_wave, ref_spectra):
    _, r2 = ref_spectra
    assert r2.kind == "L2"
    assert r2.n_negative == 0
    assert r2.zero_index == 0
    assert r2.zero_match_error <= 1e-10
    for frozen, got in zip(L2_LOW, r2.eigenvalues):
        assert got == pytest.approx(frozen, rel=1e-6, abs=1e-9)
    assert r2.eigenvalues[1] == pytest.approx(L2_LOW[1], rel=1e-11)
    # ground state is the positive profile itself
    assert r2.even[0]
    ref = spectrum_by_eager_lift("L2", *ref_wave)
    assert ref["even"][0]
    vec = ref["eigenvectors"][:, 0]
    assert np.all(vec > 0) or np.all(vec < 0)
    # the rest of the spectrum stays bounded away from zero
    assert r2.eigenvalues[1] > 1e-3 * r2.wp.omega


def test_spectra_parity_is_pure(ref_spectra):
    for rep in ref_spectra:
        assert rep.even.dtype == bool and rep.even.shape == rep.eigenvalues.shape
        # the reflection splits N grid points into N/2 + 1 even and
        # N/2 - 1 odd basis functions
        N = rep.eigenvalues.size
        assert np.count_nonzero(rep.even) == N // 2 + 1
        assert np.count_nonzero(~rep.even) == N // 2 - 1


def _reflection_signs(vecs):
    # +1 for columns that are exactly reflection-symmetric, -1 for exactly
    # antisymmetric ones, 0 for anything else
    mirror = (-np.arange(vecs.shape[0])) % vecs.shape[0]
    signs = []
    for col in range(vecs.shape[1]):
        v = vecs[:, col]
        signs.append(1 if np.array_equal(v[mirror], v)
                     else -1 if np.array_equal(v[mirror], -v) else 0)
    return signs


def _assert_same_parity(rep, ref):
    # eigvalsh and eigh may order a near-degenerate cos/sin pair
    # differently, and only such a pair
    scale = np.max(np.abs(ref["eigenvalues"]))
    assert np.array_equal(rep.even[:10], ref["even"][:10])
    for i in np.flatnonzero(rep.even != ref["even"]):
        gap = np.min(np.abs(np.delete(rep.eigenvalues, i) - rep.eigenvalues[i]))
        assert gap <= 1e-14 * scale


@pytest.mark.parametrize("omega, N", [(2.0, 256), (8.0, 512)])
@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_parity_blocks_match_full_solve(kind, omega, N):
    op = (kind, *waves.build_wave(TWO_PI, omega, N))
    rep = hill.spectrum_report(*op)
    full = np.linalg.eigh(collocation_matrix(*op))[0]
    scale = np.max(np.abs(full))
    assert np.max(np.abs(rep.eigenvalues - full)) <= 1e-12 * scale
    # the labels are the reflection parities of the block eigenvectors
    ref = spectrum_by_eager_lift(*op)
    _assert_same_parity(rep, ref)
    expected = np.where(ref["even"], 1, -1).tolist()
    assert _reflection_signs(ref["eigenvectors"]) == expected


@pytest.mark.parametrize("N", [64, 256, 512])
@pytest.mark.parametrize("L", [TWO_PI, 2.0 * TWO_PI])
def test_parity_blocks_read_the_half_period(L, N):
    # a built profile is even bit for bit, so the potential on the half
    # period gives the blocks of its former mirror average, every bit
    for s in (0.75, 4.0, 8.0):
        wp, prof = waves.build_wave(L, s / (L / TWO_PI) ** 2, N)
        assert np.array_equal(prof.phi[1:], prof.phi[:0:-1])
        for kind in ("L1", "L2"):
            blocks = hill._parity_blocks(kind, wp, prof)
            for block, ref in zip(blocks, parity_blocks_by_average(kind, wp, prof),
                                  strict=True):
                assert np.array_equal(block, ref), (kind, s)


def _tangent(wp, prof):
    # the curve's tangent, the even solution of L1 u = -phi, in closed form
    (u,), (error,) = curve._tangent_rows([wp], prof.phi[None], prof.dphi[None], prof.L)
    return u, error


@pytest.mark.parametrize("omega, N", [(2.0, 128), (10.0, 256)])
def test_even_solve_matches_full_collocation_solve(omega, N):
    wp, prof = waves.build_wave(TWO_PI, omega, N)
    # the full operator is singular along phi'; border it by u . phi' = 0
    bordered = np.zeros((N + 1, N + 1))
    bordered[:N, :N] = collocation_matrix("L1", wp, prof)
    bordered[:N, N] = bordered[N, :N] = prof.dphi
    full = np.linalg.solve(bordered, np.append(-prof.phi, 0.0))[:N]
    u, error = _tangent(wp, prof)
    assert error is None
    # 5.4e-14 at (2.0, 128); 3.0e-10 at (10.0, 256), where 1 - m = 3.8e-8
    # and the closed form's parameters carry the modulus rounding
    assert np.max(np.abs(u - full)) <= 1e-9 * np.max(np.abs(full))
    # even up to rounding
    assert np.max(np.abs(u - u[(-np.arange(N)) % N])) <= 1e-12 * np.max(np.abs(u))


def test_even_solve_rejects_a_wrong_level_set(ref_wave):
    # a level constant off by 1e-5 relative builds the tangent of another
    # curve point, and the residual says so
    wp, prof = ref_wave
    _, error = _tangent(replace(wp, B=wp.B * (1.0 + 1e-5)), prof)
    assert isinstance(error, ContractError)
    assert "tangent residual" in str(error)


def test_even_solve_rejects_a_nan_row(ref_wave):
    # a NaN sample gives a NaN residual, which fails its bound; the other
    # row keeps the bits it has alone
    wp, prof = ref_wave
    phi = np.stack([prof.phi, prof.phi])
    phi[1, 5] = math.nan
    u, (good, bad) = curve._tangent_rows([wp, wp], phi, np.stack([prof.dphi, prof.dphi]),
                                         prof.L)
    assert good is None
    assert isinstance(bad, ContractError)
    assert np.array_equal(u[0], _tangent(wp, prof)[0])


def _flat(wp, prof):
    # zero profile: the potential is the constant omega
    return wp, waves.Profile(L=prof.L, N=prof.N, phi=np.zeros(prof.N),
                             dphi=np.zeros(prof.N))


def test_degenerate_spectrum_splits_into_parity_blocks(ref_wave):
    # a zero profile leaves the constant potential omega, so every cosine
    # mode is exactly degenerate with its sine partner
    wp, flat = _flat(*ref_wave)
    N, L = flat.N, flat.L
    for kind in ("L1", "L2"):
        rep = hill.spectrum_report(kind, wp, flat)
        assert np.count_nonzero(rep.even) == N // 2 + 1
        assert np.count_nonzero(~rep.even) == N // 2 - 1
        ref = spectrum_by_eager_lift(kind, wp, flat)
        _assert_same_parity(rep, ref)
        expected = np.where(ref["even"], 1, -1).tolist()
        assert _reflection_signs(ref["eigenvectors"]) == expected
        modes = np.concatenate([np.arange(N // 2 + 1), np.arange(1, N // 2)])
        exact = np.sort(wp.omega + (2.0 * math.pi * modes / L) ** 2)
        assert np.max(np.abs(rep.eigenvalues - exact)) <= 1e-12 * exact[-1]


@pytest.mark.parametrize("omega, N, flat", [
    (2.0, 256, False), (8.0, 512, False), (2.0, 256, True)])
@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_block_form_matches_eager_lift(kind, omega, N, flat):
    # the report solves eigenvalues and one kernel vector; eigh on the same
    # blocks, with every eigenvector lifted, gives the same spectrum
    wave = waves.build_wave(TWO_PI, omega, N)
    wp, prof = _flat(*wave) if flat else wave
    rep = hill.spectrum_report(kind, wp, prof)
    ref = spectrum_by_eager_lift(kind, wp, prof)
    # eigvalsh and eigh agree to rounding, measured <= 2.6e-15 ||M||
    scale = np.max(np.abs(ref["eigenvalues"]))
    assert np.max(np.abs(rep.eigenvalues - ref["eigenvalues"])) <= 1e-14 * scale
    _assert_same_parity(rep, ref)
    assert rep.zero_index == ref["zero_index"]
    if math.isnan(ref["zero_match_error"]):
        assert math.isnan(rep.zero_match_error) and math.isnan(rep.kernel_residual)
    else:
        assert rep.zero_match_error <= ref["zero_match_error"] + 1e-12
        assert rep.kernel_residual <= 1e-14
    assert max(rep.trace_defect, rep.frobenius_defect) <= 1e-14
    assert ref["gram_defect"] <= 1e-10


@pytest.mark.parametrize("L, omega, N", [
    (TWO_PI, 2.0, 256), (TWO_PI, 8.0, 512), (1.5 * TWO_PI, 7.11, 512),
    (2.0 * TWO_PI, 0.1875, 512)])
@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_block_zero_match_agrees_with_grid_lift(kind, L, omega, N):
    # the fold is orthonormal, so matching in block coordinates differs
    # from the former grid comparison only by the analytic element's
    # wrong-parity rounding part, measured <= 1.3e-14
    wave = waves.build_wave(L, omega, N)
    rep = hill.spectrum_report(kind, *wave)
    assert abs(rep.zero_match_error - zero_match_by_grid_lift(kind, *wave)) <= 1e-13


def _odd_kernel_start(prof):
    # phi' on indices 1 .. N/2 - 1, in the odd block's coordinates
    return prof.dphi[1:prof.N // 2] / hill._fold(prof.N)[1:-1]


def test_kernel_residual_check_fires(ref_wave):
    # inverse iteration shifted 1e-3 off the zero eigenvalue still finds
    # its vector, but the pair residual 1e-3 exceeds 1e-9 ||M|| = 1.6e-5
    wp, prof = ref_wave
    odd = hill._parity_blocks("L1", wp, prof)[1]
    evals = hill.sym_eig(odd)[0]
    scale = float(np.max(np.abs(evals)))
    start = _odd_kernel_start(prof)
    resid = hill._kernel_vector(odd, float(evals[0]), scale, start)[1]
    assert resid <= 1e-14
    with pytest.raises(NumericError, match="eigenpair residual"):
        hill._kernel_vector(odd, float(evals[0]) + 1e-3, scale, start)


def test_kernel_vector_rejects_a_nan_block(ref_wave):
    wp, prof = ref_wave
    odd = hill._parity_blocks("L1", wp, prof)[1]
    evals = hill.sym_eig(odd)[0]
    odd[4, 4] = math.nan
    with pytest.raises(NumericError, match="eigenpair residual nan"):
        hill._kernel_vector(odd, float(evals[0]), float(np.max(np.abs(evals))),
                            _odd_kernel_start(prof))


def test_spectrum_reads_no_eigenvector(capsys, monkeypatch):
    # a spectrum run solves eigenvalues and one kernel vector, never eigh
    calls = []
    exact = np.linalg.eigh

    def counted(matrix):
        calls.append(len(matrix))
        return exact(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert cli.main(["spectrum", "--omega", "2", "--N", "128"]) == 0
    capsys.readouterr()
    assert calls == []
    hill.spectrum_report("L1", *waves.build_wave(TWO_PI, 2.0, 128))
    assert calls == []


def test_spectrum_makes_one_solve_per_kernel_vector(capsys, monkeypatch):
    # one inverse-iteration LU for the kernel vector of each operator
    calls = []
    exact = np.linalg.solve

    def counted(matrix, rhs):
        calls.append(len(matrix))
        return exact(matrix, rhs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    assert cli.main(["spectrum", "--omega", "2", "--N", "128"]) == 0
    capsys.readouterr()
    # L1's kernel phi' is odd (63 rows), L2's kernel phi even (65 rows)
    assert calls == [63, 65]


@pytest.mark.parametrize("L", [TWO_PI, 2.0 * TWO_PI])
@pytest.mark.parametrize("s", [0.75, 8.0])
def test_spectral_corners_match_eager_route(L, s):
    # the corners of the benchmark's spectral domain, s = omega (L / 2 pi)^2
    wave = waves.build_wave(L, s * (TWO_PI / L) ** 2, 512)
    reports = {kind: hill.spectrum_report(kind, *wave) for kind in ("L1", "L2")}
    for kind, rep in reports.items():
        ref = spectrum_by_eager_lift(kind, *wave)
        assert np.array_equal(rep.even[:10], ref["even"][:10])
        assert rep.zero_index == ref["zero_index"]
        assert rep.n_negative == int(np.sum(ref["eigenvalues"] < -rep.tol_zero))
    counts = hill.combined_counts(reports["L1"], reports["L2"])
    assert dataclasses.astuple(counts) == (1, 2, 1, 1)


def test_spectrum_report_memory_peak():
    # eigenvalues and one kernel vector: no eigenvector matrix at all.
    # Measured at N = 512: 2.01 MiB; 3.06 MiB with eigh's block vectors
    # and a block Gram check, 4.1 MiB with an eager lift as well
    wp, prof = waves.build_wave(TWO_PI, 8.0, 512)
    hill.spectrum_report("L2", wp, prof)  # caches -D2 on the blocks
    tracemalloc.start()
    try:
        rep = hill.spectrum_report("L1", wp, prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_negative == 1
    assert peak <= 2.5 * 2**20


def test_oscillation_counts_phase_channel(ref_wave):
    vecs = spectrum_by_eager_lift("L2", *ref_wave)["eigenvectors"]
    for j in range(7):
        expected = 2 * ((j + 1) // 2)
        assert sign_changes(vecs[:, j]) == expected


def test_eigenvectors_orthonormal_under_trapezoid(ref_wave):
    L = ref_wave[0].L
    v = spectrum_by_eager_lift("L1", *ref_wave)["eigenvectors"]
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
    # near the solitary limit, 1 - m from 3.3e-8 down to 1.9e-10
    (20.0, 1.0, 100_000),
    (25.0, 1.0, 100_000),
    (16.0, 2.0, 100_000),
    (TWO_PI, 16.0, 100_000),
])
def test_theta_matches_sequential_loop(L, omega, steps):
    # the sequential loop over the full period, with a step five times
    # shorter than theta's or less, has a step error far below theta's
    # own, so it bounds theta's RK4 error and its half-period identity
    wp, _ = waves.build_wave(L, omega, 64)
    ref = theta_by_rk4_loop(wp, steps)
    assert abs(hill.theta_constant(wp) - ref) <= 1e-12 * abs(ref)


def test_theta_integrates_half_a_period(ref_wave, monkeypatch):
    # the profile and its slope are read once, from waves' half-period
    # reader, on the half-step points of [0, L/2] alone
    wp, _ = ref_wave
    calls = []
    exact = hill._half_period

    def counted(wps, x):
        calls.append((wps, x))
        return exact(wps, x)

    monkeypatch.setattr(hill, "_half_period", counted)
    hill.theta_constant(wp)
    ((wps, x),) = calls
    assert wps == [wp] and x.size == hill._THETA_STEPS + 1
    assert x[0] == 0.0 and x[-1] == pytest.approx(0.5 * wp.L, rel=1e-15)


@pytest.mark.parametrize("L, omega, bits", [
    (TWO_PI, 8.0, "-0x1.d1a8a990d9796p+16"),
    (TWO_PI, 9.9, "-0x1.17b002335e62fp+19"),
    (2.0 * TWO_PI, 2.0, "-0x1.e1637c8678226p+20"),
])
def test_theta_keeps_its_bits(L, omega, bits):
    # theta reads the profile alone; the slope only enters the Wronskian
    # check, so every bit is that of the former signed slope route
    wp, _ = waves.build_wave(L, omega, 64)
    assert hill.theta_constant(wp).hex() == bits


def test_theta_wronskian_check_fires_on_nan(ref_wave):
    # a NaN frequency makes a NaN drift, which fails its bound
    wp, _ = ref_wave
    with pytest.raises(NumericError, match="Wronskian drift nan"):
        hill.theta_constant(replace(wp, omega=math.nan))


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
