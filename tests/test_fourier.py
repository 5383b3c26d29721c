"""Pseudospectral utilities: exactness on band-limited data, matrix spectra."""

import math

import numpy as np
import pytest

from cqnls import fourier
from cqnls.errors import ConfigError

from oracles import derivative_by_fresh_multiplier, second_derivative_matrix

TWO_PI = 2.0 * math.pi


def test_grid_and_wavenumbers():
    x = fourier.grid(3.0, 6)
    assert np.allclose(x, 0.5 * np.arange(6), atol=0)
    k = fourier.wavenumbers(TWO_PI, 8)
    assert np.allclose(np.sort(k), [-4, -3, -2, -1, 0, 1, 2, 3], atol=1e-15)
    assert k[0] == 0.0


def test_derivative_exact_on_trig_modes():
    N, L = 64, TWO_PI
    x = fourier.grid(L, N)
    for j in (1, 3, 7, 15):
        d = fourier.spectral_derivative(np.cos(j * x), L)
        assert np.max(np.abs(d + j * np.sin(j * x))) <= 1e-12 * j
        d2 = fourier.spectral_derivative(np.sin(j * x), L, order=2)
        assert np.max(np.abs(d2 + j * j * np.sin(j * x))) <= 1e-11 * j * j


def test_derivative_scaled_period():
    L, N = 5.0, 128
    x = fourier.grid(L, N)
    f = np.exp(np.cos(2.0 * np.pi * x / L))
    df = -2.0 * np.pi / L * np.sin(2.0 * np.pi * x / L) * f
    assert np.max(np.abs(fourier.spectral_derivative(f, L) - df)) <= 1e-12


def test_derivative_complex_input():
    L, N = TWO_PI, 64
    x = fourier.grid(L, N)
    f = np.exp(2j * x) + 0.5 * np.exp(-3j * x)
    df = 2j * np.exp(2j * x) - 1.5j * np.exp(-3j * x)
    out = fourier.spectral_derivative(f, L)
    assert np.iscomplexobj(out)
    assert np.max(np.abs(out - df)) <= 1e-13


def test_real_input_stays_real():
    rng = np.random.default_rng(11)
    f = rng.standard_normal(32)
    out = fourier.spectral_derivative(f, 1.0)
    assert out.dtype == np.float64


@pytest.mark.parametrize("L, N", [(TWO_PI, 64), (7.3, 48), (3.0, 33)])
def test_cached_multiplier_gives_bit_equal_derivatives(L, N):
    rng = np.random.default_rng(N)
    real = rng.standard_normal((2, N))
    fields = (real[0], real, real[0] + 1j * real[1])
    for order in (1, 2, 3):
        for v in fields:
            for _ in range(2):  # the first call fills the cache, the second reads it
                out = fourier.spectral_derivative(v, L, order)
                ref = derivative_by_fresh_multiplier(v, L, order)
                assert out.dtype == ref.dtype
                assert out.tobytes() == ref.tobytes(), (order, v.shape, v.dtype)


def test_cached_multiplier_is_read_only():
    for real in (True, False):
        mult = fourier._multiplier(TWO_PI, 64, 1, real)
        assert fourier._multiplier(TWO_PI, 64, 1, real) is mult
        assert not mult.flags.writeable
        with pytest.raises(ValueError):
            mult[1] = 0.0


@pytest.mark.parametrize("N", [64, 256, 512, 250])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["field", "rows"])
def test_pocketfft_gufuncs_match_the_public_transforms(N, shape):
    # evolve's split-step loop calls the gufuncs directly, into its work
    # buffers (the gufuncs need out=: their signature leaves the output
    # length free) and with the scale factors np.fft passes them; a numpy
    # that changes their signature or scaling must fail here rather than
    # shift every evolved field
    rng = np.random.default_rng(N)
    a = rng.standard_normal(shape + (N,)) + 1j * rng.standard_normal(shape + (N,))
    assert 1.0 / N == np.reciprocal(N, dtype=float)
    for gufunc, public, fct in ((fourier._pocket_fft, np.fft.fft, 1.0),
                                (fourier._pocket_ifft, np.fft.ifft, 1.0 / N)):
        ref = public(a)
        direct, public_out = np.empty_like(a), np.empty_like(a)
        assert gufunc(a, fct, out=direct) is direct
        assert public(a, out=public_out) is public_out
        for got in (direct, public_out):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), (public.__name__, shape, N)


def test_matrix_matches_fft_route():
    L, N = 7.3, 64
    x = fourier.grid(L, N)
    f = np.exp(np.sin(2.0 * np.pi * x / L))
    ref = fourier.spectral_derivative(f, L, order=2)
    assert np.max(np.abs(second_derivative_matrix(L, N) @ f - ref)) <= 1e-10


def test_matrix_symmetry_and_spectrum():
    for L, N in ((TWO_PI, 32), (3.7, 48)):
        D2 = second_derivative_matrix(L, N)
        assert np.array_equal(D2, D2.T)
        evals = np.sort(np.linalg.eigvalsh(-D2))
        expected = np.sort(np.concatenate([
            [0.0],
            np.repeat((2.0 * np.pi / L * np.arange(1, N // 2)) ** 2, 2),
            [(2.0 * np.pi / L * (N // 2)) ** 2],
        ]))
        assert np.max(np.abs(evals - expected)) <= 1e-9 * expected[-1]


def test_matrix_exact_reflection_and_shift_invariance():
    # entries depend on (i - j) mod N alone, so both symmetries hold bit
    # for bit; the spectra fold the matrix into parity blocks through them
    for L, N in ((TWO_PI, 64), (3.7, 256), (2.0 * TWO_PI, 512)):
        D2 = second_derivative_matrix(L, N)
        R = (-np.arange(N)) % N
        assert np.array_equal(D2[np.ix_(R, R)], D2)
        assert np.array_equal(np.roll(D2, (1, 1), axis=(0, 1)), D2)
        assert np.array_equal(np.roll(D2, (N // 2 - 1, N // 2 - 1), axis=(0, 1)), D2)


def test_matrix_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        second_derivative_matrix(1.0, 33)
    with pytest.raises(ConfigError):
        second_derivative_matrix(1.0, 0)


@pytest.mark.parametrize("call", [
    lambda: fourier.grid(TWO_PI, 0),
    lambda: fourier.grid(TWO_PI, -1),
    lambda: fourier.wavenumbers(TWO_PI, 0),
    lambda: fourier.spectral_derivative(np.empty(0), TWO_PI),
    lambda: fourier.trapezoid(np.empty(0), TWO_PI),
    lambda: fourier.trapezoid(np.ones(8), math.inf),
    lambda: fourier.trapezoid(np.ones(8), math.nan),
    lambda: fourier.trapezoid(np.ones(8), -1.0),
])
def test_empty_grids_and_bad_periods_are_config_errors(call):
    # N >= 1 is checked with L, before any division by N or transform
    with pytest.raises(ConfigError):
        call()


def test_trapezoid_spectral_accuracy():
    L, N = TWO_PI, 48
    x = fourier.grid(L, N)
    # exact values: mean of cos^2 is 1/2, of exp(cos) is I0(1)
    assert fourier.trapezoid(np.cos(x) ** 2, L) == pytest.approx(
        math.pi, rel=1e-14)
    i0 = float(np.i0(1.0))
    assert fourier.trapezoid(np.exp(np.cos(x)), L) == pytest.approx(
        TWO_PI * i0, rel=1e-14)


def test_trapezoid_complex():
    L, N = TWO_PI, 32
    x = fourier.grid(L, N)
    out = fourier.trapezoid(np.exp(1j * x) + 2.0, L)
    assert isinstance(out, complex)
    assert abs(out - 2.0 * TWO_PI) <= 1e-12
