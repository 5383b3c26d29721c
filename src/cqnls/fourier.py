"""Fourier pseudospectral utilities on uniform periodic grids.

All routines assume N equispaced samples x_j = j L / N of an L-periodic
function (right endpoint excluded); every routine that takes L raises
ConfigError unless N >= 1, L is positive and 2 pi L and the top
wavenumber pi N / L squared are finite doubles.  Differentiation acts by
multiplying Fourier coefficients by (i k)^order; the circulant
second-derivative column holds the closed-form entries of trigonometric
interpolation (Trefethen, Spectral Methods in MATLAB, ch. 3), mirrored so
that the matrix it defines is exactly symmetric.

The split-step loop of `cqnls.evolve` transforms through `_pocket_fft`
and `_pocket_ifft`, pocketfft's complex transforms as numpy's gufuncs,
called as f(a, fct, out=buffer) along the last axis.  `np.fft.fft` and
`np.fft.ifft` reach the same gufuncs after their per-call argument
handling, with fct = 1 forward and fct = 1/N (one rounded division)
inverse, so direct calls with those factors round exactly as the public
functions do.  Everything else here calls the public functions.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.fft._pocketfft_umath import fft as _pocket_fft, ifft as _pocket_ifft

from .errors import ConfigError

__all__ = [
    "grid",
    "wavenumbers",
    "spectral_derivative",
    "second_derivative_column",
    "trapezoid",
]


def _check_period(L: float, N: int) -> None:
    """ConfigError unless N >= 1, L > 0 and 2 pi L and (pi N / L)^2 are finite doubles.

    A finite 2 pi L keeps every phase 2 pi x / L with x < L finite;
    pi N / L is the grid's top wavenumber.
    """
    if not N >= 1:
        raise ConfigError(f"grid size must be at least 1, got N={N!r}")
    # Python floats: an overflow is inf, never a numpy warning
    L = float(L)
    top = math.pi * float(N) / L if 0.0 < L and 2.0 * math.pi * L < math.inf else math.inf
    if not top * top < math.inf:
        raise ConfigError(
            f"period must be positive with 2 pi L and (pi N / L)^2 finite, got L={L}")


def grid(L: float, N: int) -> np.ndarray:
    """Uniform periodic grid x_j = j L / N, j = 0 .. N-1."""
    _check_period(L, N)
    return (L / N) * np.arange(N)


def wavenumbers(L: float, N: int) -> np.ndarray:
    """Signed wavenumbers 2 pi j / L in FFT ordering."""
    _check_period(L, N)
    return 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)


def spectral_derivative(values, L: float, order: int = 1) -> np.ndarray:
    """Differentiate periodic samples through the FFT, along the last axis.

    Real input stays real (rfft path).  For odd orders on an even grid the
    Nyquist mode is zeroed: its sawtooth derivative is not representable.
    """
    v = np.asarray(values)
    N = v.shape[-1]
    real = np.isrealobj(v)
    mult = _multiplier(L, N, order, real)  # checks L and N before any transform
    if real:
        return np.fft.irfft(np.fft.rfft(v) * mult, n=N)
    return np.fft.ifft(np.fft.fft(v) * mult)


@functools.lru_cache(maxsize=8)
def _multiplier(L: float, N: int, order: int, real: bool) -> np.ndarray:
    """(i k)^order on the rfft (real) or fft wavenumbers, read-only."""
    _check_period(L, N)
    if real:
        k = 2.0 * np.pi * np.fft.rfftfreq(N, d=L / N)
    else:
        k = wavenumbers(L, N)
    mult = (1j * k) ** order
    if order % 2 == 1 and N % 2 == 0:
        mult[N // 2] = 0.0  # the Nyquist mode, last of the rfft modes
    mult.flags.writeable = False
    return mult


def second_derivative_column(L: float, N: int) -> np.ndarray:
    """Even first column c of the circulant matrix D2[i, j] = c[(i - j) mod N]."""
    if N % 2 != 0 or N <= 0:
        raise ConfigError(f"differentiation matrix needs even positive N, got {N}")
    _check_period(L, N)
    h = 2.0 * np.pi / N
    # evaluate d = 1 .. N/2 once and mirror, col[N - d] = col[d], so the
    # matrix is exactly symmetric, circulant and reflection invariant
    d = np.arange(1, N // 2 + 1)
    col = np.empty(N)
    col[0] = -np.pi**2 / (3.0 * h**2) - 1.0 / 6.0
    col[1:N // 2 + 1] = -((-1.0) ** d) / (2.0 * np.sin(0.5 * h * d) ** 2)
    col[N // 2 + 1:] = col[N // 2 - 1:0:-1]
    return col * (2.0 * np.pi / L) ** 2


def trapezoid(values, L: float):
    """Periodic trapezoid rule h * sum(values), spectrally accurate for smooth data.

    One period of samples gives a float (complex for complex data); a
    2-D array gives the array of its rows' integrals.
    """
    v = np.asarray(values)
    _check_period(L, v.shape[-1])
    total = v.sum(axis=-1) * (L / v.shape[-1])
    if v.ndim > 1:
        return total
    return complex(total) if np.iscomplexobj(v) else float(total)
