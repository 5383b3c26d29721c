"""Complete elliptic integrals and Jacobi elliptic functions.

Conventions
-----------
All routines take the *parameter* m = k**2 (k the modulus), following
Abramowitz & Stegun chapters 16-17.  K and E are computed with the
arithmetic-geometric mean iteration (A&S 17.6); sn, cn, dn use the AGM
scale and the descending amplitude recursion of A&S 16.4, which stays
accurate as m -> 0 (at m = 0 it returns sin, cos and 1 exactly).  Near
m = 1 the hyperbolic forms with first-order corrections take over
(A&S 16.15).

Accuracy is limited by the quadratic convergence of the AGM, which
reaches machine precision in at most a dozen iterations for every
m in [0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "complete_K",
    "complete_E",
    "dK_dk",
    "jacobi_sn_cn_dn",
]

_AGM_TOL = 1e-15
_HYPERBOLIC_CUT = 1e-10  # 1 - m below: series around m = 1


def _agm_sequence(m: float) -> tuple[list[float], list[float]]:
    """AGM scale (a_n) and deviation (c_n) sequences for parameter m.

    a_0 = 1, b_0 = sqrt(1 - m), c_0 = sqrt(m);
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2.
    Iterates until successive means agree to 1e-15.
    """
    a = 1.0
    b = math.sqrt(1.0 - m)
    a_seq = [a]
    c_seq = [math.sqrt(m)]
    for _ in range(64):
        c = 0.5 * (a - b)
        if abs(c) <= _AGM_TOL:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        a_seq.append(a)
        c_seq.append(c)
    return a_seq, c_seq


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    K(m) = integral_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt = pi / (2 AGM(1, sqrt(1-m))).

    Requires 0 <= m < 1; K(0) = pi/2 and K(m) diverges like
    log(4/sqrt(1-m)) as m -> 1.  K(0.5) = 1.85407467730137...
    """
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise DomainError(f"complete_K requires 0 <= m < 1, got m={m}")
    a_seq, _ = _agm_sequence(m)
    return math.pi / (2.0 * a_seq[-1])


def complete_E(m: float) -> float:
    """Complete elliptic integral of the second kind, E(m).

    E(m) = integral_0^{pi/2} (1 - m sin^2 t)^{1/2} dt
         = K(m) * (1 - sum_{n>=0} 2^{n-1} c_n^2)          (A&S 17.6.4)

    Requires 0 <= m <= 1; E(0) = pi/2, E(1) = 1.
    """
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"complete_E requires 0 <= m <= 1, got m={m}")
    if m == 1.0:
        return 1.0
    return _complete_K_E(m)[1]


def dK_dk(m: float) -> float:
    """Derivative dK/dk of K with respect to the modulus k = sqrt(m).

    dK/dk = (E(m) - (1-m) K(m)) / (k (1-m)), with the limit 0 at k = 0.
    """
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise DomainError(f"dK_dk requires 0 <= m < 1, got m={m}")
    if m == 0.0:
        return 0.0
    return _K_and_dK_dk(m)[1]


def _complete_K_E(m: float) -> tuple[float, float]:
    """K(m) and E(m) from one AGM sequence; 0 <= m < 1."""
    a_seq, c_seq = _agm_sequence(m)
    acc = 0.0
    for n, c in enumerate(c_seq):
        acc += 2.0 ** (n - 1) * c * c
    K = math.pi / (2.0 * a_seq[-1])
    return K, K * (1.0 - acc)


def _K_and_dK_dk(m: float) -> tuple[float, float]:
    """K(m) and dK/dk from one AGM sequence; 0 < m < 1."""
    K, E = _complete_K_E(m)
    return K, (E - (1.0 - m) * K) / (math.sqrt(m) * (1.0 - m))


def _cn_dn_hyperbolic(u: np.ndarray, m1: float):
    # A&S 16.15.2-3: first-order corrections to cn and dn at 1 - m = m1.
    t = np.tanh(u)
    sech = 1.0 / np.cosh(u)
    sc = np.sinh(u) * np.cosh(u)
    return sech - 0.25 * m1 * (sc - u) * t * sech, sech + 0.25 * m1 * (sc + u) * t * sech


def _jacobi_hyperbolic(u: np.ndarray, m: float):
    # A&S 16.15: first-order corrections around the hyperbolic limit.
    # For m < 1 the argument is first folded into one period, |u| <= K:
    # sn(u + 2K) = -sn(u), cn(u + 2K) = -cn(u), dn(u + 2K) = dn(u).
    # The first-order sn (16.15.1) loses accuracy towards |u| = K, so for
    # |u| > K/2 it is taken from sn(u) = sign(u) cn(K - |u|) / dn(K - |u|)
    # (A&S table 16.8), whose cn and dn stay accurate there.
    m1 = 1.0 - m
    sign = np.ones_like(u)
    if m1 > 0.0:
        K = complete_K(m)
        u = np.mod(u + 2.0 * K, 4.0 * K) - 2.0 * K   # into [-2K, 2K)
        outer = np.abs(u) > K
        u = np.where(outer, u - np.sign(u) * 2.0 * K, u)
        sign = np.where(outer, -1.0, 1.0)
    t = np.tanh(u)
    sech = 1.0 / np.cosh(u)
    sn = t + 0.25 * m1 * (t - u * sech * sech)   # (sinh u cosh u - u) sech^2 u
    cn, dn = _cn_dn_hyperbolic(u, m1)
    if m1 > 0.0:
        cn_c, dn_c = _cn_dn_hyperbolic(K - np.abs(u), m1)
        sn = np.where(np.abs(u) > 0.5 * K, np.sign(u) * cn_c / dn_c, sn)
    return sign * sn, sign * cn, dn


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic functions sn(u|m), cn(u|m), dn(u|m).

    The argument u may be a scalar or an ndarray; m is a scalar
    parameter in [0, 1].  The amplitude phi_0 = am(u|m) is obtained by
    running the AGM deviation sequence backwards (A&S 16.4.2-16.4.3):

        phi_N = 2^N a_N u,
        phi_{n-1} = (phi_n + arcsin((c_n/a_n) sin phi_n)) / 2,

    after which sn = sin(phi_0), cn = cos(phi_0) and
    dn = sqrt(1 - m sn^2).
    """
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires 0 <= m <= 1, got m={m}")
    u_arr = np.asarray(u, dtype=float)
    scalar = u_arr.ndim == 0
    u_arr = np.atleast_1d(u_arr)

    if m >= 1.0 - _HYPERBOLIC_CUT:
        sn, cn, dn = _jacobi_hyperbolic(u_arr, m)
    else:
        a_seq, c_seq = _agm_sequence(m)
        n = len(a_seq) - 1
        phi = (2.0 ** n) * a_seq[-1] * u_arr
        for i in range(n, 0, -1):
            ratio = c_seq[i] / a_seq[i]
            phi = 0.5 * (phi + np.arcsin(np.clip(ratio * np.sin(phi), -1.0, 1.0)))
        sn = np.sin(phi)
        cn = np.cos(phi)
        dn = np.sqrt(1.0 - m * sn * sn)

    if scalar:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn
