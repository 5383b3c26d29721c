"""Complete elliptic integrals and Jacobi elliptic functions.

Conventions
-----------
All routines take the *parameter* m = k**2 (k the modulus), following
Abramowitz & Stegun chapters 16-17.  K and E are computed with the
arithmetic-geometric mean iteration (A&S 17.6); sn, cn, dn with
Bulirsch's descending Gauss transformation over the same AGM levels
(R. Bulirsch, Numer. Math. 7 (1965) 78-90), one path for every m in
[0, 1).  K and the Jacobi scale share the converged mean, so the
argument (2K/L) x of an L-periodic profile maps to pi x / L.  At m = 1
the exact limits tanh and sech are returned.

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


def _agm_sequence(m: float) -> tuple[list[float], list[float], list[float], float]:
    """AGM levels (a_n, b_n), deviations c_n and converged mean for parameter m.

    a_0 = 1, b_0 = sqrt(1 - m), c_0 = sqrt(m);
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n), c_{n+1} = (a_n - b_n)/2.
    Iterates until a_n - b_n <= 2e-15; the mean (a_n + b_n)/2 of the
    last level is one step past it and within rounding of AGM(1, b_0).
    """
    a = 1.0
    b = math.sqrt(1.0 - m)
    a_seq = [a]
    b_seq = [b]
    c_seq = [math.sqrt(m)]
    for _ in range(64):
        c = 0.5 * (a - b)
        if abs(c) <= _AGM_TOL:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        a_seq.append(a)
        b_seq.append(b)
        c_seq.append(c)
    return a_seq, b_seq, c_seq, 0.5 * (a + b)


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    K(m) = integral_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt = pi / (2 AGM(1, sqrt(1-m))).

    Requires 0 <= m < 1; K(0) = pi/2 and K(m) diverges like
    log(4/sqrt(1-m)) as m -> 1.  K(0.5) = 1.85407467730137...
    """
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise DomainError(f"complete_K requires 0 <= m < 1, got m={m}")
    return math.pi / (2.0 * _agm_sequence(m)[3])


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
    _, _, c_seq, mean = _agm_sequence(m)
    acc = 0.0
    for n, c in enumerate(c_seq):
        acc += 2.0 ** (n - 1) * c * c
    K = math.pi / (2.0 * mean)
    return K, K * (1.0 - acc)


def _K_and_dK_dk(m: float) -> tuple[float, float]:
    """K(m) and dK/dk from one AGM sequence; 0 < m < 1."""
    K, E = _complete_K_E(m)
    return K, (E - (1.0 - m) * K) / (math.sqrt(m) * (1.0 - m))


def jacobi_sn_cn_dn(u, m: float):
    """Jacobi elliptic functions sn(u|m), cn(u|m), dn(u|m).

    The argument u may be a scalar or an ndarray; m is a scalar
    parameter in [0, 1].  With the AGM levels (a_n, b_n), n = 0..N, and
    the converged mean a, Bulirsch's descending Gauss transformation
    starts from v = a u, t = tan v, q = t / a, d = 1 and runs down the
    levels n = N..0:

        t <- t q,  q <- q / d,  d <- (b_n t + 1) / (a_n t + 1),  t <- a_n q,

    after which dn = d, |sn| = |q| / sqrt(1 + q^2), |cn| = 1 / sqrt(1 + q^2),
    with the signs of sin v and cos v.  In this tangent form no
    intermediate overflows, even for the tiniest |u|.  At m = 1 the
    limits sn = tanh u, cn = dn = sech u are returned.
    """
    m = float(m)
    if not 0.0 <= m <= 1.0:
        raise DomainError(f"jacobi_sn_cn_dn requires 0 <= m <= 1, got m={m}")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))

    if m == 1.0:
        sn = np.tanh(u_arr)
        cn = 1.0 / np.cosh(u_arr)
        dn = cn.copy()
    else:
        a_seq, b_seq, _, mean = _agm_sequence(m)
        v = mean * u_arr
        t = np.tan(v)
        q = t / mean
        d = np.ones_like(t)
        for a, b in zip(reversed(a_seq), reversed(b_seq)):
            t *= q
            q /= d
            d = (b * t + 1.0) / (a * t + 1.0)
            t = a * q
        h = 1.0 / np.sqrt(1.0 + q * q)
        sn = np.copysign(np.abs(q) * h, np.sin(v))
        cn = np.copysign(h, np.cos(v))
        dn = d

    if np.ndim(u) == 0:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn
