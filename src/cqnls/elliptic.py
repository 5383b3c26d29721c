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

_gauss_descent runs the transformation on many rows of arguments at
once, each row at its own m and its own AGM levels; jacobi_sn_cn_dn is
its one-row case.

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
    "jacobi_sn_cn_dn",
]

_AGM_TOL = 1e-15


def _agm_sequence(m: float) -> tuple[list[float], list[float], float]:
    """AGM levels (a_n, b_n) and converged mean for parameter m, for the Gauss descent.

    a_0 = 1, b_0 = sqrt(1 - m);
    a_{n+1} = (a_n + b_n)/2, b_{n+1} = sqrt(a_n b_n).
    Iterates until a_n - b_n <= 2e-15; the mean (a_n + b_n)/2 of the
    last level is one step past it and within rounding of AGM(1, b_0).
    K and E run the same iteration in _complete_K_E.
    """
    a = 1.0
    b = math.sqrt(1.0 - m)
    a_seq = [a]
    b_seq = [b]
    for _ in range(64):
        if abs(0.5 * (a - b)) <= _AGM_TOL:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        a_seq.append(a)
        b_seq.append(b)
    return a_seq, b_seq, 0.5 * (a + b)


def complete_K(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m).

    K(m) = integral_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt = pi / (2 AGM(1, sqrt(1-m))).

    Requires 0 <= m < 1; K(0) = pi/2 and K(m) diverges like
    log(4/sqrt(1-m)) as m -> 1.  K(0.5) = 1.85407467730137...
    """
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise DomainError(f"complete_K requires 0 <= m < 1, got m={m}")
    return _complete_K_E(m)[0]


def _complete_K_E(m: float) -> tuple[float, float]:
    """K(m) and E(m) from one AGM sequence; 0 <= m < 1.

    E(m) = K(m) (1 - sum_{n>=0} 2^{n-1} c_n^2)          (A&S 17.6.4)

    with the deviations c_0 = sqrt(m), c_{n+1} = (a_n - b_n)/2.  The
    iteration of _agm_sequence, with its stopping rule, summing the series
    as it goes instead of keeping the levels.
    """
    sqrt, tol = math.sqrt, _AGM_TOL
    a = 1.0
    b = sqrt(1.0 - m)
    c = sqrt(m)
    weight = 0.5  # 2^(n-1), exact
    acc = weight * c * c
    for _ in range(64):
        c = 0.5 * (a - b)
        if -tol <= c <= tol:  # abs(c) <= tol
            break
        a, b = 0.5 * (a + b), sqrt(a * b)
        weight *= 2.0
        acc += weight * c * c
    K = math.pi / (a + b)  # a + b is twice the mean, exactly
    return K, K * (1.0 - acc)


def _dK_dk(m: float, K: float, E: float) -> float:
    """dK/dk = (E(m) - (1-m) K(m)) / (k (1-m)) for the modulus k = sqrt(m), 0 < m < 1."""
    return (E - (1.0 - m) * K) / (math.sqrt(m) * (1.0 - m))


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
        # sech u = 2 e^-|u| / (1 + e^-2|u|), which underflows to 0 where
        # cosh u would overflow
        e = np.exp(-np.abs(u_arr))
        sn = np.tanh(u_arr)
        cn = 2.0 * e / (1.0 + e * e)
        dn = cn.copy()
    else:
        v, abs_sn, abs_cn, dn = _gauss_descent(u_arr.reshape(1, -1), [_agm_sequence(m)])
        sn, cn, dn = (f.reshape(u_arr.shape) for f in (
            np.copysign(abs_sn, np.sin(v)), np.copysign(abs_cn, np.cos(v)), dn))

    if np.ndim(u) == 0:
        return float(sn[0]), float(cn[0]), float(dn[0])
    return sn, cn, dn


def _gauss_descent(u: np.ndarray, agms: list) -> tuple:
    """|sn|, |cn| and dn of each row u[i] of a 2-D array at its own AGM, agms[i].

    Returns (v, |sn|, |cn|, dn) with v = a u for the row's mean a; sn and
    cn take the signs of sin v and cos v, which a caller that reads only
    sn^2 and dn, or only the quarter period 0 <= u <= K where sn, cn >= 0,
    need not compute.  agms[i] is the _agm_sequence of the row's
    parameter m < 1.  Rows with fewer levels join the descent at their own
    top level: sorted by depth, the rows that hold level n are a trailing
    block of the array, updated in place, so every row gets the bits of a
    one-row call.  A sweep's rows usually come sorted already (depth grows
    with m).
    """
    depth = np.array([len(agm[0]) for agm in agms])
    mean = np.array([agm[2] for agm in agms])[:, None]
    v = mean * u
    order = None if np.all(depth[:-1] <= depth[1:]) else np.argsort(depth, kind="stable")
    if order is not None:
        agms = [agms[i] for i in order]
        depth, mean = depth[order], mean[order]
    top = depth[-1]
    # level n of row i at [i, n], padded past the row's depth (never read)
    a_levels, b_levels = (np.array([agm[j] + [1.0] * (top - len(agm[j])) for agm in agms])
                          for j in (0, 1))
    t = np.tan(v if order is None else v[order])
    q = t / mean
    d = np.ones_like(t)
    num, den = np.empty_like(t), np.empty_like(t)
    # rows [first[n]:] hold level n
    first = np.searchsorted(depth, np.arange(top), side="right").tolist()
    for n in reversed(range(top)):
        k = first[n]
        a, b = a_levels[k:, n, None], b_levels[k:, n, None]
        tk, qk, dk, nk, ek = t[k:], q[k:], d[k:], num[k:], den[k:]
        tk *= qk
        qk /= dk
        np.multiply(b, tk, nk)
        nk += 1.0
        np.multiply(a, tk, ek)
        ek += 1.0
        np.divide(nk, ek, dk)
        np.multiply(a, qk, tk)
    abs_cn = 1.0 / np.sqrt(1.0 + q * q)
    abs_sn = np.abs(q) * abs_cn
    if order is None:
        return v, abs_sn, abs_cn, d
    back = np.argsort(order)
    return v, abs_sn[back], abs_cn[back], d[back]

