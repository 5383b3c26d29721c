"""Elliptic integrals and Jacobi functions against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from cqnls import elliptic
from cqnls.errors import DomainError

from oracles import (
    elliptic_first_by_quadrature,
    elliptic_second_by_quadrature,
    jacobi_by_ode,
    richardson_difference,
)

M_GRID = [0.0, 1e-8, 0.01, 0.1, 0.25, 0.5, 0.725305439047, 0.9,
          0.968771779750, 0.99, 0.999, 0.999999962412]


def test_complete_first_against_quadrature():
    for m in M_GRID:
        ref = elliptic_first_by_quadrature(m)
        assert abs(elliptic.complete_K(m) - ref) <= 1e-12 * ref


def test_complete_second_against_quadrature():
    for m in M_GRID:
        ref = elliptic_second_by_quadrature(m)
        assert abs(elliptic._complete_K_E(m)[1] - ref) <= 1e-12 * ref


def test_special_values():
    assert elliptic.complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert elliptic._complete_K_E(0.0)[1] == pytest.approx(math.pi / 2, abs=1e-15)
    # A&S table 17.1
    assert elliptic.complete_K(0.5) == pytest.approx(1.854074677301372, rel=1e-14)
    assert elliptic._complete_K_E(0.5)[1] == pytest.approx(1.350643881047676, rel=1e-14)


def test_logarithmic_blowup_of_first_kind():
    # K(m) ~ log(4/sqrt(1-m)) as m -> 1
    for one_minus_m in (1e-6, 1e-9, 1e-12):
        ref = math.log(4.0 / math.sqrt(one_minus_m))
        assert elliptic.complete_K(1.0 - one_minus_m) == pytest.approx(
            ref, rel=1e-6)


def test_monotonicity_in_parameter():
    ms = np.linspace(0.0, 0.999, 200)
    K = np.array([elliptic.complete_K(m) for m in ms])
    E = np.array([elliptic._complete_K_E(m)[1] for m in ms])
    assert np.all(np.diff(K) > 0)
    assert np.all(np.diff(E) < 0)
    assert np.all(np.diff(E / K) < 0)


def test_domain_errors():
    with pytest.raises(DomainError):
        elliptic.complete_K(1.0)
    with pytest.raises(DomainError):
        elliptic.complete_K(-0.1)
    with pytest.raises(DomainError):
        elliptic.jacobi_sn_cn_dn(0.3, -0.2)


def test_complete_first_keeps_its_bits_through_the_k_e_pass():
    # K is read from the K, E pass; it keeps the bits of pi / (2 mean) from
    # the level lists, from m = 0 and the subnormals to 1 - 1e-16
    edges = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0 - 1e-16]
    edges += [1.0 - 10.0**-k for k in range(1, 16)]
    ms = np.concatenate([edges, np.linspace(0.0, 1.0, 20001)[:-1],
                         np.random.default_rng(34).uniform(0.0, 1.0, 2000),
                         np.logspace(-320, -1, 1000)])
    assert ms.size >= 20000 and np.all((0.0 <= ms) & (ms < 1.0))
    for m in ms.tolist():
        K = elliptic.complete_K(m)
        assert K == elliptic._complete_K_E(m)[0] == math.pi / (2.0 * elliptic._agm_sequence(m)[2])


def test_modulus_derivative_against_difference():
    for m in (0.1, 0.5, 0.9, 0.99):
        k = math.sqrt(m)
        ref = richardson_difference(
            lambda kk: elliptic.complete_K(kk * kk), k, 1e-5)
        assert abs(elliptic._dK_dk(m, *elliptic._complete_K_E(m)) - ref) <= 1e-7 * abs(ref)


def test_jacobi_identity_suite():
    # 1000 seeded (u, m) pairs spanning arguments out to several periods
    rng = np.random.default_rng(180)
    u = rng.uniform(-12.0, 12.0, 1000)
    m = rng.uniform(1e-6, 1.0 - 1e-6, 1000)
    for ui, mi in zip(u, m):
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(ui, mi)
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + mi * sn * sn - 1.0) <= 1e-12


def test_jacobi_against_scipy():
    rng = np.random.default_rng(181)
    u = rng.uniform(-10.0, 10.0, 300)
    for mi in (1e-9, 0.01, 0.3, 0.7, 0.97, 0.9999, 1.0 - 1e-9, 1.0 - 5e-11):
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, mi)
        sn_r, cn_r, dn_r, _ = scipy.special.ellipj(u, mi)
        assert np.max(np.abs(sn - sn_r)) <= 5e-12
        assert np.max(np.abs(cn - cn_r)) <= 5e-12
        assert np.max(np.abs(dn - dn_r)) <= 5e-12


@pytest.mark.parametrize(
    "m1", [1.0, 0.5, 1e-3, 3e-7, 1e-9, 3e-10, 9e-11, 5e-11, 1.5e-12, 2.0**-52])
def test_jacobi_against_mpmath(m1):
    # one Gauss transformation for every m < 1: sn and cn to 1e-14, and dn
    # to 1e-13 relative down to its trough sqrt(1 - m) at u = K, over
    # [-2K, 3K]
    m = 1.0 - m1
    K = elliptic.complete_K(m)
    u = np.linspace(-2.0 * K, 3.0 * K, 201)
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, m)
    with mpmath.workdps(40):
        sn_r, cn_r, dn_r = (
            np.array([float(mpmath.ellipfun(name, float(x), m=m)) for x in u])
            for name in ("sn", "cn", "dn"))
    assert np.max(np.abs(sn - sn_r)) <= 1e-14
    assert np.max(np.abs(cn - cn_r)) <= 1e-14
    assert np.max(np.abs(dn / dn_r - 1.0)) <= 1e-13


@pytest.mark.parametrize("m1", [1.0, 0.5, 1e-3, 1.5e-7, 3e-7, 1e-9, 1.5e-12, 2.0**-52])
def test_complete_first_against_mpmath(m1):
    # K = pi / (2 AGM) from the converged mean, one step past the last level
    m = 1.0 - m1
    with mpmath.workdps(40):
        ref = float(mpmath.ellipk(m))
    assert abs(elliptic.complete_K(m) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("m", [0.5, 1.0 - 1e-12])
def test_jacobi_tiny_arguments(m):
    # the tangent form neither overflows nor flushes sn to zero
    u = np.array([1e-300, -1e-200])
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, m)
    assert np.array_equal(sn, u)
    assert np.array_equal(cn, [1.0, 1.0]) and np.array_equal(dn, [1.0, 1.0])


@pytest.mark.parametrize("m", [1e-14, 1e-13, 1e-12, 5e-12])
def test_small_m_jacobi_against_mpmath(m):
    # the Gauss transformation near m = 0, across two quarter periods either side
    K = elliptic.complete_K(m)
    u = np.linspace(-2.0 * K, 2.0 * K, 41)
    values = elliptic.jacobi_sn_cn_dn(u, m)
    with mpmath.workdps(40):
        for name, got in zip(("sn", "cn", "dn"), values):
            ref = [float(mpmath.ellipfun(name, float(x), m=m)) for x in u]
            assert np.max(np.abs(got - ref)) <= 1e-15, name


def test_jacobi_against_defining_ode():
    for ui, mi in [(0.7, 0.4), (-2.3, 0.8), (5.1, 0.15), (1.9, 0.99)]:
        sn, cn, dn = elliptic.jacobi_sn_cn_dn(ui, mi)
        sn_r, cn_r, dn_r = jacobi_by_ode(ui, mi)
        assert abs(sn - sn_r) <= 1e-10
        assert abs(cn - cn_r) <= 1e-10
        assert abs(dn - dn_r) <= 1e-10


def test_jacobi_periodicity_and_parity():
    m = 0.6
    K = elliptic.complete_K(m)
    u = np.linspace(-1.5, 1.5, 40)
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, m)
    sn2, cn2, dn2 = elliptic.jacobi_sn_cn_dn(u + 2.0 * K, m)
    assert np.max(np.abs(sn2 + sn)) <= 1e-12
    assert np.max(np.abs(cn2 + cn)) <= 1e-12
    assert np.max(np.abs(dn2 - dn)) <= 1e-12
    sn_m, cn_m, dn_m = elliptic.jacobi_sn_cn_dn(-u, m)
    assert np.max(np.abs(sn_m + sn)) <= 1e-15
    assert np.max(np.abs(cn_m - cn)) <= 1e-15
    assert np.max(np.abs(dn_m - dn)) <= 1e-15


def test_jacobi_degenerate_branches():
    u = np.linspace(-3.0, 3.0, 61)
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, 0.0)
    assert np.max(np.abs(sn - np.sin(u))) <= 1e-15
    assert np.max(np.abs(cn - np.cos(u))) <= 1e-15
    assert np.max(np.abs(dn - 1.0)) <= 1e-15
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, 1.0)
    assert np.max(np.abs(sn - np.tanh(u))) <= 1e-15
    assert np.max(np.abs(cn - 1.0 / np.cosh(u))) <= 1e-15
    assert np.max(np.abs(dn - 1.0 / np.cosh(u))) <= 1e-15


@pytest.mark.parametrize("u", [700.0, 800.0, -800.0, 1e4])
def test_jacobi_at_m_one_far_out(u):
    # cosh u overflows beyond |u| ~ 710 (a warning, an error in this suite),
    # while sech u = 2 e^-|u| / (1 + e^-2|u|) underflows to 0 from ~745
    sn, cn, dn = elliptic.jacobi_sn_cn_dn(u, 1.0)
    with mpmath.workdps(40):
        ref = float(mpmath.sech(u))
    assert sn == math.copysign(1.0, u)
    assert cn == dn and abs(cn - ref) <= 1e-15 * ref


def test_jacobi_scalar_and_array_forms_agree():
    sn_s, cn_s, dn_s = elliptic.jacobi_sn_cn_dn(0.8, 0.45)
    assert isinstance(sn_s, float)
    sn_a, cn_a, dn_a = elliptic.jacobi_sn_cn_dn(np.array([0.8]), 0.45)
    assert sn_a.shape == (1,)
    assert sn_s == sn_a[0] and cn_s == cn_a[0] and dn_s == dn_a[0]
