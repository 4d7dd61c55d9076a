"""Weighted ball measure and quadrature against moment oracles.

The reference values are Beta-type moments: for a multi-index m,
int |z^m|^2 dnu_alpha = m! Gamma(n+alpha+1) / Gamma(n+|m|+alpha+1).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_orlicz.errors import DomainError, UnsupportedRuleError
from bergman_orlicz.measure import (
    build_rule,
    integrate,
    kernel_factor,
    make_measure,
    mobius_apply,
    mobius_jacobian0,
)


def moment_oracle(n, alpha, m):
    num = math.gamma(n + alpha + 1.0)
    for mj in m:
        num *= math.gamma(mj + 1.0)
    return num / math.gamma(n + sum(m) + alpha + 1.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_disc_moments(alpha, k):
    measure = make_measure(1, alpha)
    rule = build_rule(measure, degree=2 * k + 2)
    val = integrate(rule, lambda z: np.abs(z[:, 0]) ** (2 * k))
    assert abs(val.imag) < 1e-15
    assert val.real == pytest.approx(moment_oracle(1, alpha, (k,)), abs=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("m", [(0, 0), (1, 0), (2, 3), (4, 1)])
def test_ball_moments_n2(alpha, m):
    measure = make_measure(2, alpha)
    rule = build_rule(measure, degree=2 * sum(m) + 4)
    val = integrate(
        rule,
        lambda z: np.abs(z[:, 0]) ** (2 * m[0]) * np.abs(z[:, 1]) ** (2 * m[1]),
    )
    assert val.real == pytest.approx(moment_oracle(2, alpha, m), rel=1e-12)


@pytest.mark.parametrize("n,alpha", [(1, 0.0), (1, 2.5), (2, 0.0), (2, 1.0)])
def test_rules_have_unit_mass(n, alpha):
    rule = build_rule(make_measure(n, alpha), degree=16)
    assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-14)
    assert rule.normalization_residual < 1e-10


def test_holomorphic_mean_value():
    # int f dnu_alpha = f(0) for holomorphic f; the kernel power is a sharp
    # instance because all its mass sits near one boundary point.
    measure = make_measure(1, 1.0)
    rule = build_rule(measure, degree=96, boundary_refined=True)
    a = 0.7

    def kern(z):
        return (1.0 - z[:, 0] * np.conj(a)) ** -3.0

    val = integrate(rule, kern)
    assert val.real == pytest.approx(1.0, abs=1e-11)
    assert abs(val.imag) < 1e-11


def test_boundary_refined_and_angular_override_tags():
    measure = make_measure(1, 0.0)
    plain = build_rule(measure, degree=12)
    refined = build_rule(measure, degree=12, boundary_refined=True)
    forced = build_rule(measure, degree=12, angular_count=64)
    assert "refined" in refined.rule_id and "refined" not in plain.rule_id
    assert "angles=64" in forced.rule_id
    assert forced.points.shape[0] >= plain.points.shape[0]
    for rule in (plain, refined, forced):
        val = integrate(rule, lambda z: np.abs(z[:, 0]) ** 4)
        assert val.real == pytest.approx(moment_oracle(1, 0.0, (2,)), abs=1e-13)


def test_rule_argument_validation():
    measure = make_measure(1, 0.0)
    with pytest.raises(UnsupportedRuleError):
        build_rule(measure)
    with pytest.raises(UnsupportedRuleError):
        build_rule(make_measure(3, 0.0), degree=8)
    with pytest.raises(DomainError):
        make_measure(1, -1.0)
    with pytest.raises(DomainError):
        make_measure(0, 0.0)


def test_mobius_swaps_zero_and_center():
    a = np.array([0.3 + 0.2j, -0.1j])
    at_zero = mobius_apply(a, np.zeros(2, dtype=complex))
    at_a = mobius_apply(a, a)
    assert np.allclose(at_zero, a, atol=1e-15)
    assert np.allclose(at_a, 0.0, atol=1e-15)


@given(st.floats(min_value=-0.85, max_value=0.85),
       st.floats(min_value=-0.85, max_value=0.85),
       st.floats(min_value=-0.6, max_value=0.6),
       st.floats(min_value=-0.6, max_value=0.6))
@settings(max_examples=80, deadline=None)
@example(ar=0.0, ai=1.7e-155, zr=0.3, zi=0.1)  # |a|^2 is subnormal
def test_mobius_is_an_involution(ar, ai, zr, zi):
    a = complex(ar, ai)
    z = complex(zr, zi)
    if abs(a) >= 0.95 or abs(z) >= 0.95:
        return
    back = mobius_apply(a, mobius_apply(a, z))
    assert abs(complex(back[0]) - z) < 1e-12


def test_mobius_jacobian_matches_finite_differences():
    a = np.array([0.4 + 0.1j, -0.2 + 0.3j])
    jac = mobius_jacobian0(a)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2, dtype=complex)
        e[j] = h
        fd = (mobius_apply(a, e) - mobius_apply(a, -e)) / (2.0 * h)
        assert np.allclose(jac[:, j], fd, atol=1e-8)


def test_kernel_factor_value():
    z = np.array([[0.5 + 0.0j, 0.0j]])
    w = np.array([0.5 + 0.0j, 0.0j])
    got = kernel_factor(z, w, 4.0)
    assert complex(got[0]) == pytest.approx((1.0 - 0.25) ** -4.0)
