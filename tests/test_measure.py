"""Weighted ball measure and quadrature against moment oracles.

The reference values are Beta-type moments: for a multi-index m,
int |z^m|^2 dnu_alpha = m! Gamma(n+alpha+1) / Gamma(n+|m|+alpha+1).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_orlicz.errors import DomainError, UnsupportedRuleError
from bergman_orlicz.growth import power_growth
from bergman_orlicz.holo import test_function as kernel_test_function
from bergman_orlicz.holo import KernelPower, Series, to_series
from bergman_orlicz.measure import (
    WeightedMeasure,
    _normalizing_constant,
    _radial_jacobi,
    build_rule,
    build_slice_rule,
    integrate,
    kernel_factor,
    kernel_modulus,
    make_measure,
    mobius_apply,
    mobius_jacobian0_batch,
)
from bergman_orlicz.norms import rule_for_function


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
    rule = build_rule(measure, degree=96, angular_count=512)
    a = 0.7

    def kern(z):
        return (1.0 - z[:, 0] * np.conj(a)) ** -3.0

    val = integrate(rule, kern)
    assert val.real == pytest.approx(1.0, abs=1e-11)
    assert abs(val.imag) < 1e-11


def test_boundary_refined_and_angular_override_tags():
    measure = make_measure(1, 0.0)
    plain = build_rule(measure, degree=12)
    forced = build_rule(measure, degree=12, angular_count=64)
    assert "refined" not in plain.rule_id
    assert forced.rule_id.endswith(",refined,angles=64")
    assert forced.points.shape[0] >= plain.points.shape[0]
    for rule in (plain, forced):
        val = integrate(rule, lambda z: np.abs(z[:, 0]) ** 4)
        assert val.real == pytest.approx(moment_oracle(1, 0.0, (2,)), abs=1e-13)


def test_rule_argument_validation():
    with pytest.raises(UnsupportedRuleError):
        build_rule(WeightedMeasure(3, 0.0), degree=8)
    with pytest.raises(UnsupportedRuleError):
        make_measure(3, 0.0)
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
    jac = mobius_jacobian0_batch(a[None])[0]
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


def meshgrid_rule_n2(alpha, degree, boundary_refined=False, angular_count=None):
    """The n = 2 product rule as first written: full-size 4-D meshgrids.

    Reference for the factored builder, which must give the same bytes.
    """
    c_alpha = _normalizing_constant(2, alpha)
    radial_degree = 2 * degree if boundary_refined else degree
    n_rad = radial_degree // 4 + 1
    n_ang = degree + 1
    if boundary_refined:
        n_ang = max(2 * degree + 1, 48)
    if angular_count is not None:
        n_ang = max(n_ang, int(angular_count))
    s, ws = _radial_jacobi(2, alpha, n_rad)
    v, wv = _radial_jacobi(1, 0.0, degree // 4 + 1)
    t1 = 2.0 * np.pi * np.arange(n_ang) / n_ang
    t2 = 2.0 * np.pi * np.arange(n_ang) / n_ang
    S, V, T1, T2 = np.meshgrid(s, v, t1, t2, indexing="ij")
    z1 = np.sqrt(S * V) * np.exp(1j * T1)
    z2 = np.sqrt(S * (1.0 - V)) * np.exp(1j * T2)
    pts = np.stack([z1.reshape(-1), z2.reshape(-1)], axis=1)
    WS, WV = np.meshgrid(ws, wv, indexing="ij")
    w_rad = (WS * WV)[:, :, None, None]
    w = np.broadcast_to(
        c_alpha * (2.0 * np.pi / n_ang) ** 2 * 0.25 * w_rad, S.shape
    ).reshape(-1).copy()
    total = float(np.sum(w))
    return pts, w / total, abs(total - 1.0)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("degree,refined,angles", [(8, False, None), (12, True, None),
                                                   (12, True, 64)])
def test_n2_rule_matches_meshgrid_reference(alpha, degree, refined, angles):
    # The reference's refined rule without an angle count has its n = 2 floor
    # of 48 angles, the kernel rule that angular_count=48 asks for.
    angular_count = (angles or 48) if refined else None
    rule = build_rule(make_measure(2, alpha), degree=degree, angular_count=angular_count)
    pts, w, residual = meshgrid_rule_n2(alpha, degree, refined, angles)
    assert rule.points.tobytes() == pts.tobytes()
    assert rule.weights.tobytes() == w.tobytes()
    assert rule.normalization_residual == residual
    tag = f",refined,angles={angular_count}" if refined else ""
    assert rule.rule_id == f"product:n=2,alpha={alpha:g},degree={degree},nodes={len(w)}{tag}"


def _peak_bytes(fn):
    """Peak traced allocation while fn runs (numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_oversized_rule_is_refused_before_allocation():
    # A degree-48 series in both variables is no slice, so its refined rule
    # is the product rule of degree 2 * (2 * 48 + 8) = 208: 53 * 53 * 209^2 =
    # 122.7M nodes (4.9 GB of nodes and weights).
    phi = power_growth(2.0)
    measure = make_measure(2, 0.0)
    f = Series(2, {(48, 0): 1.0, (0, 1): 1.0})

    def refused():
        with pytest.raises(UnsupportedRuleError, match=r"122,699,929 nodes.*16,777,216"):
            rule_for_function(f, measure, phi, refine=1)

    assert _peak_bytes(refused) < 2**20


def test_degree_48_slice_gets_a_slice_rule_under_the_ceiling():
    # The truncated kernel test function of the default n = 2 family is a
    # series in z1 alone: its refined rule lifts the degree-208 disc rule.
    phi = power_growth(2.0)
    measure = make_measure(2, 0.0)
    f = to_series(kernel_test_function(phi, np.array([0.9, 0.0]), 0.0), 48)
    rule = rule_for_function(f, measure, phi, refine=1)
    assert rule.rule_id.startswith("slice:n=2,alpha=0,zeta=(1+0j,0+0j),degree=208,t=17,")
    assert rule.node_count == 53 * 209 * 17 < 2**24


def test_oversized_slice_rule_is_refused_before_allocation():
    # A kernel disc rule of degree 253 with 8192 angles has 127 * 8192 =
    # 1,040,384 nodes; lifted by 17 t nodes it is 17.7M, over the ceiling.
    measure = make_measure(2, 0.0)

    def refused():
        with pytest.raises(UnsupportedRuleError,
                           match=r"slice rule with 17,686,528 nodes.*16,777,216"):
            build_slice_rule(measure, np.array([1.0, 0.0]), 253, 17, angular_count=8192)

    assert _peak_bytes(refused) < 2**20
    rule = build_slice_rule(measure, np.array([1.0, 0.0]), 253, 1, angular_count=8192)
    assert rule.node_count == 1_040_384


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_factor_matches_direct_formula(n):
    rule = build_rule(make_measure(n, 0.5), degree=12, angular_count=512 if n == 1 else 48)
    w = np.array([0.6 - 0.3j, 0.2j])[:n]
    for e in (1.0, 3.7, -0.5):
        ip = rule.points @ np.conj(w)
        expected = np.exp(-e * np.log(1 - ip))
        assert kernel_factor(rule.points, w, e).tobytes() == expected.tobytes()
    single = kernel_factor(rule.points[5], w, 2.5)
    assert single.tobytes() == kernel_factor(rule.points[5:6], w, 2.5)[0].tobytes()


def test_kernel_factor_refuses_boundary_inner_products():
    w = np.array([1.0 + 0.0j, 0.0j])
    with pytest.raises(DomainError):
        kernel_factor(np.array([[0.5, 0.0], [1.0, 0.0]]), w, 2.0)
    with pytest.raises(DomainError):
        kernel_factor(np.array([1.0j]), np.array([-1.0j]), 2.0)


def _kernel_probe_rules(n, direction):
    """Small rules of every kind a kernel norm runs on, with nodes near the sphere."""
    if n == 1:
        return [build_rule(make_measure(1, 0.0), degree=64, angular_count=4096)]
    measure = make_measure(2, 0.0)
    return [build_slice_rule(measure, direction, 64, 3, angular_count=2048),
            build_rule(measure, degree=16, angular_count=96)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("radius", [0.5, 0.9, 0.99, 0.999, 0.9999])
def test_kernel_modulus_matches_the_complex_kernel(n, radius):
    direction = np.array([np.exp(0.3j), 0.0]) if n == 1 else np.array([0.6, 0.8j])
    direction = direction[:n]
    center = radius * direction
    # Points on the ray through the centre, where the kernel peaks.
    ray = (1.0 - np.logspace(-1, -12, 12))[:, None] * direction[None, :]
    for rule in _kernel_probe_rules(n, direction):
        pts = np.concatenate([rule.points, ray])
        for exponent in (4.0, 9.0):
            expected = np.abs(kernel_factor(pts, center, exponent))
            got = kernel_modulus(pts, center, exponent)
            assert np.max(np.abs(got / expected - 1.0)) <= 1e-13, rule.rule_id
            f = KernelPower(center, exponent, scale=-2.5j)
            node = f._abs_eval(pts)
            assert np.max(np.abs(node / np.abs(f._eval(pts)) - 1.0)) <= 1e-13
    assert kernel_modulus(pts[3], center, 4.0) == kernel_modulus(pts[3:4], center, 4.0)[0]


@pytest.mark.parametrize("pts, w", [
    (np.array([[0.5, 0.0], [1.0, 0.0]]), np.array([1.0 + 0.0j, 0.0j])),
    (np.array([1.0j]), np.array([-1.0j])),
])
def test_kernel_modulus_refuses_what_kernel_factor_refuses(pts, w):
    with pytest.raises(DomainError) as factor_err:
        kernel_factor(pts, w, 2.0)
    with pytest.raises(DomainError) as modulus_err:
        kernel_modulus(pts, w, 2.0)
    assert str(modulus_err.value) == str(factor_err.value)
