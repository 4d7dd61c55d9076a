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
    _product_rule_raw,
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


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_measure_refuses_a_non_finite_alpha(alpha):
    with pytest.raises(DomainError, match="finite"):
        WeightedMeasure(1, alpha)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2])
def test_make_measure_refuses_a_nan_mass(n):
    # At alpha = 1e5 the Gauss-Jacobi weights overflow to NaN, so the mass
    # residual is NaN, which no comparison with 1e-10 lets through.
    with pytest.raises(DomainError, match="residual=nan"):
        make_measure(n, 1e5)


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


def _monomial_moments(rule, degree):
    """int z^m conj(z)^m' d nu over the rule, keyed (m, m'), for |m| + |m'| <= degree."""
    z1, z2 = rule.points[:, 0], rule.points[:, 1]
    p1 = [np.ones_like(z1)]
    p2 = [np.ones_like(z2)]
    for _ in range(degree):
        p1.append(p1[-1] * z1)
        p2.append(p2[-1] * z2)
    out = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            left = rule.weights * p1[a] * p2[b]
            for c in range(degree + 1 - a - b):
                for d in range(degree + 1 - a - b - c):
                    out[(a, b), (c, d)] = complex(np.sum(left * np.conj(p1[c] * p2[d])))
    return out


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("degree, angular_count", [(8, None), (12, None), (12, 32)])
def test_n2_rule_is_exact_to_its_degree(alpha, degree, angular_count):
    # The lifted rule integrates z^m conj(z)^m' exactly for |m| + |m'| <= degree:
    # the off-diagonal moments vanish and the diagonal ones are m! Beta moments.
    rule = build_rule(make_measure(2, alpha), degree=degree, angular_count=angular_count)
    n_rad = (degree if angular_count is None else 2 * degree) // 4 + 1
    n_ang = degree + 1 if angular_count is None else max(2 * degree + 1, angular_count)
    assert rule.node_count == n_rad * (degree // 4 + 1) * n_ang**2
    assert rule.exact_degree == degree
    tag = "" if angular_count is None else f",refined,angles={angular_count}"
    nodes = rule.node_count
    assert rule.rule_id == f"product:n=2,alpha={alpha:g},degree={degree},nodes={nodes}{tag}"
    for (m, mp), value in _monomial_moments(rule, degree).items():
        expected = moment_oracle(2, alpha, m) if m == mp else 0.0
        assert abs(value - expected) <= 1e-13 + 1e-12 * expected, (m, mp)


def _slice_rule_as_first_written(measure, zeta, degree, t_count, angular_count):
    """The slice rule's own construction, before it became a lift with one phase.

    Reference for build_slice_rule, which must give the same bytes.
    """
    alpha = measure.alpha
    disc, w_disc = _product_rule_raw(alpha + 1.0, degree, angular_count)
    t, w_t = _radial_jacobi(alpha, t_count)
    w = disc[:, 0]
    v = np.sqrt(t[None, :] * np.maximum(0.0, 1.0 - np.abs(w) ** 2)[:, None])
    perp = np.array([-np.conj(zeta[1]), np.conj(zeta[0])])
    pts = np.empty(v.shape + (2,), dtype=complex)
    for j in range(2):
        np.multiply(v, perp[j], out=pts[..., j])
        pts[..., j] += (w * zeta[j])[:, None]
    raw_w = (w_disc[:, None] * ((alpha + 1.0) * w_t)[None, :]).reshape(-1)
    total = float(np.sum(raw_w))
    return pts.reshape(-1, 2), raw_w / total, abs(total - 1.0)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("zeta", [(1.0, 0.0), (-1.0, 0.0), (0.6, 0.8j), (0.0, -1.0j),
                                  (0.3 + 0.2j, -0.1 + 0.3j)])
@pytest.mark.parametrize("degree, t_count, angular_count", [(12, 1, None), (32, 9, None),
                                                            (64, 3, 2048)])
def test_slice_rule_keeps_its_bytes(alpha, zeta, degree, t_count, angular_count):
    measure = make_measure(2, alpha)
    zeta = np.array(zeta, dtype=complex)
    zeta /= math.hypot(*np.abs(zeta))
    rule = build_slice_rule(measure, zeta, degree, t_count, angular_count=angular_count)
    pts, w, residual = _slice_rule_as_first_written(measure, zeta, degree, t_count,
                                                    angular_count)
    assert rule.points.tobytes() == pts.tobytes()
    assert rule.weights.tobytes() == w.tobytes()
    assert rule.normalization_residual == residual


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
