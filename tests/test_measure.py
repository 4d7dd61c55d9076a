"""Weighted ball measure and quadrature against moment oracles.

The reference values are Beta-type moments: for a multi-index m,
int |z^m|^2 dnu_alpha = m! Gamma(n+alpha+1) / Gamma(n+|m|+alpha+1).
"""

import hashlib
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman_orlicz import measure as measure_module
from bergman_orlicz import norms
from bergman_orlicz.errors import DomainError, NonFiniteIntegrandError, UnsupportedRuleError
from bergman_orlicz.growth import power_growth
from bergman_orlicz.harness import verify_cesaro_boundedness
from bergman_orlicz.holo import test_function as kernel_test_function
from bergman_orlicz.holo import KernelPower, Series, to_series
from bergman_orlicz.measure import (
    WeightedMeasure,
    _checked_node_values,
    _disc_sizes,
    _radial_jacobi,
    build_rule,
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


def test_polynomial_rules_are_kept_on_their_measure():
    measure = make_measure(2, 0.5)
    first, again = build_rule(measure, degree=16), build_rule(measure, degree=16)
    assert first is again
    assert first.points is again.points and first.weights is again.weights
    for arr in (first.points, first.weights):
        with pytest.raises(ValueError):
            arr[0] = 0
    zeta = np.array([0.6, 0.8j])
    s1, s2 = (build_rule(measure, 12, line=zeta, t_count=3) for _ in range(2))
    assert s1.points is s2.points and s1.weights is s2.weights
    fresh = build_rule(make_measure(2, 0.5), degree=16)
    assert fresh.points is not first.points and fresh.weights is not first.weights
    assert fresh.points.tobytes() == first.points.tobytes()
    assert fresh.weights.tobytes() == first.weights.tobytes()


def test_kernel_rules_are_rebuilt_on_every_call():
    disc, ball = make_measure(1, 0.0), make_measure(2, 0.0)
    for build in (lambda: build_rule(disc, degree=12, angular_count=64),
                  lambda: build_rule(ball, 12, angular_count=64, line=np.array([1.0, 0.0]),
                                     t_count=3)):
        a, b = build(), build()
        assert a.points is not b.points and a.weights is not b.weights
        assert a.points.flags.writeable and a.weights.flags.writeable
    assert not disc._rules and not ball._rules


def test_threads_that_share_a_measure_get_the_same_rule():
    # Threads that miss at once may each build the rule; every one must get
    # the same bytes and the measure must end up keeping one entry.
    measure = make_measure(2, 0.0)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            rules = list(pool.map(lambda _: build_rule(measure, degree=24), range(12),
                                  timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert len(measure._rules) == 1
    for rule in rules:
        assert rule.points.tobytes() == rules[0].points.tobytes()
        assert rule.weights.tobytes() == rules[0].weights.tobytes()


def test_one_suite_builds_each_polynomial_rule_once(monkeypatch):
    # Every rule of an n = 1 suite comes through norms.build_rule; a raw
    # build normalizes its weights once, in _unit_mass_parts.
    calls, built = [], []

    def counted_build_rule(measure, degree, angular_count=None, line=None, t_count=None):
        rule = build_rule(measure, degree, angular_count, line, t_count)
        calls.append((rule.rule_id, angular_count))
        return rule

    def counted_parts(raw_w, degree, rule_id, factors):
        built.append(rule_id)
        return unit_mass_parts(raw_w, degree, rule_id, factors)

    unit_mass_parts = measure_module._unit_mass_parts
    monkeypatch.setattr(norms, "build_rule", counted_build_rule)
    monkeypatch.setattr(measure_module, "_unit_mass_parts", counted_parts)
    verify_cesaro_boundedness(power_growth(2.0), 0.0, seed=0)
    polynomial = {rid for rid, ang in calls if ang is None}
    kernel = [rid for rid, ang in calls if ang is not None]
    assert polynomial
    assert sorted(built) == sorted([*polynomial, *kernel])
    assert len(built) < len(calls)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.5, 1000.0])
def test_rule_ids_print_a_round_alpha_as_before(alpha):
    for n in (1, 2):
        rule = build_rule(make_measure(n, alpha), degree=8)
        assert rule.rule_id.startswith(f"product:n={n},alpha={alpha:g},degree=8,")


def test_rule_ids_tell_every_alpha_apart():
    # :g keeps six digits: -0.999999999999 printed as -1, a weight the CLI
    # refuses, and 0.1234567 and 0.1234568 printed alike.
    alphas = (-0.999999999999, 0.1234567, 0.1234568)
    ids = [build_rule(make_measure(1, a), degree=8).rule_id for a in alphas]
    assert ids == [f"product:n=1,alpha={a!r},degree=8,nodes=27" for a in alphas]
    slices = {build_rule(make_measure(2, a), 8, line=np.array([0.6, 0.8j]), t_count=3).rule_id
              for a in alphas}
    assert len(slices) == 3
    assert all(f"alpha={a!r}," in rid for a, rid in zip(alphas, sorted(slices)))


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


@pytest.mark.parametrize("n", [1, 2])
def test_first_build_refuses_an_alpha_past_the_rules(n):
    # make_measure builds no rule, so the first build_rule refuses an alpha
    # whose Gauss-Jacobi weights overflow float64 (past about 1,033; at 1e5
    # even 2^(alpha+1) overflows np.longdouble) or whose Jacobi matrix is not
    # finite (1e300), naming the measure's alpha.
    for alpha in (1100.0, 1e5, 1e300):
        measure = make_measure(n, alpha)
        with pytest.raises(DomainError, match=re.escape(f"no quadrature rule for alpha={alpha}:")):
            build_rule(measure, degree=8)
    assert build_rule(make_measure(n, 1000.0), degree=8).normalization_residual < 1e-10


def _gauss_jacobi_mp(alpha, n, nodes):
    """The Gauss-Jacobi nodes of (1-x)^alpha next to the given floats and
    their weights, by 40-digit Newton steps on the three-term recurrence for
    P_n^{(alpha,0)}, P_m = ((A_m x + B_m) P_{m-1} - C_m P_{m-2}).
    mpmath.jacobi cannot serve: its hypergeometric sum does not converge at a
    root.  From a node within 1e-15 the second step is at 40 digits and the
    third leaves it there, with P_n' taken at that node."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        abc = []
        for m in range(2, n + 1):
            c, d = 2 * m + a, 2 * m * (m + a) * (2 * m + a - 2)
            abc.append(((c - 1) * c * (c - 2) / d, (c - 1) * a * a / d,
                        2 * (m + a - 1) * (m - 1) * c / d))
        out = []
        for x in map(mpmath.mpf, nodes):
            for _ in range(3):
                p_prev, p = 1, ((a + 2) * x + a) / 2
                for a_m, b_m, c_m in abc:
                    p, p_prev = (a_m * x + b_m) * p - c_m * p_prev, p
                c = 2 * n + a
                dp = (n * (a - c * x) * p + 2 * n * (n + a) * p_prev) / (c * (1 - x) * (1 + x))
                x -= p / dp
            out.append((float(x), float(2 ** (a + 1) / ((1 - x) * (1 + x) * dp**2))))
        return out


@pytest.mark.parametrize("n", [9, 17, 27, 33, 53, 127, 257])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0, 1.5, 2.0, 20.0])
def test_gauss_jacobi_rule_matches_a_40_digit_oracle(alpha, n):
    # Each node within 1 ulp of the 40-digit one (the node 0 of odd n at
    # alpha = 0 within 1e-300) and each weight within 8 ulp; scipy's
    # roots_jacobi was 4.2e-10 off at n = 257, alpha = 2.  A 40-digit node
    # costs 4-10 ms at n = 127 and 257, so there the oracle takes the eight
    # nodes at each end, where they crowd, and every 16th between.
    x, w = measure_module._gauss_jacobi(alpha, n)
    assert measure_module._gauss_jacobi(alpha, n)[1] is w
    assert not (x.flags.writeable or w.flags.writeable)
    ends = set(range(8)) | set(range(n - 8, n))
    checked = range(n) if n <= 53 else sorted(ends | set(range(8, n - 8, 16)))
    for k, (ref_x, ref_w) in zip(checked, _gauss_jacobi_mp(alpha, n, x[checked])):
        if ref_x == 0.0:
            assert abs(x[k]) <= 1e-300, k
        else:
            assert abs(x[k] - ref_x) <= np.spacing(abs(ref_x)), k
        assert abs(w[k] - ref_w) <= 8 * np.spacing(ref_w), k


# sha256 of sphere_directions(n, count) for the sets the sweeps use: the
# pointwise sweep's 64 and the Bloch search's 512 (circle) and 2048 (sphere).
# The n = 2 set is a map of the R_3 sequence through sqrt, cos and sin; its
# digests held with numpy's X86_V4, and X86_V3 with it, disabled.
_DIRECTION_SHA256 = {
    (1, 64): "197483b9448cf442a0412e967124f197ce7a03c56dcd1d6334f3b9a7df17035b",
    (1, 512): "09fcfd93b547652540d92075c1af4a41c725a568f992229b78679807bd2ca43e",
    (2, 64): "7f12f527e47715e8714786c0290267193834fcc1af69ac1dac4878fdafbed6da",
    (2, 2048): "cf6dc645754257186533cb644216eafba0a65c6bc3d298c37383230cbc1adc8d",
}


def test_sphere_directions_keep_their_bytes():
    for (n, count), digest in _DIRECTION_SHA256.items():
        dirs = measure_module.sphere_directions(n, count)
        assert (dirs.dtype, dirs.shape) == (np.complex128, (count, n))
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 4e-16
        assert hashlib.sha256(dirs.tobytes()).hexdigest() == digest, (n, count)


def test_sphere_directions_spread_over_the_sphere():
    # The map (u, phi1, phi2) -> (sqrt(u) e^{2 pi i phi1}, sqrt(1-u) e^{2 pi i phi2})
    # carries Lebesgue measure on the cube to the uniform measure on S^3,
    # where |z1|^2 is uniform on [0, 1] and E|z1^a z2^b|^2 = a! b! / (a+b+1)!.
    dirs = measure_module.sphere_directions(2, 2048)
    u = np.sort(np.abs(dirs[:, 0]) ** 2)
    assert np.max(np.abs(u - (np.arange(2048) + 0.5) / 2048)) < 2e-3
    for a, b in ((1, 0), (1, 1), (2, 1), (3, 1)):
        moment = np.mean(np.abs(dirs[:, 0] ** a * dirs[:, 1] ** b) ** 2)
        exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 1)
        assert moment == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize("n", [3, 4])
def test_sphere_directions_stop_at_n2(n):
    with pytest.raises(UnsupportedRuleError, match=f"stop at n=2, got n={n}"):
        measure_module.sphere_directions(n, 8)


def test_make_measure_builds_no_rule(monkeypatch):
    def refuse(*args):
        raise AssertionError("make_measure asked for a Gauss-Jacobi rule")

    monkeypatch.setattr(measure_module, "_radial_jacobi", refuse)
    for n in (1, 2):
        measure = make_measure(n, 0.5)
        assert (measure.n, measure.alpha, measure._rules) == (n, 0.5, {})


@pytest.mark.parametrize("total", [math.inf, math.nan, 0.0, -1.0])
def test_a_mass_that_is_not_finite_and_positive_is_refused(total):
    one = np.ones(1, dtype=complex)
    with pytest.raises(DomainError, match=r"product:n=1,alpha=2\.5,.* not a finite positive mass"):
        measure_module._unit_mass_parts(np.array([total, 0.0]),
                                        8, "product:n=1,alpha=2.5,degree=8,nodes=2",
                                        (one, np.zeros(2, dtype=complex), np.zeros(1), one))


# sha256 (first 16 hex digits) over the dtype, shape and bytes of points,
# weights, line, disc, t and phases of each rule, re-recorded when the
# Gauss-Jacobi nodes and weights came to be rounded once from extended
# precision; a rule's bytes must not move.
_RULE_LINES = {"e1": (1.0, 0.0), "tilted": (0.6, 0.8j), "e2": (0.0, 1.0)}
_RULE_CASES = {
    "n1": (1, dict(degree=16)),
    "n1-kernel": (1, dict(degree=12, angular_count=64)),
    "n2": (2, dict(degree=12)),
    "n2-kernel": (2, dict(degree=8, angular_count=32)),
    **{f"slice-{name}": (2, dict(degree=16, line=np.array(line, dtype=complex), t_count=9))
       for name, line in _RULE_LINES.items()},
}
_RULE_SHA256 = {
    ("n1", 0.0): "21667c57b4737260",
    ("n1-kernel", 0.0): "92c69a562a0034da",
    ("n2", 0.0): "2e5e133cf26737b8",
    ("n2-kernel", 0.0): "8a63a866dad11388",
    ("slice-e1", 0.0): "cd112aaf8297707f",
    ("slice-tilted", 0.0): "9c4ca2f91afd862f",
    ("slice-e2", 0.0): "7e9d9a055cb5154c",
    ("n1", 1.5): "9d9aef28e15d0de0",
    ("n1-kernel", 1.5): "49651efa25fac0bd",
    ("n2", 1.5): "106a092a90fd0078",
    ("n2-kernel", 1.5): "dc6e3d4a2c3bba09",
    ("slice-e1", 1.5): "859ad7f17bf52088",
    ("slice-tilted", 1.5): "bb795d2b56e6f0cd",
    ("slice-e2", 1.5): "ce32004de37157b3",
}


@pytest.mark.parametrize("case, alpha", sorted(_RULE_SHA256))
def test_rules_keep_their_bytes(case, alpha):
    n, kwargs = _RULE_CASES[case]
    rule = build_rule(make_measure(n, alpha), **kwargs)
    digest = hashlib.sha256()
    for name in ("points", "weights", "line", "disc", "t", "phases"):
        arr = getattr(rule, name)
        digest.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest()[:16] == _RULE_SHA256[case, alpha]


def test_a_non_finite_value_names_its_node_without_the_points():
    # The message builds the one offending node from the rule's factors and
    # reads as it did when it indexed the (N, 2) points.
    rule = build_rule(make_measure(2, 0.0), 64)
    reference = build_rule(make_measure(2, 0.0), 64).points
    for idx, bad in ((0, np.nan), (777_777, np.inf), (rule.node_count - 1, -np.inf)):
        values = np.ones(rule.node_count)
        values[idx] = bad
        with pytest.raises(NonFiniteIntegrandError) as err:
            _checked_node_values(rule, values)
        assert err.value.node_index == idx
        assert str(err.value) == f"integrand is not finite at node {idx} (z={reference[idx]})"
    assert "points" not in rule.__dict__


def test_a_lift_allocates_its_weights_and_no_nodes():
    # The refined lift's nodes would take 39 MB; building the rule writes
    # its 9.8 MB of weights and arrays of the disc's and fibre's size.
    holder = {}

    def build():
        holder["rule"] = build_rule(make_measure(2, 0.0), 64)

    peak = _peak_bytes(build)
    rule = holder["rule"]
    assert rule.node_count == 1_221_025
    assert peak < rule.weights.nbytes + 2 * 2**20
    assert "points" not in rule.__dict__


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

    Reference for build_rule's slice rule, which must give the same bytes.
    """
    alpha = measure.alpha
    # The disc's product rule at alpha + 1, every disc node written.
    a = alpha + 1.0
    c_alpha = (a + 1.0) / math.pi
    n_rad, n_ang = _disc_sizes(degree, angular_count)
    u, wu = _radial_jacobi(a, n_rad)
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    zz = np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]
    w_disc = np.broadcast_to((c_alpha * np.pi / n_ang) * wu[:, None], zz.shape).reshape(-1)
    t, w_t = _radial_jacobi(alpha, t_count)
    w = zz.reshape(-1)
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
    rule = build_rule(measure, degree, angular_count, line=zeta, t_count=t_count)
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
            build_rule(measure, 253, angular_count=8192, line=np.array([1.0, 0.0]), t_count=17)

    assert _peak_bytes(refused) < 2**20
    rule = build_rule(measure, 253, angular_count=8192, line=np.array([1.0, 0.0]), t_count=1)
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
    return [build_rule(measure, 64, angular_count=2048, line=direction, t_count=3),
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
