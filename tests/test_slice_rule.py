"""Slice rules at n = 2 against the product rule and the 2F1 closed form.

A slice f(z) = h(<z, zeta>) pushes nu_alpha on B^2 forward to nu_{alpha+1}
on the disc, and every integrand the suites build from it depends on
(<z, zeta>, |z|^2) alone.  So measure.build_rule given the line zeta, which
lifts the disc rule at alpha + 1 along zeta with one phase, must give what
its product rule, the lift along e_1 with every phase, gives.  Three groups:
agreement of the four derivative modulars with the product rule, the kernel
test-function norms against mpmath's 2F1 reduction, and how slice_direction
reads a function's line.  A fourth pins the rule rule_for_function picks for
each kind of representation at n = 1 and 2, and a fifth the Cesaro
upper-bound check, whose integrand f Rg is a slice only when Rg lies on f's
line.
"""

import mpmath as mp
import numpy as np
import pytest

from bergman_orlicz.growth import power_growth
from bergman_orlicz.holo import KernelPower, Product, Series, Sum, slice_direction
from bergman_orlicz.holo import test_function as kernel_test_function
from bergman_orlicz.measure import build_rule, make_measure
from bergman_orlicz.norms import (
    derivative_modulars,
    luxemburg_norm,
    modular_of_values,
    rule_for_function,
)
from bergman_orlicz.operators import CesaroSymbol, cesaro_upper_bound_check

PHI2 = power_growth(2)

# A kernel whose center is on no coordinate axis and has complex entries;
# |center| = 0.45, so a product rule of degree 24 with 48 angles resolves it.
_KERNEL = KernelPower(np.array([0.3 + 0.2j, -0.1 + 0.25j]), 2.5, 0.7 - 0.2j)

_SLICES = {
    **{f"z1^{k}": Series(2, {(k, 0): 1.0}) for k in (1, 3, 6)},
    "z1+z1^3": Series(2, {(1, 0): 1.0, (3, 0): 1.0}),
    "kernel": _KERNEL,
}


def _product_rule_for(f, measure, slice_rule):
    if isinstance(f, KernelPower):
        return build_rule(measure, degree=24, angular_count=48)
    return build_rule(measure, degree=slice_rule.exact_degree)


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("name", sorted(_SLICES))
def test_slice_and_product_rules_give_the_same_derivative_modulars(name, alpha):
    f = _SLICES[name]
    measure = make_measure(2, alpha)
    rule = rule_for_function(f, measure, PHI2)
    assert rule.rule_id.startswith("slice:n=2,")
    lifted = derivative_modulars(f, PHI2, rule)
    product = derivative_modulars(f, PHI2, _product_rule_for(f, measure, rule))
    for kind, value in product.items():
        assert lifted[kind] == pytest.approx(value, rel=1e-12, abs=0), kind


def _test_function_norm_2f1(p: float, n: int, alpha: float, r: float, k: float) -> float:
    """Luxembourg norm in t^p of test_function(t^p, r e1, alpha, k).

    int |1 - <z, a>|^(-2b) d nu_alpha = 2F1(b, b; n + 1 + alpha; |a|^2)
    (Rudin, Function Theory in the Unit Ball of C^n, 1.4.10 and Euler's
    integral), with 2b = p k (n + 1 + alpha).
    """
    with mp.workdps(30):
        m = n + 1 + alpha
        r = mp.mpf(r)
        scale = (1 - r) ** (-m / mp.mpf(p)) * (1 - r**2) ** (k * m)
        b = p * k * m / 2
        return float(scale * mp.hyp2f1(b, b, m, r**2) ** (1 / mp.mpf(p)))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
@pytest.mark.parametrize("p", [2.0, 0.5])
@pytest.mark.parametrize("r, tol", [(0.5, 1e-6), (0.9, 1e-6), (0.97, 1e-3)])
def test_n2_test_function_norms_match_2f1(r, tol, p, alpha):
    # At |a| = 0.97 the worst case is 1.5e-4 (t^2, alpha = 1.5), the error
    # of the n = 1 kernel rule at alpha + 1; the 4-D product rule was 30% off
    # under t^2, alpha = 0.
    phi = power_growth(p)
    f = kernel_test_function(phi, np.array([r, 0.0]), alpha)
    rule = rule_for_function(f, make_measure(2, alpha), phi)
    assert rule.rule_id.startswith("slice:n=2,")
    got = luxemburg_norm(f, phi, rule).lambda_star
    k = max(2.0, np.floor(1.0 / min(p, 1.0)) + 1.0)
    assert got == pytest.approx(_test_function_norm_2f1(p, 2, alpha, r, k), rel=tol)


def _same_line(zeta, line):
    line = np.asarray(line, dtype=complex) / np.linalg.norm(line)
    return np.linalg.norm(zeta - np.vdot(line, zeta) * line) < 1e-12


def test_slice_direction_accepts_phase_shifted_parallel_parts():
    a = np.array([0.3 + 0.2j, -0.1 + 0.25j])
    f = Sum((KernelPower(a, 2.0), KernelPower(1j * a * 0.5, 3.0),
             Product(KernelPower(-a, 1.0), KernelPower(np.exp(0.7j) * a, 1.5))))
    zeta = slice_direction(f)
    assert zeta is not None and np.linalg.norm(zeta) == pytest.approx(1.0, abs=1e-15)
    assert _same_line(zeta, a)
    assert slice_direction(Sum((KernelPower(a, 2.0), KernelPower(a + [0.0, 1e-6], 2.0)))) is None


def test_slice_direction_of_constants():
    const = Series(2, {(0, 0): 2.0})
    assert slice_direction(const).tolist() == [1.0, 0.0]
    assert slice_direction(Series(2, {})).tolist() == [1.0, 0.0]
    assert slice_direction(KernelPower(np.zeros(2), 2.0)).tolist() == [1.0, 0.0]
    # a constant part does not pin the line of the rest
    z2 = Series(2, {(0, 3): 1.0, (0, 0): 1.0})
    assert slice_direction(Sum((const, z2))).tolist() == [0.0, 1.0]
    assert slice_direction(Product(z2, const)).tolist() == [0.0, 1.0]


def test_slice_direction_refuses_two_variable_series():
    assert slice_direction(Series(2, {(1, 1): 1.0})) is None
    assert slice_direction(Series(2, {(2, 0): 1.0, (0, 1): 1.0})) is None
    z1 = Series(2, {(1, 0): 1.0})
    z2 = Series(2, {(0, 1): 1.0})
    assert slice_direction(Sum((z1, z2))) is None
    assert slice_direction(Product(z1, KernelPower(np.array([0.0, 0.5]), 2.0))) is None
    assert slice_direction(Product(z1, KernelPower(np.array([0.5j, 0.0]), 2.0))).tolist() \
        == [1.0, 0.0]
    two_variable = Series(2, {(2, 0): 1.0, (0, 1): 1.0})
    assert rule_for_function(two_variable, make_measure(2, 0.0), PHI2).rule_id.startswith(
        "product:n=2,")


_A = _KERNEL.center
_Z1_CUBED = Series(2, {(3, 0): 1.0})
_SLICE_E1 = "slice:n=2,alpha=0,zeta=(1+0j,0+0j),"
_SLICE_A = "slice:n=2,alpha=0,zeta=(0.666667+0.444444j,-0.222222+0.555556j),"

# name: (f, growth exponent, cofactor, the rule id rule_for_function picks).
# The ids pin what the walk over f reads: its degree, its largest kernel
# |center| and its complex line, merged with the cofactor's.
_RULE_CASES = {
    "n1-series": (Series(1, {(20,): 1.0, (3,): 0.5}), 3, None,
                  "product:n=1,alpha=0,degree=68,nodes=1242"),
    "n1-kernel": (KernelPower(np.array([0.9j]), 2.0), 2, None,
                  "product:n=1,alpha=0,degree=64,nodes=16896,refined,angles=512"),
    "n1-sum-with-kernels": (
        Sum((Series(1, {(40,): 1.0}), KernelPower(np.array([0.3]), 3.0),
             KernelPower(np.array([0.99j]), 2.0))), 3, None,
        "product:n=1,alpha=0,degree=80,nodes=98400,refined,angles=2400"),
    "n1-cofactor": (Series(1, {(3,): 1.0}), 2, Series(1, {(1,): 1.0}),
                    "product:n=1,alpha=0,degree=32,nodes=297"),
    "n2-series": (Series(2, {(3, 0): 1.0, (12, 0): 2j}), 3, None,
                  _SLICE_E1 + "degree=44,t=9,nodes=4860"),
    "n2-off-axis-kernel": (_KERNEL, 2, None,
                           _SLICE_A + "degree=64,t=9,nodes=152064,refined,angles=512"),
    "n2-phase-shifted-sum": (
        Sum((KernelPower(_A, 2.0), KernelPower(1j * _A * 0.5, 3.0))), 2, None,
        _SLICE_A + "degree=64,t=9,nodes=152064,refined,angles=512"),
    "n2-product-with-constant": (
        Product(Series(2, {(0, 14): 1.0}), Series(2, {(0, 0): 2.0})), 3, None,
        "slice:n=2,alpha=0,zeta=(0+0j,1+0j),degree=50,t=9,nodes=5967"),
    "n2-two-variable-series": (Series(2, {(2, 0): 1.0, (0, 1): 1.0}), 2, None,
                               "product:n=2,alpha=0,degree=32,nodes=88209"),
    "n2-cofactor-on-line": (_Z1_CUBED, 2, Series(2, {(1, 0): 1.0}),
                            _SLICE_E1 + "degree=32,t=9,nodes=2673"),
    "n2-cofactor-off-line": (_Z1_CUBED, 2, Series(2, {(0, 1): 1.0}),
                             "product:n=2,alpha=0,degree=32,nodes=88209"),
}


@pytest.mark.parametrize("name", sorted(_RULE_CASES))
def test_rule_for_function_reads_degree_center_and_line(name):
    f, p, cofactor, rule_id = _RULE_CASES[name]
    rule = rule_for_function(f, make_measure(f.n, 0.0), power_growth(p), cofactor=cofactor)
    assert rule.rule_id == rule_id


def _upper_modular_on_product_rule(f, sym, measure, phi, bloch_m):
    rule = build_rule(measure, degree=32)
    norm = luxemburg_norm(f, phi, rule).lambda_star
    pts = rule.points
    vals = (1.0 - np.sum(np.abs(pts) ** 2, axis=1)) * np.abs(f._eval(pts) * sym.rg._eval(pts))
    return modular_of_values(vals, rule.weights, phi, bloch_m * norm)


@pytest.mark.parametrize("terms, tol", [
    ({(0, 1): 1.0}, 1e-12),               # Rg = z2: off f's line
    ({(0, 1): 1.0, (0, 2): 0.5}, 1e-12),  # Rg = z2 + z2^2: f's slice rule is 73% off
    # Rg = z1 lies on f's line, so the check runs on f's slice rule; the two
    # rules' norms agree to the bisection tolerance, 1e-10.
    ({(1, 0): 1.0}, 1e-9),
])
def test_cesaro_upper_bound_matches_the_product_rule(terms, tol):
    measure = make_measure(2, 0.0)
    f = Series(2, {(3, 0): 1.0})
    sym = CesaroSymbol(Series(2, terms))
    worst = cesaro_upper_bound_check(sym, PHI2, measure, [f], bloch_m=0.4)
    expected = _upper_modular_on_product_rule(f, sym, measure, PHI2, 0.4)
    assert worst == pytest.approx(expected, rel=tol, abs=0)
