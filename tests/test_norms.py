"""Modulars, Luxembourg norms, and the pointwise estimate sweeps."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_orlicz import holo as holo_module
from bergman_orlicz import measure as measure_module
from bergman_orlicz import norms as norms_module
from bergman_orlicz import operators as operators_module
from bergman_orlicz.errors import DomainError, NonFiniteIntegrandError, WorkbenchError
from bergman_orlicz.growth import (
    GrowthFunction,
    power_growth,
    power_log_growth,
    resolve_growth,
    shipped_growth_ids,
)
from bergman_orlicz.harness import verify_test_functions
from bergman_orlicz.holo import (
    KernelPower,
    Series,
    Sum,
    function_from_spec,
    gradient_norms,
    on_rule,
)
from bergman_orlicz.measure import build_rule, make_measure
from bergman_orlicz.norms import (
    derivative_modulars,
    derivative_pointwise_constant,
    luxemburg_norm,
    modular,
    modular_of_values,
    pointwise_bound_constant,
    rule_for_function,
    small_type_estimate_check,
)
from bergman_orlicz.operators import CesaroSymbol, cesaro_upper_bound_check
from bergman_orlicz.holo import test_function as kernel_test_function


def monomial_norm_oracle(k, alpha):
    # ||z^k|| in the p=2 space over nu_alpha: sqrt of the moment
    # k! Gamma(alpha+2) / Gamma(k+alpha+2).
    return math.sqrt(
        math.gamma(k + 1.0) * math.gamma(alpha + 2.0) / math.gamma(k + alpha + 2.0)
    )


def joined_values(f, rule):
    """(f, 1-|z|^2) at every node of the rule: holo.on_rule's blocks joined."""
    blocks = list(on_rule(f, rule))
    return (np.concatenate([b.values for b in blocks]),
            np.concatenate([b.one_minus for b in blocks]))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_quadratic_norm_closed_form(alpha, k):
    measure = make_measure(1, alpha)
    f = Series(1, {(k,): 1.0})
    rule = rule_for_function(f, measure, power_growth(2))
    res = luxemburg_norm(f, power_growth(2), rule)
    assert res.lambda_star == pytest.approx(monomial_norm_oracle(k, alpha), abs=1e-10)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_power_law_norm_equals_modular_root(p):
    # For Phi = t^p the modular scales exactly like lambda^(-p), so the
    # bisection answer must agree with modular(f)^(1/p) on the same rule.
    measure = make_measure(1, 0.5)
    phi = power_growth(p)
    f = Series(1, {(1,): 1.0, (3,): -0.5j, (0,): 0.25})
    rule = rule_for_function(f, measure, phi)
    res = luxemburg_norm(f, phi, rule)
    mod = modular(f, phi, rule)
    assert res.lambda_star == pytest.approx(mod ** (1.0 / p), rel=1e-8)


# The two `bol norm` inputs whose bracket search outruns a step budget shared
# with the bisection: lambda is about 1.5e-78 and 1e28-1e37 (by rule) while
# max |f| is near 1 and 1e90.
_LONG_SEARCH_NORMS = {
    "z^1000": ("power:p=0.01", '{"kind":"series","n":1,"terms":[[[1000],1,0]]}'),
    "kernel at 0.999": ("power:p=0.1",
                        '{"kind":"kernel_power","center":[[0.999,0]],"exponent":30}'),
}


@pytest.mark.parametrize("name", sorted(_LONG_SEARCH_NORMS))
def test_norm_after_a_long_bracket_search_is_the_closed_form(name):
    # The CLI's rules for these take seconds per norm; a 16,896-node kernel
    # rule gives the same search lengths.
    growth, spec = _LONG_SEARCH_NORMS[name]
    phi, p = resolve_growth(growth), float(growth.split("=")[1])
    f = function_from_spec(json.loads(spec))
    rule = build_rule(make_measure(1, 0.0), 64, angular_count=512)
    res = luxemburg_norm(f, phi, rule)
    closed = float(np.sum(rule.weights * f._abs_eval(rule.points) ** p)) ** (1.0 / p)
    assert res.iterations > 200
    assert res.lambda_star == pytest.approx(closed, rel=1e-9, abs=0.0)
    assert res.residual <= 1e-9


def test_a_bisection_that_cannot_meet_its_tolerance_is_refused():
    # lambda = 2e-322 is subnormal: 1e-10 lambda underflows to 0 and the
    # bracket stalls one unit in the last place wide, so the step cap ends it.
    phi = GrowthFunction(name="4t^2", fn=lambda t: 4.0 * t * t)
    f = Series(1, {(0,): 1e-322})
    with pytest.raises(WorkbenchError, match="did not converge in 37 steps"):
        luxemburg_norm(f, phi, build_rule(make_measure(1, 0.0), 8))


@pytest.mark.parametrize("gid", ["power:p=2", "powerlog:p=2", "power:p=1/3"])
def test_a_tiny_function_keeps_its_homogeneous_norm(gid):
    # max |f| is about 1.5e-290: the halving floor follows it down instead
    # of reading lambda < 1e-280 as a norm of 0.
    phi = resolve_growth(gid)
    f = Series(1, {(1,): 1.0, (2,): 0.5})
    rule = rule_for_function(f, make_measure(1, 0.0), phi)
    base = luxemburg_norm(f, phi, rule).lambda_star
    tiny = luxemburg_norm(f.scaled(1e-290), phi, rule)
    assert tiny.lambda_star == pytest.approx(1e-290 * base, rel=1e-9, abs=0.0)
    assert tiny.residual <= 1e-9


def test_test_function_norms_converge_at_a_small_power():
    # power:p=1/3, alpha = 3: the |a| = 0.999 norm is 7.03e5; a bisection
    # cut short by the search reported 3.49e31 with residual 1.
    report = verify_test_functions(resolve_growth("power:p=1/3"), 3.0, 1)
    norms = {case["id"]: case["quantities"] for case in report.cases}
    assert all(q["residual"] <= 1e-9 for q in norms.values())
    assert norms["a=0.999"]["norm"] == pytest.approx(7.03e5, rel=1e-3)


@pytest.mark.parametrize("c", [0.1, 3.0, 10.0])
def test_luxembourg_homogeneity(c):
    measure = make_measure(1, 0.0)
    phi = power_log_growth(2, a=1)  # not a pure power, so nothing cancels
    f = Series(1, {(1,): 1.0, (2,): 0.5})
    rule = rule_for_function(f, measure, phi)
    base = luxemburg_norm(f, phi, rule).lambda_star
    scaled = luxemburg_norm(f.scaled(c), phi, rule).lambda_star
    assert scaled == pytest.approx(c * base, rel=1e-8)


def test_zero_function_has_zero_norm():
    measure = make_measure(1, 0.0)
    rule = build_rule(measure, degree=16)
    res = luxemburg_norm(Series(1, {}), power_growth(2), rule)
    assert res.lambda_star == 0.0
    assert res.iterations == 0


def test_constant_norm_is_value_over_inverse_at_one():
    # modular(c/lambda) = Phi(c/lambda) == 1 exactly when lambda = c/Phi^{-1}(1).
    measure = make_measure(2, 1.0)
    rule = build_rule(measure, degree=12)
    phi = power_log_growth(2, a=1)
    c = 4.2
    res = luxemburg_norm(Series(2, {(0, 0): c}), phi, rule)
    inv_at_one = float(phi.inverse(np.array([1.0]))[0])
    assert res.lambda_star == pytest.approx(c / inv_at_one, rel=1e-9)


def test_modular_overflow_is_reported_with_node():
    measure = make_measure(1, 0.0)
    rule = build_rule(measure, degree=8)
    f = Series(1, {(0,): 1e308, (1,): 1e308})
    with np.errstate(over="ignore"), pytest.raises(NonFiniteIntegrandError) as err:
        luxemburg_norm(f, power_growth(2), rule)
    assert err.value.node_index is not None


def test_norm_near_the_largest_float_does_not_overflow():
    # For f = c z on the disc under t^2, modular(f / lambda) = c^2 / (2 lambda^2),
    # so the norm is c / sqrt(2); the sum of two bisection ends near c
    # overflows, their halves do not.
    measure = make_measure(1, 0.0)
    phi = power_growth(2)
    f = Series(1, {(1,): 1.7e308})
    res = luxemburg_norm(f, phi, rule_for_function(f, measure, phi))
    assert res.lambda_star == pytest.approx(1.7e308 / math.sqrt(2.0), rel=1e-9)
    assert res.residual <= 1e-9


@pytest.mark.parametrize("gid", shipped_growth_ids())
def test_modular_of_values_is_the_checked_formula_bit_for_bit(gid):
    # The step skips GrowthFunction's argument check and weights in place;
    # on checked node values it must give exactly what the checked call gave.
    phi = resolve_growth(gid)
    values = np.array([0.0, 1e-300, 1e-8, 0.25, 1.0, 3.5, 1e6, 0.0])
    if not gid.startswith("interp"):
        # Phi overflows to inf here for every exponent >= 2 (the interpolated
        # Phi refuses roots past 1e280 on both paths instead).
        values = np.concatenate([values, [1e200, 1e300]])
    weights = np.random.default_rng(7).random(values.size)
    weights /= weights.sum()
    for scale in (1.0, 0.37, 1e-3):
        with np.errstate(over="ignore"):
            old = float(np.sum(weights * phi(values / scale)))
        assert modular_of_values(values, weights, phi, scale) == old
    if gid == "power:p=2":
        assert old == math.inf


@pytest.mark.parametrize("gid", ["power:p=2", "power:p=1/2", "powerlog:p=2",
                                 "interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5"])
def test_modular_of_values_refuses_nan(gid):
    values = np.array([0.5, math.nan, 1.0])
    with pytest.raises(DomainError):
        modular_of_values(values, np.full(3, 1.0 / 3.0), resolve_growth(gid))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_derivative_modulars_refuse_nonfinite_node_values(monkeypatch, bad):
    # The four arrays skip _node_values, so each is checked once where it is
    # built: a non-finite gradient names its node instead of reaching Phi.
    measure = make_measure(1, 0.0)
    phi = power_growth(2)
    f = Series(1, {(1,): 1.0, (3,): 0.5})
    rule = rule_for_function(f, measure, phi)
    monkeypatch.setattr(Series, "_partials",
                        lambda self, pts: np.full((pts.shape[0], self.n), complex(bad)))
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrandError) as err:
        derivative_modulars(f, phi, rule)
    assert err.value.node_index == 0


_LEAF = measure_module._LEAF
# Around and across leaf boundaries of the pairwise cut, and below numpy's
# own 8-wide and 128-element blocks.
_LEAF_SIZES = (1, 7, 8, 129, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 7, 3 * _LEAF + 13)
_INTERP = "interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5"


@pytest.fixture(scope="module")
def kernel_nodes():
    """|f_a| and the weights on the 1,040,384-node t^2 kernel rule, |a| = 0.999."""
    phi = power_growth(2)
    f = kernel_test_function(phi, np.array([0.999 + 0j]), 0.0)
    rule = rule_for_function(f, make_measure(1, 0.0), phi)
    return norms_module._node_values(f, rule), rule.weights


@pytest.mark.parametrize("gid", shipped_growth_ids())
def test_leafwise_modular_is_one_np_sum_bit_for_bit(gid, kernel_nodes):
    phi = resolve_growth(gid)
    values, weights = kernel_nodes
    sizes = _LEAF_SIZES if gid == _INTERP else _LEAF_SIZES + (values.size,)
    for n in sizes:
        # n nodes spread over the whole rule, peak included.
        idx = np.linspace(0, values.size - 1, n).astype(int)
        v, w = values[idx], weights[idx]
        for scale in (1.0, 37.0):
            with np.errstate(over="ignore"):
                whole = float(np.sum(w * phi(v / scale)))
            assert modular_of_values(v, w, phi, scale) == whole, (n, scale)


@pytest.mark.parametrize("gid", ["power:p=2", "power:p=1/2", "powerlog:p=2", _INTERP])
def test_a_nan_in_the_last_leaf_is_refused(gid):
    values = np.full(2 * _LEAF + 7, 0.5)
    values[-1] = math.nan
    with pytest.raises(DomainError):
        modular_of_values(values, np.full(values.size, 1.0 / values.size),
                          resolve_growth(gid))


def test_an_overflow_in_one_leaf_gives_inf():
    values = np.full(3 * _LEAF + 13, 0.5)
    values[_LEAF + 5] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = modular_of_values(values, np.full(values.size, 1.0 / values.size),
                                  power_growth(2))
    assert total == math.inf
    one_leaf = np.full(_LEAF - 3, 0.5)
    one_leaf[7] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        total = modular_of_values(one_leaf, np.full(one_leaf.size, 1.0 / one_leaf.size),
                                  power_growth(2))
    assert total == math.inf


@pytest.mark.parametrize("gid, n, bound_mib", [("power:p=2", 1 << 22, 8),
                                               ("power:p=1/2", 1 << 22, 8),
                                               (_INTERP, 1 << 20, 16)])
def test_a_large_modular_allocates_leaf_sized_temporaries(gid, n, bound_mib):
    # One sum over all nodes peaked at 64 MiB (two node-sized arrays) for
    # t^2 and t^(1/2) at 4,194,304 nodes, and at 174 MiB for the interpolated
    # Phi at 1,048,576.
    values = np.linspace(0.0, 2.0, n)
    weights = np.full(n, 1.0 / n)
    phi = resolve_growth(gid)
    tracemalloc.start()
    try:
        modular_of_values(values, weights, phi, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20


_LIFT_POLY = {(0, 0): 0.5, (6, 0): 1.0 - 0.5j, (3, 3): -0.25j, (1, 4): 0.75,
              (0, 6): 0.3 + 0.1j, (2, 1): -1.2, (0, 1): 2.0j}
# on_rule's blocks, one per leaf of measure._LEAF nodes, may keep sixteen
# complex arrays of that length (8 MiB) alive at once.
_BLOCK_ALLOWANCE = 16 * _LEAF * 16


def refined_lift():
    """A two-variable polynomial, its measure and the refined n = 2 lift,
    which a refine=1 rule_for_function of the polynomial returns."""
    measure = make_measure(2, 0.0)
    rule = build_rule(measure, 64)
    assert rule.node_count == 1_221_025
    return Series(2, _LIFT_POLY), measure, rule


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_derivative_modulars_keep_block_sized_temporaries():
    # On the refined n = 2 lift the four (N,) quantities took 39 MB (a 45 MB
    # peak), and the pointwise path peaked 93 MB above them; streamed leaf
    # by leaf, only blocks are held.
    f, _, rule = refined_lift()
    peak = traced_peak(lambda: derivative_modulars(f, power_growth(2), rule))
    assert peak < _BLOCK_ALLOWANCE


def test_small_type_sums_keep_block_sized_temporaries():
    # It held f as a complex (N,) array, 1-|z|^2 and |f|: a 40 MB peak.
    f, measure, rule = refined_lift()
    assert rule_for_function(f, measure, None, refine=1) is rule
    peak = traced_peak(lambda: small_type_estimate_check([f], 0.7, measure, refine=1))
    assert peak < _BLOCK_ALLOWANCE


def test_series_norm_and_cesaro_upper_check_hold_one_float_per_node(monkeypatch):
    # A Series norm holds its |f|, 8 bytes per node, with no complex (N,)
    # array (30 MB peak before); the upper check streams f and Rg after its
    # norm (84 MB peak before).
    f, measure, rule = refined_lift()
    phi = power_growth(2)
    symbol = CesaroSymbol(Series(2, {(1, 0): 0.5, (1, 1): 1j, (0, 2): 0.3}))
    monkeypatch.setattr(operators_module, "rule_for_function", lambda *args, **kw: rule)
    for call in (lambda: luxemburg_norm(f, phi, rule),
                 lambda: cesaro_upper_bound_check(symbol, phi, measure, [f], 2.0)):
        assert traced_peak(call) < 8 * rule.node_count + _BLOCK_ALLOWANCE


def many_leaf_cases():
    """(f, symbol, rule) on the refined lift, whose leaf cuts fall inside a
    disc node's 17 x 65 fibre, on the 188,309-node e_1 slice rule of a
    refined degree-48 series in z_1, and on the 72,369-node slice rule along
    (1, 1) / sqrt(2) of a series in z_1 + z_2, which on_rule evaluates at
    the points."""
    f, measure, lift = refined_lift()
    yield f, CesaroSymbol(Series(2, {(1, 0): 0.5, (1, 1): 1j, (0, 2): 0.3})), lift
    g = Series(2, {(48, 0): 1.0, (3, 0): -0.5j, (0, 0): 0.25})
    yield (g, CesaroSymbol(Series(2, {(2, 0): 1.0, (1, 0): 0.5})),
           rule_for_function(g, measure, power_growth(2), refine=1))
    h = Series(2, {(0, 0): 0.25, (1, 0): 1.0, (0, 1): 1.0, (2, 0): 0.5j, (1, 1): 1.0j,
                   (0, 2): 0.5j})
    yield (h, CesaroSymbol(Series(2, {(1, 0): 0.5, (0, 1): 0.5})),
           build_rule(measure, 128, line=np.array([1.0, 1.0]) / math.sqrt(2.0), t_count=17))


def test_streamed_sums_over_many_leaves_are_one_np_sum_bit_for_bit(monkeypatch):
    phi, p, bloch_m = resolve_growth("powerlog:p=2"), 0.7, 2.0
    for f, symbol, rule in many_leaf_cases():
        assert rule.node_count in (1_221_025, 188_309, 72_369)
        w = rule.weights

        def one_sum(values, scale=1.0):
            return float(np.sum(w * phi(values / scale)))

        # The reference joins on_rule's blocks and takes one np.sum per quantity.
        f0 = f.eval(np.zeros(2, dtype=complex))
        quantities = [[], [], [], []]
        for b in on_rule(f, rule, derivatives=True):
            radial, grad_norm, invariant = gradient_norms(b.coords, b.partials, b.radial,
                                                          b.one_minus)
            for q, part in zip(quantities, (np.abs(b.values - f0), invariant,
                                            b.one_minus * grad_norm, b.one_minus * radial)):
                q.append(part)
        assert list(derivative_modulars(f, phi, rule).values()) == [
            one_sum(np.concatenate(q)) for q in quantities]

        values, one_minus = joined_values(f, rule)
        vals = np.abs(values)
        w_exp = 1.5
        assert norms_module._small_type_ratio(f, rule, p, w_exp) == (
            float(np.sum(w * vals * one_minus**w_exp)) / float(np.sum(w * vals**p)))

        with monkeypatch.context() as patch:
            patch.setattr(norms_module, "_node_values", lambda g, r: vals)
            patch.setattr(norms_module, "modular_of_values",
                          lambda v, weights, phi, scale=1.0: one_sum(v, scale))
            norm = luxemburg_norm(f, phi, rule)
        assert luxemburg_norm(f, phi, rule) == norm

        rg_values = joined_values(symbol.rg, rule)[0]
        upper = one_sum(one_minus * np.abs(values * rg_values), bloch_m * norm.lambda_star)
        monkeypatch.setattr(operators_module, "rule_for_function", lambda *args, **kw: rule)
        assert cesaro_upper_bound_check(symbol, phi, make_measure(2, 0.0), [f], bloch_m) == upper


def test_a_nan_past_the_second_leaf_names_its_global_node(monkeypatch):
    # NaN values at node 150,001 and NaN partials at node 100,003, both past
    # the second leaf: the derivative modulars name the first offending node
    # in node order over all four quantities, the other sums node 150,001.
    f, measure, rule = refined_lift()
    leaves = measure_module._tree_sum(rule.node_count, lambda lo, hi: [(lo, hi)])
    assert len(leaves) > 2 and leaves[1][1] < 100_003
    planted = {"values": 150_001, "partials": 100_003}
    symbol = CesaroSymbol(Series(2, {(1, 0): 0.5, (1, 1): 1j, (0, 2): 0.3}))
    target = f
    real_on_rule = holo_module.on_rule

    def planting(g, r, derivatives=False, **kwargs):
        for block in real_on_rule(g, r, derivatives, **kwargs):
            for name, node in planted.items():
                array = getattr(block, name)
                if g is target and array is not None and node in range(
                        block.nodes.start, block.nodes.stop):
                    array[node - block.nodes.start] = math.nan
            yield block

    monkeypatch.setattr(norms_module, "on_rule", planting)
    monkeypatch.setattr(operators_module, "on_rule", planting)
    monkeypatch.setattr(operators_module, "rule_for_function", lambda *args, **kw: rule)
    phi = power_growth(2)
    calls = [(lambda: derivative_modulars(f, phi, rule), 100_003),
             (lambda: luxemburg_norm(f, phi, rule), 150_001),
             (lambda: norms_module._small_type_ratio(f, rule, 0.7, 1.5), 150_001)]
    for call, node in calls:
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrandError) as err:
            call()
        assert err.value.node_index == node
    # Rg alone carries the NaN, so f's norm is finite and the streamed check
    # names the node.
    target = symbol.rg
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrandError) as err:
        cesaro_upper_bound_check(symbol, phi, measure, [f], 2.0)
    assert err.value.node_index == 150_001


def lifted_cases():
    """(f, rule) past one leaf whose f reads more than z_1: a kernel on the
    line of a tilted slice rule (78,336 nodes), and the two-centre kernel sum
    that `bol norm --n 2` runs on a 9.3M-node lift, here on a 49,005-node
    kernel lift.  on_rule lifts the disc nodes that cover each leaf."""
    measure = make_measure(2, 0.0)
    zeta = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    yield KernelPower(0.99 * zeta, 6.0), build_rule(measure, 32, 512, line=zeta, t_count=9)
    two_centre = Sum((KernelPower(np.array([0.9, 0.0]), 3.0),
                      KernelPower(np.array([0.0, 0.9]), 3.0)))
    yield two_centre, build_rule(measure, 16, 24)


def test_norms_and_modulars_along_e1_never_build_the_points(monkeypatch):
    # Series on the lift, and a kernel test function of z_1 on its slice
    # rule, are read off the rule's factors; the (N, 2) points would take
    # 39 MB on the refined lift.  Off e_1 (a tilted slice rule, the
    # two-centre kernel sum on a lift) each leaf lifts its own disc nodes.
    f, measure, rule = refined_lift()
    phi = power_growth(2)
    luxemburg_norm(f, phi, rule)
    derivative_modulars(f, phi, rule)
    small_type_estimate_check([f], 0.7, measure)
    assert measure._rules and all("points" not in r.__dict__ for r in measure._rules.values())
    kernel = kernel_test_function(phi, np.array([0.999, 0.0]), 0.0)
    kernel_rule = rule_for_function(kernel, measure, phi)
    assert kernel_rule.rule_id.startswith("slice:n=2,alpha=0,zeta=(1+0j,0+0j),")
    lam = luxemburg_norm(kernel, phi, kernel_rule).lambda_star
    assert "points" not in kernel_rule.__dict__
    # The same norm at the built points, bit for bit.
    values = kernel._abs_eval(kernel_rule.points)
    assert values.tobytes() == norms_module._node_values(kernel, kernel_rule).tobytes()
    assert lam > 0.0
    symbol = CesaroSymbol(Series(2, {(1, 0): 0.5, (1, 1): 1j, (0, 2): 0.3}))
    for g, lifted in lifted_cases():
        monkeypatch.setattr(operators_module, "rule_for_function", lambda *args, **kw: lifted)
        for call in (lambda: luxemburg_norm(g, phi, lifted),
                     lambda: derivative_modulars(g, phi, lifted),
                     lambda: norms_module._small_type_ratio(g, lifted, 0.7, 1.5),
                     lambda: cesaro_upper_bound_check(symbol, phi, measure, [g], 2.0)):
            call()
            assert "points" not in lifted.__dict__


# Disc degree per angle count: 7 radii (one leaf) for 25 angles, 65 radii
# (50,505 disc nodes, whose leaves at n = 2, with 3 t nodes, start inside a
# disc node's fibre) for 777 and 33 radii (270,336 disc nodes, leaves cut
# inside rings) for 8,192.
_RING_DEGREES = {25: 12, 777: 128, 8192: 64}


@pytest.mark.parametrize("angles", sorted(_RING_DEGREES))
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_ring_blocks_give_the_pointwise_bits(angles, n, alpha):
    # A kernel function of z_1 on a kernel rule along e_1 (n = 1, or the n = 2
    # e_1 slice) is evaluated leaf by leaf at the disc nodes that cover the
    # leaf: the same bits as its _abs_eval at the built points, with neither
    # disc nor points built.  Its radial derivative, a Product, keeps them in
    # blocks of any size.
    phi = power_growth(2)
    centre = np.array([0.6 + 0.75j, 0.0][:n])
    f = kernel_test_function(phi, centre, alpha)
    extra = {} if n == 1 else {"line": np.array([1.0, 0.0]), "t_count": 3}
    rule = build_rule(make_measure(n, alpha), _RING_DEGREES[angles], angles, **extra)
    assert rule.angles.size == angles
    for g in (f, f.radial_derivative()):
        values = norms_module._node_values(g, rule)
        assert "disc" not in rule.__dict__ and "points" not in rule.__dict__
        assert values.tobytes() == g._abs_eval(rule.points).tobytes()
        del rule.__dict__["points"], rule.__dict__["disc"]


def test_lifted_leaves_give_the_pointwise_bits():
    # Off e_1, each leaf's |f| is taken at its disc nodes' lift, cut to the
    # leaf: the same bits as _abs_eval at the built points, with neither
    # disc nor points built.
    for f, rule in lifted_cases():
        assert rule.node_count > _LEAF
        for g in (f, f.radial_derivative()):
            values = norms_module._node_values(g, rule)
            assert "disc" not in rule.__dict__ and "points" not in rule.__dict__
            assert values.tobytes() == g._abs_eval(rule.points).tobytes()
            del rule.__dict__["points"], rule.__dict__["disc"]


def test_kernel_norm_holds_its_weights_and_values_alone():
    # The n = 1 t^2, |a| = 0.999 kernel norm on 1,040,384 nodes peaked at
    # 51 MB with its disc nodes kept and a complex inner-product buffer; leaf
    # by leaf it holds the weights and the values, 8 bytes per node each.
    phi = power_growth(2)
    f = kernel_test_function(phi, np.array([0.999 + 0j]), 0.0)
    measure = make_measure(1, 0.0)
    # A small kernel norm first, so that the lazy imports behind the rule
    # builder are not counted.
    luxemburg_norm(f, phi, build_rule(measure, 12, 64))
    tracemalloc.start()
    try:
        rule = rule_for_function(f, measure, phi)
        luxemburg_norm(f, phi, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rule.node_count == 1_040_384
    assert peak < 2 * 8 * rule.node_count + 4 * 2**20
    assert "disc" not in rule.__dict__


# Luxembourg steps of t^2, alpha = 0, n = 1 at the test_functions radii; the
# benchmark's traced count check rests on these.
_TEST_FUNCTION_STEPS = {0.0: 34, 0.5: 39, 0.9: 45, 0.99: 51, 0.999: 58}


@pytest.mark.parametrize("radius", sorted(_TEST_FUNCTION_STEPS))
def test_luxemburg_step_counts_are_pinned(monkeypatch, radius):
    calls = []
    real = norms_module.modular_of_values

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(norms_module, "modular_of_values", counted)
    phi = power_growth(2)
    f = kernel_test_function(phi, np.array([radius + 0j]), 0.0)
    rule = rule_for_function(f, make_measure(1, 0.0), phi)
    res = luxemburg_norm(f, phi, rule)
    assert res.iterations == _TEST_FUNCTION_STEPS[radius]
    # one seed evaluation, one per step, one for the residual
    assert len(calls) == res.iterations + 2


def test_derivative_modulars_are_ordered_and_share_rule():
    measure = make_measure(1, 1.0)
    phi = power_growth(2)
    f = Series(1, {(1,): 1.0, (4,): 2.0})
    rule = rule_for_function(f, measure, phi)
    mods = derivative_modulars(f, phi, rule)
    assert list(mods) == [
        "function", "invariant_gradient", "weighted_gradient", "weighted_radial",
    ]
    # pointwise chain forces this ordering of the three derivative modulars
    assert mods["weighted_radial"] <= mods["weighted_gradient"] * (1 + 1e-12)
    assert mods["weighted_gradient"] <= mods["invariant_gradient"] * (1 + 1e-12)


def test_rule_for_function_scales_with_phi_and_shape():
    measure = make_measure(1, 0.0)
    poly = Series(1, {(6,): 1.0})
    r_quad = rule_for_function(poly, measure, power_growth(2))
    r_cube = rule_for_function(poly, measure, power_growth(3))
    assert r_cube.exact_degree >= r_quad.exact_degree
    kern = kernel_test_function(power_growth(2), np.array([0.99 + 0j]), 0.0)
    r_kern = rule_for_function(kern, measure, power_growth(2))
    assert "refined" in r_kern.rule_id
    assert "angles=" in r_kern.rule_id
    # the boundary layer needs radial degree ~ 8 / sqrt(1 - |a|) = 80 here
    assert r_kern.exact_degree >= 80


def test_refine_bumps_resolution():
    measure = make_measure(1, 0.0)
    f = Series(1, {(3,): 1.0})
    r0 = rule_for_function(f, measure, power_growth(2))
    r1 = rule_for_function(f, measure, power_growth(2), refine=1)
    assert r1.exact_degree >= 2 * r0.exact_degree


def test_small_type_constant_is_one_at_p_equal_one():
    measure = make_measure(1, 1.0)
    fam = [Series(1, {(1,): 1.0}), Series(1, {(2,): 1.0, (0,): 1.0})]
    rep = small_type_estimate_check(fam, 1.0, measure)
    assert rep.weight_exponent == pytest.approx(0.0)
    for r in rep.ratios:
        assert r == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n, terms", [(1, {(200,): 1.0, (1,): 0.5}),
                                      (2, {(3, 1): 1.0, (0, 2): 0.5j})])
def test_small_type_sums_are_one_np_sum_bit_for_bit(n, terms):
    measure, p = make_measure(n, 0.5), 0.7
    f = Series(n, terms)
    rule = rule_for_function(f, measure, None)
    assert rule.node_count > _LEAF
    report = small_type_estimate_check([f], p, measure)
    values, one_minus = joined_values(f, rule)
    vals = np.abs(values)
    num = float(np.sum(rule.weights * vals * one_minus**report.weight_exponent))
    den = float(np.sum(rule.weights * vals**p))
    assert report.ratios == (num / den,)


def test_small_type_weight_exponent_formula():
    rep = small_type_estimate_check(
        [Series(2, {(1, 0): 1.0})], 0.5, make_measure(2, 1.0))
    # (1/p - 1)(n + 1 + alpha) = (2 - 1) * 4 = 4
    assert rep.weight_exponent == pytest.approx(4.0)
    assert math.isfinite(rep.constant) and rep.constant > 0


def test_pointwise_constant_for_constants_is_one():
    measure = make_measure(1, 0.0)
    phi = power_growth(2)
    c = pointwise_bound_constant([Series(1, {(0,): 3.0})], phi, measure)
    assert c == pytest.approx(1.0, rel=1e-8)


def test_gradient_pointwise_constant_finite_for_polynomials():
    measure = make_measure(1, 0.0)
    phi = power_growth(2)
    fam = [Series(1, {(k,): 1.0}) for k in (1, 3, 5)]
    c = derivative_pointwise_constant(fam, phi, measure)
    assert math.isfinite(c) and 0.1 < c < 50.0


@given(st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_norm_scales_linearly(c):
    measure = make_measure(1, 0.0)
    phi = resolve_growth("powerinvlog:p=2")
    f = Series(1, {(2,): 1.0})
    rule = rule_for_function(f, measure, phi)
    base = luxemburg_norm(f, phi, rule).lambda_star
    scaled = luxemburg_norm(f.scaled(c), phi, rule).lambda_star
    assert scaled == pytest.approx(c * base, rel=1e-7)
