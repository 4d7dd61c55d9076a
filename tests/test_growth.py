"""Growth-function calculus against closed-form oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_orlicz import growth as growth_module
from bergman_orlicz.errors import DomainError, FunctionSpecError, UnboundedInverseError
from bergman_orlicz.growth import (
    _monotone_inverse,
    complementary,
    delta2_constant,
    equivalence_constants,
    indices,
    interpolate_growth,
    nabla2_check,
    power_growth,
    power_inv_log_growth,
    power_log_growth,
    pseudo_concave_check,
    resolve_growth,
    rho_power,
    rho_power_log,
    shipped_growth_ids,
)
from bergman_orlicz.harness import verify_interpolation_power
from bergman_orlicz.holo import Series
from bergman_orlicz.measure import make_measure
from bergman_orlicz.norms import luxemburg_norm, rule_for_function

GRID = np.logspace(-6, 6, 600)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_power_indices_match_exponent(p):
    rep = indices(power_growth(p))
    assert rep.a_phi == pytest.approx(p, abs=1e-6)
    assert rep.b_phi == pytest.approx(p, abs=1e-6)


def test_powerlog_indices_straddle_p():
    # t^2 log(e+t): t Phi'/Phi = 2 + t/((e+t)log(e+t)). The extra term
    # vanishes at both ends and peaks near 0.3178 (around t = 6.2).
    rep = indices(power_log_growth(2, a=1))
    assert rep.a_phi == pytest.approx(2.0, abs=1e-3)
    assert 2.31 < rep.b_phi < 2.32


def test_indices_are_polished_to_the_extremum():
    # Each grid extremum is polished by golden section between its grid
    # neighbours.  The upper index of t^2 log(e+t) is 2 plus the maximum of
    # t/((e+t) log(e+t)), located here by mpmath; the interpolated Phi is
    # t^(8/3), whose indices are 8/3 up to the accuracy of its numerical inverse.
    import mpmath as mp

    with mp.workdps(30):
        extra = lambda t: t / ((mp.e + t) * mp.log(mp.e + t))  # noqa: E731
        peak = 2.0 + float(extra(mp.findroot(lambda t: mp.diff(extra, t), 6.0)))
    assert indices(power_log_growth(2, a=1)).b_phi == pytest.approx(peak, rel=1e-14, abs=0)
    rep = indices(interpolate_growth(power_growth(2), power_growth(4), rho_power(0.5)))
    assert abs(rep.a_phi - 8.0 / 3.0) < 1e-9
    assert abs(rep.b_phi - 8.0 / 3.0) < 1e-9


def test_conjugate_of_square_is_quarter_square():
    psi = complementary(power_growth(2))
    s = GRID
    assert np.max(np.abs(psi(s) - s * s / 4.0) / np.maximum(s * s / 4.0, 1e-300)) < 1e-8


def test_conjugate_of_cube_closed_form():
    # sup_t (st - t^3) attained at t = sqrt(s/3):
    # Psi(s) = (2/3) 3^(-1/2) s^(3/2).
    psi = complementary(power_growth(3))
    s = GRID
    exact = (2.0 / 3.0) / math.sqrt(3.0) * s ** 1.5
    assert np.max(np.abs(psi(s) - exact) / exact) < 1e-7


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_delta2_constant_is_two_to_p(p):
    rep = delta2_constant(power_growth(p))
    assert rep.certified
    assert rep.constant == pytest.approx(2.0 ** p, rel=1e-9)


def test_nabla2_matches_index_criterion_on_shipped():
    for gid in shipped_growth_ids():
        rep = nabla2_check(resolve_growth(gid))
        assert rep.agrees, (gid, rep)


def test_interpolation_of_powers_is_power():
    phi = interpolate_growth(power_growth(2), power_growth(4), rho_power(0.5))
    target = power_growth(8.0 / 3.0)
    rep = equivalence_constants(phi, target)
    assert max(rep.c_upper, 1.0 / rep.c_lower) <= 1.01


def test_pseudo_concave_accepts_and_rejects():
    assert pseudo_concave_check(rho_power(0.5)).ok
    assert pseudo_concave_check(rho_power_log(0.5, a=1.0)).ok
    assert not pseudo_concave_check(rho_power(1.7)).ok


def test_interpolation_refuses_rho_that_is_not_pseudo_concave():
    # rho(s) = s^1.7 breaks rho(s) <= max(1, s/t) rho(t) for s > t.
    with pytest.raises(DomainError, match=r"not pseudo-concave.*s=1e\+06, t=1e-06"):
        interpolate_growth(power_growth(2), power_growth(4), rho_power(1.7))


def test_resolve_growth_name_is_fixpoint():
    # Rendered names re-resolve to themselves; values agree to the six
    # significant digits the name format keeps (exact for exact parameters).
    for gid in shipped_growth_ids():
        phi = resolve_growth(gid)
        again = resolve_growth(phi.name)
        assert again.name == phi.name
        t = np.array([0.3, 1.0, 7.5])
        assert np.allclose(phi(t), again(t), rtol=1e-4, atol=0)


def test_resolve_growth_rejects_unknown():
    with pytest.raises(FunctionSpecError):
        resolve_growth("mystery:p=2")


@pytest.mark.parametrize("call", [
    lambda: resolve_growth("power:p=2")(math.nan),
    lambda: resolve_growth("power:p=2").derivative(np.array([1.0, math.nan])),
    lambda: resolve_growth("powerlog:p=2,a=1").inverse(math.nan),
], ids=["phi", "derivative", "inverse"])
def test_growth_functions_refuse_nan(call):
    # NaN compares False against 0, so a check for negatives alone lets it by.
    with pytest.raises(DomainError):
        call()


def test_power_growth_rejects_nonpositive_exponent():
    with pytest.raises(DomainError):
        power_growth(0.0)


@given(st.floats(min_value=0.4, max_value=4.0),
       st.floats(min_value=1e-4, max_value=1e4))
@settings(max_examples=60, deadline=None)
def test_inverse_is_right_inverse(p, t):
    phi = power_growth(p)
    y = float(phi(np.array([t]))[0])
    back = float(phi.inverse(np.array([y]))[0])
    assert back == pytest.approx(t, rel=1e-10)
    # These have no closed-form Phi (interp) or Phi^{-1} (the rest), so the
    # log-axis root-finder supplies one side of each round trip.
    for gid in ("powerlog:p=2,a=1", "powerlog:p=1/2,a=1", "powerinvlog:p=2",
                "interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5"):
        phi = resolve_growth(gid)
        s = float(phi(np.array([t]))[0])
        assert float(phi(phi.inverse(np.array([s])))[0]) == pytest.approx(s, rel=1e-12), gid


def test_interpolated_power_growth_matches_its_closed_form():
    # Phi^{-1} = s^{1/2} (s^{1/4} / s^{1/2})^{1/2} = s^{3/8}, so Phi(t) = t^{8/3}.
    phi = interpolate_growth(power_growth(2), power_growth(4), rho_power(0.5))
    t = np.logspace(-12, 12, 2001)
    assert np.max(np.abs(phi(t) / t ** (8.0 / 3.0) - 1.0)) <= 1e-12


def test_inverse_refuses_nan_from_the_function():
    # NaN compares False both ways; a bracket built on it would close on t = 2.
    with pytest.raises(DomainError, match="spiky"):
        _monotone_inverse(lambda t: np.where(t > 2.0, math.nan, t * t),
                          np.array([9.0]), label="spiky")


def test_inverse_refuses_nan_targets():
    # The root-finder maps targets <= 0 to 0; NaN compares False, so without
    # its own check the interpolated Phi.fn read a NaN argument as 0.
    with pytest.raises(DomainError, match="spiky"):
        _monotone_inverse(lambda t: t * t, np.array([4.0, math.nan]), label="spiky")
    phi = resolve_growth("interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5")
    with pytest.raises(DomainError):
        phi.fn(np.array([0.5, math.nan]))


_INTERP_FORMS = ["interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5",
                 "interp:phi0=(powerlog:p=2,a=1),phi1=power:p=4,rho=power:theta=0.5"]


@pytest.mark.parametrize("gid", _INTERP_FORMS)
def test_tabulated_phi_matches_the_root_finder(gid):
    # Compared on the t of [1e-200, 1e200] whose Phi lies within [1e-280,
    # 1e280]; t^(8/3) leaves it near t = 1e105.  The root-finder keeps log Phi
    # to its 1e-13 tolerance, and at |log Phi| ~ 600 that log itself rounds
    # by 1.1e-13.
    phi = resolve_growth(gid)
    t = np.logspace(-200, 200, 10000)
    lo, hi = phi.inv(np.array([1e-280, 1e280]))
    t = t[(t > lo) & (t < hi)]
    ref = _monotone_inverse(phi.inv, t)
    got = phi(t)
    assert np.all(np.abs(got / ref - 1.0) <= 1e-13 + np.spacing(np.abs(np.log(ref))))
    assert np.max(np.abs(phi.inv(got) / t - 1.0)) <= np.max(np.abs(phi.inv(ref) / t - 1.0))
    table = phi.fn
    assert table.u.nbytes + table.coef.nbytes <= 512 * 1024


def test_tabulated_phi_keeps_the_root_finders_ends():
    # t^(8/3) is 1e280 at t = 1e105: below 1e-280 Phi is pinned there,
    # above 1e280 it is refused.
    phi = resolve_growth(_INTERP_FORMS[0])
    got = phi(np.array([0.0, 1e-105, 1e-300]))
    assert got == pytest.approx([0.0, 1e-280, 1e-280], rel=1e-12, abs=0.0)
    for t in (1e106, math.inf):
        with pytest.raises(UnboundedInverseError, match=r"exceeds 1e\+280"):
            phi(np.array([1.0, t]))


def test_tabulated_phi_ends_where_an_inner_inverse_refuses():
    # t^(1/2) log(e + t) reaches 1e280 only near t = 1e557, so its inverse
    # refuses the table's top targets; the table stops below them.
    phi = resolve_growth("interp:phi0=(powerlog:p=1/2,a=1),phi1=power:p=4,rho=power:theta=0.5")
    t = np.logspace(-20, 20, 401)
    assert np.max(np.abs(phi.inv(phi(t)) / t - 1.0)) <= 1e-13


def test_interpolation_suite_runs_no_root_finder(monkeypatch):
    # Phi was the root-finder on Psi: 148 calls in this suite.
    calls = []
    solve = growth_module._monotone_inverse
    monkeypatch.setattr(growth_module, "_monotone_inverse",
                        lambda *args, **kw: calls.append(1) or solve(*args, **kw))
    verify_interpolation_power(2.0, 4.0, 0.5)
    assert calls == []


def test_interp_derivative_comes_from_the_explicit_inverse():
    # Phi' = 1 / Psi'(Phi).  As a difference quotient of the root-finder's
    # Phi, t Phi' / Phi of t^(8/3) scattered 2.5e-8 around 8/3.
    phi = interpolate_growth(power_growth(2), power_growth(4), rho_power(0.5))
    t = np.exp(np.linspace(-3.0, 3.0, 4001))
    assert np.max(np.abs(t * phi.derivative(t) / phi(t) - 8.0 / 3.0)) <= 1e-9


def test_square_root_growth_is_the_half_power_bit_for_bit():
    phi = resolve_growth("power:p=1/2")
    assert phi.fn is np.sqrt
    t = np.logspace(-300, 300, 60001)
    assert phi.fn(t).tobytes() == np.power(t, 0.5).tobytes()


def test_inverse_refuses_to_stop_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(growth_module, "_INVERSE_MAX_ITER", 2)
    phi = resolve_growth("powerlog:p=2,a=1")
    with pytest.raises(UnboundedInverseError, match=r"powerlog:p=2,a=1 did not converge"):
        phi.inverse(np.array([0.3, 7.0]))


def test_inverse_refuses_a_root_past_the_upper_cap():
    with pytest.raises(UnboundedInverseError, match=r"for slow exceeded 1e\+280"):
        _monotone_inverse(np.log1p, np.array([2.0, 1e4]), label="slow")


def test_inverse_closes_brackets_where_adjacent_doubles_are_far_apart():
    # Roots up to t ~ 1e274 (log t ~ 632), where one step of a double on the
    # log axis exceeds the 1e-13 tolerance.
    phi = resolve_growth("powerlog:p=1/2,a=1")
    s = np.logspace(100, 140, 401)
    assert np.max(np.abs(phi(phi.inverse(s)) / s - 1.0)) <= 1e-12


def test_inverse_pins_roots_below_the_lower_cap():
    # t^{1/10} = 1e-100 at t = 1e-1000; with fn(0) = 0 the answer is t ~ 0.
    got = _monotone_inverse(lambda t: t ** 0.1, np.array([1e-100, 1e-10]))
    assert got == pytest.approx([1e-280, 1e-100], rel=1e-12, abs=0.0)


def test_inverse_bisects_where_the_function_underflows():
    # t^3 log(e + t) = 1e-300 at t ~ 1e-100; the first bracket reaches down to
    # t ~ e^-353, where fn underflows to 0 and g = -inf pins the secant point.
    phi = resolve_growth("powerlog:p=3")
    s = np.array([1e-250, 1e-300])
    assert np.max(np.abs(phi(phi.inverse(s)) / s - 1.0)) <= 1e-12
    # The interpolated Phi asks Phi0^{-1} for such targets at t ~ 1e-60.
    interp = resolve_growth("interp:phi0=powerlog:p=3,phi1=power:p=4,rho=power:theta=0.5")
    t = np.array([1e-45, 1e-60])
    assert np.max(np.abs(interp.inverse(interp(t)) / t - 1.0)) <= 1e-12


def test_inverse_refuses_an_infinite_target():
    with pytest.raises(UnboundedInverseError, match=r"powerlog:p=2,a=1 exceeded 1e\+280"):
        resolve_growth("powerlog:p=2").inverse(np.inf)


def test_interpolated_phi_needs_few_inverse_evaluations():
    # interpolation_power feeds Phi the node values of z^k / lambda at every
    # step of each Luxembourg solve; count Phi0^{-1} calls per Phi call there.
    # Bisection on the log axis took 53-68.
    calls = {"inverse": 0, "phi": 0}
    square = power_growth(2)

    def counted_inverse(s):
        calls["inverse"] += 1
        return square.inv(s)

    phi = interpolate_growth(dataclasses.replace(square, inv=counted_inverse),
                             power_growth(4), rho_power(0.5))
    forward = phi.fn

    def counted_phi(t):
        calls["phi"] += 1
        return forward(t)

    phi = dataclasses.replace(phi, fn=counted_phi)
    target = power_growth(8.0 / 3.0)
    per_call = []
    for alpha in (0.0, 1.0):
        for k in range(1, 5):
            f = Series(1, {(k,): 1.0})
            rule = rule_for_function(f, make_measure(1, alpha), target)
            assert rule.points.shape[0] == 297
            calls.update(inverse=0, phi=0)
            luxemburg_norm(f, phi, rule)
            per_call.append(calls["inverse"] / calls["phi"])
    assert np.mean(per_call) <= 20.0, per_call


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1.0, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_growth_functions_are_nondecreasing(t, factor):
    for gid in ("power:p=1/2", "powerlog:p=2,a=1", "powerinvlog:p=2"):
        phi = resolve_growth(gid)
        lo, hi = phi(np.array([t, t * factor]))
        assert lo <= hi * (1 + 1e-12)


def test_inv_log_growth_is_small_near_zero_large_far_out():
    phi = power_inv_log_growth(2, a=1)
    # t^2 / log(e + t): at t=1 the denominator is log(e+1) > 1.
    val = float(phi(np.array([1.0]))[0])
    assert val == pytest.approx(1.0 / math.log(math.e + 1.0), rel=1e-12)


def test_closed_form_families_are_infinite_at_infinity():
    # interp ids are left out: their inverse refuses an infinite target.
    ids = [gid for gid in shipped_growth_ids() if gid.split(":")[0] in
           ("power", "powerlog", "powerinvlog")]
    assert any(gid.startswith("powerinvlog:") for gid in ids)
    for gid in ids:
        phi = resolve_growth(gid)
        assert phi(np.array([np.inf])).tolist() == [math.inf], gid
        assert phi(math.inf) == math.inf, gid
