"""Growth-function calculus against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_orlicz.errors import DomainError, FunctionSpecError
from bergman_orlicz.growth import (
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
    rep = equivalence_constants(phi, target, t_min=1e-6, t_max=1e6)
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
