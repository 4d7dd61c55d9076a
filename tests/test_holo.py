"""Holomorphic function representations: evaluation, derivatives, specs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_orlicz.errors import DomainError, FunctionSpecError
from bergman_orlicz.growth import power_growth
from bergman_orlicz.holo import (
    KernelPower,
    Product,
    Series,
    Sum,
    cauchy_gradient,
    chain_inequality_check,
    function_from_spec,
    function_to_spec,
    invariant_gradient,
    to_series,
)
from bergman_orlicz.holo import test_function as kernel_test_function
from bergman_orlicz.measure import kernel_factor, mobius_apply
from bergman_orlicz.operators import CesaroSymbol, cesaro_apply_numeric

RNG = np.random.default_rng(20260817)


def random_points(n, count, radius=0.7):
    w = RNG.normal(size=(count, n, 2))
    pts = w[..., 0] + 1j * w[..., 1]
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    scales = radius * RNG.uniform(0.05, 1.0, size=(count, 1)) / np.maximum(norms, 1e-12)
    return pts * scales


def test_series_eval_matches_horner_by_hand():
    # f(z) = 3 + 2 z1 z2 - i z1^2
    f = Series(2, {(0, 0): 3.0, (1, 1): 2.0, (2, 0): -1j})
    z = np.array([[0.2 + 0.1j, -0.3j]])
    z1, z2 = z[0]
    expected = 3.0 + 2.0 * z1 * z2 - 1j * z1 ** 2
    assert complex(f.eval(z)[0]) == pytest.approx(expected, abs=1e-16)


def test_series_single_point_convention():
    f = Series(1, {(2,): 1.0})
    assert isinstance(f.eval(0.5 + 0.5j), complex)
    assert isinstance(f.eval(np.array(0.5 + 0.5j)), complex)
    assert isinstance(f.eval(np.array([0.5 + 0.5j])), complex)
    g = Series(2, {(1, 1): 1.0})
    val = g.eval(np.array([0.3 + 0j, 0.4 + 0j]))
    assert val == pytest.approx(0.12)
    with pytest.raises(DomainError):
        g.eval(np.array([0.1, 0.2, 0.3]))


_N1_F = Series(1, {(2,): 1.0, (1,): 0.5j})
_N1_POINT_OPS = {
    "eval": _N1_F.eval,
    "partials": _N1_F.partials,
    "kernel_factor": lambda z: kernel_factor(z, np.array([0.5j]), 2.0),
    "mobius_apply": lambda z: mobius_apply(np.array([0.3 + 0.1j]), z),
    "cauchy_gradient": lambda z: cauchy_gradient(_N1_F, z),
    "cesaro_apply_numeric": lambda z: cesaro_apply_numeric(
        CesaroSymbol(Series(1, {(1,): 1.0})), _N1_F, z),
}


@pytest.mark.parametrize("name", sorted(_N1_POINT_OPS))
def test_n1_flat_array_is_a_batch(name):
    # At n = 1 a flat array of N coordinates is N points; a scalar or a
    # length-1 vector is one point.
    op = _N1_POINT_OPS[name]
    z = np.array([0.1, 0.2j, -0.3])
    batch = op(z)
    assert np.shape(batch)[0] == 3
    for i, zi in enumerate(z):
        for one_point in (zi, complex(zi), np.array([zi])):
            single = op(one_point)
            assert np.shape(single) == np.shape(batch[i])
            assert np.allclose(single, batch[i], rtol=1e-14, atol=0.0)


def test_series_partials_match_cauchy_circles():
    f = Series(2, {(3, 0): 1.5, (1, 2): -2j, (0, 1): 0.7})
    pts = random_points(2, 12)
    exact = f.partials(pts)
    numeric = cauchy_gradient(f, pts)
    assert np.max(np.abs(exact - numeric)) < 1e-12


def test_radial_derivative_multiplies_by_degree():
    f = Series(1, {(5,): 2.0, (1,): 1.0})
    rf = f.radial_derivative()
    assert rf.terms == {(5,): 10.0, (1,): 1.0}


def test_radial_derivative_is_z_dot_gradient():
    f = Series(2, {(2, 1): 1.0, (0, 3): -0.5j})
    pts = random_points(2, 20)
    lhs = f.radial_derivative().eval(pts)
    rhs = np.sum(pts * f.partials(pts), axis=1)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_kernel_power_matches_series_expansion():
    a = np.array([0.5 + 0.2j])
    kp = KernelPower(center=a, exponent=3.0, scale=2.0)
    poly = to_series(kp, degree=60)
    pts = random_points(1, 25, radius=0.6)
    gap = np.abs(kp.eval(pts) - poly.eval(pts))
    assert np.max(gap) < 1e-12


def _kernel_expansion_by_factorials(kp, degree):
    # c conj(a)^m (s)_k / k! * k! / prod(m_j!), k = |m|, with the multinomial
    # taken from exact factorials.
    rising = list(itertools.accumulate(range(1, degree + 1), initial=1.0,
                                       func=lambda c, k: c * (kp.exponent + k - 1.0) / k))
    powers = [list(itertools.accumulate([complex(w)] * degree, lambda x, y: x * y,
                                        initial=1.0 + 0.0j)) for w in np.conj(kp.center)]
    terms = {}
    for m in itertools.product(range(degree + 1), repeat=kp.n):
        k = sum(m)
        if k <= degree:
            multinomial = math.factorial(k) // math.prod(map(math.factorial, m))
            mono = math.prod(p[d] for p, d in zip(powers, m))
            terms[m] = mono * (kp.scale * (rising[k] * multinomial))
    return Series(kp.n, terms).terms


@pytest.mark.parametrize("center, exponent, degree", [
    # n = 2 at degree 64, and n = 1 at the largest truncation bol cesaro takes.
    ([0.6 - 0.2j, 0.3 + 0.5j], 3.0, 64),
    ([0.99 * np.exp(0.3j)], 2.5, 2144),
])
def test_kernel_expansion_keeps_the_factorial_coefficients(center, exponent, degree):
    kp = KernelPower(center=np.array(center), exponent=exponent, scale=2.0 - 1j)
    assert to_series(kp, degree).terms == _kernel_expansion_by_factorials(kp, degree)


def test_kernel_power_partials_match_cauchy_circles():
    a = np.array([0.4 - 0.3j, 0.2j])
    kp = KernelPower(center=a, exponent=2.5, scale=1.0 - 1j)
    pts = random_points(2, 10, radius=0.5)
    assert np.max(np.abs(kp.partials(pts) - cauchy_gradient(kp, pts))) < 1e-10


def test_sum_and_product_evaluate_componentwise():
    f = Series(1, {(1,): 1.0})
    g = Series(1, {(0,): 1.0, (2,): -1.0})
    s = Sum((f, g))
    p = Product(f, g)
    pts = random_points(1, 8)
    assert np.allclose(s.eval(pts), f.eval(pts) + g.eval(pts), atol=1e-16)
    assert np.allclose(p.eval(pts), f.eval(pts) * g.eval(pts), atol=1e-16)
    # product rule
    exact = p.partials(pts)
    by_rule = f.partials(pts) * g.eval(pts)[:, None] + g.partials(pts) * f.eval(pts)[:, None]
    assert np.max(np.abs(exact - by_rule)) < 1e-15


@pytest.mark.parametrize("n", [1, 2])
def test_product_bits_do_not_depend_on_the_batch_size(n):
    # R f_a is a Product of a linear Series (a view of its value column) and
    # a kernel power.  Written as left * right, numpy computed it in place
    # from 256 KiB up, as right * left: 94,698 of these 270,336 values (and
    # 96,563 partials) at n = 1, and 89,918 values at n = 2, differed
    # between one batch and batches of 8,192 points.
    centre = np.array([0.6 + 0.75j, 0.0][:n])
    g = kernel_test_function(power_growth(2), centre, 0.0).radial_derivative()
    assert isinstance(g, Product)
    radii = np.sqrt(np.linspace(0.0, 0.99, 33))
    disc = (radii[:, None] * np.exp(2j * np.pi * np.arange(8192) / 8192)).reshape(-1)
    pts = disc[:, None] * np.array([0.8, 0.3j][:n])
    batches = [pts[i:i + 8192] for i in range(0, len(pts), 8192)]
    assert g._eval(pts).tobytes() == np.concatenate([g._eval(b) for b in batches]).tobytes()
    assert (g._partials(pts).tobytes()
            == np.concatenate([g._partials(b) for b in batches]).tobytes())


def test_invariant_gradient_of_identity_map():
    # n=1, f(z)=z: (f o phi_z)'(0) = |z|^2 - 1, so the magnitude is 1-|z|^2.
    f = Series(1, {(1,): 1.0})
    z = np.array([[0.6 + 0.1j]])
    grad = invariant_gradient(f, z)
    assert np.abs(grad[0, 0]) == pytest.approx(1.0 - abs(z[0, 0]) ** 2, abs=1e-13)


def test_invariant_gradient_magnitude_at_origin():
    f = Series(2, {(1, 0): 2.0, (0, 1): 1j, (1, 1): 0.3})
    z = np.zeros((1, 2), dtype=complex)
    inv = invariant_gradient(f, z)
    assert np.linalg.norm(inv[0]) == pytest.approx(np.linalg.norm(f.partials(z)[0]), abs=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_chain_inequality_on_random_polynomials(n):
    terms = {}
    for _ in range(6):
        m = tuple(int(v) for v in RNG.integers(0, 4, size=n))
        terms[m] = complex(*RNG.normal(size=2))
    f = Series(n, terms)
    pts = random_points(n, 200, radius=0.95)
    rep = chain_inequality_check(f, pts)
    assert rep.ok, rep


def test_test_function_value_at_its_center():
    # f_a(a) = Phi^{-1}((1-|a|)^{-(n+1+alpha)}) since the kernel quotient is 1.
    phi = power_growth(2)
    alpha = 0.0
    a = np.array([0.9 + 0j])
    f = kernel_test_function(phi, a, alpha)
    m = 1 + 1 + alpha
    expected = (1.0 - 0.9) ** (-m / 2.0)  # Phi^{-1}(s) = sqrt(s)
    assert abs(complex(f.eval(np.array([a]))[0])) == pytest.approx(expected, rel=1e-12)


def test_test_function_requires_integrable_power():
    with pytest.raises(DomainError):
        kernel_test_function(power_growth(2), np.array([0.5 + 0j]), 0.0, k=0.4)


def test_test_function_refuses_a_level_beyond_the_largest_float():
    # (1 - 0.999)^-(1 + 1 + 150) is about 1e456; the refusal names the level.
    with pytest.raises(DomainError, match="overflows a float"):
        kernel_test_function(power_growth(2), np.array([0.999 + 0j]), 150.0)


def test_kernel_center_must_be_interior():
    with pytest.raises(DomainError):
        KernelPower(np.array([1.0 + 0j]), 3.0, 1.0)


def test_spec_round_trip_kernel_and_series():
    docs = [
        {"kind": "series", "n": 2, "terms": [[[1, 0], 1.0, -2.0], [[0, 3], 0.5, 0.0]]},
        {"kind": "kernel_power", "center": [[0.3, 0.1]], "exponent": 2.0,
         "scale": [1.0, 0.0]},
    ]
    for doc in docs:
        f = function_from_spec(doc)
        again = function_from_spec(function_to_spec(f))
        pts = random_points(f.n, 9, radius=0.5)
        assert np.allclose(f.eval(pts), again.eval(pts), atol=1e-16)


def test_spec_rejects_malformed():
    with pytest.raises(FunctionSpecError):
        function_from_spec({"kind": "series", "n": 1})
    with pytest.raises(FunctionSpecError):
        function_from_spec({"kind": "wavelet"})
    with pytest.raises(FunctionSpecError):
        function_from_spec([1, 2, 3])


@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),
              st.floats(min_value=-3, max_value=3),
              st.floats(min_value=-3, max_value=3)),
    min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_series_spec_round_trip_random(raw):
    terms = {}
    for k, re_c, im_c in raw:
        terms[(k,)] = terms.get((k,), 0.0) + complex(re_c, im_c)
    f = Series(1, terms)
    again = function_from_spec(function_to_spec(f))
    z = np.array([[0.37 - 0.21j]])
    assert complex(f.eval(z)[0]) == pytest.approx(complex(again.eval(z)[0]), abs=1e-15)


def test_series_rejects_bad_indices():
    with pytest.raises(DomainError):
        Series(1, {(-1,): 1.0})
    with pytest.raises(DomainError):
        Series(2, {(1,): 1.0})
    with pytest.raises(DomainError):
        Series(0, {})


def test_truncation_drops_high_degrees():
    f = Series(1, {(k,): 1.0 for k in range(10)})
    g = to_series(f, degree=4)
    assert max(sum(m) for m in g.terms) == 4


def test_off_axis_kernel_series_matches_closed_form():
    # An n = 2 centre off both coordinate axes uses every multinomial k!/m!.
    v = np.array([0.3 + 0.2j, -0.1 + 0.4j])
    kp = KernelPower(center=0.5 * v / np.linalg.norm(v), exponent=3.0, scale=2.0 - 1j)
    poly = to_series(kp)
    pts = random_points(2, 40, radius=0.5)
    gap = np.abs(kp.eval(pts) - poly.eval(pts))
    assert np.max(gap) < 1e-13
