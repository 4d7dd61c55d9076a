"""Averaging operator, Bloch seminorms, and the two-sided norm bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bergman_orlicz import operators
from bergman_orlicz.errors import NonFiniteIntegrandError, SymbolInvariantError
from bergman_orlicz.growth import power_growth
from bergman_orlicz.harness import default_symbols
from bergman_orlicz.holo import KernelPower, Series, Sum, slice_direction
from bergman_orlicz.holo import test_function as kernel_test_function
from bergman_orlicz.measure import make_measure
from bergman_orlicz.norms import luxemburg_norm, rule_for_function
from bergman_orlicz.operators import (
    CesaroSymbol,
    bloch_seminorm,
    cesaro_apply_exact,
    cesaro_apply_numeric,
    cesaro_norm_lower_bound,
    cesaro_upper_bound_check,
    radial_derivative_identity_check,
)

RNG = np.random.default_rng(404)


def random_series(n, degree, terms=5, constant_free=False):
    out = {}
    lo = 1 if constant_free else 0
    for _ in range(terms):
        m = tuple(int(v) for v in RNG.integers(lo, degree + 1, size=n))
        if sum(m) > degree or (constant_free and sum(m) == 0):
            continue
        out[m] = complex(*RNG.normal(size=2))
    out.setdefault((1,) + (0,) * (n - 1), 1.0)
    return Series(n, out)


def ball_points(n, count, radius=0.6):
    w = RNG.normal(size=(count, n, 2))
    pts = w[..., 0] + 1j * w[..., 1]
    norms = np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * (radius * RNG.uniform(0.1, 1.0, size=(count, 1)) / np.maximum(norms, 1e-12))


def test_symbol_requires_vanishing_at_origin():
    with pytest.raises(SymbolInvariantError):
        CesaroSymbol(Series(1, {(0,): 1.0, (1,): 1.0}))


def test_averaging_of_one_recovers_the_symbol():
    # T_g 1 = integral_0^1 Rg(tz) dt/t = g(z) - g(0) = g for admissible g.
    g = Series(1, {(1,): 2.0, (3,): -1j, (5,): 0.25})
    out = cesaro_apply_exact(CesaroSymbol(g), Series(1, {(0,): 1.0}))
    assert set(out.terms) == set(g.terms)
    for m, c in g.terms.items():
        assert out.terms[m] == pytest.approx(c, abs=1e-15)


def test_known_coefficients():
    sym = CesaroSymbol(Series(1, {(2,): 1.0}))
    out = cesaro_apply_exact(sym, Series(1, {(1,): 1.0}))
    assert set(out.terms) == {(3,)}
    assert out.terms[(3,)] == pytest.approx(2.0 / 3.0, abs=1e-16)

    sym2 = CesaroSymbol(Series(2, {(1, 0): 1.0}))
    out2 = cesaro_apply_exact(sym2, Series(2, {(0, 1): 1.0}))
    assert set(out2.terms) == {(1, 1)}
    assert out2.terms[(1, 1)] == pytest.approx(0.5, abs=1e-16)


@pytest.mark.parametrize("n", [1, 2])
def test_exact_matches_ray_quadrature(n):
    for _ in range(25):
        g = random_series(n, 6, constant_free=True)
        f = random_series(n, 6)
        sym = CesaroSymbol(g)
        exact = cesaro_apply_exact(sym, f, truncation_degree=14)
        pts = ball_points(n, 12)
        gap = np.abs(exact.eval(pts) - cesaro_apply_numeric(sym, f, pts))
        assert np.max(gap) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_radial_derivative_identity_is_coefficient_exact(n):
    g = random_series(n, 6, constant_free=True)
    f = random_series(n, 6)
    rep = radial_derivative_identity_check(CesaroSymbol(g), f, ball_points(n, 16))
    assert rep.coefficient_deviation == 0.0
    assert rep.sample_deviation < 1e-12


def test_bloch_seminorm_oracles():
    # sup (1-r^2) r = 2/(3 sqrt 3) at r = 1/sqrt(3);
    # sup (1-r^2) 2r^2 = 1/2 at r = 1/sqrt(2).
    rep1 = bloch_seminorm(CesaroSymbol(Series(1, {(1,): 1.0})))
    assert rep1.M == pytest.approx(2.0 / (3.0 * math.sqrt(3.0)), abs=1e-9)
    assert rep1.argmax_radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    rep2 = bloch_seminorm(CesaroSymbol(Series(1, {(2,): 1.0})))
    assert rep2.M == pytest.approx(0.5, abs=1e-9)
    assert rep2.argmax_radius == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    assert not rep1.unbounded and not rep2.unbounded


def test_bloch_seminorm_scales_linearly():
    g = Series(1, {(1,): 1.0, (2,): 0.5j})
    m1 = bloch_seminorm(CesaroSymbol(g)).M
    m2 = bloch_seminorm(CesaroSymbol(g.scaled(2.0))).M
    assert m2 == pytest.approx(2.0 * m1, rel=1e-12)


def test_n2_bloch_seminorm_of_a_symbol_on_a_line_is_its_disc_value():
    # A symbol on the line of e1 is searched on the circle e^(i theta) e1,
    # so at n = 2 the stock symbols give their n = 1 values bit for bit; the
    # 2048 sphere directions fell short of each maximum, by up to 2.4e-3.
    for (sid, g1), (_, g2) in zip(default_symbols(1), default_symbols(2)):
        assert bloch_seminorm(g2).M == bloch_seminorm(g1).M, sid


def test_n2_bloch_seminorm_of_an_off_axis_kernel_is_its_disc_value():
    # R(1 - <z, a>)^(-2) is a linear Series in both coordinates times a kernel
    # power; both lie on the line of a, so the search runs on that line and
    # meets the n = 1 value at |a| = 0.5 (unitary invariance).
    def shifted(center):
        n = len(center)
        return CesaroSymbol(Sum((KernelPower(center, 2.0), Series(n, {(0,) * n: -1.0}))))

    a = np.array([0.3, 0.4j])
    g2, g1 = shifted(a), shifted(np.array([0.5 + 0j]))
    assert np.allclose(slice_direction(g2.rg), a / 0.5)
    m1 = bloch_seminorm(g1).M
    assert m1 == pytest.approx(1.34769, abs=1e-5)
    assert bloch_seminorm(g2).M == pytest.approx(m1, rel=1e-12)


@pytest.mark.parametrize("terms, exact", [
    ({(1, 1): 1.0}, 0.25),
    ({(2, 0): 1.0, (0, 2): 1.0}, 0.5),
    ({(3, 1): 1.0}, math.sqrt(3.0) / 9.0),
], ids=["z1z2", "z1^2+z2^2", "z1^3z2"])
def test_n2_bloch_seminorm_off_a_line_meets_its_closed_form(terms, exact):
    # R(z1 z2) = 2 z1 z2 and 2|z1 z2| <= |z|^2, so M = sup r^2 (1-r^2) = 1/4;
    # likewise 2|z1^2 + z2^2| <= 2|z|^2 gives 1/2.  For z1^3 z2 the modulus
    # 4 |z1|^3 |z2| peaks at |z1|^2 = 3/4 |z|^2, and r^4 (1-r^2) at
    # r^2 = 2/3, so M = sqrt(3)/9.  None is a slice, so the search runs on
    # the 2048 sphere directions; a grid-and-polish sup reads low, by
    # 2.2e-6 relative at most here, and high by rounding only.
    g = Series(2, terms)
    assert slice_direction(g.radial_derivative()) is None
    m = bloch_seminorm(g).M
    assert exact * (1.0 - 1e-5) <= m <= exact * (1.0 + 1e-15)


def test_bloch_flags_divergent_symbol():
    # g = (1-z)^(-2): the weighted radial derivative grows like (1-r)^(-2).
    g = KernelPower(np.array([1.0 - 1e-9 + 0j]), 2.0, 1.0)
    rep = bloch_seminorm(g)
    assert rep.unbounded


def test_lower_bound_on_constant_family():
    measure = make_measure(1, 0.0)
    phi = power_growth(2)
    sym = CesaroSymbol(Series(1, {(1,): 1.0}))
    rep = cesaro_norm_lower_bound(sym, phi, measure, [Series(1, {(0,): 1.0})])
    # T_g 1 = z and ||z|| = sqrt(1/2), ||1|| = 1
    assert rep.value == pytest.approx(math.sqrt(0.5), rel=1e-9)


def test_upper_bound_modular_for_constant_argument():
    # With f = 1, g = z, Phi = t^2, alpha = 0 the modular of
    # (1-|z|^2)|f Rg| / (M ||f||) is (1/12) / M^2 = 27/48.
    measure = make_measure(1, 0.0)
    phi = power_growth(2)
    sym = CesaroSymbol(Series(1, {(1,): 1.0}))
    worst = cesaro_upper_bound_check(sym, phi, measure, [Series(1, {(0,): 1.0})],
                                     bloch_m=bloch_seminorm(sym).M)
    assert worst == pytest.approx(27.0 / 48.0, rel=1e-8)


def test_lower_over_m_is_scale_invariant():
    measure = make_measure(1, 1.0)
    phi = power_growth(2)
    fam = [Series(1, {(0,): 1.0}), Series(1, {(1,): 1.0, (2,): 0.3})]
    g = Series(1, {(1,): 1.0, (2,): 1.0})
    ratios = []
    for c in (1.0, 2.0):
        sym = CesaroSymbol(g.scaled(c))
        low = cesaro_norm_lower_bound(sym, phi, measure, fam)
        ratios.append(low.value / bloch_seminorm(sym).M)
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-6)


def test_identity_check_survives_fraction_round_trip():
    # the coefficient comparison runs in exact rational arithmetic
    f = Series(1, {(k,): Fraction(1, k + 1) for k in range(4)})
    g = Series(1, {(1,): Fraction(3, 7)})
    rep = radial_derivative_identity_check(CesaroSymbol(g), f, ball_points(1, 4))
    assert rep.coefficient_deviation == 0.0


def test_upper_bound_check_refuses_nonfinite_integrand(monkeypatch):
    # The norm reads |f| through kernel_modulus; the integrand f Rg is built
    # from f._eval, so a NaN there must name its node, not reach Phi.
    f = KernelPower(np.array([0.5 + 0j]), 4.0)
    monkeypatch.setattr(KernelPower, "_eval",
                        lambda self, pts: np.full(pts.shape[0], complex(math.nan)))
    sym = CesaroSymbol(Series(1, {(1,): 1.0}))
    with pytest.raises(NonFiniteIntegrandError):
        cesaro_upper_bound_check(sym, power_growth(2), make_measure(1, 0.0), [f], bloch_m=0.5)


def test_fraction_coefficients_stay_exact():
    f = Series(1, {(1,): Fraction(1, 3)})
    prod = f.times(Series(1, {(0,): Fraction(2, 5), (2,): Fraction(1, 7)}))
    assert prod.terms == {(1,): Fraction(2, 15), (3,): Fraction(1, 21)}
    assert all(type(c) is Fraction for c in prod.terms.values())
    out = cesaro_apply_exact(CesaroSymbol(Series(1, {(2,): Fraction(1, 7)})), f)
    # T_g f for g = z^2/7, f = z/3: z^3 gets (1/3)(2/7) / 3.
    assert out.terms == {(3,): Fraction(2, 63)}
    assert all(type(c) is Fraction for c in out.terms.values())


def _doubled(symbol, f, truncation_degree=None):
    return Series(f.n, {m: 2 * c for m, c in cesaro_apply_exact(symbol, f).terms.items()})


def _shifted_divisor(symbol, f, truncation_degree=None):
    out = {}
    for m, a in f.terms.items():
        for k, b in symbol.rg.terms.items():
            j = tuple(x + y for x, y in zip(m, k))
            out[j] = out.get(j, 0) + a * b / (sum(m) + sum(k) + 1)
    return Series(f.n, out)


@pytest.mark.parametrize("wrong", [_doubled, _shifted_divisor])
def test_identity_check_catches_a_wrong_operator(monkeypatch, wrong):
    # The coefficient pass runs the production operator, so a defect there
    # shows as a nonzero exact deviation.
    monkeypatch.setattr(operators, "cesaro_apply_exact", wrong)
    g = Series(1, {(1,): 1.0 + 0.5j, (2,): -0.25})
    f = Series(1, {(0,): 1.0, (1,): 0.5j})
    rep = radial_derivative_identity_check(CesaroSymbol(g), f, ball_points(1, 4))
    assert rep.coefficient_deviation > 0.0
