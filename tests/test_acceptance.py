"""Acceptance gate: the eleven quantitative criteria, one line each.

Each test pins the tolerance and the runtime cap it must meet and prints a
single PASS line (visible under pytest -s; under plain pytest -v the test
name itself is the per-criterion line).  Expected values come from closed
forms or from the frozen calibration constant
harness.CESARO_LOWER_OVER_M_MIN, never from the code under test.
"""

import json
import math
import time

import numpy as np
import pytest

from bergman_orlicz import cli
from bergman_orlicz.growth import (
    complementary,
    equivalence_constants,
    indices,
    interpolate_growth,
    nabla2_check,
    power_growth,
    power_log_growth,
    resolve_growth,
    rho_power,
    shipped_growth_ids,
)
from bergman_orlicz.harness import (
    CESARO_LOWER_OVER_M_MIN,
    default_family,
    verify_cesaro_boundedness,
    verify_cesaro_compactness,
    verify_derivative_equivalence,
)
from bergman_orlicz.holo import Series, chain_inequality_check
from bergman_orlicz.measure import build_rule, make_measure
from bergman_orlicz.norms import luxemburg_norm, modular, rule_for_function
from bergman_orlicz.operators import (
    CesaroSymbol,
    bloch_seminorm,
    cesaro_apply_exact,
    cesaro_apply_numeric,
    cesaro_norm_lower_bound,
    radial_derivative_identity_check,
)
from quadrature_helpers import integrate


def report(num, label, elapsed, cap):
    print(f"[criterion {num:02d}] {label}: PASS ({elapsed:.2f}s < {cap:g}s)")


def random_series(rng, n, degree, constant_free=False):
    terms = {}
    lo = 1 if constant_free else 0
    lead = int(rng.integers(1, degree + 1))
    terms[(lead,) + (0,) * (n - 1)] = complex(*rng.normal(size=2))
    for _ in range(4):
        m = tuple(int(v) for v in rng.integers(lo, degree + 1, size=n))
        if 0 < sum(m) <= degree or (sum(m) == 0 and not constant_free):
            terms[m] = complex(*rng.normal(size=2))
    return Series(n, terms)


def ball_point(rng, n, radius=0.75):
    w = rng.normal(size=(n, 2))
    z = w[:, 0] + 1j * w[:, 1]
    return z * (radius * rng.uniform(0.1, 1.0) / max(np.linalg.norm(z), 1e-12))


def test_criterion_01_moment_oracle():
    t0 = time.monotonic()
    for alpha in (0.0, 0.5, 1.0, 2.5):
        measure = make_measure(1, alpha)
        rule = build_rule(measure, degree=18)
        for k in range(9):
            exact = (math.gamma(k + 1.0) * math.gamma(alpha + 2.0)
                     / math.gamma(k + alpha + 2.0))
            got = integrate(rule, lambda z, kk=k: np.abs(z[:, 0]) ** (2 * kk))
            assert abs(got.real - exact) < 1e-12, (alpha, k)
            assert abs(got.imag) < 1e-14
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, "weighted moments match the Beta closed form", elapsed, 1)


def test_criterion_02_cesaro_exact_vs_quadrature():
    rng = np.random.default_rng(2)
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2):
        for _ in range(500):
            g = random_series(rng, n, 8, constant_free=True)
            f = random_series(rng, n, 8)
            sym = CesaroSymbol(g)
            exact = cesaro_apply_exact(sym, f, truncation_degree=16)
            z = ball_point(rng, n)
            gap = abs(complex(exact.eval(z))
                      - complex(cesaro_apply_numeric(sym, f, z)))
            worst = max(worst, gap)
            assert gap < 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, f"exact vs ray quadrature over 1000 draws (worst {worst:.1e})",
           elapsed, 10)


def test_criterion_03_radial_derivative_identity():
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    for case in range(1000):
        n = 1 + (case % 2)
        g = random_series(rng, n, 6, constant_free=True)
        f = random_series(rng, n, 6)
        samples = np.array([ball_point(rng, n)])
        rep = radial_derivative_identity_check(CesaroSymbol(g), f, samples)
        assert rep.coefficient_deviation == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(3, "R(T_g f) = f Rg coefficient-exact on 1000 pairs", elapsed, 5)


def test_criterion_04_luxembourg_consistency():
    t0 = time.monotonic()
    measure = make_measure(1, 0.5)
    f = Series(1, {(1,): 1.0, (2,): -0.7j, (4,): 0.3})
    for p in (0.5, 1.0, 2.0, 3.0):
        phi = power_growth(p)
        rule = rule_for_function(f, measure, phi)
        lam = luxemburg_norm(f, phi, rule).lambda_star
        mod = modular(f, phi, rule)
        assert abs(lam - mod ** (1.0 / p)) <= 1e-8 * max(lam, 1.0)
    philog = power_log_growth(2, a=1)
    rule = rule_for_function(f, measure, philog)
    base = luxemburg_norm(f, philog, rule).lambda_star
    for c in (0.1, 3.0, 10.0):
        scaled = luxemburg_norm(f.scaled(c), philog, rule).lambda_star
        assert abs(scaled - c * base) <= 1e-8 * max(scaled, 1.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(4, "lambda* = modular^(1/p) and homogeneity", elapsed, 5)


def test_criterion_05_derivative_equivalence_suite():
    t0 = time.monotonic()
    phis = [power_growth(0.5), power_growth(2), power_growth(3),
            power_log_growth(2, a=1)]
    for phi in phis:
        for alpha in (0.0, 1.0, 2.5):
            rep = verify_derivative_equivalence(phi, alpha, n=1, seed=0, jobs=4)
            cs = rep.empirical_constants
            assert rep.verdict == "pass", (phi.name, alpha, cs)
            assert math.isfinite(cs["C_plus"]) and math.isfinite(cs["C_minus"])
            assert cs["C_plus_drift"] <= 0.10 and cs["C_minus_drift"] <= 0.10
            # the pointwise chain lemma on every member's base rule
            measure = make_measure(1, alpha)
            for cid, f in default_family(phi, measure, 0):
                rule = rule_for_function(f, measure, phi)
                assert chain_inequality_check(f, rule.points).ok, (phi.name, alpha, cid)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(5, "four-modular equivalence stable over 12 configurations",
           elapsed, 120)


def test_criterion_06_bloch_values():
    t0 = time.monotonic()
    m1 = bloch_seminorm(CesaroSymbol(Series(1, {(1,): 1.0}))).M
    m2 = bloch_seminorm(CesaroSymbol(Series(1, {(2,): 1.0}))).M
    assert abs(m1 - 2.0 / (3.0 * math.sqrt(3.0))) < 1e-4
    assert abs(m2 - 0.5) < 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(6, "Bloch seminorms of z and z^2", elapsed, 1)


def test_criterion_07_boundedness_suite():
    t0 = time.monotonic()
    c_min = CESARO_LOWER_OVER_M_MIN
    assert c_min > 0.1
    for p in (0.5, 2.0):
        for alpha in (0.0, 1.0):
            rep = verify_cesaro_boundedness(power_growth(p), alpha, seed=0, jobs=4)
            cs = rep.empirical_constants
            assert rep.verdict == "pass", (p, alpha, cs)
            assert cs["worst_upper_modular"] <= 1.0 + 1e-6
            assert cs["lower_over_m_min"] >= c_min
    # scaling g -> 2g leaves lower/M invariant
    measure = make_measure(1, 0.0)
    phi = power_growth(2)
    fam = [Series(1, {(0,): 1.0}), Series(1, {(1,): 1.0}), Series(1, {(3,): 0.5})]
    for g in (Series(1, {(1,): 1.0}), Series(1, {(2,): 1.0}),
              Series(1, {(1,): 1.0, (2,): 1.0})):
        r = []
        for c in (1.0, 2.0):
            sym = CesaroSymbol(g.scaled(c))
            low = cesaro_norm_lower_bound(sym, phi, measure, fam)
            r.append(low.value / bloch_seminorm(sym).M)
        assert abs(r[1] - r[0]) <= 1e-6 * max(r)
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    report(7, f"two-sided operator bounds, floor {c_min}", elapsed, 180)


def test_criterion_08_compactness_suite():
    t0 = time.monotonic()
    for p in (2.0, 0.5):
        rep = verify_cesaro_compactness(power_growth(p), 0.0, seed=0, jobs=4)
        cs = rep.empirical_constants
        assert rep.verdict == "pass", (p, cs)
        assert cs["final_over_max"] < 0.1
        norms = [c["quantities"]["transformed_norm"] for c in rep.cases]
        peak = int(cs["peak_index"])
        assert all(norms[j + 1] <= norms[j] * 1.02
                   for j in range(peak, len(norms) - 1))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(8, "transformed test-function norms collapse", elapsed, 120)


def test_criterion_09_interpolation_power():
    t0 = time.monotonic()
    phi = interpolate_growth(power_growth(2), power_growth(4), rho_power(0.5))
    rep = equivalence_constants(phi, power_growth(8.0 / 3.0))
    two_sided = max(rep.c_upper, 1.0 / rep.c_lower)
    assert two_sided <= 1.01
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(9, f"interpolated growth matches t^(8/3) within {two_sided:.6f}",
           elapsed, 1)


def test_criterion_10_growth_calculus():
    t0 = time.monotonic()
    for p in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0, 3.0):
        rep = indices(power_growth(p))
        assert abs(rep.a_phi - p) < 1e-6 and abs(rep.b_phi - p) < 1e-6
    psi = complementary(power_growth(2))
    s = np.logspace(-6, 6, 400)
    assert np.max(np.abs(psi(s) - s * s / 4.0) / (s * s / 4.0)) < 1e-8
    for gid in shipped_growth_ids():
        assert nabla2_check(resolve_growth(gid)).agrees, gid
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(10, "indices, conjugate, nabla2 criterion on shipped functions",
           elapsed, 5)


def test_criterion_11_deterministic_reports(tmp_path):
    t0 = time.monotonic()
    suites = "derivative_equivalence,cesaro_boundedness,small_type"
    args = ["verify", "--suite", suites, "--seed", "13"]
    d1, d2, d3 = (tmp_path / x for x in ("one", "two", "three"))
    assert cli.main(args + ["--out", str(d1), "--jobs", "1"]) == 0
    assert cli.main(args + ["--out", str(d2), "--jobs", "1"]) == 0
    assert cli.main(args + ["--out", str(d3), "--jobs", "4"]) == 0
    names = sorted(p.name for p in d1.glob("*.json"))
    assert len(names) == 3
    for name in names:
        b1 = (d1 / name).read_bytes()
        assert b1 == (d2 / name).read_bytes(), f"rerun differs: {name}"
        assert b1 == (d3 / name).read_bytes(), f"parallel run differs: {name}"
        doc = json.loads(b1)
        assert cli.canonical_json(doc).encode() == b1
    elapsed = time.monotonic() - t0
    report(11, "byte-identical reports across reruns and thread counts",
           elapsed, math.inf)
