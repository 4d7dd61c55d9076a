"""Quantitative claims run as reproducible experiments over function families.

Each verify_* function assembles a family, sweeps one inequality or
equivalence over it at a base quadrature resolution and once more at a
refined resolution, and returns a VerificationReport.  Acceptance is
finiteness plus refinement stability: empirical constants that move by at
most 10% under refinement pass, drift up to 50% is inconclusive (quadrature
limits, not violations), and anything beyond that fails.  The layers
below return plain numbers and every verdict is decided here, against
module constants (CESARO_LOWER_OVER_M_MIN, _TEST_FUNCTION_BRACKET) or the
tol of the Cesaro upper check.

Reports are deterministic functions of (seed, configuration): families are
drawn from a seeded generator, reductions are ordered, and case-level work is
safe to fan out over threads without changing a single bit of the output.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError
from .growth import (
    GrowthFunction,
    equivalence_constants,
    interpolate_growth,
    power_growth,
    rho_power,
)
from .holo import DEFAULT_TRUNCATION_DEGREE, Series, test_function, to_series
from .measure import WeightedMeasure, make_measure
from .norms import (
    derivative_modulars,
    derivative_pointwise_constant,
    luxemburg_norm,
    pointwise_bound_constant,
    rule_for_function,
    small_type_estimate_check,
)
from .operators import (
    CesaroSymbol,
    bloch_seminorm,
    cesaro_apply_exact,
    cesaro_norm_lower_bound,
    cesaro_upper_bound_check,
)

__all__ = [
    "VerificationReport",
    "default_family",
    "default_symbols",
    "verify_derivative_equivalence",
    "verify_pointwise_estimates",
    "verify_test_functions",
    "verify_cesaro_boundedness",
    "verify_cesaro_compactness",
    "verify_interpolation_power",
    "verify_small_type",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

_DRIFT_PASS = 0.10
_DRIFT_INCONCLUSIVE = 0.50
_TEST_FUNCTION_RADII = (0.0, 0.5, 0.9, 0.99, 0.999)
# The test-function suite's ceiling on max/min of the norms: a gross sanity
# bound, since the limiting constant depends on (phi, alpha, k) and reaches
# ~1.2e3 for t^(1/2) at alpha = 2.5.
_TEST_FUNCTION_BRACKET = 1e4
_COMPACTNESS_RADII = (0.5, 0.9, 0.99, 0.999)

# The boundedness suite's floor on (family lower bound on ||T_g||) / (Bloch
# seminorm of g).  It was frozen from a calibration sweep over the twelve
# stock combinations (symbols z1, z1^2, z1+z1^2; growth functions t^(1/2),
# t^2; weights alpha 0 and 1; n = 1, seed 0), whose observed ratios were
#
#     0.5424* 0.6058  0.7359  0.7750  0.7849  0.8418
#     0.9945  0.9952  1.2348  1.3254  1.4339  1.4506
#
# (* minimum 0.542379, at t^(1/2), alpha = 1, g = z1^2).  The floor sits a
# notch below the minimum, so the suite detects a real loss of the two-sided
# comparison rather than noise, while staying far above the 0.1 sanity line.
CESARO_LOWER_OVER_M_MIN = 0.5


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    verdict: str
    seed: int
    config: dict
    cases: tuple
    empirical_constants: dict
    rule_info: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def _map_ordered(fn, items, jobs: int):
    """Apply fn over items, optionally threaded, preserving input order."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _drift(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _drift_verdict(drifts, finite_values) -> str:
    if not all(math.isfinite(v) for v in finite_values):
        return FAIL
    worst = max(drifts) if drifts else 0.0
    if worst <= _DRIFT_PASS:
        return PASS
    if worst <= _DRIFT_INCONCLUSIVE:
        return INCONCLUSIVE
    return FAIL


def _e1_monomial(n: int, k: int) -> Series:
    return Series(n, {(k,) + (0,) * (n - 1): 1.0})


def _e1_point(n: int, r: float) -> np.ndarray:
    a = np.zeros(n, dtype=complex)
    a[0] = r
    return a


def default_family(phi: GrowthFunction, measure: WeightedMeasure, seed: int):
    """The standard sweep family: the monomials z1^k for k = 1..8, ten seeded
    random polynomials of degree <= 6, and the kernel test functions attached
    to 0.5 e1 and 0.9 e1, truncated at DEFAULT_TRUNCATION_DEGREE.

    Returns (case id, function) pairs; every member is a nonconstant Series,
    so one exact code path serves every downstream operator.
    """
    n = measure.n
    fam: list[tuple[str, Series]] = []
    for k in range(1, 9):
        fam.append((f"monomial:k={k}", _e1_monomial(n, k)))
    rng = np.random.default_rng(seed)
    for i in range(10):
        terms: dict[tuple, complex] = {}
        lead = int(rng.integers(1, 6 + 1))
        terms[(lead,) + (0,) * (n - 1)] = complex(*rng.normal(size=2))
        for _ in range(5):
            m = tuple(int(v) for v in rng.integers(0, 6 + 1, size=n))
            if sum(m) > 6:
                continue
            terms[m] = terms.get(m, 0.0) + complex(*rng.normal(size=2))
        fam.append((f"random:i={i}", Series(n, terms)))
    for r in (0.5, 0.9):
        f_a = test_function(phi, _e1_point(n, r), measure.alpha)
        fam.append((f"testfn:a={r:g}", to_series(f_a, DEFAULT_TRUNCATION_DEGREE)))
    return fam


def default_symbols(n: int):
    """The stock Cesaro symbols: z1, z1^2, and their sum."""
    z1 = _e1_monomial(n, 1)
    z1sq = _e1_monomial(n, 2)
    both = Series(n, dict(z1.terms) | dict(z1sq.terms))
    return [("g=z1", z1), ("g=z1^2", z1sq), ("g=z1+z1^2", both)]


# ---------------------------------------------------------------------------
# Suites


def verify_derivative_equivalence(phi: GrowthFunction, alpha: float, n: int = 1,
                                  family=None, seed: int = 0,
                                  base_degree: int = 32,
                                  jobs: int = 1) -> VerificationReport:
    """Two-sided comparison of the four norm-defining modulars.

    Per function: modulars of |f - f(0)|, |invariant gradient|,
    (1-|z|^2)|grad f| and (1-|z|^2)|Rf| at base and refined quadrature, one
    gradient sweep per rule, and the per-case ratios.  The reported
    constants are the worst ratios across the family; the verdict is their
    refinement drift.
    """
    measure = make_measure(n, alpha)
    fam = default_family(phi, measure, seed) if family is None else list(family)

    def run_case(item):
        cid, f = item
        rule0 = rule_for_function(f, measure, phi, base_degree)
        rule1 = rule_for_function(f, measure, phi, base_degree, refine=1)
        m0 = derivative_modulars(f, phi, rule0)
        m1 = derivative_modulars(f, phi, rule1)
        if min(m0["function"], m0["weighted_radial"]) <= 0.0:
            raise DomainError(f"family member {cid} is constant on the rule nodes")
        return {
            "id": cid,
            "quantities": {"base": m0, "refined": m1},
            "ratios": {
                "up_base": m0["invariant_gradient"] / m0["function"],
                "up_refined": m1["invariant_gradient"] / m1["function"],
                "down_base": m0["function"] / m0["weighted_radial"],
                "down_refined": m1["function"] / m1["weighted_radial"],
            },
            "rules": [rule0.rule_id, rule1.rule_id],
        }

    cases = _map_ordered(run_case, fam, jobs)
    c_plus0 = max(c["ratios"]["up_base"] for c in cases)
    c_plus1 = max(c["ratios"]["up_refined"] for c in cases)
    c_minus0 = max(c["ratios"]["down_base"] for c in cases)
    c_minus1 = max(c["ratios"]["down_refined"] for c in cases)
    drifts = [_drift(c_plus0, c_plus1), _drift(c_minus0, c_minus1)]
    verdict = _drift_verdict(drifts, [c_plus0, c_plus1, c_minus0, c_minus1])
    constants = {
        "C_plus": c_plus0,
        "C_minus": c_minus0,
        "C_plus_drift": drifts[0],
        "C_minus_drift": drifts[1],
    }
    return VerificationReport(
        suite="derivative_equivalence", verdict=verdict, seed=seed,
        config={"phi": phi.name, "alpha": alpha, "n": n, "base_degree": base_degree,
                "family_size": len(fam)},
        cases=tuple(cases), empirical_constants=constants,
        rule_info={"base_degree": base_degree, "refined": "degree doubled"},
    )


def verify_pointwise_estimates(phi: GrowthFunction, alpha: float, n: int = 1,
                               seed: int = 0, jobs: int = 1) -> VerificationReport:
    """Interior growth control by the inverse growth function.

    For each family member, the largest ratio of |f(z)| (and of
    (1-|z|^2)|grad f(z)|) to Phi^{-1}((1-|z|^2)^{-(n+1+alpha)}) ||f|| over a
    probe grid reaching radius 0.999, at two quadrature resolutions.
    """
    measure = make_measure(n, alpha)
    fam = default_family(phi, measure, seed)

    sweeps = (("value", pointwise_bound_constant), ("gradient", derivative_pointwise_constant))

    def run_case(item):
        cid, f = item
        return {"id": cid, "quantities": {
            f"{kind}_{res}": sweep([f], phi, measure, refine=refine)
            for kind, sweep in sweeps for res, refine in (("base", 0), ("refined", 1))}}

    cases = _map_ordered(run_case, fam, jobs)
    top = {key: max(c["quantities"][key] for c in cases) for key in cases[0]["quantities"]}
    drifts = [_drift(top[f"{kind}_base"], top[f"{kind}_refined"]) for kind, _ in sweeps]
    verdict = _drift_verdict(drifts, top.values())
    constants = {
        "C_value": top["value_base"],
        "C_gradient": top["gradient_base"],
        "C_value_drift": drifts[0],
        "C_gradient_drift": drifts[1],
    }
    return VerificationReport(
        suite="pointwise_estimates", verdict=verdict, seed=seed,
        config={"phi": phi.name, "alpha": alpha, "n": n, "family_size": len(fam)},
        cases=tuple(cases), empirical_constants=constants,
        rule_info={"probe_radius_max": 0.999},
    )


def verify_test_functions(phi: GrowthFunction, alpha: float, n: int = 1,
                          seed: int = 0, jobs: int = 1) -> VerificationReport:
    """Uniform boundedness of the kernel test-function norms.

    The test functions take test_function's default k and sit at |a| in
    _TEST_FUNCTION_RADII.  The operative detector is the growth trend: the
    log-log slope of the norm against 1/(1-|a|) between the last two radii
    must not exceed 0.05 (a converging, even increasing, sequence has slope
    near 0; an unbounded family has a genuinely positive exponent).  max/min
    must also stay under _TEST_FUNCTION_BRACKET.
    """
    measure = make_measure(n, alpha)
    radii = list(_TEST_FUNCTION_RADII)

    def run_case(r: float):
        f_a = test_function(phi, _e1_point(n, r), alpha)
        rule = rule_for_function(f_a, measure, phi)
        norm = luxemburg_norm(f_a, phi, rule)
        return {
            "id": f"a={r:g}",
            "quantities": {"norm": norm.lambda_star, "residual": norm.residual},
            "rules": [rule.rule_id],
        }

    cases = _map_ordered(run_case, radii, jobs)
    norms = [c["quantities"]["norm"] for c in cases]
    vmax, vmin = max(norms), min(norms)
    ratio = vmax / vmin if vmin > 0 else math.inf
    slope = 0.0
    if norms[-1] > 0 and norms[-2] > 0:
        x_prev = -math.log(1.0 - radii[-2])
        x_last = -math.log(1.0 - radii[-1])
        slope = (math.log(norms[-1]) - math.log(norms[-2])) / (x_last - x_prev)
    ok = math.isfinite(ratio) and ratio <= _TEST_FUNCTION_BRACKET and slope <= 0.05
    constants = {"norm_max": vmax, "norm_min": vmin, "max_over_min": ratio,
                 "tail_slope": slope}
    return VerificationReport(
        suite="test_functions", verdict=PASS if ok else FAIL, seed=seed,
        config={"phi": phi.name, "alpha": alpha, "n": n,
                "k": "auto", "bracket": _TEST_FUNCTION_BRACKET, "radii": radii},
        cases=tuple(cases), empirical_constants=constants,
        rule_info={"rule": "boundary-refined, auto angular"},
    )


def verify_cesaro_boundedness(phi: GrowthFunction, alpha: float, n: int = 1,
                              symbols=None, family=None, seed: int = 0,
                              tol: float = 1e-6, jobs: int = 1) -> VerificationReport:
    """Two-sided control of the Cesaro operator by the Bloch seminorm.

    Per symbol: the modular-level upper check (integrand dominated via the
    operator identity; must come out <= 1 + tol) and the family ratio
    max ||T_g f|| / ||f||, divided by M, which must reach
    CESARO_LOWER_OVER_M_MIN across the family.
    """
    measure = make_measure(n, alpha)
    fam = default_family(phi, measure, seed) if family is None else list(family)
    fam_fns = [f for _, f in fam]
    syms = default_symbols(n) if symbols is None else list(symbols)

    def run_case(item):
        sid, g = item
        sym = CesaroSymbol(g)
        bl = bloch_seminorm(sym)
        if bl.M <= 0.0:
            raise DomainError(f"symbol {sid} has zero Bloch seminorm")
        low = cesaro_norm_lower_bound(sym, phi, measure, fam_fns)
        worst_upper = cesaro_upper_bound_check(sym, phi, measure, fam_fns, bl.M)
        return {
            "id": sid,
            "quantities": {
                "bloch_m": bl.M,
                "lower_bound": low.value,
                "lower_over_m": low.value / bl.M,
                "worst_upper_modular": worst_upper,
            },
            "upper_passes": worst_upper <= 1.0 + tol,
        }

    cases = _map_ordered(run_case, syms, jobs)
    min_ratio = min(c["quantities"]["lower_over_m"] for c in cases)
    worst_mod = max(c["quantities"]["worst_upper_modular"] for c in cases)
    ok = all(c["upper_passes"] for c in cases) and min_ratio >= CESARO_LOWER_OVER_M_MIN
    constants = {"lower_over_m_min": min_ratio, "worst_upper_modular": worst_mod,
                 "c_min_floor": CESARO_LOWER_OVER_M_MIN}
    return VerificationReport(
        suite="cesaro_boundedness", verdict=PASS if ok else FAIL, seed=seed,
        config={"phi": phi.name, "alpha": alpha, "n": n, "tol": tol,
                "symbols": [sid for sid, _ in syms], "family_size": len(fam)},
        cases=tuple(cases), empirical_constants=constants,
        rule_info={"operator_path": "exact coefficients on truncations"},
    )


def verify_cesaro_compactness(phi: GrowthFunction, alpha: float, n: int = 1,
                              seed: int = 0, jobs: int = 1) -> VerificationReport:
    """Vanishing of ||T_g f_a|| along test functions pushed to the sphere.

    The little-Bloch symbol g = z1 should crush the test-function sequence
    (default k, |a| in _COMPACTNESS_RADII, truncated at
    DEFAULT_TRUNCATION_DEGREE): the norms must decrease beyond their peak and
    end below a tenth of it.  The per-case chain ratio
    (1-|a|^2)|Rg(a)| / ||T_g f_a|| is recorded as the empirical constant of
    the necessity direction, not asserted.
    """
    measure = make_measure(n, alpha)
    sym = CesaroSymbol(_e1_monomial(n, 1))
    radii = list(_COMPACTNESS_RADII)

    def run_case(r: float):
        a = _e1_point(n, r)
        f_a = to_series(test_function(phi, a, alpha), DEFAULT_TRUNCATION_DEGREE)
        tf = cesaro_apply_exact(sym, f_a, DEFAULT_TRUNCATION_DEGREE)
        rule = rule_for_function(tf, measure, phi)
        norm = luxemburg_norm(tf, phi, rule).lambda_star
        rg_at_a = abs(complex(sym.rg.eval(a)))
        weighted = (1.0 - r * r) * rg_at_a
        return {
            "id": f"a={r:g}",
            "quantities": {
                "transformed_norm": norm,
                "weighted_rg_at_a": weighted,
                "chain_ratio": weighted / norm if norm > 0 else math.inf,
            },
        }

    cases = _map_ordered(run_case, radii, jobs)
    norms = [c["quantities"]["transformed_norm"] for c in cases]
    vmax = max(norms)
    j0 = norms.index(vmax)
    decreasing = all(norms[j + 1] <= norms[j] * 1.02 for j in range(j0, len(norms) - 1))
    final_over_max = norms[-1] / vmax if vmax > 0 else math.inf
    ok = decreasing and final_over_max < 0.1
    chain_c = max(c["quantities"]["chain_ratio"] for c in cases)
    constants = {"final_over_max": final_over_max, "peak_index": float(j0),
                 "chain_constant": chain_c}
    return VerificationReport(
        suite="cesaro_compactness", verdict=PASS if ok else FAIL, seed=seed,
        config={"phi": phi.name, "alpha": alpha, "n": n,
                "k": "auto", "radii": radii,
                "truncation_degree": DEFAULT_TRUNCATION_DEGREE},
        cases=tuple(cases), empirical_constants=constants,
        rule_info={"operator_path": "exact coefficients on truncations"},
    )


def verify_interpolation_power(p0: float, p1: float, theta: float,
                               alpha: float = 0.0, n: int = 1, seed: int = 0,
                               jobs: int = 1) -> VerificationReport:
    """Power-function interpolation: the combined growth function must match
    t^(p_theta), 1/p_theta = (1-theta)/p0 + theta/p1, and Luxembourg norms in
    the two functions must agree within the lifted two-sided constant."""
    if not (1.0 <= p0 <= p1):
        raise DomainError(f"need 1 <= p0 <= p1, got ({p0}, {p1})")
    if not (0.0 < theta < 1.0):
        raise DomainError(f"theta must lie in (0, 1), got {theta}")
    phi = interpolate_growth(power_growth(p0), power_growth(p1), rho_power(theta))
    p_theta = 1.0 / ((1.0 - theta) / p0 + theta / p1)
    target = power_growth(p_theta)
    eq = equivalence_constants(phi, target)
    c_two_sided = max(eq.c_upper, 1.0 / eq.c_lower)
    norm_bracket = c_two_sided ** (1.0 / p_theta) * (1.0 + 1e-6)

    measure = make_measure(n, alpha)
    fam = [(f"monomial:k={kk}", _e1_monomial(n, kk)) for kk in range(1, 5)]

    def run_case(item):
        cid, f = item
        rule = rule_for_function(f, measure, target)
        n_phi = luxemburg_norm(f, phi, rule).lambda_star
        n_tgt = luxemburg_norm(f, target, rule).lambda_star
        ratio = n_phi / n_tgt
        return {
            "id": cid,
            "quantities": {"norm_interp": n_phi, "norm_power": n_tgt, "ratio": ratio},
            "within_bracket": bool(1.0 / norm_bracket <= ratio <= norm_bracket),
        }

    cases = _map_ordered(run_case, fam, jobs)
    ok = (math.isfinite(c_two_sided) and c_two_sided <= 1.01
          and all(c["within_bracket"] for c in cases))
    constants = {"two_sided_constant": c_two_sided, "p_theta": p_theta,
                 "norm_bracket": norm_bracket}
    return VerificationReport(
        suite="interpolation_power", verdict=PASS if ok else FAIL, seed=seed,
        config={"p0": p0, "p1": p1, "theta": theta, "alpha": alpha, "n": n},
        cases=tuple(cases), empirical_constants=constants,
        rule_info={"grid": "t in [1e-6, 1e6]"},
    )


def verify_small_type(p: float, alpha: float, n: int = 1, family=None,
                      seed: int = 0, jobs: int = 1) -> VerificationReport:
    """Weighted L^1 domination by the p-th power of the A^p quasi-norm."""
    measure = make_measure(n, alpha)
    phi = power_growth(p)
    fam = default_family(phi, measure, seed) if family is None else list(family)
    fam_fns = [f for _, f in fam]
    rep0 = small_type_estimate_check(fam_fns, p, measure)
    rep1 = small_type_estimate_check(fam_fns, p, measure, refine=1)
    drift = _drift(rep0.constant, rep1.constant)
    verdict = _drift_verdict([drift], [rep0.constant, rep1.constant])
    cases = tuple(
        {"id": fam[i][0],
         "quantities": {"ratio_base": rep0.ratios[i], "ratio_refined": rep1.ratios[i]}}
        for i in range(len(fam))
    )
    constants = {"C": rep0.constant, "C_drift": drift,
                 "weight_exponent": rep0.weight_exponent}
    return VerificationReport(
        suite="small_type", verdict=verdict, seed=seed,
        config={"p": p, "alpha": alpha, "n": n, "family_size": len(fam)},
        cases=cases, empirical_constants=constants,
        rule_info={"rule_base": rep0.rule_id, "rule_refined": rep1.rule_id},
    )
