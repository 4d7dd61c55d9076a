"""Orlicz modulars, Luxembourg norms, and the pointwise-estimate sweeps.

The modular of F against a growth function Phi and the measure nu_alpha is
int Phi(|F|) d nu_alpha.  The Luxembourg norm is the infimal lambda > 0 with
modular(F / lambda) <= 1; for continuous unbounded Phi the map
lambda -> modular(F / lambda) is monotone and continuous, so bisection with a
doubling bracket always converges.  Node values of |F| are computed once per
function and reused across the bisection, which keeps kernel-heavy norms
affordable; a kernel power's come from measure.kernel_modulus, in real
arithmetic.  They are checked once, where they are produced
(measure._checked_node_values: one finite value per node), so a bisection
step, modular_of_values, only evaluates Phi.fn, weights in place and sums.
A NaN anywhere in Phi's output makes that sum NaN, which raises DomainError.

Quadrature selection: polynomial integrands get a plain product rule with
degree scaled to the function degree and the growth exponent; anything
containing a kernel power is integrated on a boundary-refined rule whose
angular resolution grows like 1/(1 - |center|), since the trapezoid error for
the peaked angular profile decays like (r |center|)^N.  At n = 2 every rule
lifts the disc rule at alpha + 1; a slice f(z) = h(<z, zeta>) gets the lift
with one phase and a short rule in t (measure.build_slice_rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentNormError, DomainError
from .growth import GrowthFunction
from .holo import HoloFunction, Product, gradient_sweep, max_kernel_center, slice_direction
from .measure import (
    QuadratureRule,
    WeightedMeasure,
    _checked_node_values,
    build_rule,
    build_slice_rule,
    sphere_directions,
)

__all__ = [
    "ModularResult",
    "LuxNorm",
    "SmallTypeReport",
    "modular",
    "modular_of_values",
    "luxemburg_norm",
    "derivative_modulars",
    "rule_for_function",
    "pointwise_bound_constant",
    "derivative_pointwise_constant",
    "small_type_estimate_check",
]

_LAMBDA_FLOOR = 1e-280
_LAMBDA_CEIL = 1e280
_BISECT_MAX_ITER = 200
_BISECT_REL_TOL = 1e-10


@dataclass(frozen=True)
class ModularResult:
    value: float
    rule_id: str


@dataclass(frozen=True)
class LuxNorm:
    lambda_star: float
    residual: float
    iterations: int
    rule_id: str


def _node_values(f, rule: QuadratureRule) -> np.ndarray:
    """|f| at the rule nodes, for a HoloFunction or a vectorized callable."""
    if isinstance(f, HoloFunction):
        vals = f._abs_eval(rule.points)
    else:
        vals = np.abs(np.asarray(f(rule.points)))
    return _checked_node_values(rule, vals)


def modular_of_values(values: np.ndarray, weights: np.ndarray,
                      phi: GrowthFunction, scale: float = 1.0) -> float:
    """sum_i w_i Phi(values_i / scale); the workhorse behind modular and norms.

    values must be moduli (non-negative), one finite value per weight, as
    measure._checked_node_values checks where they are produced; they are
    not checked again here, since a Luxembourg norm calls this once per step
    on the same values.  Phi.fn runs without GrowthFunction's argument
    check and the weights multiply its output in place.  A NaN sum raises
    DomainError.
    """
    with np.errstate(over="ignore"):
        y = phi.fn(values / scale)
        y *= weights
        total = float(y.sum())
    if math.isnan(total):
        raise DomainError(f"modular of {phi.name} is NaN; node values must be "
                          "non-negative and finite")
    return total


def modular(f, phi: GrowthFunction, rule: QuadratureRule) -> ModularResult:
    """int Phi(|f|) d nu_alpha by quadrature."""
    value = modular_of_values(_node_values(f, rule), rule.weights, phi)
    return ModularResult(value=value, rule_id=rule.rule_id)


def luxemburg_norm(f, phi: GrowthFunction, rule: QuadratureRule) -> LuxNorm:
    """inf{lambda > 0 : modular(f / lambda) <= 1} by bracketed bisection.

    The seed bracket starts at max |f| over the nodes and is doubled or halved
    until the modular straddles 1.  The returned lambda_star is the feasible
    (modular <= 1) endpoint of the final bracket.
    """
    vals = _node_values(f, rule)
    w = rule.weights
    top = float(np.max(vals)) if vals.size else 0.0
    if top == 0.0:
        return LuxNorm(lambda_star=0.0, residual=0.0, iterations=0, rule_id=rule.rule_id)

    lam = top
    m = modular_of_values(vals, w, phi, lam)
    iterations = 0
    if m <= 1.0:
        hi = lam
        while m <= 1.0:
            lam *= 0.5
            iterations += 1
            if lam < _LAMBDA_FLOOR:
                # Phi crushes every positive value; the infimum is 0 at
                # working precision.
                return LuxNorm(lambda_star=0.0, residual=abs(m - 1.0),
                               iterations=iterations, rule_id=rule.rule_id)
            m = modular_of_values(vals, w, phi, lam)
        lo = lam
    else:
        lo = lam
        while m > 1.0:
            lam *= 2.0
            iterations += 1
            if lam > _LAMBDA_CEIL:
                raise DivergentNormError(
                    f"modular stays above 1 out to lambda={lam:.3e}; "
                    f"no finite Luxembourg norm on rule {rule.rule_id}"
                )
            m = modular_of_values(vals, w, phi, lam)
        hi = lam

    # invariant: modular(lo) > 1 >= modular(hi)
    while iterations < _BISECT_MAX_ITER and (hi - lo) > _BISECT_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if modular_of_values(vals, w, phi, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    residual = abs(modular_of_values(vals, w, phi, hi) - 1.0)
    return LuxNorm(lambda_star=hi, residual=residual, iterations=iterations,
                   rule_id=rule.rule_id)


def derivative_modulars(f: HoloFunction, phi: GrowthFunction,
                        rule: QuadratureRule) -> dict[str, ModularResult]:
    """The four modulars whose simultaneous finiteness the theory equates.

    Keys, in order: "function" for |f - f(0)|, "invariant_gradient" for the
    gradient of f composed with phi_z at 0, "weighted_gradient" for
    (1-|z|^2)|grad f|, "weighted_radial" for (1-|z|^2)|Rf|.  All four reuse
    one gradient_sweep over the rule nodes.
    """
    pts = rule.points
    f0 = f.eval(np.zeros(f.n, dtype=complex))
    fvals = np.abs(f._eval(pts) - f0)
    one_minus, radial, grad_norm, invariant = gradient_sweep(f, pts)
    quantities = {
        "function": fvals,
        "invariant_gradient": invariant,
        "weighted_gradient": one_minus * grad_norm,
        "weighted_radial": one_minus * radial,
    }
    return {
        kind: ModularResult(
            value=modular_of_values(_checked_node_values(rule, vals), rule.weights, phi),
            rule_id=rule.rule_id)
        for kind, vals in quantities.items()
    }


# ---------------------------------------------------------------------------
# Rule selection


def rule_for_function(f: HoloFunction, measure: WeightedMeasure,
                      phi: GrowthFunction | None = None,
                      base_degree: int = 32,
                      refine: int = 0,
                      cofactor: HoloFunction | None = None) -> QuadratureRule:
    """Pick a rule matched to f's smoothness (n <= 2 only).

    Polynomials get degree >= q * deg(f) + margin with q the growth exponent
    (so power-function modulars are exact); kernel powers get a kernel rule
    (angular_count set) whose angular count scales like 1/(1 - |center|),
    floored at 512 on the disc.  refine doubles the degree that many times,
    for stability sweeps.

    At n = 2 a slice f(z) = h(<z, zeta>) (holo.slice_direction) gets
    build_slice_rule, with the n = 1 degree and angle formulas and
    base_degree * 2^refine // 4 + 1 nodes in t; its rule_id starts with
    "slice:".  Every other n = 2 function gets build_rule's lift with
    phases, whose kernel rules have angles floored at 48.  When the
    integrand also multiplies by cofactor (the Cesaro upper bound integrates
    f Rg), the slice rule is used only if cofactor lies on f's line; the
    degree is always read off f.
    """
    sharp = max_kernel_center(f)
    q = 2.0
    if phi is not None and phi.kind == "upper":
        q = max(q, float(phi.type_exponent))
    zeta = None
    if measure.n == 2:
        zeta = slice_direction(f if cofactor is None else Product(f, cofactor))
    on_disc = measure.n == 1 or zeta is not None
    if sharp is None:
        d = f.degree() or 0
        degree = max(base_degree, int(math.ceil(q * d)) + 8) * 2**refine
        ang = None
    else:
        # Gauss nodes cluster quadratically at the endpoints, so resolving a
        # boundary layer of width 1 - sharp needs degree ~ (1 - sharp)^(-1/2).
        gap = max(1e-4, 1.0 - sharp)
        degree = max(base_degree, 64, int(math.ceil(8.0 / math.sqrt(gap))))
        if on_disc:
            degree = min(degree, 512) * 2**refine
            ang = int(min(8192 * 2**refine, max(512, math.ceil(24.0 / gap))))
        else:
            degree = min(degree, 128) * 2**refine
            ang = int(min(96 * 2**refine, max(48, math.ceil(8.0 / max(1e-2, 1.0 - sharp)))))
    if zeta is None:
        return build_rule(measure, degree=degree, angular_count=ang)
    t_count = base_degree * 2**refine // 4 + 1
    return build_slice_rule(measure, zeta, degree, t_count, angular_count=ang)


# ---------------------------------------------------------------------------
# Pointwise-estimate sweeps


_PROBE_RADII = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999])
_PROBE_DIRECTIONS = 64


def _pointwise_sweep(family, phi: GrowthFunction, measure: WeightedMeasure,
                     weighted_gradient: bool, seed: int, refine: int) -> float:
    n = measure.n
    m = n + 1.0 + measure.alpha
    dirs = sphere_directions(n, _PROBE_DIRECTIONS, seed)
    pts = (_PROBE_RADII[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    one_minus = 1.0 - np.sum(np.abs(pts) ** 2, axis=1)
    denom = phi.inverse(one_minus ** (-m))
    worst = 0.0
    for f in family:
        rule = rule_for_function(f, measure, phi, refine=refine)
        norm = luxemburg_norm(f, phi, rule).lambda_star
        if norm <= 0.0:
            raise DomainError("pointwise sweep needs functions with positive norm")
        if weighted_gradient:
            num = one_minus * np.linalg.norm(f._partials(pts), axis=1)
        else:
            num = np.abs(f._eval(pts))
        worst = max(worst, float(np.max(num / (denom * norm))))
    return worst


def pointwise_bound_constant(family, phi: GrowthFunction, measure: WeightedMeasure,
                             seed: int = 0, refine: int = 0) -> float:
    """Empirical C with |f(z)| <= C Phi^{-1}((1-|z|^2)^{-(n+1+alpha)}) ||f||.

    Maximized over the family and a probe grid of 8 radii reaching 0.999
    times 64 directions (seeded at n = 2).  Finiteness (with refinement
    stability) is the claim under test; the value is never asserted minimal.
    """
    return _pointwise_sweep(family, phi, measure, False, seed, refine)


def derivative_pointwise_constant(family, phi: GrowthFunction, measure: WeightedMeasure,
                                  seed: int = 0, refine: int = 0) -> float:
    """Empirical C with (1-|z|^2)|grad f(z)| <= C Phi^{-1}(...) ||f||."""
    return _pointwise_sweep(family, phi, measure, True, seed, refine)


@dataclass(frozen=True)
class SmallTypeReport:
    constant: float
    p: float
    weight_exponent: float
    ratios: tuple
    rule_id: str


def small_type_estimate_check(family, p: float, measure: WeightedMeasure,
                              refine: int = 0) -> SmallTypeReport:
    """Weighted L^1 domination for exponents p <= 1.

    For each f, compare int |f| (1-|z|^2)^{(1/p - 1)(n+1+alpha)} d nu_alpha
    against int |f|^p d nu_alpha (the p-th power of the A^p quasi-norm) and
    report the largest ratio.  At p = 1 both sides coincide and the constant
    is exactly 1.
    """
    if not (0.0 < p <= 1.0):
        raise DomainError(f"small-type estimate needs 0 < p <= 1, got {p}")
    w_exp = (1.0 / p - 1.0) * (measure.n + 1.0 + measure.alpha)
    ratios = []
    rid = None
    for f in family:
        r = rule_for_function(f, measure, None, refine=refine)
        rid = r.rule_id if rid is None else rid
        vals = _node_values(f, r)
        one_minus = 1.0 - np.sum(np.abs(r.points) ** 2, axis=1)
        num = float(np.sum(r.weights * vals * one_minus**w_exp))
        den = float(np.sum(r.weights * vals**p))
        if den == 0.0:
            raise DomainError("small-type sweep needs nonzero functions")
        ratios.append(num / den)
    return SmallTypeReport(constant=max(ratios), p=p, weight_exponent=w_exp,
                           ratios=tuple(ratios), rule_id=rid or "")
