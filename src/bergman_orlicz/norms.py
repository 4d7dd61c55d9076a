"""Orlicz modulars, Luxembourg norms, and the pointwise-estimate sweeps.

The modular of F against a growth function Phi and the measure nu_alpha is
int Phi(|F|) d nu_alpha.  The Luxembourg norm is the infimal lambda > 0 with
modular(F / lambda) <= 1; for continuous unbounded Phi the map
lambda -> modular(F / lambda) is monotone and continuous, so bisection with a
doubling bracket always converges.  Every weighted sum over rule nodes
walks one tree (measure._tree_sum), numpy's own pairwise cuts down to
leaves of at most _LEAF nodes: its temporaries stay in L2 and it keeps the
bits of one np.sum over every node.  holo.on_rule yields f on each leaf of
that tree, and each leaf is checked where it is produced
(measure._checked_node_values: one finite value per node).  A norm writes
the leaves' |F| (a kernel power's in real arithmetic) into one float
array, once per function, and holds nothing else node-sized: a bisection
step, modular_of_values, only evaluates Phi.fn, weighs and sums.  Every sum
weighs a leaf's terms in place from the rule's weight table
(QuadratureRule.weigh), so each term meets the float it would meet in the
rule's (N,) weights, which no sum builds.  At n = 1 a rule has a few
hundred nodes and a step is mostly fixed cost, so it pays little besides:
one errstate per call, set by decorator, and per leaf Phi.fn, one in-place
weighing and one np.add.reduce (np.sum's pairwise sum without its Python
wrapper).  The derivative modulars, the small-type sums and the Cesaro
upper modular take the next block on each leaf, with no node-sized array;
the derivative modulars write each leaf's temporaries into scratch that
lives across leaves (holo._Scratch), which the harness keeps across the
walks of a suite.  A NaN anywhere in Phi's output makes a sum NaN, which
raises DomainError.

Quadrature selection: one measure.build_rule call per function.  Polynomial
integrands get a plain rule with degree scaled to the function degree and
the growth exponent; anything containing a kernel power gets a kernel rule
whose angular resolution grows like 1/(1 - |center|), since the trapezoid
error for the peaked angular profile decays like (r |center|)^N.  At n = 2 a
slice f(z) = h(<z, zeta>) passes its line, for the lift with one phase and
a short rule in t.  The degree, the largest |center| and the line come from
one walk over f (holo._shape).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergentNormError, DomainError, WorkbenchError
from .growth import GrowthFunction
from .holo import (
    HoloFunction,
    _Scratch,
    _direction,
    _join_lines,
    _shape,
    gradient_norms,
    gradient_sweep,
    on_rule,
)
from .measure import (
    QuadratureRule,
    WeightedMeasure,
    _checked_node_values,
    _tree_sum,
    build_rule,
    sphere_directions,
)

__all__ = [
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
_BISECT_REL_TOL = 1e-10
# Bisection steps that shrink a bracket [lo, 2 lo] below _BISECT_REL_TOL * lo.
_BISECT_TOL_STEPS = math.ceil(-math.log2(_BISECT_REL_TOL)) + 1


@dataclass(frozen=True)
class LuxNorm:
    lambda_star: float
    residual: float
    iterations: int
    rule_id: str


def _node_values(f: HoloFunction, rule: QuadratureRule) -> np.ndarray:
    """|f| at the rule nodes: holo.on_rule's blocks of |f|, each checked
    (measure._checked_node_values) and written into one float array."""
    values = np.empty(rule.node_count)
    for block in on_rule(f, rule, _modulus=True):
        values[block.nodes] = _checked_node_values(rule, block.values, block.nodes.start)
        del block  # so the next leaf does not start beside this one
    return values


@np.errstate(over="ignore")
def modular_of_values(values: np.ndarray, weights, phi: GrowthFunction,
                      scale: float = 1.0, start: int = 0) -> float:
    """sum_i w_i Phi(values_i / scale); the workhorse behind modular and norms.

    weights is the QuadratureRule whose nodes start, start + 1, ... the
    values sit on, whose table weighs each leaf (QuadratureRule.weigh), or
    an array of one weight per value.  values must be moduli (non-negative),
    one finite value per node, as measure._checked_node_values checks where
    they are produced; they are not checked again here, since a Luxembourg
    norm calls this once per step on the same values.  Phi.fn runs without
    GrowthFunction's argument check, one leaf at a time (_tree_sum), and the
    weights multiply its output in place; the total is the np.sum of all
    nodes' terms bit for bit.  An overflow gives inf; a NaN sum raises
    DomainError.
    """
    by_table = isinstance(weights, QuadratureRule)

    def leaf(lo, hi):
        y = phi.fn(values[lo - start:hi - start] / scale)
        if by_table:
            weights.weigh(y, lo)
        else:
            y *= weights[lo - start:hi - start]
        return float(np.add.reduce(y))

    total = _tree_sum(values.size, leaf, start)
    if math.isnan(total):
        raise DomainError(f"modular of {phi.name} is NaN; node values must be "
                          "non-negative and finite")
    return total


def modular(f: HoloFunction, phi: GrowthFunction, rule: QuadratureRule) -> float:
    """int Phi(|f|) d nu_alpha by quadrature."""
    return modular_of_values(_node_values(f, rule), rule, phi)


def luxemburg_norm(f: HoloFunction, phi: GrowthFunction, rule: QuadratureRule) -> LuxNorm:
    """inf{lambda > 0 : modular(f / lambda) <= 1} by bracketed bisection.

    The seed bracket starts at max |f| over the nodes and is doubled or halved
    until the modular straddles 1.  The returned lambda_star is the feasible
    (modular <= 1) endpoint of the final bracket.  Halving below
    _LAMBDA_FLOOR * min(1, max |f|), or below the smallest normal float,
    gives lambda_star = 0: the norm is homogeneous, so the floor follows a
    small f down.  A bracket found in k steps spans 2^k, so bisection must
    meet the tolerance within k + _BISECT_TOL_STEPS steps, or WorkbenchError
    is raised (a subnormal lambda can stall it).
    """
    vals = _node_values(f, rule)
    top = float(np.max(vals)) if vals.size else 0.0
    if top == 0.0:
        return LuxNorm(lambda_star=0.0, residual=0.0, iterations=0, rule_id=rule.rule_id)

    floor = max(_LAMBDA_FLOOR * min(top, 1.0), sys.float_info.min)
    lam = top
    m = modular_of_values(vals, rule, phi, lam)
    iterations = 0
    down = m <= 1.0
    while (m <= 1.0) == down:
        lam *= 0.5 if down else 2.0
        iterations += 1
        if down and lam < floor:
            # Phi crushes every positive value; the infimum is 0 at
            # working precision.
            return LuxNorm(lambda_star=0.0, residual=abs(m - 1.0),
                           iterations=iterations, rule_id=rule.rule_id)
        if not down and lam > _LAMBDA_CEIL:
            raise DivergentNormError(
                f"modular stays above 1 out to lambda={lam:.3e}; "
                f"no finite Luxembourg norm on rule {rule.rule_id}"
            )
        m = modular_of_values(vals, rule, phi, lam)
    lo, hi = (lam, top) if down else (top, lam)
    cap = 2 * iterations + _BISECT_TOL_STEPS

    # invariant: modular(lo) > 1 >= modular(hi)
    while (hi - lo) > _BISECT_REL_TOL * hi:
        if iterations == cap:
            raise WorkbenchError(f"Luxembourg bisection did not converge in {cap} steps")
        # Halving each end is exact and cannot overflow near the largest float.
        mid = 0.5 * lo + 0.5 * hi
        iterations += 1
        if modular_of_values(vals, rule, phi, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    residual = abs(modular_of_values(vals, rule, phi, hi) - 1.0)
    return LuxNorm(lambda_star=hi, residual=residual, iterations=iterations,
                   rule_id=rule.rule_id)


def derivative_modulars(f: HoloFunction, phi: GrowthFunction, rule: QuadratureRule,
                        _scratch: _Scratch | None = None) -> dict[str, float]:
    """The four modulars whose simultaneous finiteness the theory equates.

    Keys, in order: "function" for |f - f(0)|, "invariant_gradient" for the
    gradient of f composed with phi_z at 0, "weighted_gradient" for
    (1-|z|^2)|grad f|, "weighted_radial" for (1-|z|^2)|Rf|.  Each leaf of
    _tree_sum takes holo.on_rule's next block, with f, its partials, Rf and
    1-|z|^2, through holo.gradient_norms once into a (4, k) array, checks it
    and takes one modular_of_values per quantity.  Every temporary of a leaf
    is written into _scratch (a holo._Scratch; by default one for this
    walk), which the next leaf writes over.
    """
    f0 = f.eval(np.zeros(f.n, dtype=complex))
    scratch = _scratch or _Scratch()
    blocks = on_rule(f, rule, derivatives=True, _scratch=scratch)

    def leaf(lo, hi):
        block = next(blocks)
        radial, grad_norm, invariant = gradient_norms(block.coords, block.partials,
                                                      block.radial, block.one_minus, scratch)
        q = scratch((4, hi - lo))
        np.abs(np.subtract(block.values, f0, out=scratch((hi - lo,), complex)),
               out=q[0])
        q[1] = invariant
        np.multiply(block.one_minus, grad_norm, out=q[2])
        np.multiply(block.one_minus, radial, out=q[3])
        _checked_node_values(rule, q, lo)
        return np.array([modular_of_values(v, rule, phi, 1.0, lo) for v in q])

    totals = _tree_sum(rule.node_count, leaf)
    return {kind: float(total) for kind, total in zip(
        ("function", "invariant_gradient", "weighted_gradient", "weighted_radial"), totals)}


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

    At n = 2 a slice f(z) = h(<z, zeta>) (holo.slice_direction) gets the
    slice rule along its line, with the n = 1 degree and angle formulas and
    base_degree * 2^refine // 4 + 1 nodes in t; its rule_id starts with
    "slice:".  Every other n = 2 function gets the lift with phases, whose
    kernel rules have angles floored at 48.  When the integrand also
    multiplies by cofactor (the Cesaro upper bound integrates f Rg), the
    slice rule is used only if cofactor lies on f's line; the degree is
    always read off f.
    """
    d, sharp, line = _shape(f)
    q = 2.0
    if phi is not None and phi.kind == "upper":
        q = max(q, float(phi.type_exponent))
    if measure.n == 2 and cofactor is not None:
        line = _join_lines(line, _shape(cofactor)[2])
    zeta = _direction(line, 2) if measure.n == 2 else None
    on_disc = measure.n == 1 or zeta is not None
    if sharp is None:
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
    t_count = None if zeta is None else base_degree * 2**refine // 4 + 1
    return build_rule(measure, degree, ang, zeta, t_count)


# ---------------------------------------------------------------------------
# Pointwise-estimate sweeps


_PROBE_RADII = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999])
_PROBE_DIRECTIONS = 64


def _pointwise_sweep(family, phi: GrowthFunction, measure: WeightedMeasure,
                     weighted_gradient: bool, refine: int) -> float:
    n = measure.n
    m = n + 1.0 + measure.alpha
    dirs = sphere_directions(n, _PROBE_DIRECTIONS)
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
            num = one_minus * gradient_sweep(f, pts)[2]
        else:
            num = np.abs(f._eval(pts))
        worst = max(worst, float(np.max(num / (denom * norm))))
    return worst


def pointwise_bound_constant(family, phi: GrowthFunction, measure: WeightedMeasure,
                             refine: int = 0) -> float:
    """Empirical C with |f(z)| <= C Phi^{-1}((1-|z|^2)^{-(n+1+alpha)}) ||f||.

    Maximized over the family and a probe grid of 8 radii reaching 0.999
    times 64 directions.  Finiteness (with refinement stability) is the
    claim under test; the value is never asserted minimal.
    """
    return _pointwise_sweep(family, phi, measure, False, refine)


def derivative_pointwise_constant(family, phi: GrowthFunction, measure: WeightedMeasure,
                                  refine: int = 0) -> float:
    """Empirical C with (1-|z|^2)|grad f(z)| <= C Phi^{-1}(...) ||f||."""
    return _pointwise_sweep(family, phi, measure, True, refine)


@dataclass(frozen=True)
class SmallTypeReport:
    constant: float
    weight_exponent: float
    ratios: tuple
    rule_id: str


def _small_type_ratio(f: HoloFunction, rule: QuadratureRule, p: float, w_exp: float) -> float:
    """int |f| (1-|z|^2)^w_exp over int |f|^p, in one _tree_sum walk of on_rule's blocks."""
    blocks = on_rule(f, rule)

    def leaf(lo, hi):
        block = next(blocks)
        vals = _checked_node_values(rule, np.abs(block.values), lo)
        den = rule.weigh(vals**p, lo)
        num = rule.weigh(vals, lo)
        num *= block.one_minus**w_exp
        return np.array([np.sum(num), np.sum(den)])

    num, den = _tree_sum(rule.node_count, leaf)
    if den == 0.0:
        raise DomainError("small-type sweep needs nonzero functions")
    return float(num) / float(den)


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
        ratios.append(_small_type_ratio(f, r, p, w_exp))
    return SmallTypeReport(constant=max(ratios), weight_exponent=w_exp,
                           ratios=tuple(ratios), rule_id=rid or "")
