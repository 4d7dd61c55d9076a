"""The extended Cesaro operator and Bloch-type symbol quantities.

T_g f(z) = int_0^1 f(tz) Rg(tz) dt/t.  On power series the operator is pure
coefficient algebra: with f = sum a_m z^m and Rg = sum b_k z^k (no constant
term), every output monomial z^(m+k) picks up the factor 1/(|m|+|k|).  Since
|m+k| = |m|+|k|, applying R to the output multiplies each coefficient right
back, which is the operator identity R(T_g f) = f Rg driving the boundedness
and compactness arguments.  The identity check below runs that production
path, cesaro_apply_exact, on exact Fraction series, where both sides must
agree to the last bit, and separately samples the floating-point path.

The symbol size that controls everything is the Bloch seminorm
M = sup (1-|z|^2)|Rg(z)|, estimated by a radius/direction grid with
golden-section refinement: a symbol on a complex line (holo.slice_direction)
is searched on that line's circle, so its n = 2 value is its value on the
disc, and any other n = 2 symbol on sphere directions.  The upper-bound
check takes M from its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, SymbolInvariantError
from .growth import GrowthFunction, golden_section_max
from .holo import (
    DEFAULT_TRUNCATION_DEGREE,
    HoloFunction,
    Series,
    on_rule,
    slice_direction,
    to_series,
)
from .measure import (
    WeightedMeasure,
    _checked_node_values,
    _points_2d,
    _radial_jacobi,
    _tree_sum,
    sphere_directions,
)
from .norms import luxemburg_norm, modular_of_values, rule_for_function

__all__ = [
    "CesaroSymbol",
    "BlochReport",
    "IdentityReport",
    "LowerBoundReport",
    "cesaro_apply_exact",
    "cesaro_apply_numeric",
    "radial_derivative_identity_check",
    "bloch_seminorm",
    "cesaro_norm_lower_bound",
    "cesaro_upper_bound_check",
]

_BLOCH_CAP = 1e6


@dataclass(frozen=True, eq=False)
class CesaroSymbol:
    """A symbol g with g(0) = 0, carrying its cached radial derivative."""

    g: HoloFunction
    rg: HoloFunction = field(init=False, repr=False)

    def __post_init__(self):
        at_zero = complex(self.g.eval(np.zeros(self.g.n, dtype=complex)))
        if at_zero != 0.0:
            raise SymbolInvariantError(
                f"Cesaro symbol must vanish at the origin, got g(0)={at_zero}"
            )
        object.__setattr__(self, "rg", self.g.radial_derivative())

    @property
    def n(self) -> int:
        return self.g.n


def cesaro_apply_exact(symbol: CesaroSymbol, f: HoloFunction,
                       truncation_degree: int = DEFAULT_TRUNCATION_DEGREE) -> Series:
    """T_g f by the coefficient formula: z^(m+k) gets a_m b_k / (|m|+|k|).

    Non-Series inputs (a symbol before its Rg) are truncated at truncation_degree.
    """
    rg = symbol.rg if isinstance(symbol.g, Series) else to_series(
        symbol.g, truncation_degree).radial_derivative()
    fs = f if isinstance(f, Series) else to_series(f, truncation_degree)
    if fs.n != rg.n:
        raise DomainError("symbol and argument live on different balls")
    out = {}
    for m in sorted(fs.terms):
        am = fs.terms[m]
        dm = sum(m)
        for k in sorted(rg.terms):
            j = tuple(x + y for x, y in zip(m, k))
            out[j] = out.get(j, 0) + am * rg.terms[k] / (dm + sum(k))
    return Series(fs.n, out)


def cesaro_apply_numeric(symbol: CesaroSymbol, f: HoloFunction, z):
    """T_g f(z) by 64-node Gauss-Legendre on the ray integral; the oracle path.

    Rg has no constant term, so Rg(tz)/t extends continuously to t = 0; the
    Gauss nodes are interior and never touch the endpoint.
    """
    pts, squeeze = _points_2d(z, symbol.n)
    t, wt = _radial_jacobi(0.0, 64)
    out = np.empty(pts.shape[0], dtype=complex)
    for i, zi in enumerate(pts):
        ray = t[:, None] * zi[None, :]
        vals = symbol.rg._eval(ray) * f._eval(ray) / t
        out[i] = np.sum(wt * vals)
    return complex(out[0]) if squeeze else out


# ---------------------------------------------------------------------------
# The operator identity R(T_g f) = f Rg


def _fraction_parts(s: Series) -> tuple[Series, Series]:
    """x and y with s = x + i y, as Series of exact Fractions (floats embed exactly)."""
    return (Series(s.n, {m: Fraction(c.real) for m, c in s.terms.items()}),
            Series(s.n, {m: Fraction(c.imag) for m, c in s.terms.items()}))


@dataclass(frozen=True)
class IdentityReport:
    coefficient_deviation: float
    sample_deviation: float


def radial_derivative_identity_check(symbol: CesaroSymbol, f: Series,
                                     samples) -> IdentityReport:
    """Verify R(T_g f) = f Rg, exactly on coefficients and on sample points.

    The coefficient pass compares R of cesaro_apply_exact with Series.times
    exactly, on the Fraction real and imaginary parts of f and g; T_g f is
    real-bilinear in (f, Rg), so the four pairs of parts cover the identity.
    The sample pass evaluates both sides with the complex series and reports
    the worst absolute gap.
    """
    if not isinstance(f, Series) or not isinstance(symbol.g, Series):
        raise DomainError("the identity check takes Series symbol and argument")
    worst = Fraction(0)
    parts = [CesaroSymbol(gp) for gp in _fraction_parts(symbol.g)]
    for fp in _fraction_parts(f):
        for part in parts:
            lhs = cesaro_apply_exact(part, fp).radial_derivative()
            rhs = fp.times(part.rg)
            for j in lhs.terms.keys() | rhs.terms.keys():
                worst = max(worst, abs(lhs.terms.get(j, 0) - rhs.terms.get(j, 0)))

    lhs = cesaro_apply_exact(symbol, f).radial_derivative()
    pts, _ = _points_2d(samples, f.n)
    gap_f = np.abs(lhs._eval(pts) - f._eval(pts) * symbol.rg._eval(pts))
    return IdentityReport(
        coefficient_deviation=float(worst),
        sample_deviation=float(np.max(gap_f)) if gap_f.size else 0.0,
    )


# ---------------------------------------------------------------------------
# Bloch quantities


@dataclass(frozen=True)
class BlochReport:
    M: float
    argmax_radius: float
    unbounded: bool


_BLOCH_RADII = tuple(sorted(set(
    [k / 16.0 for k in range(16)] + [1.0 - 2.0 ** (-j) for j in range(4, 19)]
)))


def bloch_seminorm(g) -> BlochReport:
    """sup over the ball of (1-|z|^2)|Rg(z)| by grid search plus refinement.

    Accepts a CesaroSymbol or any HoloFunction.  The radius grid clusters
    geometrically toward the sphere and meets 512 directions e^(i theta) zeta
    when Rg lies on the line of zeta (every symbol at n = 1), else 2048
    sphere directions; the best cell is polished with golden-section
    passes (radius, then the angle theta on a line, then radius again).
    """
    rg = g.rg if isinstance(g, CesaroSymbol) else g.radial_derivative()
    zeta = slice_direction(rg)
    circle = sphere_directions(1, 512)
    dirs = sphere_directions(rg.n, 2048) if zeta is None else circle * zeta

    def weighted(r, d):
        """(1-r^2)|Rg(r d)| at a direction d, or at each row of a batch d."""
        return (1.0 - r * r) * np.abs(rg.eval(r * d))

    profile = []  # the grid sup at each radius
    best = (0.0, 0.0, 0)  # value, radius, direction index
    for r in _BLOCH_RADII:
        vals = weighted(r, dirs)
        i = int(np.argmax(vals))
        profile.append(float(vals[i]))
        if profile[-1] > best[0]:
            best = (profile[-1], r, i)

    tail = profile[-4:]
    unbounded = bool(tail[-1] > _BLOCH_CAP and all(
        tail[i] < tail[i + 1] for i in range(len(tail) - 1)
    ))

    idx = _BLOCH_RADII.index(best[1])
    lo = _BLOCH_RADII[max(0, idx - 1)]
    hi = _BLOCH_RADII[min(len(_BLOCH_RADII) - 1, idx + 1)]
    direction = dirs[best[2]]

    def along(r) -> float:
        return float(weighted(min(max(float(r), 0.0), 1.0 - 1e-12), direction))

    r_star, m_star = golden_section_max(along, lo, hi)
    if zeta is not None:
        theta0 = float(np.angle(circle[best[2], 0]))
        step = 2.0 * np.pi / len(circle)
        r_fixed = float(r_star)

        def around(theta) -> float:
            return float(weighted(r_fixed, np.exp(1j * float(theta)) * zeta))

        theta_star, m_theta = golden_section_max(around, theta0 - step, theta0 + step)
        if m_theta > m_star:
            direction = np.exp(1j * float(theta_star)) * zeta
            r_star, m_star = golden_section_max(along, lo, hi)

    m_final = max(m_star, best[0])
    r_final = float(r_star) if m_star >= best[0] else best[1]
    return BlochReport(M=m_final, argmax_radius=r_final, unbounded=unbounded)


# ---------------------------------------------------------------------------
# Operator-norm brackets


@dataclass(frozen=True)
class LowerBoundReport:
    value: float
    ratios: tuple


def cesaro_norm_lower_bound(symbol: CesaroSymbol, phi: GrowthFunction,
                            measure: WeightedMeasure, family) -> LowerBoundReport:
    """max over the family of ||T_g f|| / ||f||, a certified operator-norm
    lower bound up to truncation and quadrature tolerance.

    Arguments and outputs are truncated to Series at DEFAULT_TRUNCATION_DEGREE
    so the exact coefficient path does all the operator work.
    """
    ratios = []
    for f in family:
        fs = f if isinstance(f, Series) else to_series(f)
        tf = cesaro_apply_exact(symbol, fs)
        denom = luxemburg_norm(fs, phi, rule_for_function(fs, measure, phi)).lambda_star
        if denom <= 0.0:
            raise DomainError("operator-norm family must contain nonzero functions")
        numer = luxemburg_norm(tf, phi, rule_for_function(tf, measure, phi)).lambda_star
        ratios.append(numer / denom)
    if not ratios:
        raise DomainError("operator-norm family is empty")
    return LowerBoundReport(value=max(ratios), ratios=tuple(ratios))


def cesaro_upper_bound_check(symbol: CesaroSymbol, phi: GrowthFunction,
                             measure: WeightedMeasure, family, bloch_m: float) -> float:
    """The worst modular((1-|z|^2)|R T_g f| / (M ||f||)) over the family.

    R T_g f is expanded through the operator identity as f Rg, so the check
    needs no truncation of the symbol.  Pointwise (1-|z|^2)|Rg| <= M makes the
    integrand dominated by Phi(|f| / ||f||), whose integral is 1 by the norm
    definition, so the proof's bound is worst <= 1; the caller compares the
    returned value with 1 plus its quadrature tolerance.  The norm and the
    integrand share one rule, f's slice rule at n = 2 only when Rg lies on
    f's line, so that domination carries over node by node; f and Rg stream
    side by side off their own on_rule blocks.  bloch_m is M, the symbol's
    bloch_seminorm.
    """
    if bloch_m <= 0.0:
        raise DomainError("upper-bound check needs a symbol with positive Bloch seminorm")
    rg = symbol.rg
    modulars = []
    for f in family:
        r = rule_for_function(f, measure, phi, cofactor=rg)
        norm = luxemburg_norm(f, phi, r).lambda_star
        if norm <= 0.0:
            raise DomainError("upper-bound family must contain nonzero functions")
        f_blocks, rg_blocks = on_rule(f, r), on_rule(rg, r)

        def leaf(lo, hi):
            fb, rgb = next(f_blocks), next(rg_blocks)
            vals = _checked_node_values(r, fb.one_minus * np.abs(fb.values * rgb.values), lo)
            return modular_of_values(vals, r, phi, bloch_m * norm, lo)

        modulars.append(_tree_sum(r.node_count, leaf))
    return max(modulars, default=0.0)
