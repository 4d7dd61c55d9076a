"""The extended Cesaro operator, Bloch-type symbol quantities, and the
Bergman projection.

T_g f(z) = int_0^1 f(tz) Rg(tz) dt/t.  On power series the operator is pure
coefficient algebra: with f = sum a_m z^m and Rg = sum b_k z^k (no constant
term), every output monomial z^(m+k) picks up the factor 1/(|m|+|k|).  Since
|m+k| = |m|+|k|, applying R to the output multiplies each coefficient right
back, which is the operator identity R(T_g f) = f Rg driving the boundedness
and compactness arguments.  The identity check below re-runs that divide-
multiply pipeline in exact rational arithmetic, where the deviation is
literally zero, and separately samples the floating-point path.

The symbol size that controls everything is the Bloch seminorm
M = sup (1-|z|^2)|Rg(z)|, estimated by a radius/direction grid with
golden-section refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import roots_legendre

from .errors import DomainError, SymbolInvariantError
from .growth import GrowthFunction, golden_section_max
from .holo import HoloFunction, Series, to_series
from .measure import QuadratureRule, WeightedMeasure, sphere_directions
from .norms import luxemburg_norm, modular_of_values, rule_for_function

__all__ = [
    "CesaroSymbol",
    "BlochReport",
    "LittleBlochReport",
    "IdentityReport",
    "LowerBoundReport",
    "UpperBoundReport",
    "cesaro_apply_exact",
    "cesaro_apply_numeric",
    "radial_derivative_identity_check",
    "bloch_seminorm",
    "little_bloch_profile",
    "bergman_project",
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


def _series_pair(symbol: CesaroSymbol, f: HoloFunction,
                 truncation_degree: int) -> tuple[Series, Series]:
    """Truncate symbol and argument to Series; Rg recomputed post-truncation."""
    if isinstance(symbol.g, Series):
        rg = symbol.rg if isinstance(symbol.rg, Series) else to_series(symbol.rg,
                                                                       truncation_degree)
    else:
        rg = to_series(symbol.g, truncation_degree).radial_derivative()
    fs = f if isinstance(f, Series) else to_series(f, truncation_degree)
    zero = (0,) * rg.n
    if zero in rg.terms:
        raise SymbolInvariantError("radial derivative of the symbol has a constant term")
    return fs, rg


def cesaro_apply_exact(symbol: CesaroSymbol, f: HoloFunction,
                       truncation_degree: int = 48) -> Series:
    """T_g f by the coefficient formula: z^(m+k) gets a_m b_k / (|m|+|k|).

    Non-Series inputs are truncated to Series at truncation_degree first.
    """
    fs, rg = _series_pair(symbol, f, truncation_degree)
    if fs.n != rg.n:
        raise DomainError("symbol and argument live on different balls")
    out: dict[tuple, complex] = {}
    for m in sorted(fs.terms):
        am = fs.terms[m]
        dm = sum(m)
        for k in sorted(rg.terms):
            j = tuple(x + y for x, y in zip(m, k))
            out[j] = out.get(j, 0.0) + am * rg.terms[k] / (dm + sum(k))
    return Series(fs.n, out)


def cesaro_apply_numeric(symbol: CesaroSymbol, f: HoloFunction, z,
                         t_count: int = 64):
    """T_g f(z) by 1-D Gauss-Legendre on the ray integral; the oracle path.

    Rg has no constant term, so Rg(tz)/t extends continuously to t = 0; the
    Gauss nodes are interior and never touch the endpoint.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    squeeze = zz.ndim == 1 and zz.shape[0] == symbol.n
    pts = zz.reshape(1, -1) if squeeze else np.atleast_2d(zz)
    if pts.shape[1] != symbol.n:
        raise DomainError(f"points must have {symbol.n} coordinates")
    x, w = roots_legendre(t_count)
    t = 0.5 * (x + 1.0)
    wt = 0.5 * w
    out = np.empty(pts.shape[0], dtype=complex)
    for i, zi in enumerate(pts):
        ray = t[:, None] * zi[None, :]
        vals = symbol.rg._eval(ray) * f._eval(ray) / t
        out[i] = np.sum(wt * vals)
    return complex(out[0]) if squeeze else out


# ---------------------------------------------------------------------------
# The operator identity R(T_g f) = f Rg


def _frac(c: complex) -> tuple[Fraction, Fraction]:
    return (Fraction(c.real), Fraction(c.imag))


def _frac_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _frac_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


@dataclass(frozen=True)
class IdentityReport:
    coefficient_deviation: float
    sample_deviation: float
    output_terms: int
    sample_points: int


def radial_derivative_identity_check(symbol: CesaroSymbol, f: Series,
                                     samples) -> IdentityReport:
    """Verify R(T_g f) = f Rg, exactly on coefficients and on sample points.

    The coefficient pass redoes the divide-by-degree / multiply-by-degree
    pipeline in rational arithmetic (floats embed exactly into Fraction), so
    any nonzero deviation would expose a real algebraic defect, not rounding.
    The sample pass evaluates both sides of the identity with ordinary float
    series and reports the worst absolute gap.
    """
    if not isinstance(f, Series) or not isinstance(symbol.g, Series):
        raise DomainError("the identity check takes Series symbol and argument")
    rg = symbol.rg
    zero = (0,) * f.n
    if zero in rg.terms:
        raise SymbolInvariantError("radial derivative of the symbol has a constant term")

    conv: dict[tuple, tuple[Fraction, Fraction]] = {}
    for m, am in f.terms.items():
        fa = _frac(am)
        for k, bk in rg.terms.items():
            j = tuple(x + y for x, y in zip(m, k))
            prod = _frac_mul(fa, _frac(bk))
            conv[j] = _frac_add(conv[j], prod) if j in conv else prod
    worst = Fraction(0)
    for j, c in conv.items():
        d = sum(j)
        t_coeff = (c[0] / d, c[1] / d)
        rt_coeff = (t_coeff[0] * d, t_coeff[1] * d)
        gap = max(abs(rt_coeff[0] - c[0]), abs(rt_coeff[1] - c[1]))
        worst = max(worst, gap)

    tf = cesaro_apply_exact(symbol, f)
    lhs = tf.radial_derivative()
    pts = np.atleast_2d(np.asarray(samples, dtype=complex))
    if pts.shape[1] != f.n:
        raise DomainError(f"sample points must have {f.n} coordinates")
    gap_f = np.abs(lhs._eval(pts) - f._eval(pts) * rg._eval(pts))
    return IdentityReport(
        coefficient_deviation=float(worst),
        sample_deviation=float(np.max(gap_f)) if gap_f.size else 0.0,
        output_terms=len(conv),
        sample_points=pts.shape[0],
    )


# ---------------------------------------------------------------------------
# Bloch quantities


@dataclass(frozen=True)
class BlochReport:
    M: float
    argmax_radius: float
    boundary_profile: tuple
    unbounded: bool


@dataclass(frozen=True)
class LittleBlochReport:
    profile: tuple
    final_value: float
    epsilon: float
    verdict: bool


def _weighted_rg_sup(rg: HoloFunction, r: float, dirs: np.ndarray) -> tuple[float, int]:
    vals = (1.0 - r * r) * np.abs(rg._eval(r * dirs))
    i = int(np.argmax(vals))
    return float(vals[i]), i


_BLOCH_RADII = tuple(sorted(set(
    [k / 16.0 for k in range(16)] + [1.0 - 2.0 ** (-j) for j in range(4, 19)]
)))


def bloch_seminorm(g, direction_count: int | None = None,
                   seed: int = 0) -> BlochReport:
    """sup over the ball of (1-|z|^2)|Rg(z)| by grid search plus refinement.

    Accepts a CesaroSymbol or any HoloFunction.  The radius grid clusters
    geometrically toward the sphere; the best cell is polished with
    golden-section passes (radius, then direction for n=1, then radius again).
    """
    rg = g.rg if isinstance(g, CesaroSymbol) else g.radial_derivative()
    n = rg.n
    if direction_count is None:
        direction_count = 512 if n == 1 else 2048
    dirs = sphere_directions(n, direction_count, seed)

    profile = []
    best = (0.0, 0.0, 0)  # value, radius, direction index
    for r in _BLOCH_RADII:
        val, i = _weighted_rg_sup(rg, r, dirs)
        profile.append((r, val))
        if val > best[0]:
            best = (val, r, i)

    tail = [v for _, v in profile[-4:]]
    unbounded = bool(tail[-1] > _BLOCH_CAP and all(
        tail[i] < tail[i + 1] for i in range(len(tail) - 1)
    ))

    idx = _BLOCH_RADII.index(best[1])
    lo = _BLOCH_RADII[max(0, idx - 1)]
    hi = _BLOCH_RADII[min(len(_BLOCH_RADII) - 1, idx + 1)]
    direction = dirs[best[2]]

    def along(r) -> float:
        rr = min(max(float(r), 0.0), 1.0 - 1e-12)
        return (1.0 - rr * rr) * float(np.abs(rg.eval(rr * direction)))

    r_star, m_star = golden_section_max(along, lo, hi)
    if n == 1:
        theta0 = float(np.angle(direction[0]))
        step = 2.0 * np.pi / direction_count
        r_fixed = float(r_star)

        def around(theta) -> float:
            d = np.array([np.exp(1j * float(theta))])
            return (1.0 - r_fixed**2) * float(np.abs(rg.eval(r_fixed * d)))

        theta_star, m_theta = golden_section_max(around, theta0 - step, theta0 + step)
        if m_theta > m_star:
            direction = np.array([np.exp(1j * float(theta_star))])
            r_star, m_star = golden_section_max(along, lo, hi)

    m_final = max(m_star, best[0])
    r_final = float(r_star) if m_star >= best[0] else best[1]
    return BlochReport(M=m_final, argmax_radius=r_final,
                       boundary_profile=tuple(profile), unbounded=unbounded)


_LITTLE_BLOCH_RADII = tuple(1.0 - np.logspace(np.log10(0.5), -4, 14))


def little_bloch_profile(g, radii=_LITTLE_BLOCH_RADII, epsilon: float = 1e-3,
                         direction_count: int | None = None,
                         seed: int = 0) -> LittleBlochReport:
    """Profile of sup over directions of (1-r^2)|Rg| along radii increasing to 1.

    The verdict flags profiles whose final value (default radius 1 - 1e-4)
    drops below epsilon; it is reported, not asserted, since slowly decaying
    symbols need radii beyond the default grid.
    """
    rg = g.rg if isinstance(g, CesaroSymbol) else g.radial_derivative()
    n = rg.n
    if direction_count is None:
        direction_count = 512 if n == 1 else 2048
    dirs = sphere_directions(n, direction_count, seed)
    radii = sorted(float(r) for r in radii)
    if any(not (0.0 <= r < 1.0) for r in radii):
        raise DomainError("little-Bloch radii must lie in [0, 1)")
    profile = tuple((r, _weighted_rg_sup(rg, r, dirs)[0]) for r in radii)
    final = profile[-1][1]
    return LittleBlochReport(profile=profile, final_value=final, epsilon=epsilon,
                             verdict=bool(final < epsilon))


# ---------------------------------------------------------------------------
# Bergman projection


def bergman_project(F, beta: float, measure: WeightedMeasure, rule: QuadratureRule):
    """P_beta F as a callable: z -> int F(xi) (1 - <z, xi>)^(-(n+1+beta)) d nu_beta.

    The rule must represent nu_beta itself.  F is evaluated once over the
    nodes; each later call pairs the cached values with kernel factors, in
    chunks so large query batches stay within memory.
    """
    if abs(measure.alpha - beta) > 0.0 or rule.measure.alpha != measure.alpha:
        raise DomainError("bergman_project needs measure = nu_beta and a matching rule")
    if rule.measure.n != measure.n:
        raise DomainError("rule dimension does not match the measure")
    n = measure.n
    exponent = n + 1.0 + beta
    nodes = rule.points
    weights = rule.weights
    fvals = F._eval(nodes) if isinstance(F, HoloFunction) else np.asarray(F(nodes))
    wf = weights * fvals

    def project(z):
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        squeeze = zz.ndim == 1 and zz.shape[0] == n
        pts = zz.reshape(1, -1) if squeeze else np.atleast_2d(zz)
        if pts.shape[1] != n:
            raise DomainError(f"query points must have {n} coordinates")
        out = np.empty(pts.shape[0], dtype=complex)
        chunk = max(1, int(4e6) // max(1, nodes.shape[0]))
        for start in range(0, pts.shape[0], chunk):
            block = pts[start:start + chunk]
            ip = block @ np.conj(nodes.T)
            kern = np.exp(-exponent * np.log(1.0 - ip))
            out[start:start + chunk] = kern @ wf
        return complex(out[0]) if squeeze else out

    return project


# ---------------------------------------------------------------------------
# Operator-norm brackets


@dataclass(frozen=True)
class LowerBoundReport:
    value: float
    ratios: tuple
    truncation_degree: int


@dataclass(frozen=True)
class UpperBoundReport:
    worst_modular: float
    modulars: tuple
    bloch_m: float
    passes: bool
    tol: float


def cesaro_norm_lower_bound(symbol: CesaroSymbol, phi: GrowthFunction,
                            measure: WeightedMeasure, family,
                            truncation_degree: int = 48,
                            base_degree: int = 32) -> LowerBoundReport:
    """max over the family of ||T_g f|| / ||f||, a certified operator-norm
    lower bound up to truncation and quadrature tolerance.

    Arguments and outputs are truncated to Series so the exact coefficient
    path does all the operator work.
    """
    ratios = []
    for f in family:
        fs = f if isinstance(f, Series) else to_series(f, truncation_degree)
        tf = cesaro_apply_exact(symbol, fs, truncation_degree)
        denom = luxemburg_norm(fs, phi,
                               rule_for_function(fs, measure, phi, base_degree)).lambda_star
        if denom <= 0.0:
            raise DomainError("operator-norm family must contain nonzero functions")
        numer = luxemburg_norm(tf, phi,
                               rule_for_function(tf, measure, phi, base_degree)).lambda_star
        ratios.append(numer / denom)
    if not ratios:
        raise DomainError("operator-norm family is empty")
    return LowerBoundReport(value=max(ratios), ratios=tuple(ratios),
                            truncation_degree=truncation_degree)


def cesaro_upper_bound_check(symbol: CesaroSymbol, phi: GrowthFunction,
                             measure: WeightedMeasure, family,
                             rule: QuadratureRule | None = None,
                             bloch_m: float | None = None,
                             tol: float = 1e-6,
                             base_degree: int = 32) -> UpperBoundReport:
    """The proof-level upper bound: modular((1-|z|^2)|R T_g f| / (M ||f||)) <= 1.

    R T_g f is expanded through the operator identity as f Rg, so the check
    needs no truncation of the symbol.  Pointwise (1-|z|^2)|Rg| <= M makes the
    integrand dominated by Phi(|f| / ||f||), whose integral is 1 by the norm
    definition; the test confirms that chain survives quadrature.
    """
    m_val = bloch_seminorm(symbol).M if bloch_m is None else float(bloch_m)
    if m_val <= 0.0:
        raise DomainError("upper-bound check needs a symbol with positive Bloch seminorm")
    rg = symbol.rg
    modulars = []
    for f in family:
        r = rule if rule is not None else rule_for_function(f, measure, phi, base_degree)
        norm = luxemburg_norm(f, phi, r).lambda_star
        if norm <= 0.0:
            raise DomainError("upper-bound family must contain nonzero functions")
        pts = r.points
        one_minus = 1.0 - np.sum(np.abs(pts) ** 2, axis=1)
        vals = one_minus * np.abs(f._eval(pts) * rg._eval(pts))
        modulars.append(modular_of_values(vals, r.weights, phi, m_val * norm))
    worst = max(modulars) if modulars else 0.0
    return UpperBoundReport(worst_modular=worst, modulars=tuple(modulars),
                            bloch_m=m_val, passes=bool(worst <= 1.0 + tol), tol=tol)
