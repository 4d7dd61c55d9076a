"""Growth functions and their calculus.

A growth function Phi maps [0, inf) to [0, inf), is continuous and
non-decreasing with Phi(0) = 0, and is the basic datum of every Orlicz-type
norm in this package.  The calculus below covers the quantitative notions the
harness suites consume:

* upper type q:  Phi(st) <= C t^q Phi(s) for all s > 0, t >= 1;
* lower type p:  Phi(st) <= C t^p Phi(s) for all s > 0, 0 < t <= 1;
* the index functions a_Phi = inf t Phi'(t)/Phi(t), b_Phi = sup of the same;
* the convex conjugate Psi(s) = sup_t (ts - Phi(t));
* the Delta_2 constant sup Phi(2t)/Phi(t) and the nabla_2 verdict;
* composition Phi_p(t) = Phi(t^(1/p)) and inverse-class duality;
* interpolation of two growth functions through a pseudo-concave rho, via
  Phi^{-1} = Phi_0^{-1} . rho(Phi_1^{-1} / Phi_0^{-1}).

All evaluators are vectorized over numpy arrays.  Where no closed form is
available, inverses fall back to a monotone bisection with geometric bracket
expansion.  Maximizations use golden_section_max, a vectorized golden
section that the conjugate runs on a log axis and the Bloch seminorm in
operators.py runs along radii and angles.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConjugateInfiniteError,
    DegenerateFunctionError,
    DomainError,
    FunctionSpecError,
    UnboundedInverseError,
)

__all__ = [
    "GrowthFunction",
    "PseudoConcaveFunction",
    "TypeReport",
    "IndicesReport",
    "DeltaTwoReport",
    "Nabla2Report",
    "InverseClassReport",
    "PseudoConcaveReport",
    "EquivalenceReport",
    "power_growth",
    "power_log_growth",
    "power_inv_log_growth",
    "rho_power",
    "rho_power_log",
    "type_constant",
    "indices",
    "golden_section_max",
    "complementary",
    "delta2_constant",
    "nabla2_check",
    "power_compose",
    "inverse_class_check",
    "interpolate_growth",
    "pseudo_concave_check",
    "equivalence_constants",
    "resolve_growth",
    "resolve_rho",
    "shipped_growth_ids",
]

_BRACKET_HI_CAP = 1e280
_BRACKET_LO_CAP = 1e-280
_CONJUGATE_T_CAP = 1e30
_DELTA2_CAP = 1e12
_TYPE_CONSTANT_CAP = 1e3
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    return np.logspace(math.log10(lo), math.log10(hi), count)


def _as_nonnegative(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("growth functions are defined on [0, inf) only")
    return arr


@dataclass(frozen=True, eq=False)
class GrowthFunction:
    """A growth function with optional closed-form inverse and derivative.

    kind is the declared class: "upper" (in U^q, Phi(t)/t non-decreasing),
    "lower" (in L_p, Phi(t)/t non-increasing) or "unclassified".
    type_exponent is the declared q or p; p_phi is the exponent used by
    embedding-style estimates (1 for upper-type, p for lower-type).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    kind: str = "unclassified"
    type_exponent: float = float("nan")
    inv: Callable[[np.ndarray], np.ndarray] | None = None
    deriv: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("upper", "lower", "unclassified"):
            raise DomainError(f"unknown growth class {self.kind!r}")
        at_zero = float(self.fn(np.array([0.0]))[0])
        if not (abs(at_zero) < 1e-300):
            raise DegenerateFunctionError(f"{self.name}: Phi(0) = {at_zero}, expected 0")

    @property
    def p_phi(self) -> float:
        if self.kind == "lower":
            return self.type_exponent
        return 1.0

    def __call__(self, t):
        arr = _as_nonnegative(t)
        out = self.fn(arr)
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def derivative(self, t):
        arr = _as_nonnegative(t)
        if np.any(arr <= 0.0):
            raise DomainError("derivative is evaluated on (0, inf)")
        if self.deriv is not None:
            out = self.deriv(arr)
        else:
            h = 1e-6 * arr
            out = (self.fn(arr + h) - self.fn(arr - h)) / (2.0 * h)
        return float(out) if np.ndim(t) == 0 else out

    def inverse(self, s):
        arr = _as_nonnegative(s)
        if self.inv is not None:
            out = self.inv(arr)
        else:
            out = _monotone_inverse(self.fn, arr, label=self.name)
        return float(out) if np.ndim(s) == 0 else out


@dataclass(frozen=True, eq=False)
class PseudoConcaveFunction:
    """A positive function rho on (0, inf), candidate for rho(s) <= max(1, s/t) rho(t)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        if np.any(arr <= 0.0):
            raise DomainError("pseudo-concave functions are evaluated on (0, inf)")
        out = self.fn(arr)
        return float(out) if np.ndim(s) == 0 else out


def _monotone_inverse(fn, targets: np.ndarray, label: str = "", rel_tol: float = 1e-13,
                      max_iter: int = 250) -> np.ndarray:
    """Solve fn(t) = s elementwise for non-decreasing fn with fn(0) = 0.

    Geometric bracket expansion from t = 1 followed by bisection on the log
    axis.  Targets equal to 0 map to 0.
    """
    s = np.asarray(targets, dtype=float)
    flat = s.reshape(-1)
    out = np.zeros_like(flat)
    live = flat > 0.0
    if not np.any(live):
        return out.reshape(s.shape)

    tgt = flat[live]
    lo = np.ones_like(tgt)
    hi = np.ones_like(tgt)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        need_up = fn(hi) < tgt
        guard = 0
        while np.any(need_up):
            hi = np.where(need_up, 4.0 * hi, hi)
            if np.any(hi[need_up] > _BRACKET_HI_CAP):
                raise UnboundedInverseError(
                    f"inverse bracket for {label or 'growth function'} exceeded"
                    f" {_BRACKET_HI_CAP:g}"
                )
            need_up = fn(hi) < tgt
            guard += 1
            if guard > 600:
                raise UnboundedInverseError(f"inverse bracket expansion stalled for {label}")

        need_down = fn(lo) > tgt
        guard = 0
        while np.any(need_down):
            lo = np.where(need_down, 0.25 * lo, lo)
            if np.any(lo < _BRACKET_LO_CAP):
                # fn is continuous with fn(0)=0 so tiny targets pin t ~ 0.
                lo = np.maximum(lo, _BRACKET_LO_CAP)
                break
            need_down = fn(lo) > tgt
            guard += 1
            if guard > 600:
                break

        llo, lhi = np.log(lo), np.log(hi)
        for _ in range(max_iter):
            mid = 0.5 * (llo + lhi)
            below = fn(np.exp(mid)) < tgt
            llo = np.where(below, mid, llo)
            lhi = np.where(below, lhi, mid)
            if np.all(lhi - llo < rel_tol):
                break
    out[live] = np.exp(0.5 * (llo + lhi))
    return out.reshape(s.shape)


# ---------------------------------------------------------------------------
# Shipped families


def power_growth(p) -> GrowthFunction:
    """Phi(t) = t^p.  Upper type p when p >= 1, lower type p when p <= 1."""
    p = float(p)
    if p <= 0.0:
        raise DomainError(f"power exponent must be positive, got {p}")
    kind = "upper" if p >= 1.0 else "lower"
    return GrowthFunction(
        name=f"power:p={_fmt(p)}",
        fn=lambda t: np.power(t, p),
        kind=kind,
        type_exponent=p,
        inv=lambda s: np.power(s, 1.0 / p),
        deriv=lambda t: p * np.power(t, p - 1.0),
    )


def power_log_growth(p, a=1.0) -> GrowthFunction:
    """Phi(t) = t^p log(e + t)^a."""
    p, a = float(p), float(a)
    if p <= 0.0 or a <= 0.0:
        raise DomainError("power_log_growth needs p > 0 and a > 0")
    if p >= 1.0:
        kind, expo = "upper", p + a
    elif p + 0.35 * a <= 1.0:
        # t^(p-1) log(e+t)^a is non-increasing when p - 1 + a * sup_t t/((e+t)log(e+t))
        # stays <= 0; the sup is about 0.3185.
        kind, expo = "lower", p
    else:
        kind, expo = "unclassified", float("nan")

    def fn(t):
        return np.power(t, p) * np.log(np.e + t) ** a

    def deriv(t):
        lg = np.log(np.e + t)
        return np.power(t, p - 1.0) * lg ** (a - 1.0) * (p * lg + a * t / (np.e + t))

    return GrowthFunction(
        name=f"powerlog:p={_fmt(p)},a={_fmt(a)}",
        fn=fn,
        kind=kind,
        type_exponent=expo,
        deriv=deriv,
    )


def power_inv_log_growth(p=2.0, a=1.0) -> GrowthFunction:
    """Phi(t) = t^p / log(e + t)^a, which already vanishes at 0."""
    p, a = float(p), float(a)
    if p <= 1.0 + 0.35 * a or a <= 0.0:
        # below that, Phi(t)/t can fail to be monotone and the declared class lies
        raise DomainError("power_inv_log_growth needs p > 1 + 0.35 a")

    def fn(t):
        return np.power(t, p) / np.log(np.e + t) ** a

    def deriv(t):
        lg = np.log(np.e + t)
        return np.power(t, p - 1.0) * lg ** (-a - 1.0) * (p * lg - a * t / (np.e + t))

    return GrowthFunction(
        name=f"powerinvlog:p={_fmt(p)},a={_fmt(a)}",
        fn=fn,
        kind="upper",
        type_exponent=p,
        deriv=deriv,
    )


def rho_power(theta) -> PseudoConcaveFunction:
    """rho(s) = s^theta, pseudo-concave exactly when 0 <= theta <= 1."""
    theta = float(theta)
    return PseudoConcaveFunction(
        name=f"power:theta={_fmt(theta)}",
        fn=lambda s: np.power(s, theta),
    )


def rho_power_log(theta, a=0.0, b=0.0) -> PseudoConcaveFunction:
    """rho(s) = s^theta log(e + s)^a (e + 1/s)^b."""
    theta, a, b = float(theta), float(a), float(b)

    def fn(s):
        out = np.power(s, theta)
        if a != 0.0:
            out = out * np.log(np.e + s) ** a
        if b != 0.0:
            out = out * np.power(np.e + 1.0 / s, b)
        return out

    return PseudoConcaveFunction(
        name=f"powerlog:theta={_fmt(theta)},a={_fmt(a)},b={_fmt(b)}",
        fn=fn,
    )


def _fmt(x: float) -> str:
    return f"{x:g}"


# ---------------------------------------------------------------------------
# Type constants and indices


@dataclass(frozen=True)
class TypeReport:
    direction: str
    exponent: float
    constant: float
    certified: bool
    cap: float
    worst_s: float
    worst_t: float


def type_constant(
    phi: GrowthFunction,
    direction: str,
    exponent: float,
    s_count: int = 96,
    t_count: int = 96,
    cap: float = _TYPE_CONSTANT_CAP,
) -> TypeReport:
    """Empirical type constant C = max Phi(st) / (t^q Phi(s)) on a log grid.

    direction "upper" probes t in [1, 1e4], "lower" probes t in [1e-4, 1].
    The grid maximum certifies the type only when it stays under cap; a probe
    that blows past the cap is reported as not certified.
    """
    if direction not in ("upper", "lower"):
        raise DomainError(f"direction must be 'upper' or 'lower', got {direction!r}")
    s = _log_grid(1e-6, 1e6, s_count)
    t = _log_grid(1.0, 1e4, t_count) if direction == "upper" else _log_grid(1e-4, 1.0, t_count)
    phi_s = phi(s)
    if np.any(phi_s <= 0.0):
        raise DegenerateFunctionError(f"{phi.name} vanishes on the probe grid")
    st = s[:, None] * t[None, :]
    ratios = phi(st) / (np.power(t[None, :], exponent) * phi_s[:, None])
    idx = int(np.argmax(ratios))
    i, j = np.unravel_index(idx, ratios.shape)
    c = float(ratios[i, j])
    return TypeReport(
        direction=direction,
        exponent=float(exponent),
        constant=c,
        certified=bool(np.isfinite(c) and c <= cap),
        cap=cap,
        worst_s=float(s[i]),
        worst_t=float(t[j]),
    )


@dataclass(frozen=True)
class IndicesReport:
    a_phi: float
    b_phi: float
    t_at_min: float
    t_at_max: float


def _parabolic_refine(logt: np.ndarray, vals: np.ndarray, i: int, sign: float, phi_ratio):
    """One quadratic refinement around grid extremum i; returns (t, value)."""
    if i == 0 or i == len(logt) - 1:
        return math.exp(logt[i]), vals[i]
    y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
    h = logt[i] - logt[i - 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return math.exp(logt[i]), vals[i]
    delta = 0.5 * h * (y0 - y2) / denom
    delta = float(np.clip(delta, -h, h))
    t_ref = math.exp(logt[i] + delta)
    v_ref = float(phi_ratio(np.array([t_ref]))[0])
    if sign * v_ref > sign * vals[i]:
        return t_ref, v_ref
    return math.exp(logt[i]), vals[i]


def indices(phi: GrowthFunction, t_min: float = 1e-8, t_max: float = 1e8,
            count: int = 2048) -> IndicesReport:
    """Index pair (a_Phi, b_Phi) = (inf, sup) of t Phi'(t) / Phi(t).

    Grid extrema on a log-spaced axis with one local quadratic refinement
    pass at each extremum.
    """
    t = _log_grid(t_min, t_max, count)

    def ratio(tt):
        vals = phi(tt)
        if np.any(vals <= 0.0):
            raise DegenerateFunctionError(f"{phi.name} vanishes on the index grid")
        return tt * phi.derivative(tt) / vals

    r = ratio(t)
    if not np.all(np.isfinite(r)):
        raise DegenerateFunctionError(f"{phi.name}: non-finite index ratio on grid")
    logt = np.log(t)
    i_min, i_max = int(np.argmin(r)), int(np.argmax(r))
    t_lo, a_phi = _parabolic_refine(logt, r, i_min, -1.0, ratio)
    t_hi, b_phi = _parabolic_refine(logt, r, i_max, +1.0, ratio)
    return IndicesReport(a_phi=float(a_phi), b_phi=float(b_phi),
                         t_at_min=float(t_lo), t_at_max=float(t_hi))


# ---------------------------------------------------------------------------
# Conjugation, Delta_2 and nabla_2


def golden_section_max(fn, lo, hi, tol: float = 1e-13, max_iter: int = 90):
    """Maximize fn on the brackets [lo, hi] by golden section, elementwise.

    fn maps an array of abscissae to values of the same shape and should be
    unimodal on each bracket.  Every step keeps the better of the two interior
    probes and evaluates one new probe; the loop stops once every bracket is
    narrower than tol, or after max_iter steps.  Returns (x, fn(x)) at the
    bracket midpoints.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if np.all(hi - lo < tol):
            break
        right = f1 < f2  # the maximum sits in [x1, hi]
        lo = np.where(right, x1, lo)
        hi = np.where(right, hi, x2)
        x_new = np.where(right, lo + _GOLDEN * (hi - lo), hi - _GOLDEN * (hi - lo))
        f_new = fn(x_new)
        x1, x2 = np.where(right, x2, x_new), np.where(right, x_new, x1)
        f1, f2 = np.where(right, f2, f_new), np.where(right, f_new, f1)
    xm = 0.5 * (lo + hi)
    return xm, fn(xm)


def _conjugate_values(phi: GrowthFunction, s: np.ndarray) -> np.ndarray:
    """Psi(s) = sup_t (t s - Phi(t)) by bracketed golden section on log t."""
    s = np.asarray(s, dtype=float)
    flat = s.reshape(-1)
    out = np.zeros_like(flat)
    live = flat > 0.0
    if not np.any(live):
        return out.reshape(s.shape)
    sv = flat[live]

    def height(t):
        with np.errstate(over="ignore", invalid="ignore"):
            return t * sv - phi.fn(t)

    hi = np.ones_like(sv)
    growing = height(2.0 * hi) > height(hi)
    guard = 0
    while np.any(growing):
        hi = np.where(growing, 2.0 * hi, hi)
        if np.any(hi[growing] > _CONJUGATE_T_CAP):
            bad = float(sv[growing][0])
            raise ConjugateInfiniteError(
                f"conjugate of {phi.name} is +inf near s={bad:g} (bracket cap hit)"
            )
        growing = height(2.0 * hi) > height(hi)
        guard += 1
        if guard > 200:
            raise ConjugateInfiniteError(f"conjugate bracket stalled for {phi.name}")

    # The objective is concave in t on [~0, 2 hi]; search it on the log axis.
    _, peak = golden_section_max(lambda x: height(np.exp(x)),
                                 np.full_like(sv, math.log(1e-300)), np.log(2.0 * hi),
                                 tol=1e-11, max_iter=200)
    out[live] = np.maximum(peak, 0.0)
    return out.reshape(s.shape)


def complementary(phi: GrowthFunction) -> GrowthFunction:
    """The convex conjugate Psi(s) = sup_t (ts - Phi(t)) as a growth function.

    Meaningful for convex Phi; for sublinear Phi the supremum is infinite for
    large s and evaluation raises ConjugateInfiniteError there.
    """
    return GrowthFunction(
        name=f"conjugate({phi.name})",
        fn=lambda s: _conjugate_values(phi, s),
        kind="unclassified",
    )


@dataclass(frozen=True)
class DeltaTwoReport:
    constant: float
    certified: bool
    cap: float
    worst_t: float


def delta2_constant(phi: GrowthFunction, t_min: float = 1e-6, t_max: float = 1e6,
                    count: int = 1024, cap: float = _DELTA2_CAP) -> DeltaTwoReport:
    """Empirical Delta_2 constant sup Phi(2t) / Phi(t) on a log grid."""
    t = _log_grid(t_min, t_max, count)
    lo = phi(t)
    if np.any(lo <= 0.0):
        raise DegenerateFunctionError(f"{phi.name} vanishes on the Delta_2 grid")
    ratios = phi(2.0 * t) / lo
    i = int(np.argmax(ratios))
    c = float(ratios[i])
    return DeltaTwoReport(constant=c, certified=bool(np.isfinite(c) and c <= cap),
                          cap=cap, worst_t=float(t[i]))


@dataclass(frozen=True)
class Nabla2Report:
    verdict: bool
    a_phi: float
    k_phi: float
    k_psi: float
    index_criterion: bool
    agrees: bool


def nabla2_check(phi: GrowthFunction, index_margin: float = 1e-6) -> Nabla2Report:
    """nabla_2 verdict: Phi and its conjugate both satisfy Delta_2 numerically.

    Cross-checked against the index criterion a_Phi > 1.  A conjugate that is
    infinite on the probe grid, overflows, or exceeds the Delta_2 cap counts
    as failing Delta_2; that is exactly the regime a_Phi <= 1 predicts.
    """
    idx = indices(phi)
    d_phi = delta2_constant(phi)
    k_phi = d_phi.constant
    psi = complementary(phi)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            d_psi = delta2_constant(psi)
        k_psi = d_psi.constant
        psi_ok = d_psi.certified
    except (ConjugateInfiniteError, DegenerateFunctionError):
        k_psi = float("inf")
        psi_ok = False
    verdict = bool(d_phi.certified and psi_ok)
    criterion = bool(idx.a_phi > 1.0 + index_margin)
    return Nabla2Report(
        verdict=verdict,
        a_phi=idx.a_phi,
        k_phi=k_phi,
        k_psi=k_psi,
        index_criterion=criterion,
        agrees=bool(verdict == criterion),
    )


# ---------------------------------------------------------------------------
# Composition, duality, interpolation


def power_compose(phi: GrowthFunction, p: float | None = None):
    """Phi_p(t) = Phi(t^(1/p)); certifies an upper-type exponent for it.

    Default p is the declared lower-type exponent of Phi.  Returns the
    composed growth function together with the certifying TypeReport.
    """
    if p is None:
        if phi.kind != "lower":
            raise DomainError("power_compose needs an explicit p unless Phi is lower-type")
        p = phi.type_exponent
    p = float(p)
    if p <= 0.0:
        raise DomainError(f"composition exponent must be positive, got {p}")

    def inv(s):
        return np.power(phi.inverse(s), p)

    composed = GrowthFunction(
        name=f"powercompose({phi.name},p={_fmt(p)})",
        fn=lambda t: phi.fn(np.power(t, 1.0 / p)),
        kind="unclassified",
        inv=inv,
    )
    probe = indices(composed, t_min=1e-6, t_max=1e6, count=512)
    q = max(1.0, probe.b_phi * (1.0 + 1e-6) + 1e-9)
    report = type_constant(composed, "upper", q)
    if not report.certified:
        raise DegenerateFunctionError(
            f"{composed.name} failed upper-type certification at q={q:g}"
        )
    return GrowthFunction(
        name=composed.name,
        fn=composed.fn,
        kind="upper",
        type_exponent=q,
        inv=inv,
    ), report


@dataclass(frozen=True)
class InverseClassReport:
    p: float
    dual_exponent: float
    constant: float
    certified: bool


def inverse_class_check(phi: GrowthFunction, cap: float = _TYPE_CONSTANT_CAP) -> InverseClassReport:
    """For lower-type Phi, certify that Phi^{-1} has upper type 1/p empirically.

    Checks Phi^{-1}(st) <= C t^(1/p) Phi^{-1}(s) on the standard grid.
    """
    if phi.kind != "lower":
        raise DomainError("inverse_class_check applies to declared lower-type functions")
    p = phi.type_exponent
    q = 1.0 / p
    s = _log_grid(1e-6, 1e6, 96)
    t = _log_grid(1.0, 1e4, 96)
    inv_s = phi.inverse(s)
    if np.any(inv_s <= 0.0):
        raise DegenerateFunctionError(f"{phi.name}: inverse vanishes on probe grid")
    ratios = phi.inverse(s[:, None] * t[None, :]) / (np.power(t[None, :], q) * inv_s[:, None])
    c = float(np.max(ratios))
    return InverseClassReport(p=p, dual_exponent=q, constant=c,
                              certified=bool(np.isfinite(c) and c <= cap))


def interpolate_growth(phi0: GrowthFunction, phi1: GrowthFunction,
                       rho: PseudoConcaveFunction) -> GrowthFunction:
    """Growth function defined through Phi^{-1} = Phi0^{-1} rho(Phi1^{-1}/Phi0^{-1}).

    The forward evaluator inverts that monotone expression by bisection.  The
    combination is rejected if the assembled inverse fails to be increasing on
    a probe grid.
    """

    def inv_fn(s):
        arr = np.asarray(s, dtype=float)
        flat = arr.reshape(-1)
        out = np.zeros_like(flat)
        pos = flat > 0.0
        if np.any(pos):
            i0 = phi0.inverse(flat[pos])
            i1 = phi1.inverse(flat[pos])
            out[pos] = i0 * rho.fn(i1 / i0)
        return out.reshape(arr.shape)

    probe = _log_grid(1e-10, 1e10, 256)
    vals = inv_fn(probe)
    if not (np.all(np.isfinite(vals)) and np.all(np.diff(vals) > 0.0)):
        raise DomainError(
            f"interpolated inverse from ({phi0.name}, {phi1.name}; {rho.name}) "
            "is not increasing on the probe grid"
        )

    name = f"interp:phi0=({phi0.name}),phi1=({phi1.name}),rho=({rho.name})"
    return GrowthFunction(
        name=name,
        fn=lambda t: _monotone_inverse(inv_fn, np.asarray(t, dtype=float), label=name),
        kind="unclassified",
        inv=inv_fn,
    )


@dataclass(frozen=True)
class PseudoConcaveReport:
    ok: bool
    worst_ratio: float
    worst_s: float
    worst_t: float


def pseudo_concave_check(rho: PseudoConcaveFunction, count: int = 128,
                         tol: float = 1e-12) -> PseudoConcaveReport:
    """Check rho(s) <= max(1, s/t) rho(t) on a log-spaced pair grid."""
    grid = _log_grid(1e-6, 1e6, count)
    r = rho(grid)
    bound = np.maximum(1.0, grid[:, None] / grid[None, :]) * r[None, :]
    ratios = r[:, None] / bound
    idx = int(np.argmax(ratios))
    i, j = np.unravel_index(idx, ratios.shape)
    worst = float(ratios[i, j])
    return PseudoConcaveReport(ok=bool(worst <= 1.0 + tol), worst_ratio=worst,
                               worst_s=float(grid[i]), worst_t=float(grid[j]))


@dataclass(frozen=True)
class EquivalenceReport:
    c_lower: float
    c_upper: float
    t_min: float
    t_max: float


def equivalence_constants(phi: GrowthFunction, psi: GrowthFunction,
                          t_min: float = 1e-6, t_max: float = 1e6,
                          count: int = 2048) -> EquivalenceReport:
    """Two-sided constants c_lower <= psi/phi <= c_upper on a shared log grid."""
    t = _log_grid(t_min, t_max, count)
    num, den = psi(t), phi(t)
    if np.any(den <= 0.0) or np.any(num <= 0.0):
        raise DegenerateFunctionError("equivalence needs strictly positive values on the grid")
    ratios = num / den
    return EquivalenceReport(c_lower=float(np.min(ratios)), c_upper=float(np.max(ratios)),
                             t_min=t_min, t_max=t_max)


# ---------------------------------------------------------------------------
# String identifiers


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FunctionSpecError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise FunctionSpecError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p for p in parts if p]


def _parse_number(text: str) -> float:
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\s*/\s*(\d+)", text)
    if m:
        return float(m.group(1)) / float(m.group(2))
    try:
        return float(text)
    except ValueError as exc:
        raise FunctionSpecError(f"not a number: {text!r}") from exc


def _parse_kv(spec: str):
    if ":" in spec:
        kind, rest = spec.split(":", 1)
    else:
        kind, rest = spec, ""
    kind = kind.strip()
    args = {}
    if rest.strip():
        for item in _split_top_level(rest):
            if "=" not in item:
                raise FunctionSpecError(f"expected key=value, got {item!r} in {spec!r}")
            key, value = item.split("=", 1)
            args[key.strip()] = value.strip()
    return kind, args


def _strip_parens(text: str) -> str:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return text[1:-1]
    return text


def resolve_rho(spec: str) -> PseudoConcaveFunction:
    """Parse a pseudo-concave id such as 'power:theta=0.5'."""
    kind, args = _parse_kv(_strip_parens(spec))
    if kind == "power":
        return rho_power(_parse_number(args.get("theta", "0.5")))
    if kind == "powerlog":
        return rho_power_log(
            _parse_number(args.get("theta", "0.5")),
            _parse_number(args.get("a", "0")),
            _parse_number(args.get("b", "0")),
        )
    raise FunctionSpecError(f"unknown pseudo-concave family {kind!r}")


def resolve_growth(spec: str) -> GrowthFunction:
    """Parse a growth function id.

    Grammar: kind:key=value,...  where nested ids appear verbatim (wrap them
    in parentheses when they contain commas).  Examples:

        power:p=2
        power:p=1/3
        powerlog:p=2,a=1
        powerinvlog:p=2
        interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5
        interp:phi0=(powerlog:p=2,a=1),phi1=power:p=4,rho=power:theta=0.5
    """
    kind, args = _parse_kv(_strip_parens(spec))
    if kind == "power":
        if "p" not in args:
            raise FunctionSpecError("power needs p=")
        return power_growth(_parse_number(args["p"]))
    if kind == "powerlog":
        if "p" not in args:
            raise FunctionSpecError("powerlog needs p=")
        return power_log_growth(_parse_number(args["p"]), _parse_number(args.get("a", "1")))
    if kind == "powerinvlog":
        return power_inv_log_growth(
            _parse_number(args.get("p", "2")), _parse_number(args.get("a", "1"))
        )
    if kind == "interp":
        for key in ("phi0", "phi1", "rho"):
            if key not in args:
                raise FunctionSpecError(f"interp needs {key}=")
        return interpolate_growth(
            resolve_growth(args["phi0"]),
            resolve_growth(args["phi1"]),
            resolve_rho(args["rho"]),
        )
    raise FunctionSpecError(f"unknown growth family {kind!r}")


def shipped_growth_ids() -> list[str]:
    """Identifiers of the growth functions shipped with the package."""
    return [
        "power:p=1/3",
        "power:p=1/2",
        "power:p=2/3",
        "power:p=1",
        "power:p=2",
        "power:p=3",
        "powerlog:p=1",
        "powerlog:p=2",
        "powerlog:p=3",
        "powerinvlog:p=2",
        "interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5",
    ]
