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
* interpolation of two growth functions through a pseudo-concave rho, via
  Phi^{-1} = Phi_0^{-1} . rho(Phi_1^{-1} / Phi_0^{-1}).

All evaluators are vectorized over numpy arrays.  Every inverse without a
closed form is read off one kind of table (_InverseTable): exact pairs of an
increasing g on a log grid, a cubic per window of four pairs, and two Newton
steps on g, with no root-finder.  A Phi without a closed-form inverse
tabulates itself on first use; an interpolated Phi, known only through its
inverse, is the table of that inverse.  Maximizations use
golden_section_max, a vectorized golden section that the indices and the
conjugate run on a log axis and the Bloch seminorm in operators.py runs along
radii and angles.
"""

from __future__ import annotations

import functools
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
    "IndicesReport",
    "DeltaTwoReport",
    "Nabla2Report",
    "PseudoConcaveReport",
    "EquivalenceReport",
    "power_growth",
    "power_log_growth",
    "power_inv_log_growth",
    "rho_power",
    "rho_power_log",
    "indices",
    "golden_section_max",
    "complementary",
    "delta2_constant",
    "nabla2_check",
    "interpolate_growth",
    "pseudo_concave_check",
    "equivalence_constants",
    "resolve_growth",
    "resolve_rho",
    "shipped_growth_ids",
]

_BRACKET_CAP = 1e280
_FLOAT_MAX = np.finfo(float).max
_CONJUGATE_T_CAP = 1e30
_DELTA2_CAP = 1e12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TABLE_PAIRS = 8001
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)
# t^p by one correctly rounded ufunc, with the bits of np.power(t, p) at half the cost.
_POWER_UFUNCS = {2.0: np.square, 0.5: np.sqrt}


def _log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    return np.logspace(math.log10(lo), math.log10(hi), count)


def _as_nonnegative(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    # Written so that NaN, which compares False both ways, is refused too.
    if not np.all(arr >= 0.0):
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
        elif self.inv is not None:
            # Phi'(t) = 1 / Psi'(Phi(t)), with Psi' a central difference of the
            # explicit inverse Psi rather than of a computed Phi.
            s = self.fn(arr)
            h = 1e-5 * s
            out = 2.0 * h / (self.inv(s + h) - self.inv(s - h))
        else:
            h = 1e-6 * arr
            out = (self.fn(arr + h) - self.fn(arr - h)) / (2.0 * h)
        return float(out) if np.ndim(t) == 0 else out

    def inverse(self, s):
        arr = _as_nonnegative(s)
        out = (self.inv or self._inverse_table)(arr)
        return float(out) if np.ndim(s) == 0 else out

    @functools.cached_property
    def _inverse_table(self) -> "_InverseTable":
        """Phi^{-1} read off a table of Phi, built on first use."""
        return _InverseTable(self.fn, f"inverse of {self.name}")


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


class _InverseTable:
    """g^{-1} for an increasing g on [0, inf) with g(0) = 0, with no root-finding.

    Serves Phi^{-1} for a Phi without a closed-form inverse (g = Phi) and the
    interpolated Phi (g = its explicit inverse).  Holds the exact pairs
    (u_j, y_j) = (log g(e^{y_j}), y_j) on _TABLE_PAIRS uniform y_j of
    [-log _BRACKET_CAP, log _BRACKET_CAP], and per window of four pairs the
    cubic through them: y as a polynomial in u - u_k, in units of the y step.
    Pairs where g is not a normal positive float, or where an inverse inside g
    refuses its target, are left out at the ends; a NaN from g on the grid
    raises DomainError, since it is no end of the table.

    g^{-1}(t) finds u = log t in the table, reads y0 and dy/du off the cubic
    of the window around it, and takes two Newton steps on log(g(e^y) / t),
    each a factor on e^y so that the rounding of y at |y| ~ 600 (1e-13) does
    not reach the result.  Below the table y follows the end slope; a result
    below 1/_BRACKET_CAP is pinned there.  Above the last pair where g is
    finite it raises UnboundedInverseError; 0 maps to 0 and NaN raises
    DomainError.  label names g^{-1} in these errors.  Every value is computed
    on its own, so a value's bits do not depend on the batch it comes in.

    Against 40-digit mpmath roots, Phi^{-1} read this way is within 2.3e-16
    relative for powerlog:p=2,a=1 and powerinvlog:p=2 on s in [1e-250,
    1e250], and within 6.7e-16 for powerlog:p=1/2,a=1 on [1e-140, 1e142].
    """

    def __init__(self, g, label: str):
        self.g, self.label = g, label
        cap = math.log(_BRACKET_CAP)
        y = np.linspace(-cap, cap, _TABLE_PAIRS)
        u = _log_g_on_prefix(g, y)
        nan = np.isnan(u)
        if nan.any():
            raise DomainError(f"cannot tabulate {label}: the function it inverts is NaN"
                              f" at t = {math.exp(y[nan][0]):g}")
        keep = np.flatnonzero((u >= _LOG_TINY) & (u < math.inf))
        if keep.size and keep[-1] - keep[0] + 1 != keep.size:
            keep = keep[:0]
        u = u[keep]
        if u.size < 4 or not np.all(np.diff(u) > 0.0):
            raise DomainError(f"cannot tabulate {label}: the function it inverts is not"
                              " increasing")
        self.y_first, self.y_step = float(y[keep[0]]), float(y[1] - y[0])
        self.y_last = float(y[keep[-1]])
        self.u = u
        # Divided differences of the index offsets 0..3 over the window's u,
        # then the cubic's coefficients in x = u - u_k.
        a, b, c, d = u[:-3], u[1:-2], u[2:-1], u[3:]
        ab, bc, cd = 1.0 / (b - a), 1.0 / (c - b), 1.0 / (d - c)
        abc, bcd = (bc - ab) / (c - a), (cd - bc) / (d - b)
        abcd = (bcd - abc) / (d - a)
        self.coef = np.stack([ab - (b - a) * (abc - (c - a) * abcd),
                              abc - (b - a + c - a) * abcd, abcd])

    def __call__(self, t) -> np.ndarray:
        s = np.asarray(t, dtype=float)
        flat = s.reshape(-1)
        if np.isnan(flat).any():
            raise DomainError(f"cannot evaluate {self.label} at NaN")
        live = flat > 0.0
        if live.all():
            return self._positive(flat).reshape(s.shape)
        out = np.zeros_like(flat)
        out[live] = self._positive(flat[live])
        return out.reshape(s.shape)

    def _positive(self, t: np.ndarray) -> np.ndarray:
        u = np.log(t)
        above = u > self.u[-1]
        if np.any(above):
            raise UnboundedInverseError(
                f"{self.label} exceeds {math.exp(self.y_last):g} at t = {t[above][0]:g}")
        below = u < self.u[0]
        if np.any(below):
            val = np.empty_like(u)
            end_slope = self.y_step * self.coef[0, 0]
            val[below] = np.exp(self.y_first + end_slope * (u[below] - self.u[0]))
            val[~below] = self._newton(u[~below], t[~below])
        else:
            val = self._newton(u, t)
        return np.maximum(val, 1.0 / _BRACKET_CAP, out=val)

    def _newton(self, u: np.ndarray, t: np.ndarray) -> np.ndarray:
        """g^{-1}(t) for u = log t on the table."""
        k = np.clip(np.searchsorted(self.u, u, side="right") - 2, 0, self.u.size - 4)
        x = u - self.u[k]
        e1, e2, e3 = self.coef[:, k]
        y = self.y_first + self.y_step * (k + x * (e1 + x * (e2 + x * e3)))
        minus_slope = -self.y_step * (e1 + x * (2.0 * e2 + 3.0 * x * e3))
        val = np.exp(np.minimum(y, self.y_last, out=y), out=y)
        # One step leaves the cubic's error times that of its slope: up to
        # 2e-10 where log g^{-1} bends fastest (the interp Phi with
        # phi0 = powerlog:p=1/2); two leave g's own rounding.
        for _ in range(2):
            step = self.g(val) / t
            np.log(step, out=step)
            step *= minus_slope
            val *= np.exp(step, out=step)
        return val


def _log_g_on_prefix(g, y: np.ndarray) -> np.ndarray:
    """log g(e^y) on the longest leading part of the ascending grid y where g
    answers: an inverse that g is built from may refuse targets past its own
    cap, and refuses then for every larger target too."""

    def attempt(m):
        try:
            with np.errstate(all="ignore"):
                return np.log(g(np.exp(y[:m])))
        except UnboundedInverseError:
            return None

    u = attempt(y.size)
    if u is not None:
        return u
    good, bad, u = 0, y.size, y[:0]
    while bad - good > 1:
        mid = (good + bad) // 2
        got = attempt(mid)
        if got is None:
            bad = mid
        else:
            good, u = mid, got
    return u


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
        fn=_POWER_UFUNCS.get(p, lambda t: np.power(t, p)),
        kind=kind,
        type_exponent=p,
        inv=_POWER_UFUNCS.get(1.0 / p, lambda s: np.power(s, 1.0 / p)),
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
        # The log reads t capped at the largest float: Phi(inf) = inf, not inf / inf.
        return np.power(t, p) / np.log(np.e + np.minimum(t, _FLOAT_MAX)) ** a

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
# Indices


@dataclass(frozen=True)
class IndicesReport:
    a_phi: float
    b_phi: float


def indices(phi: GrowthFunction) -> IndicesReport:
    """Index pair (a_Phi, b_Phi) = (inf, sup) of t Phi'(t) / Phi(t).

    Grid extrema on 2048 log-spaced points of [1e-8, 1e8], each polished by
    golden_section_max on log t between its grid neighbours.
    """
    t = _log_grid(1e-8, 1e8, 2048)

    def ratio(tt):
        vals = phi(tt)
        if np.any(vals <= 0.0):
            raise DegenerateFunctionError(f"{phi.name} vanishes on the index grid")
        return tt * phi.derivative(tt) / vals

    r = ratio(t)
    if not np.all(np.isfinite(r)):
        raise DegenerateFunctionError(f"{phi.name}: non-finite index ratio on grid")
    logt = np.log(t)
    # The minimum is the maximum of -ratio; both are polished in one call.
    at = np.array([np.argmin(r), np.argmax(r)])
    sign = np.array([-1.0, 1.0])
    _, v = golden_section_max(lambda x: sign * ratio(np.exp(x)),
                              logt[np.maximum(at - 1, 0)], logt[np.minimum(at + 1, t.size - 1)])
    return IndicesReport(a_phi=float(-v[0]), b_phi=float(v[1]))


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
    while np.any(growing):
        hi = np.where(growing, 2.0 * hi, hi)
        if np.any(hi[growing] > _CONJUGATE_T_CAP):
            bad = float(sv[growing][0])
            raise ConjugateInfiniteError(
                f"conjugate of {phi.name} is +inf near s={bad:g} (bracket cap hit)"
            )
        growing = height(2.0 * hi) > height(hi)

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


def delta2_constant(phi: GrowthFunction) -> DeltaTwoReport:
    """Empirical Delta_2 constant sup Phi(2t) / Phi(t) on a log grid of [1e-6, 1e6].

    Certified when the grid maximum stays under _DELTA2_CAP.
    """
    t = _log_grid(1e-6, 1e6, 1024)
    lo = phi(t)
    if np.any(lo <= 0.0):
        raise DegenerateFunctionError(f"{phi.name} vanishes on the Delta_2 grid")
    c = float(np.max(phi(2.0 * t) / lo))
    return DeltaTwoReport(constant=c, certified=bool(np.isfinite(c) and c <= _DELTA2_CAP))


@dataclass(frozen=True)
class Nabla2Report:
    verdict: bool
    a_phi: float
    agrees: bool


def nabla2_check(phi: GrowthFunction) -> Nabla2Report:
    """nabla_2 verdict: Phi and its conjugate both satisfy Delta_2 numerically.

    Cross-checked against the index criterion a_Phi > 1 + 1e-6.  A conjugate that is
    infinite on the probe grid, overflows, or exceeds the Delta_2 cap counts
    as failing Delta_2; that is exactly the regime a_Phi <= 1 predicts.
    """
    idx = indices(phi)
    phi_ok = delta2_constant(phi).certified
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            psi_ok = delta2_constant(complementary(phi)).certified
    except (ConjugateInfiniteError, DegenerateFunctionError):
        psi_ok = False
    verdict = bool(phi_ok and psi_ok)
    return Nabla2Report(verdict=verdict, a_phi=idx.a_phi,
                        agrees=bool(verdict == (idx.a_phi > 1.0 + 1e-6)))


# ---------------------------------------------------------------------------
# Interpolation


@dataclass(frozen=True)
class PseudoConcaveReport:
    ok: bool
    worst_ratio: float
    worst_s: float
    worst_t: float


def pseudo_concave_check(rho: PseudoConcaveFunction) -> PseudoConcaveReport:
    """Check rho(s) <= max(1, s/t) rho(t), to 1e-12 relative, on 128 x 128
    log-spaced pairs of [1e-6, 1e6]."""
    grid = _log_grid(1e-6, 1e6, 128)
    r = rho(grid)
    bound = np.maximum(1.0, grid[:, None] / grid[None, :]) * r[None, :]
    ratios = r[:, None] / bound
    idx = int(np.argmax(ratios))
    i, j = np.unravel_index(idx, ratios.shape)
    worst = float(ratios[i, j])
    return PseudoConcaveReport(ok=bool(worst <= 1.0 + 1e-12), worst_ratio=worst,
                               worst_s=float(grid[i]), worst_t=float(grid[j]))


def interpolate_growth(phi0: GrowthFunction, phi1: GrowthFunction,
                       rho: PseudoConcaveFunction) -> GrowthFunction:
    """Growth function defined through Phi^{-1} = Phi0^{-1} rho(Phi1^{-1}/Phi0^{-1}).

    Phi itself has no closed form.  Its evaluator is an _InverseTable built
    here once from the explicit inverse Psi: 8,001 exact pairs
    (log Psi(e^y), y) on a uniform grid of y = log Phi in [-log 1e280,
    log 1e280], with a cubic per window of four pairs, 256 KB in all.  A
    value is read off the table and polished by two Newton steps on Psi, so
    no root-finder runs on Psi, at build time or per value.  Psi is 0 where
    an inner inverse is below the smallest normal float and inf where one is
    infinite.  On t in [1e-200, 1e200] with Phi(t) in [1e-280, 1e280], Phi
    is within 8.9e-16 of a 40-digit mpmath root of Psi(x) = t, and
    Psi(Phi(t))/t - 1 within 4.5e-16, both for interp(t^2, t^4; s^(1/2))
    and for interp(t^2 log(e + t), t^4; s^(1/2)), whose Psi reads the
    powerlog inverse off that Phi's own table.  Phi is pinned at 1e-280
    below that range, refuses t above it with UnboundedInverseError, maps 0
    to 0 and refuses NaN.
    Phi' = 1 / Psi'(Phi) (GrowthFunction.derivative).

    The combination is rejected with DomainError when rho fails
    pseudo_concave_check, a hypothesis of the interpolation theorem, or when
    the assembled inverse fails to be increasing on a probe grid or on the
    table.
    """
    concave = pseudo_concave_check(rho)
    if not concave.ok:
        raise DomainError(
            f"{rho.name} is not pseudo-concave: rho(s) / (max(1, s/t) rho(t)) ="
            f" {concave.worst_ratio:.6g} > 1 at s={concave.worst_s:.6g},"
            f" t={concave.worst_t:.6g}"
        )

    def psi(s):
        # Psi on s > 0: 0 where an inner inverse is below the smallest normal
        # float and inf where one is infinite, never the 0/0 or inf/inf of
        # the quotient or its rounding where one is subnormal.
        i0, i1 = phi0.inverse(s), phi1.inverse(s)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = i0 * rho.fn(i1 / i0)
        out[np.minimum(i0, i1) < _TINY] = 0.0
        out[np.isinf(i0) | np.isinf(i1)] = math.inf
        return out

    def inv_fn(s):
        arr = np.asarray(s, dtype=float)
        flat = arr.reshape(-1)
        out = np.zeros_like(flat)
        pos = flat > 0.0
        if np.any(pos):
            out[pos] = psi(flat[pos])
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
        fn=_InverseTable(psi, name),
        kind="unclassified",
        inv=inv_fn,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    c_lower: float
    c_upper: float


def equivalence_constants(phi: GrowthFunction, psi: GrowthFunction) -> EquivalenceReport:
    """Two-sided constants c_lower <= psi/phi <= c_upper on a log grid of [1e-6, 1e6]."""
    t = _log_grid(1e-6, 1e6, 2048)
    num, den = psi(t), phi(t)
    if np.any(den <= 0.0) or np.any(num <= 0.0):
        raise DegenerateFunctionError("equivalence needs strictly positive values on the grid")
    ratios = num / den
    return EquivalenceReport(c_lower=float(np.min(ratios)), c_upper=float(np.max(ratios)))


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
    """A finite float from a decimal or an integer ratio; anything else is a
    FunctionSpecError, since ids come from outside the program."""
    text = text.strip()
    m = re.fullmatch(r"(-?\d+)\s*/\s*(\d+)", text)
    try:
        value = float(m.group(1)) / float(m.group(2)) if m else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FunctionSpecError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise FunctionSpecError(f"not a finite number: {text!r}")
    return value


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
