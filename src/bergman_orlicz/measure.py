"""Weighted volume measures, quadrature rules and Mobius geometry on the unit ball.

The normalized measure on the unit ball B^n of C^n is

    d nu_alpha(z) = c_alpha (1 - |z|^2)^alpha d nu(z),   alpha > -1,

with nu the Lebesgue volume and c_alpha chosen so nu_alpha(B^n) = 1.  Writing
u = |z|^2 and splitting off the sphere direction, the radial factor carries the
weight u^(n-1) (1-u)^alpha on (0,1), which is exactly a Jacobi weight; product
rules below combine Gauss-Jacobi radial nodes with uniform angular grids, so a
monomial z^m conj(z)^m' integrates exactly once |m| + |m'| stays at or below
the advertised degree.  Product rules exist for n = 1 and 2 only.
sphere_directions supplies the unit vectors that the pointwise and Bloch
sweeps probe along: the equispaced circle for n = 1 and seed-deterministic
scrambled Halton points for n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtri, roots_jacobi

from .errors import (
    DomainError,
    NonFiniteIntegrandError,
    UnsupportedRuleError,
)

__all__ = [
    "WeightedMeasure",
    "QuadratureRule",
    "make_measure",
    "build_rule",
    "sphere_directions",
    "integrate",
    "mobius_apply",
    "mobius_jacobian0",
    "kernel_factor",
]

_REFINED_MIN_ANGULAR = 512


@dataclass(frozen=True)
class WeightedMeasure:
    """Normalized weighted volume nu_alpha on the unit ball of C^n."""

    n: int
    alpha: float
    c_alpha: float
    unit_mass_residual: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got n={self.n}")
        if self.alpha <= -1.0:
            raise DomainError(f"weight exponent must exceed -1, got alpha={self.alpha}")


def _normalizing_constant(n: int, alpha: float) -> float:
    # c_alpha = Gamma(n+alpha+1) / (pi^n Gamma(alpha+1)), from integrating the
    # radial Beta factor against the sphere area.
    return math.exp(gammaln(n + alpha + 1.0) - gammaln(alpha + 1.0)) / math.pi**n


def make_measure(n: int, alpha: float) -> WeightedMeasure:
    """Build nu_alpha with its closed-form constant, cross-checked by quadrature.

    For n <= 2 the raw (un-normalized) product rule mass is compared against 1;
    the residual is stored on the measure.  Tensor rules do not exist for
    n >= 3, where the same Gamma-function formula applies unchanged, so the
    residual is recorded as 0 there.
    """
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got n={n}")
    if alpha <= -1.0:
        raise DomainError(f"weight exponent must exceed -1, got alpha={alpha}")
    c_alpha = _normalizing_constant(n, alpha)
    residual = 0.0
    if n <= 2:
        raw = _product_rule_raw(n, alpha, degree=8)
        residual = abs(float(np.sum(raw[1])) - 1.0)
        if residual > 1e-10:
            raise DomainError(
                f"normalizing constant failed its quadrature cross-check: "
                f"residual={residual:.3e} for n={n}, alpha={alpha}"
            )
    return WeightedMeasure(n=n, alpha=alpha, c_alpha=c_alpha, unit_mass_residual=residual)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights representing nu_alpha, normalized to unit mass.

    points has shape (N, n) complex, weights shape (N,) positive with sum 1.
    exact_degree is the largest total monomial degree |m| + |m'| the rule
    integrates exactly.
    """

    measure: WeightedMeasure
    kind: str
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    exact_degree: int
    rule_id: str
    normalization_residual: float

    @property
    def node_count(self) -> int:
        return self.points.shape[0]


def _radial_jacobi(n: int, alpha: float, n_nodes: int):
    """Nodes/weights for integral_0^1 u^(n-1) (1-u)^alpha h(u) du."""
    x, w = roots_jacobi(n_nodes, alpha, float(n - 1))
    u = 0.5 * (x + 1.0)
    w = w * 2.0 ** (-(n + alpha))
    return u, w


def _product_rule_raw(n: int, alpha: float, degree: int, boundary_refined: bool = False,
                      angular_count: int | None = None):
    """Raw product nodes/weights before unit-mass normalization (n = 1 or 2)."""
    c_alpha = _normalizing_constant(n, alpha)
    radial_degree = 2 * degree if boundary_refined else degree
    n_rad = radial_degree // 4 + 1
    n_ang = degree + 1
    if boundary_refined:
        n_ang = max(2 * degree + 1, _REFINED_MIN_ANGULAR if n == 1 else 48)
    if angular_count is not None:
        n_ang = max(n_ang, int(angular_count))

    if n == 1:
        u, wu = _radial_jacobi(1, alpha, n_rad)
        theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
        r = np.sqrt(u)
        zz = r[:, None] * np.exp(1j * theta)[None, :]
        pts = zz.reshape(-1, 1)
        w = np.broadcast_to((c_alpha * np.pi / n_ang) * wu[:, None], zz.shape).reshape(-1)
        return pts, w.copy()

    if n == 2:
        s, ws = _radial_jacobi(2, alpha, n_rad)
        n_slice = degree // 4 + 1
        v, wv = _radial_jacobi(1, 0.0, n_slice)  # Legendre on (0,1)
        t1 = 2.0 * np.pi * np.arange(n_ang) / n_ang
        t2 = 2.0 * np.pi * np.arange(n_ang) / n_ang
        S, V, T1, T2 = np.meshgrid(s, v, t1, t2, indexing="ij")
        z1 = np.sqrt(S * V) * np.exp(1j * T1)
        z2 = np.sqrt(S * (1.0 - V)) * np.exp(1j * T2)
        pts = np.stack([z1.reshape(-1), z2.reshape(-1)], axis=1)
        WS, WV = np.meshgrid(ws, wv, indexing="ij")
        w_rad = (WS * WV)[:, :, None, None]
        w = np.broadcast_to(
            c_alpha * (2.0 * np.pi / n_ang) ** 2 * 0.25 * w_rad,
            S.shape,
        ).reshape(-1)
        return pts, w.copy()

    raise UnsupportedRuleError(f"product rules stop at n=2, got n={n}")


def build_rule(
    measure: WeightedMeasure,
    degree: int | None = None,
    boundary_refined: bool = False,
    angular_count: int | None = None,
) -> QuadratureRule:
    """Construct the product quadrature rule of the given degree for nu_alpha.

    Product rules exist for n = 1 and 2; other dimensions raise
    UnsupportedRuleError.  boundary_refined doubles the radial degree and
    widens the angular grid; use it for integrands that concentrate near the
    sphere, such as powers of the reproducing kernel.  angular_count forces
    at least that many angular nodes per circle, which sharply peaked kernels
    (center norm close to 1) need on top of the refined radial grid.
    """
    if degree is None:
        raise UnsupportedRuleError("a quadrature rule needs a degree")
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    n, alpha = measure.n, measure.alpha
    pts, raw_w = _product_rule_raw(n, alpha, degree, boundary_refined, angular_count)
    total = float(np.sum(raw_w))
    residual = abs(total - 1.0)
    w = raw_w / total
    tag = ",refined" if boundary_refined else ""
    if angular_count is not None:
        tag += f",angles={int(angular_count)}"
    rid = f"product:n={n},alpha={alpha:g},degree={degree},nodes={pts.shape[0]}{tag}"
    return QuadratureRule(
        measure=measure,
        kind="product",
        points=pts,
        weights=w,
        exact_degree=degree,
        rule_id=rid,
        normalization_residual=residual,
    )


def sphere_directions(n: int, count: int, seed: int) -> np.ndarray:
    """count unit vectors of C^n, shape (count, n), for probe sweeps.

    n = 1 gives the equispaced circle (seed unused).  For n >= 2, scrambled
    Halton points in [0, 1)^(2n) are mapped through the inverse normal CDF to
    Gaussian vectors and normalized, which spreads them uniformly over the
    sphere; the set is a deterministic function of the seed.
    """
    if n == 1:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.exp(1j * theta)[:, None]
    from scipy.stats import qmc

    q = qmc.Halton(d=2 * n, scramble=True, seed=seed).random(count)
    g = ndtri(np.clip(q, 1e-15, 1.0 - 1e-15))
    vecs = g[:, :n] + 1j * g[:, n:]
    norms = np.linalg.norm(vecs, axis=1)
    norms = np.where(norms == 0.0, 1.0, norms)
    return vecs / norms[:, None]


def integrate(rule: QuadratureRule, integrand) -> complex:
    """Apply the rule to a vectorized integrand (callable or node-value array).

    A callable receives the full (N, n) node array and must return (N,) values.
    Non-finite values abort with the offending node index; the reduction is a
    single deterministic numpy sum, so results do not depend on threading.
    """
    values = integrand(rule.points) if callable(integrand) else np.asarray(integrand)
    values = np.asarray(values)
    if values.shape != (rule.node_count,):
        raise DomainError(
            f"integrand values have shape {values.shape}, expected ({rule.node_count},)"
        )
    finite = np.isfinite(values) if not np.iscomplexobj(values) else (
        np.isfinite(values.real) & np.isfinite(values.imag)
    )
    if not bool(np.all(finite)):
        idx = int(np.argmin(finite))
        raise NonFiniteIntegrandError(
            f"integrand is not finite at node {idx} (z={rule.points[idx]})", node_index=idx
        )
    acc = np.sum(rule.weights * values)
    return complex(acc) if np.iscomplexobj(values) else float(acc)


# ---------------------------------------------------------------------------
# Mobius automorphisms


def _as_point(a, n: int | None = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(a, dtype=complex))
    if arr.ndim != 1:
        raise DomainError(f"a point of B^n must be a flat vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DomainError(f"expected a point of C^{n}, got C^{arr.shape[0]}")
    return arr


def _points_2d(z, n: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=complex)
    squeeze = arr.ndim <= 1
    arr = np.atleast_1d(arr)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.shape[0] == n else arr.reshape(-1, 1)
    if arr.shape[1] != n:
        raise DomainError(f"points must have {n} coordinates, got shape {arr.shape}")
    return arr, squeeze


def mobius_apply(a, z) -> np.ndarray:
    """Evaluate phi_a at one point or a batch of points of the ball."""
    a = _as_point(a)
    n = a.shape[0]
    zz, squeeze = _points_2d(z, n)
    if np.any(np.linalg.norm(zz, axis=1) >= 1.0 + 1e-14):
        raise DomainError("phi_a is only evaluated inside the closed unit ball")

    # |a|^2 underflows once |a| < ~1e-154, so |a| comes from hypot and the
    # projection onto a goes through the unit vector a/|a|, divided out per
    # real component (complex division by a subnormal |a| overflows).
    a_norm = math.hypot(*np.abs(a))
    if a_norm == 0.0:
        out = -zz
    else:
        s = math.sqrt(max(0.0, 1.0 - a_norm * a_norm))
        u = a.real / a_norm + 1j * (a.imag / a_norm)
        ip = zz @ np.conj(a)  # <z, a>
        p = (zz @ np.conj(u))[:, None] * u[None, :]
        q = zz - p
        out = (a[None, :] - p - s * q) / (1.0 - ip)[:, None]
    return out[0] if squeeze else out


def mobius_jacobian0(a) -> np.ndarray:
    """Holomorphic Jacobian of phi_a at the origin.

    J[k, j] = -s delta_kj + s/(1+s) a_k conj(a_j) with s = sqrt(1 - |a|^2);
    for n = 1 this is the familiar -(1 - |a|^2).
    """
    a = _as_point(a)
    n = a.shape[0]
    s = math.sqrt(max(0.0, 1.0 - float(np.vdot(a, a).real)))
    return -s * np.eye(n, dtype=complex) + (s / (1.0 + s)) * np.outer(a, np.conj(a))


def mobius_jacobian0_batch(points: np.ndarray) -> np.ndarray:
    """Jacobians of phi_z at 0 for every row z of points; shape (N, n, n)."""
    pts = np.asarray(points, dtype=complex)
    n = pts.shape[1]
    s = np.sqrt(np.maximum(0.0, 1.0 - np.sum(np.abs(pts) ** 2, axis=1)))
    eye = np.eye(n, dtype=complex)
    outer = pts[:, :, None] * np.conj(pts)[:, None, :]
    return -s[:, None, None] * eye[None, :, :] + (s / (1.0 + s))[:, None, None] * outer


def kernel_factor(z, w, exponent: float) -> np.ndarray:
    """Principal-branch kernel power (1 - <z, w>)^(-exponent).

    z may be a batch; w is a single point.  Requires |<z, w>| < 1, which holds
    whenever one argument is interior to the ball.
    """
    w = _as_point(w)
    n = w.shape[0]
    zz, squeeze = _points_2d(z, n)
    ip = zz @ np.conj(w)
    if np.any(np.abs(ip) >= 1.0):
        raise DomainError("kernel power needs |<z, w>| < 1")
    out = np.exp(-exponent * np.log(1.0 - ip))
    return out[0] if squeeze else out
