"""Weighted volume measures, quadrature rules and Mobius geometry on the unit ball.

The normalized measure on the unit ball B^n of C^n is

    d nu_alpha(z) = c_alpha (1 - |z|^2)^alpha d nu(z),   alpha > -1,

with nu the Lebesgue volume and c_alpha chosen so nu_alpha(B^n) = 1.  Rules
exist for n = 1 and 2 only.  The disc's product rule crosses Gauss-Jacobi
nodes in u = |z|^2, weight (1-u)^alpha, with a uniform angular grid.  On B^2
write z = w zeta + sqrt(t (1 - |w|^2)) e^{i psi} zeta_perp, |zeta| = 1: then
nu_alpha is nu_{alpha+1} in w = <z, zeta>, times (alpha+1)(1-t)^alpha dt,
times a uniform phase psi (Rudin, Function Theory in the Unit Ball of C^n,
1.4).  So one lift of the disc rule at alpha + 1, by Gauss-Jacobi nodes in t
and equispaced phases, builds every n = 2 rule.  build_rule lifts along e_1
with as many phases as the disc has angles, so a monomial z^m conj(z)^m'
integrates exactly once |m| + |m'| stays at or below the advertised degree.
build_slice_rule serves slices f(z) = h(<z, zeta>), whose integrands depend
on (<z, zeta>, |z|^2) alone: it lifts along zeta with the one phase psi = 0.
The one knob beyond the degree is angular_count, which turns a rule into a
kernel rule (doubled radial degree, at least angular_count angles per
circle) for integrands that peak near the sphere.

A rule holds 24 bytes per node at n = 1 and 40 at n = 2 (complex nodes plus
real weights).  The n = 2 nodes are written from their factors straight
into the result, with no node-sized temporaries, and kernel_factor
evaluates its power in the one buffer of inner products; kernel_modulus,
the modulus that norms need, works in that buffer plus one real array.
Rules above _MAX_RULE_NODES = 2^24 nodes (0.67 GB at n = 2) are refused
with UnsupportedRuleError before any allocation.

sphere_directions supplies the unit vectors that the pointwise and Bloch
sweeps probe along: the equispaced circle for n = 1 and seed-deterministic
scrambled Halton points for n >= 2.

Two conventions are defined here once for the whole package.  _points_2d
reads "a point or a batch": a scalar or a length-n vector is one point and
gets one value back; an (N, n) array, or at n = 1 a flat array of N
coordinates, is a batch of N points.  _checked_node_values accepts exactly
one finite value per rule node, for integrate and for the modulars and norms.
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
    "build_slice_rule",
    "sphere_directions",
    "integrate",
    "mobius_apply",
    "kernel_factor",
    "kernel_modulus",
]

# Largest rule build_rule or build_slice_rule constructs.  At n = 2 its nodes
# and weights take 0.67 GB, and a Luxembourg norm of a kernel power on a
# 16.6M-node rule peaks at 1.09 GB, inside a 1.5 GiB address-space cap; on a
# 22.4M-node rule the same norm runs out of address space.
_MAX_RULE_NODES = 2**24


@dataclass(frozen=True)
class WeightedMeasure:
    """Normalized weighted volume nu_alpha on the unit ball of C^n."""

    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got n={self.n}")
        if not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise DomainError(f"weight exponent must be finite and > -1, got alpha={self.alpha}")


def _normalizing_constant(n: int, alpha: float) -> float:
    # c_alpha = Gamma(n+alpha+1) / (pi^n Gamma(alpha+1)), from integrating the
    # radial Beta factor against the sphere area.
    return math.exp(gammaln(n + alpha + 1.0) - gammaln(alpha + 1.0)) / math.pi**n


def make_measure(n: int, alpha: float) -> WeightedMeasure:
    """Build nu_alpha, cross-checking its closed-form constant by quadrature.

    The raw mass of build_rule's degree-8 rule (at n = 2, the lifted disc
    rule) must be 1 to within 1e-10, and not NaN, or DomainError is raised;
    any n but 1 and 2 raises UnsupportedRuleError.
    """
    measure = WeightedMeasure(n, alpha)
    residual = abs(float(np.sum(_rule_raw(n, alpha, degree=8)[1])) - 1.0)
    if not residual <= 1e-10:
        raise DomainError(
            f"normalizing constant failed its quadrature cross-check: "
            f"residual={residual:.3e} for n={n}, alpha={alpha}"
        )
    return measure


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights representing nu_alpha, normalized to unit mass.

    points has shape (N, n) complex, weights shape (N,) positive with sum 1.
    exact_degree is the largest total monomial degree |m| + |m'| the rule
    integrates exactly.
    """

    measure: WeightedMeasure
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    exact_degree: int
    rule_id: str
    normalization_residual: float

    @property
    def node_count(self) -> int:
        return self.points.shape[0]


def _radial_jacobi(alpha: float, n_nodes: int):
    """Nodes/weights for integral_0^1 (1-u)^alpha h(u) du."""
    x, w = roots_jacobi(n_nodes, alpha, 0.0)
    u = 0.5 * (x + 1.0)
    w = w * 2.0 ** (-(1 + alpha))
    return u, w


def _disc_sizes(degree: int, angular_count: int | None) -> tuple[int, int]:
    """(radial, angular) node counts of the disc rule of a degree."""
    if angular_count is None:
        return degree // 4 + 1, degree + 1
    return (2 * degree) // 4 + 1, max(2 * degree + 1, int(angular_count))


def _check_ceiling(what: str, node_count: int, detail: str) -> None:
    if node_count > _MAX_RULE_NODES:
        raise UnsupportedRuleError(
            f"{what} with {node_count:,} nodes exceeds the ceiling of "
            f"{_MAX_RULE_NODES:,} nodes ({detail})"
        )


def _product_rule_raw(alpha: float, degree: int, angular_count: int | None = None):
    """Raw nodes/weights of the disc's product rule before unit-mass normalization."""
    c_alpha = _normalizing_constant(1, alpha)
    n_rad, n_ang = _disc_sizes(degree, angular_count)
    _check_ceiling("a product rule", n_rad * n_ang, f"n=1, degree={degree}")
    u, wu = _radial_jacobi(alpha, n_rad)
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    zz = np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]
    pts = zz.reshape(-1, 1)
    w = np.broadcast_to((c_alpha * np.pi / n_ang) * wu[:, None], zz.shape).reshape(-1)
    return pts, w.copy()


def _lifted_rule_raw(what: str, alpha: float, degree: int, angular_count: int | None,
                     zeta: np.ndarray, t_count: int, transverse: np.ndarray):
    """Raw nodes/weights of nu_alpha on B^2 lifted from the disc rule at alpha + 1.

    The disc rule (degree and angular_count as in build_rule) is crossed, in
    the C order of (disc, t, phase), with t_count Gauss-Jacobi nodes in t
    and the P rows of transverse, the vectors e^{i psi} zeta_perp of the
    phases kept; the raw weights are w_disc (alpha+1) w_t / P.  The ceiling
    is checked before anything node-sized is allocated.
    """
    n_rad, n_ang = _disc_sizes(degree, angular_count)
    n_phase = transverse.shape[0]
    _check_ceiling(what, n_rad * n_ang * t_count * n_phase,
                   f"{n_rad * n_ang:,} disc nodes, {t_count} t nodes and {n_phase} "
                   f"phases, degree={degree}")
    disc, w_disc = _product_rule_raw(alpha + 1.0, degree, angular_count)
    t, w_t = _radial_jacobi(alpha, t_count)
    w = disc[:, 0]
    v = np.sqrt(t[None, :] * np.maximum(0.0, 1.0 - np.abs(w) ** 2)[:, None])
    pts = np.empty(v.shape + (n_phase, 2), dtype=complex)
    np.multiply(v[:, :, None, None], transverse[None, None, :, :], out=pts)
    pts += (w[:, None] * zeta[None, :])[:, None, None, :]
    # int_0^1 (1-t)^alpha dt = 1 / (alpha + 1)
    raw_w = np.empty(pts.shape[:3])
    raw_w[...] = (w_disc[:, None] * ((alpha + 1.0) * w_t / n_phase)[None, :])[:, :, None]
    return pts.reshape(-1, 2), raw_w.reshape(-1)


def _rule_raw(n: int, alpha: float, degree: int, angular_count: int | None = None):
    """Raw nodes/weights of build_rule's rule; at n = 2 the lift along e_1."""
    if n == 1:
        return _product_rule_raw(alpha, degree, angular_count)
    if n > 2:
        raise UnsupportedRuleError(f"rules stop at n=2, got n={n}")
    n_ang = _disc_sizes(degree, angular_count)[1]
    e = np.exp(1j * (2.0 * np.pi * np.arange(n_ang) / n_ang))
    return _lifted_rule_raw("a product rule", alpha, degree, angular_count,
                            np.array([1.0, 0.0], dtype=complex), degree // 4 + 1,
                            np.column_stack([np.zeros(n_ang), e]))


def build_rule(measure: WeightedMeasure, degree: int,
               angular_count: int | None = None) -> QuadratureRule:
    """Construct the quadrature rule of the given degree for nu_alpha.

    At n = 1 it crosses degree // 4 + 1 Gauss-Jacobi nodes in |z|^2 with
    degree + 1 angles.  At n = 2 it lifts that disc rule at alpha + 1 along
    e_1 with degree // 4 + 1 nodes in t and as many phases as angles; for
    |m| + |m'| <= degree, z^m conj(z)^m' has degree at most degree / 2 in
    |w|^2 and in t and phase frequencies at most degree, so it integrates
    exactly.  Other dimensions raise UnsupportedRuleError.  Passing
    angular_count makes a kernel rule, for integrands that concentrate near
    the sphere such as kernel powers: the radial degree is doubled and every
    circle gets max(2 degree + 1, angular_count) angles (and as many phases).
    Its rule_id ends in ",refined,angles=N".

    The rule costs 24 bytes per node at n = 1 and 40 at n = 2; a rule of
    more than _MAX_RULE_NODES (2^24) nodes raises UnsupportedRuleError
    before anything node-sized is allocated.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    n, alpha = measure.n, measure.alpha
    pts, raw_w = _rule_raw(n, alpha, degree, angular_count)
    rid = f"product:n={n},alpha={alpha:g},degree={degree},nodes={pts.shape[0]}"
    return _unit_mass_rule(measure, pts, raw_w, degree, rid + _kernel_tag(angular_count))


def build_slice_rule(measure: WeightedMeasure, direction, degree: int, t_count: int,
                     angular_count: int | None = None) -> QuadratureRule:
    """The n = 2 rule for integrands of a slice f(z) = h(<z, zeta>), |zeta| = 1.

    Every integrand built from a slice, |f|, (1-|z|^2)|Rf|,
    (1-|z|^2)|grad f|, the invariant gradient and (1-|z|^2)^w |f|, depends
    on (<z, zeta>, |z|^2) alone, so the phase is dropped: this is
    build_rule's lift along zeta with t_count nodes in t and the one
    transverse vector zeta_perp.  Its rule_id reads
    "slice:n=2,alpha=A,zeta=(Z1,Z2),degree=D,t=T,nodes=N", with
    ",refined,angles=M" appended for a kernel rule.
    """
    if measure.n != 2:
        raise UnsupportedRuleError(f"slice rules lift the disc to n=2, got n={measure.n}")
    if degree < 0 or t_count < 1:
        raise DomainError(f"need degree >= 0 and t_count >= 1, got {degree}, {t_count}")
    zeta = _as_point(direction)
    if zeta.shape != (2,) or abs(math.hypot(*np.abs(zeta)) - 1.0) > 1e-12:
        raise DomainError(f"a slice direction must be a unit vector of C^2, got {zeta}")
    perp = np.array([[-np.conj(zeta[1]), np.conj(zeta[0])]])
    pts, raw_w = _lifted_rule_raw("a slice rule", measure.alpha, degree, angular_count,
                                  zeta, t_count, perp)
    z1, z2 = (f"{c.real:.6g}{c.imag:+.6g}j" for c in zeta)
    rid = (f"slice:n=2,alpha={measure.alpha:g},zeta=({z1},{z2}),degree={degree},"
           f"t={t_count},nodes={pts.shape[0]}")
    return _unit_mass_rule(measure, pts, raw_w, degree, rid + _kernel_tag(angular_count))


def _kernel_tag(angular_count: int | None) -> str:
    return "" if angular_count is None else f",refined,angles={int(angular_count)}"


def _unit_mass_rule(measure: WeightedMeasure, pts: np.ndarray, raw_w: np.ndarray,
                    degree: int, rule_id: str) -> QuadratureRule:
    """The rule with its raw weights divided, in place, by their sum."""
    total = float(np.sum(raw_w))
    return QuadratureRule(
        measure=measure,
        points=pts,
        weights=np.divide(raw_w, total, out=raw_w),
        exact_degree=degree,
        rule_id=rule_id,
        normalization_residual=abs(total - 1.0),
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


def _checked_node_values(rule: QuadratureRule, values) -> np.ndarray:
    """values as an array of shape (N,), one finite value per node of the rule.

    A wrong shape raises DomainError; a non-finite value (real or complex)
    raises NonFiniteIntegrandError naming the first offending node.
    """
    values = np.asarray(values)
    if values.shape != (rule.node_count,):
        raise DomainError(
            f"integrand values have shape {values.shape}, expected ({rule.node_count},)"
        )
    finite = np.isfinite(values)
    if not bool(np.all(finite)):
        idx = int(np.argmin(finite))
        raise NonFiniteIntegrandError(
            f"integrand is not finite at node {idx} (z={rule.points[idx]})", node_index=idx
        )
    return values


def integrate(rule: QuadratureRule, integrand) -> complex:
    """Apply the rule to a vectorized integrand (callable or node-value array).

    A callable receives the full (N, n) node array and must return (N,) values.
    Non-finite values abort with the offending node index; the reduction is a
    single deterministic numpy sum, so results do not depend on threading.
    """
    values = _checked_node_values(
        rule, integrand(rule.points) if callable(integrand) else integrand)
    acc = np.sum(rule.weights * values)
    return complex(acc) if np.iscomplexobj(values) else float(acc)


# ---------------------------------------------------------------------------
# Mobius automorphisms


def _as_point(a) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(a, dtype=complex))
    if arr.ndim != 1:
        raise DomainError(f"a point of B^n must be a flat vector, got shape {arr.shape}")
    return arr


def _points_2d(z, n: int) -> tuple[np.ndarray, bool]:
    """z as an (N, n) batch of points, and whether z was one single point.

    One point is a scalar (n = 1) or a vector of length n; its results are
    squeezed back to one value.  Every other input is a batch: an (N, n)
    array, or at n = 1 a flat array of N coordinates.
    """
    arr = np.asarray(z, dtype=complex)
    squeeze = arr.ndim == 0 or (arr.ndim == 1 and arr.shape[0] == n)
    if squeeze:
        arr = arr.reshape(1, -1)
    elif arr.ndim == 1 and n == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != n:
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


def mobius_jacobian0_batch(points: np.ndarray) -> np.ndarray:
    """Holomorphic Jacobians of phi_z at the origin for every row z; shape (N, n, n).

    J[k, j] = -s delta_kj + s/(1+s) z_k conj(z_j) with s = sqrt(1 - |z|^2);
    for n = 1 this is the familiar -(1 - |z|^2).
    """
    pts = np.asarray(points, dtype=complex)
    n = pts.shape[1]
    s = np.sqrt(np.maximum(0.0, 1.0 - np.sum(np.abs(pts) ** 2, axis=1)))
    eye = np.eye(n, dtype=complex)
    outer = pts[:, :, None] * np.conj(pts)[:, None, :]
    return -s[:, None, None] * eye[None, :, :] + (s / (1.0 + s))[:, None, None] * outer


def _kernel_inner_products(z, w) -> tuple[np.ndarray, bool]:
    """<z, w> for a batch z and one point w, refused unless |<z, w>| < 1."""
    w = _as_point(w)
    zz, squeeze = _points_2d(z, w.shape[0])
    ip = zz @ np.conj(w)
    if np.any(np.abs(ip) >= 1.0):
        raise DomainError("kernel power needs |<z, w>| < 1")
    return ip, squeeze


def kernel_factor(z, w, exponent: float) -> np.ndarray:
    """Principal-branch kernel power (1 - <z, w>)^(-exponent).

    z may be a batch; w is a single point.  Requires |<z, w>| < 1, which holds
    whenever one argument is interior to the ball.
    """
    ip, squeeze = _kernel_inner_products(z, w)
    # exp(-exponent * log(1 - ip)), evaluated in the one buffer ip owns.
    np.subtract(1.0, ip, out=ip)
    np.log(ip, out=ip)
    np.multiply(-exponent, ip, out=ip)
    np.exp(ip, out=ip)
    return ip[0] if squeeze else ip


def kernel_modulus(z, w, exponent: float) -> np.ndarray:
    """|1 - <z, w>|^(-exponent), the modulus of kernel_factor, in real arithmetic.

    Same arguments and DomainError as kernel_factor.  1 - <z, w> is formed in
    the buffer of the inner products and only its modulus is raised to the
    power, in place, so no complex log or exp runs.
    """
    ip, squeeze = _kernel_inner_products(z, w)
    np.subtract(1.0, ip, out=ip)
    mod = np.abs(ip)
    np.power(mod, -exponent, out=mod)
    return mod[0] if squeeze else mod
