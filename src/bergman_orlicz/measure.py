"""Weighted volume measures, quadrature rules and Mobius geometry on the unit ball.

The normalized measure on the unit ball B^n of C^n is

    d nu_alpha(z) = c_alpha (1 - |z|^2)^alpha d nu(z),   alpha > -1,

with nu the Lebesgue volume and c_alpha chosen so nu_alpha(B^n) = 1.  Writing
u = |z|^2 and splitting off the sphere direction, the radial factor carries the
weight u^(n-1) (1-u)^alpha on (0,1), which is exactly a Jacobi weight; product
rules below combine Gauss-Jacobi radial nodes with uniform angular grids, so a
monomial z^m conj(z)^m' integrates exactly once |m| + |m'| stays at or below
the advertised degree.  Product rules exist for n = 1 and 2 only.  The one
knob beyond the degree is angular_count, which turns a rule into a kernel
rule (doubled radial degree, at least angular_count angles per circle) for
integrands that peak near the sphere.

At n = 2, build_slice_rule serves slices f(z) = h(<z, zeta>): nu_alpha
pushes forward to nu_{alpha+1} on the disc, so the n = 1 product rule at
alpha + 1, lifted by a few Gauss-Jacobi nodes in the radial variable
transverse to zeta, integrates them with disc-sized work.  Its rule_id is
"slice:n=2,alpha=A,zeta=(Z1,Z2),degree=D,t=T,nodes=N", with the kernel
rule's ",refined,angles=M" appended when angular_count is set.

A rule holds 24 bytes per node at n = 1 and 40 at n = 2 (complex nodes plus
real weights).  The n = 2 nodes are written from their 1-D factors straight
into the result, with no node-sized temporaries, and kernel_factor evaluates
its power in the one buffer of inner products; kernel_modulus, the modulus
that norms need, works in that buffer plus one real array.  Rules above
_MAX_RULE_NODES = 2^24 nodes (0.67 GB at n = 2), product or lifted, are
refused with UnsupportedRuleError before any allocation.

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

# Largest product rule build_rule constructs.  At n = 2 its nodes and weights
# take 0.67 GB, and a Luxembourg norm of a kernel power on a 16.6M-node rule
# peaks at 1.09 GB, inside a 1.5 GiB address-space cap; on a 22.4M-node rule
# the same norm runs out of address space.
_MAX_RULE_NODES = 2**24


@dataclass(frozen=True)
class WeightedMeasure:
    """Normalized weighted volume nu_alpha on the unit ball of C^n."""

    n: int
    alpha: float

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
    """Build nu_alpha, cross-checking its closed-form constant by quadrature.

    The mass of the raw (un-normalized) degree-8 product rule must be 1 to
    within 1e-10, or DomainError is raised.  Product rules exist for n = 1
    and 2 only, so any other n raises UnsupportedRuleError.
    """
    measure = WeightedMeasure(n, alpha)
    residual = abs(float(np.sum(_product_rule_raw(n, alpha, degree=8)[1])) - 1.0)
    if residual > 1e-10:
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


def _radial_jacobi(n: int, alpha: float, n_nodes: int):
    """Nodes/weights for integral_0^1 u^(n-1) (1-u)^alpha h(u) du."""
    x, w = roots_jacobi(n_nodes, alpha, float(n - 1))
    u = 0.5 * (x + 1.0)
    w = w * 2.0 ** (-(n + alpha))
    return u, w


def _product_sizes(degree: int, angular_count: int | None) -> tuple[int, int, int]:
    """(radial, slice, angular) node counts of the product rule of a degree."""
    if angular_count is None:
        return degree // 4 + 1, degree // 4 + 1, degree + 1
    return (2 * degree) // 4 + 1, degree // 4 + 1, max(2 * degree + 1, int(angular_count))


def _check_ceiling(what: str, node_count: int, detail: str) -> None:
    if node_count > _MAX_RULE_NODES:
        raise UnsupportedRuleError(
            f"{what} with {node_count:,} nodes exceeds the ceiling of "
            f"{_MAX_RULE_NODES:,} nodes ({detail})"
        )


def _product_rule_raw(n: int, alpha: float, degree: int, angular_count: int | None = None):
    """Raw product nodes/weights before unit-mass normalization (n = 1 or 2)."""
    if n > 2:
        raise UnsupportedRuleError(f"product rules stop at n=2, got n={n}")
    c_alpha = _normalizing_constant(n, alpha)
    n_rad, n_slice, n_ang = _product_sizes(degree, angular_count)
    node_count = n_rad * n_ang if n == 1 else n_rad * n_slice * n_ang * n_ang
    _check_ceiling("a product rule", node_count, f"n={n}, degree={degree}")

    if n == 1:
        u, wu = _radial_jacobi(1, alpha, n_rad)
        theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
        r = np.sqrt(u)
        zz = r[:, None] * np.exp(1j * theta)[None, :]
        pts = zz.reshape(-1, 1)
        w = np.broadcast_to((c_alpha * np.pi / n_ang) * wu[:, None], zz.shape).reshape(-1)
        return pts, w.copy()

    # z = (sqrt(s v) e^{i t1}, sqrt(s (1 - v)) e^{i t2}); each factor is
    # computed on its 1-D grid and the products are written straight into
    # the node array, in the C order of (s, v, t1, t2).
    s, ws = _radial_jacobi(2, alpha, n_rad)
    v, wv = _radial_jacobi(1, 0.0, n_slice)  # Legendre on (0,1)
    t = 2.0 * np.pi * np.arange(n_ang) / n_ang
    e = np.exp(1j * t)
    shape = (n_rad, n_slice, n_ang, n_ang)
    pts = np.empty(shape + (2,), dtype=complex)
    r1 = np.sqrt(s[:, None] * v[None, :])
    r2 = np.sqrt(s[:, None] * (1.0 - v)[None, :])
    np.multiply(r1[:, :, None, None], e[None, None, :, None], out=pts[..., 0])
    np.multiply(r2[:, :, None, None], e[None, None, None, :], out=pts[..., 1])
    w_rad = (ws[:, None] * wv[None, :])[:, :, None, None]
    w = np.empty(shape)
    w[...] = c_alpha * (2.0 * np.pi / n_ang) ** 2 * 0.25 * w_rad
    return pts.reshape(-1, 2), w.reshape(-1)


def build_rule(measure: WeightedMeasure, degree: int,
               angular_count: int | None = None) -> QuadratureRule:
    """Construct the product quadrature rule of the given degree for nu_alpha.

    Product rules exist for n = 1 and 2; other dimensions raise
    UnsupportedRuleError.  Passing angular_count makes a kernel rule, for
    integrands that concentrate near the sphere such as powers of the
    reproducing kernel: the radial degree is doubled and every circle gets
    max(2 degree + 1, angular_count) angular nodes, since sharply peaked
    kernels (center norm close to 1) need far more angles than the degree
    alone asks for.  Its rule_id ends in ",refined,angles=N".

    The rule costs 24 bytes per node at n = 1 and 40 at n = 2; a rule of
    more than _MAX_RULE_NODES (2^24) nodes raises UnsupportedRuleError
    before anything node-sized is allocated.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    n, alpha = measure.n, measure.alpha
    pts, raw_w = _product_rule_raw(n, alpha, degree, angular_count)
    rid = f"product:n={n},alpha={alpha:g},degree={degree},nodes={pts.shape[0]}"
    return _unit_mass_rule(measure, pts, raw_w, degree, rid + _kernel_tag(angular_count))


def build_slice_rule(measure: WeightedMeasure, direction, degree: int, t_count: int,
                     angular_count: int | None = None) -> QuadratureRule:
    """The n = 2 rule for integrands of a slice f(z) = h(<z, zeta>), |zeta| = 1.

    Write z = w zeta + v zeta_perp with w = <z, zeta> and |v|^2 = t (1 - |w|^2).
    Then nu_alpha on B^2 is nu_{alpha+1} in w on the disc times the law
    (alpha+1)(1-t)^alpha dt on (0, 1) times a uniform phase of v (Rudin,
    Function Theory in the Unit Ball of C^n, 1.4).  Every integrand built
    from a slice, |f|, (1-|z|^2)|Rf|, (1-|z|^2)|grad f|, the invariant
    gradient and (1-|z|^2)^w |f|, depends on (w, |z|^2) alone, so the phase
    is dropped: the rule lifts the n = 1 product rule at alpha + 1 (degree
    and angular_count as in build_rule) with t_count Gauss-Jacobi nodes in t
    to the nodes w zeta + sqrt(t (1 - |w|^2)) zeta_perp, with weights
    w_disc w_t.  Its rule_id reads
    "slice:n=2,alpha=A,zeta=(Z1,Z2),degree=D,t=T,nodes=N", with
    ",refined,angles=M" appended for a kernel rule.

    The ceiling counts disc nodes times t_count before anything node-sized
    is allocated; a larger rule raises UnsupportedRuleError.
    """
    if measure.n != 2:
        raise UnsupportedRuleError(f"slice rules lift the disc to n=2, got n={measure.n}")
    if degree < 0 or t_count < 1:
        raise DomainError(f"need degree >= 0 and t_count >= 1, got {degree}, {t_count}")
    zeta = _as_point(direction)
    if zeta.shape != (2,) or abs(math.hypot(*np.abs(zeta)) - 1.0) > 1e-12:
        raise DomainError(f"a slice direction must be a unit vector of C^2, got {zeta}")
    alpha = measure.alpha
    n_rad, _, n_ang = _product_sizes(degree, angular_count)
    _check_ceiling("a slice rule", n_rad * n_ang * t_count,
                   f"{n_rad * n_ang:,} disc nodes times {t_count} t nodes, degree={degree}")

    disc, w_disc = _product_rule_raw(1, alpha + 1.0, degree, angular_count)
    t, w_t = _radial_jacobi(1, alpha, t_count)
    w = disc[:, 0]
    v = np.sqrt(t[None, :] * np.maximum(0.0, 1.0 - np.abs(w) ** 2)[:, None])
    perp = np.array([-np.conj(zeta[1]), np.conj(zeta[0])])
    pts = np.empty(v.shape + (2,), dtype=complex)
    for j in range(2):
        np.multiply(v, perp[j], out=pts[..., j])
        pts[..., j] += (w * zeta[j])[:, None]
    # int_0^1 (1-t)^alpha dt = 1 / (alpha + 1)
    raw_w = (w_disc[:, None] * ((alpha + 1.0) * w_t)[None, :]).reshape(-1)
    pts = pts.reshape(-1, 2)
    z1, z2 = (f"{c.real:.6g}{c.imag:+.6g}j" for c in zeta)
    rid = (f"slice:n=2,alpha={alpha:g},zeta=({z1},{z2}),degree={degree},"
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
