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
and a row of phases times zeta_perp, builds every n = 2 rule: _rule_raw is
that lift, with the one ceiling check, and build_rule its one caller.
Without a line it lifts along e_1 with as many phases as the disc has
angles, so z^m conj(z)^m' integrates exactly for |m| + |m'| up to the degree.
Given a unit vector line zeta, it serves slices f(z) = h(<z, zeta>), whose
integrands depend on (<z, zeta>, |z|^2) alone: the lift along zeta with
t_count nodes in t and the one phase psi = 0.  angular_count makes any rule
a kernel rule (doubled radial degree, at least angular_count angles per
circle) for integrands that peak near the sphere.

A rule holds 8 bytes per node, its real weights, beside its factors: the
disc rule is its (R,) radii and (A,) unit angles.  Its (R A,) complex disc
nodes (16 bytes each) and its (N, n) complex nodes (16 n bytes per node)
are built from the factors on first use (QuadratureRule.disc and
.points, through _disc_nodes and _lift_points, straight into the result with
no node-sized temporaries).  _tree_sum is the one cut of a rule's nodes,
into leaves of at most _LEAF nodes where numpy's pairwise summation cuts
them: every weighted sum over the nodes walks it, and holo.on_rule reads f
leaf by leaf from the disc nodes that cover the leaf (_disc_nodes of that
span), so no suite builds the points and a norm holds only its weights
and its values; integrate and the Mobius paths of the tests build them.
kernel_factor evaluates its power in the one buffer of inner products;
kernel_modulus, the modulus that norms need, works in that buffer plus one
real array.  Rules above _MAX_RULE_NODES = 2^24 nodes
(134 MB of weights) are refused with UnsupportedRuleError before any
allocation.  make_measure builds no rule: each rule records its own
normalization_residual.  Every Gauss-Jacobi rule comes from _gauss_jacobi,
built in numpy, rounded once from extended precision and kept per
(alpha, n); _radial_jacobi refuses with DomainError an alpha it cannot build (past about
1,033, where the weights overflow float64), and _unit_mass_parts a rule
whose raw mass is not finite and positive.

A measure keeps every polynomial rule built for it: a second build_rule
call with the same arguments returns the same QuadratureRule, whose arrays
are read-only and live as long as the measure (each suite makes its own).
Kernel rules serve one centre and are built afresh on every call.

A rule keeps its factors beside its weights: the line zeta, the radii
sqrt(u) and angles e^{i theta} of the disc nodes w = sqrt(u) e^{i theta},
the t nodes and the phases e^{i psi}, so node (w, t, psi) is
w zeta + sqrt(t (1 - |w|^2)) e^{i psi} zeta_perp with
zeta_perp = (-conj(zeta_2), conj(zeta_1)), and 1 - |z|^2 = (1 - |w|^2)(1 - t)
there (fibre_one_minus, built once per rule).  At n = 1 the fibre is the
single point t = 0, psi = 0 and the disc nodes are the nodes.  holo.on_rule
reads a polynomial's node values off these factors.

sphere_directions supplies the unit vectors that the pointwise and Bloch
sweeps probe along: the equispaced circle for n = 1 and a fixed
low-discrepancy set on the sphere for n = 2.

Two conventions are defined here once for the whole package.  _points_2d
reads "a point or a batch": a scalar or a length-n vector is one point and
gets one value back; an (N, n) array, or at n = 1 a flat array of N
coordinates, is a batch of N points.  _checked_node_values accepts exactly
one finite value per rule node, for integrate and for the modulars and norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

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
    "kernel_factor",
    "kernel_modulus",
]

# Nodes per leaf of a rule's node range (_tree_sum): each of a leaf's float
# temporaries takes 256 KiB and stays in L2; 2^15 ran fastest of 2^13..2^17
# for the modulars of t^p, t^p log(e + t) and the interpolated Phi on
# 1M-node arrays.
_LEAF = 1 << 15

# Largest rule build_rule constructs.  Its weights take 134 MB and, at n = 2,
# its nodes 537 MB more where they are built: a Luxembourg norm of a kernel
# power on a 16.6M-node rule, its nodes built, peaked at 1.09 GB inside a
# 1.5 GiB address-space cap, and on a 22.4M-node rule ran out of it.
_MAX_RULE_NODES = 2**24


@dataclass(frozen=True)
class WeightedMeasure:
    """Normalized weighted volume nu_alpha on the unit ball of C^n, n = 1 or 2."""

    n: int
    alpha: float
    _rules: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got n={self.n}")
        if self.n > 2:
            raise UnsupportedRuleError(f"rules stop at n=2, got n={self.n}")
        if not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise DomainError(f"weight exponent must be finite and > -1, got alpha={self.alpha}")


def make_measure(n: int, alpha: float) -> WeightedMeasure:
    """nu_alpha on B^n, refused as WeightedMeasure refuses it; it builds no rule,
    so the first build_rule refuses an alpha past about 1,033."""
    return WeightedMeasure(n, alpha)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights representing nu_alpha, normalized to unit mass.

    weights has shape (N,), positive with sum 1.  exact_degree is the
    largest total monomial degree |m| + |m'| the rule integrates exactly.
    The rule is stored as its factors, which list the nodes in the C order
    of (radii, angles, t, phases): line is the unit vector zeta of C^n,
    radii the (R,) disc radii sqrt(u), angles the (A,) unit factors
    e^{i theta}, t the (T,) nodes in t and phases the (P,) unit factors
    e^{i psi}, so N = R A T P.  Disc node (i, j) is w = radii[i] angles[j];
    at n = 2 node (i, j, k, l) is w line + sqrt(t[k] (1 - |w|^2)) phases[l]
    (-conj(line[1]), conj(line[0])); at n = 1, t = (0,), phases = (1,) and
    the disc nodes are the nodes.  disc, the (R A,) complex disc nodes, and
    points, the (N, n) complex nodes, are built from the factors on first
    use and kept (_disc_nodes, _lift_points), read-only when the weights are.
    """

    weights: np.ndarray = field(repr=False)
    exact_degree: int
    rule_id: str
    normalization_residual: float
    line: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    angles: np.ndarray = field(repr=False)
    t: np.ndarray = field(repr=False)
    phases: np.ndarray = field(repr=False)

    @property
    def node_count(self) -> int:
        return self.radii.size * self.angles.size * self.t.size * self.phases.size

    @functools.cached_property
    def disc(self) -> np.ndarray:
        """The (R A,) disc nodes, built from radii and angles on first use (for
        fibre_one_minus and a Series along e_1): 16 bytes per disc node that
        a norm of any other function never asks for."""
        out = _disc_nodes(self.radii, self.angles)
        out.flags.writeable = self.weights.flags.writeable
        return out

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The (N, n) nodes, built from the factors on first use: 16 n bytes
        per node that no suite asks for."""
        out = _lift_points(self.line, self.disc, self.t, self.phases)
        out.flags.writeable = self.weights.flags.writeable
        return out

    @functools.cached_property
    def fibre_one_minus(self) -> np.ndarray:
        """(1 - |w|^2)(1 - t) over the (disc, t) grid in C order: 1 - |z|^2 at
        the nodes of each (w, t), whatever their phase; built once per rule."""
        out = ((1.0 - np.abs(self.disc) ** 2)[:, None] * (1.0 - self.t)).reshape(-1)
        out.flags.writeable = False
        return out


def _jacobi_and_derivative(a, n: int, x):
    """P_n^{(a,0)} and its derivative at the nodes x, by the three-term
    recurrence, in the precision of a and x (with n >= 1 and -1 < x < 1)."""
    p_prev, p = np.ones_like(x), ((a + 2) * x + a) / 2
    for m in range(2, n + 1):
        c = 2 * m + a
        p, p_prev = ((c - 1) * (c * (c - 2) * x + a * a) * p
                     - 2 * (m + a - 1) * (m - 1) * c * p_prev) / (2 * m * (m + a) * (c - 2)), p
    c = 2 * n + a
    # (2n + a)(1 - x^2) P_n' = n (a - (2n + a) x) P_n + 2 n (n + a) P_{n-1}
    return p, (n * (a - c * x) * p + 2 * n * (n + a) * p_prev) / (c * (1 - x) * (1 + x))


@functools.lru_cache(maxsize=256)
def _gauss_jacobi(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n nodes x and weights w of Gauss-Jacobi quadrature for
    int_{-1}^1 (1-x)^alpha h(x) dx, each rounded once to float64 from
    np.longdouble; read-only, and kept for the 256 (alpha, n) last used.

    Golub-Welsch gives the nodes to about 1e-16: the eigenvalues of the
    symmetric Jacobi matrix.  Two Newton steps on P_n^{(alpha,0)} in
    np.longdouble polish them, and w_k = 2^{alpha+1} / ((1 - x_k^2)
    P_n'(x_k)^2) is taken at the polished nodes.  Newton in float64 would
    not settle (it alternates between neighbouring floats, so the step count
    would pick the bits); rounded from extended precision, the nodes are
    within 1 ulp and the weights within 8 ulp of 40-digit values, and the
    bits do not depend on the LAPACK path eigvalsh took.  Where
    np.longdouble is float64 (MSVC, macOS arm64) the rule is only
    float64-accurate.  At alpha = 0 the nodes are made symmetric, so an odd
    n has the node 0 exactly.  ValueError when the Jacobi matrix, the nodes
    or the weights are not finite: the weights, whose sum is
    2^{alpha+1} / (alpha+1), overflow float64 past alpha ~ 1,033.
    """
    k = np.arange(1.0, n)
    c = 2.0 * k + alpha
    with np.errstate(all="ignore"):
        diag = np.concatenate(([-alpha / (alpha + 2.0)], -alpha * alpha / (c * (c + 2.0))))
        off = 2.0 * k * (k + alpha) / (c * np.sqrt((c - 1.0) * (c + 1.0)))
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("its Jacobi matrix is not finite")
        jacobi_matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        x = np.linalg.eigvalsh(jacobi_matrix).astype(np.longdouble)
        a = np.longdouble(alpha)
        for _ in range(2):
            p, dp = _jacobi_and_derivative(a, n, x)
            x = x - p / dp
        if alpha == 0.0:
            x = (x - x[::-1]) / 2
        _, dp = _jacobi_and_derivative(a, n, x)
        w = np.longdouble(2) ** (a + 1) / ((1 - x) * (1 + x) * dp * dp)
        x, w = x.astype(float), w.astype(float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError("its nodes or weights are not finite")
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _radial_jacobi(alpha: float, n_nodes: int):
    """Nodes/weights for integral_0^1 (1-u)^alpha h(u) du, from _gauss_jacobi
    in u = (x + 1) / 2.  DomainError naming the weight when it cannot build
    them."""
    try:
        x, w = _gauss_jacobi(alpha, n_nodes)
    except ValueError as exc:
        raise DomainError(f"no Gauss-Jacobi rule for the weight (1-u)^{alpha}: {exc}") from None
    u = 0.5 * (x + 1.0)
    w = w * 2.0 ** (-(1 + alpha))
    return u, w


def _disc_sizes(degree: int, angular_count: int | None) -> tuple[int, int]:
    """(radial, angular) node counts of the disc rule of a degree."""
    if angular_count is None:
        return degree // 4 + 1, degree + 1
    return (2 * degree) // 4 + 1, max(2 * degree + 1, int(angular_count))


def _product_rule_raw(alpha: float, degree: int, angular_count: int | None = None):
    """Raw factors of the disc's product rule before unit-mass normalization:
    the (R,) radii sqrt(u), the (A,) unit angles e^{i theta} and the (R,)
    weight of each node on ring i, w_u[i] c_alpha pi / A."""
    # c_alpha = Gamma(alpha+2) / (pi Gamma(alpha+1)) = (alpha+1) / pi, from
    # integrating the radial Beta factor around the circle.
    c_alpha = (alpha + 1.0) / math.pi
    n_rad, n_ang = _disc_sizes(degree, angular_count)
    u, wu = _radial_jacobi(alpha, n_rad)
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    return np.sqrt(u), np.exp(1j * theta), (c_alpha * np.pi / n_ang) * wu


def _rule_raw(n: int, alpha: float, degree: int, angular_count: int | None,
              zeta: np.ndarray | None, t_count: int | None):
    """Raw weights of build_rule's rule and its factors (line, radii, angles,
    t, phases); the one lift.

    At n = 1 the disc rule is the rule.  At n = 2 the disc rule at alpha + 1
    (degree and angular_count as in build_rule) is crossed, in the C order of
    (radius, angle, t, phase), with Gauss-Jacobi nodes in t and the phases
    e^{i psi}, each times zeta_perp: along e_1 with degree // 4 + 1 t nodes
    and every angle of the disc when zeta is None, else along zeta with
    t_count t nodes and the one phase psi = 0.  The raw weights are w_ring
    (alpha+1) w_t / P for P phases.  The ceiling is checked before anything
    node-sized is allocated, and the weights, written once, are the one
    node-sized array.
    """
    n_rad, n_ang = _disc_sizes(degree, angular_count)
    line = phases = np.ones(1, dtype=complex)
    if n == 1:
        t_count, detail = 1, f"n=1, degree={degree}"
    else:
        if zeta is None:
            line, t_count = np.array([1.0, 0.0], dtype=complex), degree // 4 + 1
            phases = np.exp(1j * (2.0 * np.pi * np.arange(n_ang) / n_ang))
        else:
            line = zeta.copy()
        detail = (f"{n_rad * n_ang:,} disc nodes, {t_count} t nodes and {phases.size} "
                  f"phases, degree={degree}")
    node_count = n_rad * n_ang * t_count * phases.size
    if node_count > _MAX_RULE_NODES:
        raise UnsupportedRuleError(
            f"{'a product rule' if zeta is None else 'a slice rule'} with {node_count:,} "
            f"nodes exceeds the ceiling of {_MAX_RULE_NODES:,} nodes ({detail})")
    radii, angles, w_ring = _product_rule_raw(alpha if n == 1 else alpha + 1.0, degree,
                                              angular_count)
    if n == 1:
        t, w_fibre = np.zeros(1), np.ones(1)
    else:
        t, w_t = _radial_jacobi(alpha, t_count)
        # int_0^1 (1-t)^alpha dt = 1 / (alpha + 1)
        w_fibre = (alpha + 1.0) * w_t / phases.size
    raw_w = np.empty((n_rad, n_ang, t_count, phases.size))
    raw_w[...] = (w_ring[:, None] * w_fibre)[:, None, :, None]
    return raw_w.reshape(-1), (line, radii, angles, t, phases)


def _disc_nodes(radii: np.ndarray, angles: np.ndarray, first: int = 0,
                last: int | None = None) -> np.ndarray:
    """Disc nodes first, ..., last - 1 (by default all R A) of the disc nodes
    radii[i] angles[j] in C order: a ring's part at each end, then the whole
    rings between them in one product.  The one place they are written, so
    each node has the same bits wherever it is."""
    a = angles.size
    last = radii.size * a if last is None else last
    out = np.empty(last - first, dtype=complex)
    head = min(last, -(-first // a) * a)
    tail = max(head, last // a * a)
    for lo, hi in ((first, head), (tail, last)):
        if lo < hi:
            r = lo // a
            np.multiply(radii[r], angles[lo - r * a:hi - r * a], out=out[lo - first:hi - first])
    np.multiply(radii[head // a:tail // a, None], angles,
                out=out[head - first:tail - first].reshape(-1, a))
    return out


def _lift_points(line: np.ndarray, disc: np.ndarray, t: np.ndarray,
                 phases: np.ndarray) -> np.ndarray:
    """The (D T P, n) nodes of the rule with these disc nodes and fibre
    factors, in C order; the one place nodes are written
    (QuadratureRule.points, on_rule's leaves and the one node a non-finite
    value names).  At n = 1 they are the disc nodes, as a view."""
    if line.size == 1:
        return disc.reshape(-1, 1)
    v = np.sqrt(t[None, :] * np.maximum(0.0, 1.0 - np.abs(disc) ** 2)[:, None])
    transverse = phases[:, None] * np.array([-np.conj(line[1]), np.conj(line[0])])
    # One multiply per coordinate that some phase moves; the rest stay +0.
    pts = np.zeros(v.shape + (phases.size, 2), dtype=complex)
    for k in np.flatnonzero(np.any(transverse != 0, axis=0)):
        np.multiply(v[:, :, None], transverse[None, None, :, k], out=pts[..., k])
    pts += (disc[:, None] * line[None, :])[:, None, None, :]
    return pts.reshape(-1, 2)


def _alpha_id(alpha: float) -> str:
    """alpha as rule ids print it: :g where that reads back as alpha, else
    repr, so distinct weights never share an id."""
    short = f"{alpha:g}"
    return short if float(short) == alpha else repr(float(alpha))


def build_rule(measure: WeightedMeasure, degree: int, angular_count: int | None = None,
               line=None, t_count: int | None = None) -> QuadratureRule:
    """The quadrature rule of the given degree for nu_alpha; the one builder.

    At n = 1 it crosses degree // 4 + 1 Gauss-Jacobi nodes in |z|^2 with
    degree + 1 angles: rule_id "product:n=1,alpha=A,degree=D,nodes=K".  At
    n = 2 it lifts that disc rule at alpha + 1 along e_1 with degree // 4 + 1
    nodes in t and as many phases as angles; once |m| + |m'| <= degree,
    z^m conj(z)^m' has degree at most degree / 2 in |w|^2 and in t and phase
    frequencies at most degree, so it integrates exactly.  A unit vector line
    zeta of C^2 with t_count >= 1 lifts along zeta instead, with t_count nodes
    in t and the one phase psi = 0: the rule for the integrands of a slice
    h(<z, zeta>), which depend on (<z, zeta>, |z|^2) alone; its rule_id reads
    "slice:n=2,alpha=A,zeta=(Z1,Z2),degree=D,t=T,nodes=K".

    angular_count makes a kernel rule for integrands that peak near the
    sphere: doubled radial degree, max(2 degree + 1, angular_count) angles
    (and e_1 phases), and ",refined,angles=M" at the end of the rule_id.
    Above _MAX_RULE_NODES (2^24) nodes UnsupportedRuleError is raised before
    anything node-sized is allocated; an alpha whose Gauss-Jacobi rule or mass
    is not finite raises DomainError naming it.

    Polynomial rules are kept on the measure by their arguments, arrays
    read-only, and returned by later calls; threads that miss at once store
    identical rules, so no lock is taken.  Kernel rules serve one centre and
    are rebuilt on every call: keeping them raised the peak RSS of
    test_functions over the four stock combinations from 110.8-111.0 MB to
    114.0-114.2 MB (fresh process on a 2-core VM, 3 runs each).
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    n, alpha = measure.n, measure.alpha
    zeta = None if line is None else _as_point(line)
    if zeta is not None and n != 2:
        raise UnsupportedRuleError(f"slice rules lift the disc to n=2, got n={n}")
    if (zeta is None) != (t_count is None) or zeta is not None and (
            t_count < 1 or zeta.shape != (2,) or abs(math.hypot(*np.abs(zeta)) - 1.0) > 1e-12):
        raise DomainError(f"a slice rule takes a unit vector line of C^2 and t_count >= 1, "
                          f"got line={line}, t_count={t_count}")
    key = (degree, None if zeta is None else (zeta.tobytes(), t_count))
    rule = measure._rules.get(key) if angular_count is None else None
    if rule is not None:
        return rule
    try:
        raw_w, factors = _rule_raw(n, alpha, degree, angular_count, zeta, t_count)
    except DomainError as exc:
        raise DomainError(f"no quadrature rule for alpha={alpha}: {exc}") from None
    if zeta is None:
        rid = f"product:n={n},alpha={_alpha_id(alpha)},degree={degree},nodes={raw_w.size}"
    else:
        z1, z2 = (f"{c.real:.6g}{c.imag:+.6g}j" for c in zeta)
        rid = (f"slice:n=2,alpha={_alpha_id(alpha)},zeta=({z1},{z2}),degree={degree},"
               f"t={t_count},nodes={raw_w.size}")
    if angular_count is not None:
        rid = f"{rid},refined,angles={int(angular_count)}"
    rule = _unit_mass_parts(raw_w, degree, rid, factors)
    if angular_count is not None:
        return rule
    for arr in (rule.weights, *factors):
        arr.flags.writeable = False
    measure._rules[key] = rule
    return rule


def _unit_mass_parts(raw_w: np.ndarray, degree: int, rule_id: str,
                     factors: tuple) -> QuadratureRule:
    """The rule of the factors (line, radii, angles, t, phases) with the raw weights,
    divided in place by their sum.  A sum that is not finite and positive
    raises DomainError naming the rule, and so its alpha."""
    total = float(np.sum(raw_w))
    if not (math.isfinite(total) and total > 0.0):
        raise DomainError(f"the weights of {rule_id} sum to {total}, not a finite "
                          f"positive mass")
    return QuadratureRule(np.divide(raw_w, total, out=raw_w), degree, rule_id,
                          abs(total - 1.0), *factors)


def sphere_directions(n: int, count: int) -> np.ndarray:
    """count unit vectors of C^n, shape (count, n), for probe sweeps.

    n = 1 gives the equispaced circle.  n = 2 maps the R_3 sequence
    (u, phi1, phi2) = frac(0.5 + k (1/g, 1/g^2, 1/g^3)), g^4 = g + 1, to
    (sqrt(u) e^{2 pi i phi1}, sqrt(1 - u) e^{2 pi i phi2}), which carries the
    cube's uniform measure to the sphere's (Rudin, 1.4); the parts are float64
    products, so the set is fixed.  Larger n raises UnsupportedRuleError.
    """
    if n == 1:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.exp(1j * theta)[:, None]
    if n != 2:
        raise UnsupportedRuleError(f"probe directions stop at n=2, got n={n}")
    step = np.array([0.8191725133961645, 0.6710436067037893, 0.5497004779019703])
    u, phi1, phi2 = np.modf(0.5 + np.arange(count)[:, None] * step)[0].T
    radii = np.stack([np.sqrt(u), np.sqrt(1.0 - u)], axis=1)
    angles = 2.0 * np.pi * np.stack([phi1, phi2], axis=1)
    dirs = np.empty((count, 2), dtype=complex)
    dirs.real, dirs.imag = radii * np.cos(angles), radii * np.sin(angles)
    return dirs


def _tree_sum(n: int, leaf, lo: int = 0):
    """The sum of leaf(lo, hi) over the leaves of numpy's pairwise tree on
    the n nodes from lo; the one way a rule's nodes are cut.  numpy adds a
    contiguous float64 array of more than 128 elements as its two parts cut
    at n2 = n // 2 - (n // 2) % 8 (pairwise_sum); the nodes are cut the same
    way, down to leaves of at most _LEAF nodes, and leaf is called on each
    in node order.  When it returns the np.sum of a fresh array of one term
    per node, or a short float array of such sums (an elementwise float64
    add has a scalar add's bits), the leaf results add up to the one-shot
    sums bit for bit.  With leaf returning [(lo, hi)] it lists the leaves."""
    if n <= _LEAF:
        return leaf(lo, lo + n)
    n2 = n // 2 - (n // 2) % 8
    return _tree_sum(n2, leaf, lo) + _tree_sum(n - n2, leaf, lo + n2)


def _checked_node_values(rule: QuadratureRule, values, start: int | None = None) -> np.ndarray:
    """values as an array of shape (N,), one finite value per node of the rule.

    With start, values are a leaf's: nodes start, start + 1, ... along their
    last axis, with one row per quantity, in a shape the caller keeps.  A
    wrong shape raises DomainError; a non-finite value (real or complex)
    raises NonFiniteIntegrandError naming the first offending node, which
    alone, with its disc node's fibre, is built from the rule's factors.
    """
    values = np.asarray(values)
    if start is None and values.shape != (rule.node_count,):
        raise DomainError(
            f"integrand values have shape {values.shape}, expected ({rule.node_count},)"
        )
    finite = np.isfinite(values)
    if not bool(np.all(finite)):
        idx = (start or 0) + int(np.argmin(finite.reshape(-1, finite.shape[-1]).all(axis=0)))
        disc, k = divmod(idx, rule.t.size * rule.phases.size)
        z = _lift_points(rule.line, _disc_nodes(rule.radii, rule.angles, disc, disc + 1),
                         rule.t, rule.phases)[k]
        raise NonFiniteIntegrandError(
            f"integrand is not finite at node {idx} (z={z})", node_index=idx
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
