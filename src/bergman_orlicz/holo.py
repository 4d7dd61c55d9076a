"""Holomorphic functions on the ball: series, kernel powers, sums, products.

Four closed representations cover everything the workbench manipulates:

* Series: a finite multi-indexed power series sum c_m z^m;
* KernelPower: c (1 - <z, a>)^(-s), the reproducing-kernel power with its
  scalar in front;
* Sum and Product: formal combinations of the above.

Every representation knows how to evaluate itself and its holomorphic partial
derivatives on a batch of points, and how to produce its radial derivative
R f = sum_j z_j d f / d z_j as another representation in closed form.  The
radial derivative of a kernel power is s <z, a> (1 - <z, a>)^(-s-1), which is
a Product of a linear Series and another KernelPower, so the class is closed
under R.  A Series call walks the points in blocks of _SERIES_BLOCK, builds
one power table per coordinate for each block and reads its value or all n
partials from it, so its scratch memory does not grow with the number of
terms times the number of points.  to_series() expands any representation
into a truncated Series for the coefficient-level Cesaro path.

The invariant gradient is (grad f)(z) composed with the Jacobian at 0 of the
ball automorphism phi_z; chain_inequality_check verifies the pointwise chain

    (1-|z|^2) |R f| <= (1-|z|^2) |grad f| <= |invariant grad f|

which holds exactly for these formulas.  gradient_sweep computes every
quantity in that chain from one gradient evaluation, the last through the
closed form |invariant grad f|^2 = (1-|z|^2)(|grad f|^2 - |Rf|^2) with no
Jacobian; the chain check and the derivative modulars in norms.py call it.
invariant_gradient keeps the vector form, through mobius_jacobian0_batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, FunctionSpecError
from .measure import (
    _as_point,
    _points_2d,
    kernel_factor,
    kernel_modulus,
    mobius_jacobian0_batch,
)

__all__ = [
    "HoloFunction",
    "Series",
    "KernelPower",
    "Sum",
    "Product",
    "to_series",
    "max_kernel_center",
    "slice_direction",
    "gradient_sweep",
    "invariant_gradient",
    "chain_inequality_check",
    "ChainReport",
    "test_function",
    "cauchy_gradient",
    "function_from_spec",
    "function_to_spec",
]

# Points per block of a Series evaluation: each power a block keeps is
# _SERIES_BLOCK complex numbers (256 KiB).
_SERIES_BLOCK = 16384


def _blocks(count: int):
    """(start, stop) of the point blocks a Series call walks, in order.

    A last block of one point joins the block before it: numpy rounds an
    in-place complex product differently for a single point, so a lone
    point would change bits that the same point keeps inside a batch.
    """
    starts = list(range(0, count, _SERIES_BLOCK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return zip(starts, starts[1:] + [count])


class HoloFunction:
    """Common interface: eval/partials on point batches, radial derivative."""

    n: int

    def eval(self, points):
        pts, squeeze = _points_2d(points, self.n)
        out = self._eval(pts)
        return complex(out[0]) if squeeze else out

    def partials(self, points):
        pts, squeeze = _points_2d(points, self.n)
        out = self._partials(pts)
        return out[0] if squeeze else out

    def radial_derivative(self) -> "HoloFunction":
        raise NotImplementedError

    def degree(self) -> int | None:
        """Total polynomial degree, or None when the representation is not polynomial."""
        raise NotImplementedError

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _partials(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _abs_eval(self, pts: np.ndarray) -> np.ndarray:
        """|f| on a batch of points, the node values of modulars and norms."""
        return np.abs(self._eval(pts))


def _validate_index(m, n: int) -> tuple:
    idx = tuple(int(v) for v in m)
    if len(idx) != n or any(v < 0 for v in idx):
        raise DomainError(f"bad multi-index {m} for dimension {n}")
    return idx


@dataclass(frozen=True, eq=False)
class Series(HoloFunction):
    """Power series sum_m c_m z^m; Fraction coefficients stay exact, any other is complex."""

    n: int
    terms: Mapping[tuple, complex | Fraction] = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"series dimension must be at least 1, got {self.n}")
        clean = {}
        for m, c in self.terms.items():
            idx = _validate_index(m, self.n)
            c = c if isinstance(c, Fraction) else complex(c)
            if c != 0:
                clean[idx] = clean.get(idx, 0) + c
        object.__setattr__(self, "terms", clean)

    def degree(self) -> int | None:
        return max((sum(m) for m in self.terms), default=0)

    def _power_table(self, pts: np.ndarray, exponents) -> list[dict]:
        """Per coordinate j, {d: z_j^d} for the d in exponents[j].

        z_j^d is the running product of d factors z_j, each written into a
        buffer of its own: numpy rounds a complex product written over its
        own factor differently for a single point.  Only the powers that are
        read keep their buffer; the others are reused.
        """
        tables = []
        for j in range(self.n):
            col = np.ascontiguousarray(pts[:, j])
            power = np.ones(pts.shape[0], dtype=complex)
            spare = None
            rows = {}
            for d in range(max(exponents[j], default=0) + 1):
                if d:
                    nxt = np.multiply(power, col, out=spare)
                    spare = None if d - 1 in rows else power
                    power = nxt
                if d in exponents[j]:
                    rows[d] = power
            tables.append(rows)
        return tables

    def _monomial_sum(self, tab: list[dict], terms, count: int) -> np.ndarray:
        """sum c z^m over the (m, c) pairs of terms, in their order, read off tab."""
        out = np.zeros(count, dtype=complex)
        for m, c in terms:
            mono = tab[0][m[0]].copy()
            for j in range(1, self.n):
                mono *= tab[j][m[j]]
            out += complex(c) * mono
        return out

    def _eval(self, pts):
        terms = [(m, self.terms[m]) for m in sorted(self.terms)]
        exponents = [{m[k] for m, _ in terms} for k in range(self.n)]
        out = np.zeros(pts.shape[0], dtype=complex)
        for lo, hi in _blocks(pts.shape[0]):
            tab = self._power_table(pts[lo:hi], exponents)
            out[lo:hi] = self._monomial_sum(tab, terms, hi - lo)
        return out

    def _partials(self, pts):
        # d_j z^m = m_j z^(m - e_j): all n partials read one table of powers.
        shifted = [[(m[:j] + (m[j] - 1,) + m[j + 1:], self.terms[m] * m[j])
                    for m in sorted(self.terms) if m[j] > 0] for j in range(self.n)]
        exponents = [{mm[k] for terms in shifted for mm, _ in terms} for k in range(self.n)]
        out = np.zeros((pts.shape[0], self.n), dtype=complex)
        for lo, hi in _blocks(pts.shape[0]):
            tab = self._power_table(pts[lo:hi], exponents)
            for j, terms in enumerate(shifted):
                if terms:
                    out[lo:hi, j] = self._monomial_sum(tab, terms, hi - lo)
        return out

    def radial_derivative(self) -> "Series":
        return Series(self.n, {m: c * sum(m) for m, c in self.terms.items() if sum(m) > 0})

    def scaled(self, c: complex) -> "Series":
        return Series(self.n, {m: v * complex(c) for m, v in self.terms.items()})

    def times(self, other: "Series", max_degree: int | None = None) -> "Series":
        if other.n != self.n:
            raise DomainError("dimension mismatch in series product")
        terms = {}
        for ma in sorted(self.terms):
            ca = self.terms[ma]
            da = sum(ma)
            for mb in sorted(other.terms):
                if max_degree is not None and da + sum(mb) > max_degree:
                    continue
                key = tuple(x + y for x, y in zip(ma, mb))
                terms[key] = terms.get(key, 0) + ca * other.terms[mb]
        return Series(self.n, terms)


@dataclass(frozen=True, eq=False)
class KernelPower(HoloFunction):
    """scale * (1 - <z, center>)^(-exponent) with center inside the ball."""

    center: np.ndarray
    exponent: float
    scale: complex = 1.0

    def __post_init__(self):
        c = _as_point(self.center)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "scale", complex(self.scale))
        if np.linalg.norm(c) >= 1.0:
            raise DomainError("kernel power center must lie inside the ball")
        if self.exponent <= 0.0:
            raise DomainError(f"kernel power exponent must be positive, got {self.exponent}")

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def degree(self) -> int | None:
        return None

    def _eval(self, pts):
        return self.scale * kernel_factor(pts, self.center, self.exponent)

    def _abs_eval(self, pts):
        # |scale| |1 - <z, center>|^(-exponent), with no complex log or exp.
        mod = kernel_modulus(pts, self.center, self.exponent)
        mod *= abs(self.scale)
        return mod

    def _partials(self, pts):
        base = self.scale * self.exponent * kernel_factor(pts, self.center, self.exponent + 1.0)
        return base[:, None] * np.conj(self.center)[None, :]

    def radial_derivative(self) -> "HoloFunction":
        linear = Series(self.n, {tuple(int(i == j) for i in range(self.n)): np.conj(self.center[j])
                                 for j in range(self.n)})
        return Product(linear, KernelPower(self.center, self.exponent + 1.0,
                                           self.scale * self.exponent))


@dataclass(frozen=True, eq=False)
class Sum(HoloFunction):
    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise DomainError("Sum needs at least one part")
        if len({p.n for p in parts}) != 1:
            raise DomainError("dimension mismatch in Sum")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return self.parts[0].n

    def degree(self) -> int | None:
        degs = [p.degree() for p in self.parts]
        return None if any(d is None for d in degs) else max(degs)

    def _eval(self, pts):
        out = self.parts[0]._eval(pts)
        for p in self.parts[1:]:
            out = out + p._eval(pts)
        return out

    def _partials(self, pts):
        out = self.parts[0]._partials(pts)
        for p in self.parts[1:]:
            out = out + p._partials(pts)
        return out

    def radial_derivative(self) -> "HoloFunction":
        return Sum(tuple(p.radial_derivative() for p in self.parts))


@dataclass(frozen=True, eq=False)
class Product(HoloFunction):
    left: HoloFunction
    right: HoloFunction

    def __post_init__(self):
        if self.left.n != self.right.n:
            raise DomainError("dimension mismatch in Product")

    @property
    def n(self) -> int:
        return self.left.n

    def degree(self) -> int | None:
        dl, dr = self.left.degree(), self.right.degree()
        return None if dl is None or dr is None else dl + dr

    def _eval(self, pts):
        return self.left._eval(pts) * self.right._eval(pts)

    def _partials(self, pts):
        fl, fr = self.left._eval(pts), self.right._eval(pts)
        return fl[:, None] * self.right._partials(pts) + fr[:, None] * self.left._partials(pts)

    def radial_derivative(self) -> "HoloFunction":
        return Sum((Product(self.left.radial_derivative(), self.right),
                    Product(self.left, self.right.radial_derivative())))


# ---------------------------------------------------------------------------
# Series expansion

DEFAULT_TRUNCATION_DEGREE = 48


def _kernel_to_series(kp: KernelPower, degree: int) -> Series:
    """Taylor expansion of c (1 - <z, a>)^(-s) to total degree: z^m gets
    conj(a)^m c [(s)_k / k!] [k! / m!], k = |m|, from running products."""
    rising = list(itertools.accumulate(range(1, degree + 1), initial=1.0,
                                       func=lambda c, k: c * (kp.exponent + k - 1.0) / k))
    powers = [list(itertools.accumulate([complex(w)] * degree, lambda x, y: x * y,
                                        initial=1.0 + 0.0j)) for w in np.conj(kp.center)]
    terms = {}
    for m in itertools.product(range(degree + 1), repeat=kp.n):
        k = sum(m)
        if k <= degree:
            multinomial = math.factorial(k) // math.prod(map(math.factorial, m))
            mono = math.prod(p[d] for p, d in zip(powers, m))
            terms[m] = mono * (kp.scale * (rising[k] * multinomial))
    return Series(kp.n, terms)


def to_series(f: HoloFunction, degree: int = DEFAULT_TRUNCATION_DEGREE) -> Series:
    """Expand any representation into a Series truncated at total degree."""
    if isinstance(f, Series):
        return Series(f.n, {m: c for m, c in f.terms.items() if sum(m) <= degree})
    if isinstance(f, KernelPower):
        return _kernel_to_series(f, degree)
    if isinstance(f, Sum):
        terms = {}
        for p in f.parts:
            for m, c in to_series(p, degree).terms.items():
                terms[m] = terms.get(m, 0) + c
        return Series(f.n, terms)
    if isinstance(f, Product):
        return to_series(f.left, degree).times(to_series(f.right, degree), max_degree=degree)
    raise DomainError(f"cannot expand {type(f).__name__} into a series")


def max_kernel_center(f: HoloFunction) -> float | None:
    """Largest |center| over the kernel powers inside f, or None if none.

    Integrands built from f concentrate near the sphere on the scale
    1 - max |center|; quadrature selection keys off this number.
    """
    if isinstance(f, KernelPower):
        return float(np.linalg.norm(f.center))
    if isinstance(f, Sum):
        vals = [max_kernel_center(p) for p in f.parts]
        vals = [v for v in vals if v is not None]
        return max(vals) if vals else None
    if isinstance(f, Product):
        vals = [v for v in (max_kernel_center(f.left), max_kernel_center(f.right))
                if v is not None]
        return max(vals) if vals else None
    return None


# Sentinel for "a slice along every line": a constant.
_ANY_LINE = "any"
# Largest distance between two unit vectors read as one complex line.
_LINE_TOL = 1e-12


def _slice_line(f: HoloFunction):
    """f's complex line as a unit vector, _ANY_LINE for a constant, or None."""
    if isinstance(f, Series):
        used = {j for m in f.terms for j, d in enumerate(m) if d > 0}
        if not used:
            return _ANY_LINE
        if len(used) > 1:
            return None
        e = np.zeros(f.n, dtype=complex)
        e[used.pop()] = 1.0
        return e
    if isinstance(f, KernelPower):
        r = float(np.linalg.norm(f.center))
        return _ANY_LINE if r == 0.0 else f.center / r
    if isinstance(f, Sum):
        parts = f.parts
    elif isinstance(f, Product):
        parts = (f.left, f.right)
    else:
        return None
    line = _ANY_LINE
    for p in parts:
        other = _slice_line(p)
        if other is None:
            return None
        if other is _ANY_LINE:
            continue
        if line is _ANY_LINE:
            line = other
        elif np.linalg.norm(other - np.vdot(line, other) * line) > _LINE_TOL:
            return None
    return line


def slice_direction(f: HoloFunction) -> np.ndarray | None:
    """A unit vector zeta with f(z) = h(<z, zeta>) for some h on the disc, or None.

    Read off the representation, walking the tree max_kernel_center walks: a
    KernelPower lies on the line of its center, a Series whose terms use the
    one coordinate j on the line of e_j, and a Sum or Product on a line when
    every part lies on it up to a phase (the first part's zeta is returned).
    A constant is a slice along every line and gets e_1.  None means f was
    not recognised as a slice.
    """
    line = _slice_line(f)
    if line is None:
        return None
    if line is _ANY_LINE:
        line = np.zeros(f.n, dtype=complex)
        line[0] = 1.0
    return line


# ---------------------------------------------------------------------------
# Invariant gradient and the derivative chain


def gradient_sweep(f: HoloFunction, pts: np.ndarray):
    """The four derivative quantities of f at the rows of pts, from one gradient.

    Returns the (N,) arrays (1-|z|^2, |Rf(z)|, |grad f(z)|, |invariant grad
    f(z)|), with Rf(z) = sum_j z_j d_j f(z).  The invariant gradient's norm
    comes in closed form (Zhu, Spaces of Holomorphic Functions in the Unit
    Ball, ch. 2): |inv grad f|^2 = (1-|z|^2)(|grad f|^2 - |Rf|^2), written
    without the cancellation through Lagrange's identity as

        (1-|z|^2) [(1-|z|^2)|grad f|^2 + sum_{i<j} |conj(z_i) d_j f - conj(z_j) d_i f|^2].

    invariant_gradient keeps the vector form, through the Jacobian of phi_z.
    """
    grad = f._partials(pts)
    one_minus = 1.0 - np.sum(np.abs(pts) ** 2, axis=1)
    radial = np.abs(np.einsum("nj,nj->n", pts, grad))
    grad_norm = np.linalg.norm(grad, axis=1)
    inside = np.maximum(one_minus, 0.0)
    acc = inside * grad_norm**2
    for i in range(f.n):
        for j in range(i + 1, f.n):
            acc += np.abs(np.conj(pts[:, i]) * grad[:, j] - np.conj(pts[:, j]) * grad[:, i]) ** 2
    return one_minus, radial, grad_norm, np.sqrt(inside * acc)


def invariant_gradient(f: HoloFunction, points):
    """Gradient of f composed with phi_z, taken at the origin; batch-aware.

    Row z gets grad(f o phi_z)(0)_j = sum_k d_k f(z) J_kj with J the Jacobian
    of phi_z at 0; its norm is gradient_sweep's closed form.
    """
    pts, squeeze = _points_2d(points, f.n)
    out = np.einsum("nk,nkj->nj", f._partials(pts), mobius_jacobian0_batch(pts))
    return out[0] if squeeze else out


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    worst_margin: float
    node_index: int
    count: int


def chain_inequality_check(f: HoloFunction, points, tol: float = 1e-10) -> ChainReport:
    """Verify (1-|z|^2)|Rf| <= (1-|z|^2)|grad f| <= |inv grad f| on the batch.

    worst_margin is the largest relative violation found (negative when the
    chain holds strictly everywhere).  The second leg is a sum-of-squares
    identity: gradient_sweep's closed form is (1-|z|^2)^2 |grad f|^2 plus
    (1-|z|^2) times a sum of squares, so only rounding can break it; the
    first leg is Cauchy-Schwarz with |z| < 1.
    """
    pts, _ = _points_2d(points, f.n)
    one_minus, radial, grad_norm, c = gradient_sweep(f, pts)
    a = one_minus * radial
    b = one_minus * grad_norm
    floor = 1e-300
    margin_ab = (a - b) / np.maximum(b, floor)
    margin_bc = (b - c) / np.maximum(c, floor)
    margins = np.maximum(margin_ab, margin_bc)
    i = int(np.argmax(margins))
    worst = float(margins[i])
    return ChainReport(ok=bool(worst <= tol), worst_margin=worst, node_index=i,
                       count=pts.shape[0])


def test_function(phi, a, alpha: float, k: float | None = None) -> KernelPower:
    """Unit-scale kernel test function attached to a point a of the ball.

    f_a(z) = Phi^{-1}((1-|a|)^{-(n+1+alpha)}) ((1-|a|^2) / (1-<z,a>))^{k(n+1+alpha)}

    with k > 1, and k > 1/p additionally when Phi has declared lower type p.
    The default k is the smallest convenient integer-ish choice satisfying both
    constraints.  The family has uniformly bounded Luxembourg norm.  A level
    (1-|a|)^-(n+1+alpha) beyond the largest float raises DomainError.
    """
    a = _as_point(a)
    n = a.shape[0]
    norm_a = float(np.linalg.norm(a))
    if norm_a >= 1.0:
        raise DomainError("test function base point must lie inside the ball")
    p = phi.p_phi
    if k is None:
        k = max(2.0, math.floor(1.0 / p) + 1.0)
    k = float(k)
    if k <= 1.0:
        raise DomainError(f"test function needs k > 1, got {k}")
    if k * p <= 1.0:
        raise DomainError(f"test function needs k > 1/p = {1.0 / p:g}, got {k}")
    m = n + 1.0 + alpha
    try:
        level = (1.0 - norm_a) ** (-m)
    except OverflowError:
        raise DomainError(f"(1-|a|)^-{m:g} overflows a float at |a|={norm_a:g}") from None
    scale = float(phi.inverse(level)) * (1.0 - norm_a**2) ** (k * m)
    return KernelPower(center=a, exponent=k * m, scale=scale)


def cauchy_gradient(f: HoloFunction, z) -> np.ndarray:
    """Numerical holomorphic gradient via the Cauchy integral on small circles.

    Per coordinate j, f'_j(z) = (1/(M r)) sum_m f(z + r e^(i theta_m) e_j)
    e^(-i theta_m) with M = 64 nodes on a circle of radius
    r = min(0.02, (1 - |z|) / 4); geometric accuracy in M, no subtractive
    cancellation.  Serves as an independent cross-check for the closed-form
    partials.
    """
    pts, squeeze = _points_2d(z, f.n)
    count, n = pts.shape
    points = 64
    theta = 2.0 * np.pi * np.arange(points) / points
    phase = np.exp(1j * theta)
    out = np.empty((count, n), dtype=complex)
    for i in range(count):
        row = pts[i]
        r = min(0.02, 0.25 * max(1e-6, 1.0 - float(np.linalg.norm(row))))
        ring = r * phase
        for j in range(n):
            batch = np.tile(row, (points, 1))
            batch[:, j] += ring
            vals = f.eval(batch)
            out[i, j] = np.sum(vals * np.conj(phase)) / (points * r)
    return out[0] if squeeze else out


# ---------------------------------------------------------------------------
# Structured function specs


def _complex_from_pair(pair) -> complex:
    if isinstance(pair, (int, float)):
        return complex(pair)
    if isinstance(pair, Sequence) and len(pair) == 2:
        return complex(float(pair[0]), float(pair[1]))
    raise FunctionSpecError(f"expected number or [re, im] pair, got {pair!r}")


def function_from_spec(spec: Mapping) -> HoloFunction:
    """Build a holomorphic function from its structured (JSON-style) spec.

    Kinds: series (terms as [multi_index, re, im]), kernel_power, sum,
    product, test_function (growth id resolved on the fly).
    """
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise FunctionSpecError("function spec must be a mapping with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "series":
            n = int(spec["n"])
            terms = {}
            for entry in spec["terms"]:
                m, re_part, im_part = entry
                terms[_validate_index(m, n)] = complex(float(re_part), float(im_part))
            return Series(n, terms)
        if kind == "kernel_power":
            center = [_complex_from_pair(c) for c in spec["center"]]
            return KernelPower(np.array(center), float(spec["exponent"]),
                               _complex_from_pair(spec.get("scale", 1.0)))
        if kind == "sum":
            return Sum(tuple(function_from_spec(p) for p in spec["parts"]))
        if kind == "product":
            factors = spec["factors"]
            if len(factors) != 2:
                raise FunctionSpecError("product spec takes exactly two factors")
            return Product(function_from_spec(factors[0]), function_from_spec(factors[1]))
        if kind == "test_function":
            from .growth import resolve_growth

            center = [_complex_from_pair(c) for c in spec["center"]]
            return test_function(resolve_growth(spec["growth"]), np.array(center),
                                 float(spec["alpha"]), spec.get("k"))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FunctionSpecError):
            raise
        raise FunctionSpecError(f"malformed {kind!r} spec: {exc}") from exc
    raise FunctionSpecError(f"unknown function kind {kind!r}")


def function_to_spec(f: HoloFunction) -> dict:
    """Serialize a holomorphic function back to its structured spec."""
    if isinstance(f, Series):
        return {
            "kind": "series",
            "n": f.n,
            "terms": [[list(m), complex(c).real, complex(c).imag]
                      for m, c in sorted(f.terms.items())],
        }
    if isinstance(f, KernelPower):
        return {
            "kind": "kernel_power",
            "center": [[c.real, c.imag] for c in f.center],
            "exponent": f.exponent,
            "scale": [f.scale.real, f.scale.imag],
        }
    if isinstance(f, Sum):
        return {"kind": "sum", "parts": [function_to_spec(p) for p in f.parts]}
    if isinstance(f, Product):
        return {"kind": "product", "factors": [function_to_spec(f.left), function_to_spec(f.right)]}
    raise FunctionSpecError(f"cannot serialize {type(f).__name__}")
