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
under R.  to_series() expands any representation into a truncated Series for
the coefficient-level Cesaro path.

The invariant gradient is (grad f)(z) composed with the Jacobian at 0 of the
ball automorphism phi_z; chain_inequality_check verifies the pointwise chain

    (1-|z|^2) |R f| <= (1-|z|^2) |grad f| <= |invariant grad f|

which holds exactly for these formulas.  gradient_sweep computes every
quantity in that chain from one gradient evaluation; the chain check, the
invariant gradient and the derivative modulars in norms.py all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, FunctionSpecError
from .measure import _points_2d, kernel_factor, mobius_jacobian0_batch

__all__ = [
    "HoloFunction",
    "Series",
    "KernelPower",
    "Sum",
    "Product",
    "to_series",
    "max_kernel_center",
    "gradient_sweep",
    "invariant_gradient",
    "chain_inequality_check",
    "ChainReport",
    "test_function",
    "cauchy_gradient",
    "function_from_spec",
    "function_to_spec",
]


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


def _validate_index(m, n: int) -> tuple:
    idx = tuple(int(v) for v in m)
    if len(idx) != n or any(v < 0 for v in idx):
        raise DomainError(f"bad multi-index {m} for dimension {n}")
    return idx


@dataclass(frozen=True, eq=False)
class Series(HoloFunction):
    """Finite power series sum_m c_m z^m over multi-indices of length n."""

    n: int
    terms: Mapping[tuple, complex] = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"series dimension must be at least 1, got {self.n}")
        clean = {}
        for m, c in self.terms.items():
            idx = _validate_index(m, self.n)
            c = complex(c)
            if c != 0.0:
                clean[idx] = clean.get(idx, 0.0) + c
        object.__setattr__(self, "terms", clean)

    def degree(self) -> int | None:
        return max((sum(m) for m in self.terms), default=0)

    def _power_table(self, pts: np.ndarray) -> list[np.ndarray]:
        tables = []
        for j in range(self.n):
            dmax = max((m[j] for m in self.terms), default=0)
            tab = np.empty((dmax + 1, pts.shape[0]), dtype=complex)
            tab[0] = 1.0
            for d in range(1, dmax + 1):
                tab[d] = tab[d - 1] * pts[:, j]
            tables.append(tab)
        return tables

    def _eval(self, pts):
        out = np.zeros(pts.shape[0], dtype=complex)
        if not self.terms:
            return out
        tab = self._power_table(pts)
        for m in sorted(self.terms):
            mono = tab[0][m[0]].copy()
            for j in range(1, self.n):
                mono *= tab[j][m[j]]
            out += self.terms[m] * mono
        return out

    def _partials(self, pts):
        out = np.zeros((pts.shape[0], self.n), dtype=complex)
        for j in range(self.n):
            shifted = {}
            for m, c in self.terms.items():
                if m[j] > 0:
                    mm = list(m)
                    mm[j] -= 1
                    shifted[tuple(mm)] = shifted.get(tuple(mm), 0.0) + c * m[j]
            if shifted:
                out[:, j] = Series(self.n, shifted)._eval(pts)
        return out

    def radial_derivative(self) -> "Series":
        return Series(self.n, {m: c * sum(m) for m, c in self.terms.items() if sum(m) > 0})

    def shifted_by_constant(self, c: complex) -> "Series":
        terms = dict(self.terms)
        zero = (0,) * self.n
        terms[zero] = terms.get(zero, 0.0) + complex(c)
        return Series(self.n, terms)

    def scaled(self, c: complex) -> "Series":
        return Series(self.n, {m: v * complex(c) for m, v in self.terms.items()})

    def plus(self, other: "Series") -> "Series":
        if other.n != self.n:
            raise DomainError("dimension mismatch in series addition")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0.0) + c
        return Series(self.n, terms)

    def times(self, other: "Series", max_degree: int | None = None) -> "Series":
        if other.n != self.n:
            raise DomainError("dimension mismatch in series product")
        terms: dict[tuple, complex] = {}
        for ma in sorted(self.terms):
            ca = self.terms[ma]
            da = sum(ma)
            for mb in sorted(other.terms):
                if max_degree is not None and da + sum(mb) > max_degree:
                    continue
                key = tuple(x + y for x, y in zip(ma, mb))
                terms[key] = terms.get(key, 0.0) + ca * other.terms[mb]
        return Series(self.n, terms)


@dataclass(frozen=True, eq=False)
class KernelPower(HoloFunction):
    """scale * (1 - <z, center>)^(-exponent) with center inside the ball."""

    center: np.ndarray
    exponent: float
    scale: complex = 1.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=complex))
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
    """Binomial expansion of (1 - w)^(-s), w = <z, center>, to total degree."""
    n = kp.n
    linear = Series(n, {tuple(int(i == j) for i in range(n)): np.conj(kp.center[j])
                        for j in range(n)})
    acc = Series(n, {(0,) * n: kp.scale})
    out = acc
    coeff = 1.0
    power = Series(n, {(0,) * n: 1.0})
    for k in range(1, degree + 1):
        coeff = coeff * (kp.exponent + k - 1.0) / k
        power = power.times(linear, max_degree=degree)
        if not power.terms:
            break
        out = out.plus(power.scaled(kp.scale * coeff))
    return out


def to_series(f: HoloFunction, degree: int = DEFAULT_TRUNCATION_DEGREE) -> Series:
    """Expand any representation into a Series truncated at total degree."""
    if isinstance(f, Series):
        return Series(f.n, {m: c for m, c in f.terms.items() if sum(m) <= degree})
    if isinstance(f, KernelPower):
        return _kernel_to_series(f, degree)
    if isinstance(f, Sum):
        out = to_series(f.parts[0], degree)
        for p in f.parts[1:]:
            out = out.plus(to_series(p, degree))
        return out
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


# ---------------------------------------------------------------------------
# Invariant gradient and the derivative chain


def gradient_sweep(f: HoloFunction, pts: np.ndarray):
    """The four derivative quantities of f at the rows of pts, from one gradient.

    Returns (1-|z|^2, |Rf(z)|, |grad f(z)|, invariant gradient), the last as
    (N, n) vectors: row z gets grad(f o phi_z)(0)_j = sum_k d_k f(z) J_kj
    with J the Jacobian of phi_z at 0.  Rf(z) = sum_j z_j d_j f(z).
    """
    grad = f._partials(pts)
    one_minus = 1.0 - np.sum(np.abs(pts) ** 2, axis=1)
    radial = np.abs(np.einsum("nj,nj->n", pts, grad))
    grad_norm = np.linalg.norm(grad, axis=1)
    invariant = np.einsum("nk,nkj->nj", grad, mobius_jacobian0_batch(pts))
    return one_minus, radial, grad_norm, invariant


def invariant_gradient(f: HoloFunction, points):
    """Gradient of f composed with phi_z, taken at the origin; batch-aware."""
    pts, squeeze = _points_2d(points, f.n)
    out = gradient_sweep(f, pts)[3]
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
    chain holds strictly everywhere).
    """
    pts, _ = _points_2d(points, f.n)
    one_minus, radial, grad_norm, invariant = gradient_sweep(f, pts)
    a = one_minus * radial
    b = one_minus * grad_norm
    c = np.linalg.norm(invariant, axis=1)
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
    The default k is the smallest convenient integer-ish choice satisfying
    both constraints.  The family has uniformly bounded Luxembourg norm.
    """
    a = np.atleast_1d(np.asarray(a, dtype=complex))
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
    scale = float(phi.inverse((1.0 - norm_a) ** (-m))) * (1.0 - norm_a**2) ** (k * m)
    return KernelPower(center=a, exponent=k * m, scale=scale)


def cauchy_gradient(f: HoloFunction, z, radius: float | None = None,
                    points: int = 64) -> np.ndarray:
    """Numerical holomorphic gradient via the Cauchy integral on small circles.

    Per coordinate j, f'_j(z) = (1/(M r)) sum_m f(z + r e^(i theta_m) e_j)
    e^(-i theta_m); geometric accuracy in M, no subtractive cancellation.
    Serves as an independent cross-check for the closed-form partials.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    squeeze = zz.ndim == 1
    pts = zz.reshape(1, -1) if squeeze else zz
    count, n = pts.shape
    theta = 2.0 * np.pi * np.arange(points) / points
    phase = np.exp(1j * theta)
    out = np.empty((count, n), dtype=complex)
    for i in range(count):
        row = pts[i]
        r = radius
        if r is None:
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
            "terms": [[list(m), f.terms[m].real, f.terms[m].imag] for m in sorted(f.terms)],
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
