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
under R.  A Series call walks the points once (_monomial_sums), in blocks of
_SERIES_BLOCK, and sums its value, or all n partials, from the powers of each
coordinate that a term reads, kept per block, so its scratch memory does not
grow with the terms times the points.  to_series() expands any representation
into a truncated Series for the coefficient-level Cesaro path, and _shape
reads off, in one walk, what quadrature selection needs: the polynomial
degree, the largest kernel |center| and the complex line of a slice.

There are two ways to evaluate.  Pointwise, _eval and _partials take any
batch of points: probe grids, the Bloch search, kernels.  On a quadrature
rule, on_rule alone reads f, one block per leaf of measure._tree_sum, from
the disc nodes that cover the leaf: on the refined n = 2 lift a Series is
evaluated at 1,105 disc nodes for 1,221,025 nodes.

The invariant gradient is (grad f)(z) composed with the Jacobian at 0 of the
ball automorphism phi_z.  gradient_norms holds the one closed form
|invariant grad f|^2 = (1-|z|^2)(|grad f|^2 - |Rf|^2), with no Jacobian;
gradient_sweep feeds it at probe points, and derivative_modulars leaf by
leaf from on_rule.  invariant_gradient keeps the vector form, through
mobius_jacobian0_batch, and chain_inequality_check verifies the chain

    (1-|z|^2) |R f| <= (1-|z|^2) |grad f| <= |invariant grad f|

with that form, and the closed form against it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, FunctionSpecError
from .measure import (
    _as_point,
    _disc_nodes,
    _lift_points,
    _points_2d,
    _tree_sum,
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
    "slice_direction",
    "on_rule",
    "RuleBlock",
    "gradient_sweep",
    "gradient_norms",
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


def _monomial_sums(pts: np.ndarray, term_lists, scratch=None) -> np.ndarray:
    """Column k holds sum c z^m over the (m, c) pairs of term_lists[k], in order.

    One walk over the point blocks serves every list.  z_j^d is the
    running product of d factors z_j, each written into a fresh buffer:
    numpy rounds a complex product written over its own factor
    differently for a single point.  Only the powers some list reads are
    kept; the others are freed when the next power replaces them.  A
    monomial is copied only when a second coordinate multiplies it in
    place: at n = 1 each term reads its kept power of z_1 as it stands.
    With scratch (a _Scratch, from on_rule) every kept power is cut from it.
    """
    n = pts.shape[1]
    used = [{m[j] for terms in term_lists for m, _ in terms} for j in range(n)]
    out = np.zeros((pts.shape[0], len(term_lists)), dtype=complex)
    take = scratch or _Scratch(reuse=False)
    for lo, hi in _blocks(pts.shape[0]):
        take.restart()
        tab = []
        for j in range(n):
            col = np.ascontiguousarray(pts[lo:hi, j])
            rows = {}
            for d in range(max(used[j], default=0) + 1):
                if d:
                    out_d = take((hi - lo,), complex) if d in used[j] else None
                    power = np.multiply(power, col, out=out_d)
                else:
                    power = np.ones(hi - lo, dtype=complex)
                if d in used[j]:
                    rows[d] = power
            tab.append(rows)
        for k, terms in enumerate(term_lists):
            acc = np.zeros(hi - lo, dtype=complex)
            for m, c in terms:
                mono = tab[0][m[0]].copy() if n > 1 else tab[0][m[0]]
                for j in range(1, n):
                    mono *= tab[j][m[j]]
                acc += complex(c) * mono
            out[lo:hi, k] = acc
    return out


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

    def _term_lists(self, derivatives: bool = False) -> list:
        """The (m, c) pairs of f, in sorted order, then with derivatives those
        of each partial d_j f: d_j z^m = m_j z^(m - e_j)."""
        keys = sorted(self.terms)
        lists = [[(m, self.terms[m]) for m in keys]]
        if derivatives:
            lists += [[(m[:j] + (m[j] - 1,) + m[j + 1:], self.terms[m] * m[j])
                       for m in keys if m[j] > 0] for j in range(self.n)]
        return lists

    def _eval(self, pts):
        return _monomial_sums(pts, self._term_lists())[:, 0]

    def _partials(self, pts):
        # All n partials read one walk's powers.
        return _monomial_sums(pts, self._term_lists(derivatives=True)[1:])

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

    # np.multiply, not *: numpy may compute a * of two large temporaries as right * left,
    # and complex a * b and b * a round differently, so bits would follow the batch size.
    def _eval(self, pts):
        return np.multiply(self.left._eval(pts), self.right._eval(pts))

    def _partials(self, pts):
        fl, fr = self.left._eval(pts), self.right._eval(pts)
        return (np.multiply(fl[:, None], self.right._partials(pts))
                + np.multiply(fr[:, None], self.left._partials(pts)))

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


# Sentinel for "a slice along every line": a constant.
_ANY_LINE = "any"
# Largest distance between two unit vectors read as one complex line.
_LINE_TOL = 1e-12


def _join_lines(line, other):
    """The line two factors or terms share: _ANY_LINE defers to the other,
    None (no line) wins, and two lines must agree up to a phase."""
    if line is None or other is _ANY_LINE:
        return line
    if other is None or line is _ANY_LINE:
        return other
    if np.linalg.norm(other - np.vdot(line, other) * line) > _LINE_TOL:
        return None
    return line


def _shape(f: HoloFunction):
    """(degree, sharp, line) of f, read off its representation in one walk.

    degree is the total polynomial degree, None when f holds a kernel power.
    sharp is the largest |center| over f's kernel powers, None when it has
    none: integrands built from f concentrate near the sphere on the scale
    1 - sharp.  line is f's complex line as a unit vector, _ANY_LINE for a
    constant, or None.  A KernelPower lies on the line of its center, a
    Series whose terms use the one coordinate j on the line of e_j, an affine
    Series c + sum_j b_j z_j = c + <z, conj(b)> on the line of conj(b), and a
    Sum or Product on a line when every part lies on it up to a phase (the
    first part's vector is kept).
    """
    if isinstance(f, Series):
        degree = max((sum(m) for m in f.terms), default=0)
        used = {j for m in f.terms for j, d in enumerate(m) if d > 0}
        line = _ANY_LINE if not used else None
        if len(used) == 1:
            line = np.zeros(f.n, dtype=complex)
            line[used.pop()] = 1.0
        elif degree == 1:
            b = np.zeros(f.n, dtype=complex)
            for m, c in f.terms.items():
                if sum(m) == 1:
                    b[m.index(1)] += complex(c)
            line = np.conj(b) / np.linalg.norm(b)
        return degree, None, line
    if isinstance(f, KernelPower):
        r = float(np.linalg.norm(f.center))
        return None, r, _ANY_LINE if r == 0.0 else f.center / r
    parts = f.parts if isinstance(f, Sum) else (f.left, f.right)
    degrees, sharps, lines = zip(*map(_shape, parts))
    degree = None if None in degrees else (max if isinstance(f, Sum) else sum)(degrees)
    sharp = max((r for r in sharps if r is not None), default=None)
    return degree, sharp, functools.reduce(_join_lines, lines, _ANY_LINE)


def _direction(line, n: int) -> np.ndarray | None:
    """The unit vector of a line from _shape: e_1 for _ANY_LINE, None for None."""
    if line is _ANY_LINE:
        line = np.zeros(n, dtype=complex)
        line[0] = 1.0
    return line


def slice_direction(f: HoloFunction) -> np.ndarray | None:
    """A unit vector zeta with f(z) = h(<z, zeta>) for some h on the disc, or None.

    The line comes from _shape.  A constant is a slice along every line and
    gets e_1.  None means f was not recognised as a slice.
    """
    return _direction(_shape(f)[2], f.n)


# ---------------------------------------------------------------------------
# Node values on a quadrature rule

@dataclass(frozen=True)
class RuleBlock:
    """f at the rule nodes of one leaf (measure._tree_sum), the node slice
    nodes: its values (|f| for a norm), with derivatives the (k, n)
    partials, Rf and the coordinates z_1, ..., z_n as (k,) arrays (else
    None), and 1-|z|^2 (None for a norm)."""

    nodes: slice
    values: np.ndarray
    partials: np.ndarray | None
    radial: np.ndarray | None
    coords: tuple | None
    one_minus: np.ndarray | None


class _Scratch:
    """Memory for the temporaries of one leaf at a time, kept across leaves.

    scratch(shape, dtype) cuts a new array from one buffer; restart() (at
    each leaf) cuts from its start again, so a leaf writes its temporaries
    where the leaf before wrote theirs.  What does not fit is allocated
    afresh, and the next restart() grows the buffer to the most a leaf has
    asked for, plus an eighth.  A walk that allocated every temporary afresh
    freed several MB per leaf, which glibc handed back to the OS and the
    next leaf faulted back in.  _Scratch(reuse=False) hands out new arrays
    instead, for arrays that a caller keeps.
    """

    def __init__(self, reuse: bool = True):
        self._reuse = reuse
        self._buffer = np.empty(0, dtype=np.uint8)
        self._used = self._most = 0

    def restart(self) -> None:
        if self._most > self._buffer.size:
            self._buffer = np.empty(self._most + self._most // 8, dtype=np.uint8)
        self._used = 0

    def __call__(self, shape: tuple, dtype=float) -> np.ndarray:
        if not self._reuse:
            return np.empty(shape, dtype)
        start = -(-self._used // 64) * 64
        self._used = start + math.prod(shape) * np.dtype(dtype).itemsize
        self._most = max(self._most, self._used)
        if self._used > self._buffer.size:
            return np.empty(shape, dtype)
        return self._buffer[start:self._used].view(dtype).reshape(shape)


def on_rule(f: HoloFunction, rule, derivatives: bool = False, _modulus: bool = False,
            _scratch: _Scratch | None = None):
    """Yield f on the nodes of a rule from measure.build_rule, one RuleBlock
    per leaf of measure._tree_sum, in node order, so a sum over the rule
    takes next() on each leaf; the one reader of f at a rule's nodes.  Each
    leaf starts from the disc nodes that cover it; the points are never
    built.  1-|z|^2 is (1-|w|^2)(1-t) (rule.fibre_one_minus).  _modulus
    (norms._node_values, no derivatives) yields |f| by f._abs_eval, a kernel
    power's in real arithmetic, and no 1-|z|^2.

    On a rule of C^2 along e_1 (the product lifts and the e_1 slice rules)
    node (w, t, psi) is z = (w, s) with s = sqrt(t (1-|w|^2)) e^{i psi}, so
    a Series is sum_b g_b(w) s^b with g_b(w) = sum_a c_(a,b) w^a.  The g_b of
    f (and of each partial and of Rf) are evaluated on the disc nodes only,
    in one Series walk, and the covering disc nodes expand them over their
    fibre (t, psi) by one matrix product, whose columns past the leaf are
    dropped: the ((w, t), b) matrix g_b(w) sqrt(t (1-|w|^2))^b times the
    (b, psi) matrix e^{i b psi}.  That product is a BLAS zgemm: deg + 1
    broadcast multiply-adds, Horner's rule in e^{i psi} or einsum took six
    times as long per block on one CPU of a 2-core VM (2.6-3.0 ms against
    0.44 ms for degree 6 on the refined lift).  Any other function of z_1
    alone (its _shape line is e_1 up to a phase) is, without derivatives,
    evaluated at the covering disc nodes (w, 0) and repeated over their
    fibre.  Everywhere else (every n = 1 rule, tilted slice rules, functions
    off e_1) the covering disc nodes are lifted (measure._lift_points) and
    cut to the leaf, and Rf is sum_j z_j d_j f: on a slice rule along
    another line a rewrite in the frame of zeta would only add s-terms that
    cancel, with a rounding error that grows with the degree.

    With _scratch (norms.derivative_modulars) the fibre expansion, the
    coordinates and 1-|z|^2 are written into its buffers, so a block holds
    only until the next one is taken; without it every block is new.
    """
    take = _scratch or _Scratch(reuse=False)
    phases = rule.phases.size
    fibre = rule.t.size * phases
    on_e1 = np.array_equal(rule.line, (1, 0))
    if isinstance(f, Series) and on_e1:
        term_lists = f._term_lists(derivatives)
        if derivatives:
            term_lists.append([(m, c * sum(m)) for m, c in term_lists[0] if sum(m) > 0])
        degree = max((m[1] for terms in term_lists for m, _ in terms), default=0)
        lists = [[((m[0],), c) for m, c in terms if m[1] == b]
                 for terms in term_lists for b in range(degree + 1)]
        g = _monomial_sums(rule.disc[:, None], lists, _scratch).reshape(
            -1, len(term_lists), degree + 1)
        v = np.sqrt(rule.t[None, :] * np.maximum(0.0, 1.0 - np.abs(rule.disc) ** 2)[:, None])
        spin = np.ones((degree + 1, phases), dtype=complex)
        for b in range(1, degree + 1):
            spin[b] = spin[b - 1] * rule.phases

        def leaf(first, last, cut):
            shape = (last - first, rule.t.size)
            v_powers = np.power(v[first:last, :, None], np.arange(degree + 1),
                                out=take((*shape, degree + 1)))
            coeffs = np.multiply(g[first:last].transpose(1, 0, 2)[:, :, None, :], v_powers[None],
                                 out=take((len(term_lists), *shape, degree + 1),
                                          complex))
            out = np.matmul(coeffs.reshape(-1, degree + 1), spin,
                            out=take((coeffs.size // (degree + 1), phases), complex))
            out = out.reshape(len(term_lists), -1)[:, cut]
            if not derivatives:
                return np.abs(out[0]) if _modulus else out[0], None, None, None
            w = take((last - first, fibre), complex)
            w[...] = rule.disc[first:last, None]
            s = np.multiply(v[first:last, :, None], rule.phases,
                            out=take((*shape, phases), complex))
            return out[0], out[1:-1].T, out[-1], (w.reshape(-1)[cut], s.reshape(-1)[cut])
    else:
        line = _shape(f)[2] if on_e1 and not derivatives else None
        spread = line is _ANY_LINE or line is not None and line[1] == 0

        def leaf(first, last, cut):
            disc = _disc_nodes(rule.radii, rule.angles, first, last)
            pts = (np.stack([disc, np.zeros_like(disc)], axis=1) if spread
                   else _lift_points(rule.line, disc, rule.t, rule.phases)[cut])
            values = f._abs_eval(pts) if _modulus else f._eval(pts)
            if spread or not derivatives:
                return np.repeat(values, fibre)[cut] if spread else values, None, None, None
            grad = f._partials(pts)
            return values, grad, np.einsum("nj,nj->n", pts, grad), tuple(pts.T)

    # A leaf's temporaries are gone, or written over, before the next leaf starts.
    for lo, hi in _tree_sum(rule.node_count, lambda lo, hi: [(lo, hi)]):
        take.restart()
        first, wt = lo // fibre, lo // phases
        one_minus = None
        if not _modulus:
            one_minus = take((-(-hi // phases) - wt, phases))
            one_minus[...] = rule.fibre_one_minus[wt:-(-hi // phases), None]
            one_minus = one_minus.reshape(-1)[lo - wt * phases:hi - wt * phases]
        yield RuleBlock(slice(lo, hi), *leaf(first, -(-hi // fibre),
                                             slice(lo - first * fibre, hi - first * fibre)),
                        one_minus)


# ---------------------------------------------------------------------------
# Invariant gradient and the derivative chain


def gradient_sweep(f: HoloFunction, pts: np.ndarray):
    """The four derivative quantities of f at the rows of pts, from one gradient.

    Returns the (N,) arrays (1-|z|^2, |Rf(z)|, |grad f(z)|, |invariant grad
    f(z)|), with Rf(z) = sum_j z_j d_j f(z), through gradient_norms.
    invariant_gradient keeps the vector form, through the Jacobian of phi_z.
    """
    grad = f._partials(pts)
    one_minus = 1.0 - np.sum(np.abs(pts) ** 2, axis=1)
    return (one_minus, *gradient_norms(tuple(pts.T), grad, np.einsum("nj,nj->n", pts, grad),
                                       one_minus))


def gradient_norms(coords: tuple, grad: np.ndarray, rf: np.ndarray,
                   one_minus: np.ndarray, scratch: _Scratch | None = None):
    """(|Rf|, |grad f|, |invariant grad f|) at N points from their coordinates,
    the (N, n) gradient, Rf and 1-|z|^2 there.

    coords holds z_1, ..., z_n as (N,) arrays: the columns of the points, or
    a block's (RuleBlock.coords), so no (N, n) array of points is needed.

    The invariant gradient's norm comes in closed form (Zhu, Spaces of
    Holomorphic Functions in the Unit Ball, ch. 2): |inv grad f|^2 =
    (1-|z|^2)(|grad f|^2 - |Rf|^2), written without the cancellation through
    Lagrange's identity as

        (1-|z|^2) [(1-|z|^2)|grad f|^2 + sum_{i<j} |conj(z_i) d_j f - conj(z_j) d_i f|^2].

    gradient_sweep feeds it at probe points, derivative_modulars leaf by
    leaf from on_rule, with its scratch: then the three results, like every
    temporary, are its buffers.  |grad f| is np.linalg.norm's, (conj(g) g).real
    summed along the row, written in the layout that norm writes it in.
    """
    take = scratch or _Scratch(reuse=False)
    k = rf.shape[0]
    by_column = grad.strides[0] < grad.strides[1]
    sq = take(grad.shape[::-1] if by_column else grad.shape, complex)
    sq = sq.T if by_column else sq
    np.multiply(np.conjugate(grad, out=sq), grad, out=sq)
    grad_norm = take((k,))
    np.sqrt(np.add.reduce(sq.real, axis=1, out=grad_norm), out=grad_norm)
    inside = np.maximum(one_minus, 0.0, out=take((k,)))
    acc = np.square(grad_norm, out=take((k,)))
    np.multiply(inside, acc, out=acc)
    for i, j in itertools.combinations(range(len(coords)), 2):
        cross, other, term = take((k,), complex), take((k,), complex), take((k,))
        np.multiply(np.conjugate(coords[i], out=cross), grad[:, j], out=cross)
        np.multiply(np.conjugate(coords[j], out=other), grad[:, i], out=other)
        np.abs(np.subtract(cross, other, out=cross), out=term)
        acc += np.square(term, out=term)
    np.multiply(inside, acc, out=acc)
    return np.abs(rf, out=take((k,))), grad_norm, np.sqrt(acc, out=acc)


def invariant_gradient(f: HoloFunction, points):
    """Gradient of f composed with phi_z, taken at the origin; batch-aware.

    Row z gets grad(f o phi_z)(0)_j = sum_k d_k f(z) J_kj with J the Jacobian
    of phi_z at 0; its norm is gradient_sweep's closed form.
    """
    pts, squeeze = _points_2d(points, f.n)
    out = np.einsum("nk,nkj->nj", f._partials(pts), mobius_jacobian0_batch(pts))
    return out[0] if squeeze else out


# Largest relative violation of the derivative chain that still counts as holding.
CHAIN_TOL = 1e-10


@dataclass(frozen=True)
class ChainReport:
    ok: bool
    worst_margin: float


def chain_inequality_check(f: HoloFunction, points) -> ChainReport:
    """Verify (1-|z|^2)|Rf| <= (1-|z|^2)|grad f| <= |inv grad f| on the batch,
    |inv grad f| from invariant_gradient (the Jacobian of phi_z), and that
    gradient_sweep's closed form agrees with it.

    worst_margin is the largest relative violation of either leg, or gap
    between the two forms; ok is worst_margin <= CHAIN_TOL.  Random Series at
    n = 1 and 2 give gaps under 1e-14 up to |z| = 0.999, and a closed form
    without its Lagrange term fails at n = 2.  No suite runs it; the tests
    do, and the benchmark's tracer wraps it by name.
    """
    pts, _ = _points_2d(points, f.n)
    one_minus, radial, grad_norm, closed = gradient_sweep(f, pts)
    c = np.linalg.norm(invariant_gradient(f, pts), axis=1)
    a = one_minus * radial
    b = one_minus * grad_norm
    floor = 1e-300
    margin_ab = (a - b) / np.maximum(b, floor)
    margin_bc = (b - c) / np.maximum(c, floor)
    gap = np.abs(closed - c) / np.maximum(c, floor)
    worst = float(np.max([margin_ab, margin_bc, gap]))
    return ChainReport(ok=bool(worst <= CHAIN_TOL), worst_margin=worst)


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
        raise DomainError(f"(1-|a|)^-(n+1+alpha) overflows a float at |a|={norm_a:g}, "
                          f"alpha={alpha:g}") from None
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


def _finite_float(value) -> float:
    """A real number of a spec: finite, and not a bool or a string (float()
    would read True as 1 and "2" as 2)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise FunctionSpecError(f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {value!r}")
    return x


def _spec_integer(value) -> int:
    """An n or index entry of a spec: a finite integral number, not a bool or
    a string (int() would read 1.9, True and "1" as 1)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real)
                                       and float(value).is_integer()):
        raise FunctionSpecError(f"expected an integer, got {value!r}")
    return int(value)


def _complex_from_pair(pair) -> complex:
    if isinstance(pair, (int, float)):
        pair = (pair, 0.0)
    if isinstance(pair, Sequence) and len(pair) == 2:
        return complex(_finite_float(pair[0]), _finite_float(pair[1]))
    raise FunctionSpecError(f"expected number or [re, im] pair, got {pair!r}")


def function_from_spec(spec: Mapping) -> HoloFunction:
    """Build a holomorphic function from its structured (JSON-style) spec.

    Kinds: series (terms as [multi_index, re, im]), kernel_power, sum,
    product, test_function (growth id resolved on the fly).  A number that
    is not finite raises FunctionSpecError naming the kind.
    """
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise FunctionSpecError("function spec must be a mapping with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "series":
            n = _spec_integer(spec["n"])
            terms = {}
            for entry in spec["terms"]:
                m, re_part, im_part = entry
                terms[_validate_index([_spec_integer(v) for v in m], n)] = (
                    _complex_from_pair((re_part, im_part)))
            return Series(n, terms)
        if kind == "kernel_power":
            center = [_complex_from_pair(c) for c in spec["center"]]
            return KernelPower(np.array(center), _finite_float(spec["exponent"]),
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
            k = spec.get("k")
            return test_function(resolve_growth(spec["growth"]), np.array(center),
                                 _finite_float(spec["alpha"]), k and _finite_float(k))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
