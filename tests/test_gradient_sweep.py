"""The derivative sweep: closed-form invariant gradient and Series partials.

gradient_sweep takes |invariant grad f| from the closed form
(1-|z|^2)[(1-|z|^2)|grad f|^2 + sum_{i<j} |conj(z_i) d_j f - conj(z_j) d_i f|^2]
and never builds a Jacobian; the Jacobian path (mobius_jacobian0_batch) is
the independent check here, at points close to the sphere and with gradients
nearly parallel to conj(z), where the plain form (1-|z|^2)(|grad f|^2 - |Rf|^2)
cancels.  Series._partials reads every partial off one power table; the
per-coordinate implementation it replaced is kept below as the reference,
and the two must agree bit for bit, also across the point blocks a Series
call walks; those blocks keep its scratch memory independent of the terms.
"""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

import bergman_orlicz
from bergman_orlicz import holo
from bergman_orlicz.growth import power_growth
from bergman_orlicz.holo import (
    HoloFunction,
    Series,
    chain_inequality_check,
    gradient_sweep,
)
from bergman_orlicz.measure import build_rule, make_measure, mobius_jacobian0_batch
from bergman_orlicz.norms import derivative_modulars

RNG = np.random.default_rng(20261018)


class _GivenGradient(HoloFunction):
    """Stand-in whose gradient at the k-th point is row k of grads."""

    def __init__(self, grads):
        self.grads = grads
        self.n = grads.shape[1]

    def _partials(self, pts):
        return self.grads


def _points_near_sphere(n, count):
    """Random directions at 1 - |z|^2 log-uniform in [1e-8, 1]."""
    w = RNG.normal(size=(count, n)) + 1j * RNG.normal(size=(count, n))
    u = w / np.linalg.norm(w, axis=1, keepdims=True)
    gap = 10.0 ** RNG.uniform(-8.0, 0.0, size=count)
    return u * np.sqrt(1.0 - gap)[:, None]


def _gradients_near_conj(pts):
    """c conj(z) plus a perturbation of relative size 1e-9 .. 1e-1."""
    count, n = pts.shape
    c = RNG.normal(size=count) + 1j * RNG.normal(size=count)
    eps = 10.0 ** RNG.uniform(-9.0, -1.0, size=count)
    noise = RNG.normal(size=(count, n)) + 1j * RNG.normal(size=(count, n))
    return c[:, None] * np.conj(pts) + (eps * np.abs(c))[:, None] * noise


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_matches_jacobian_near_the_sphere(n):
    pts = _points_near_sphere(n, 4000)
    grads = _gradients_near_conj(pts)
    one_minus = 1.0 - np.sum(np.abs(pts) ** 2, axis=1)
    assert one_minus.min() < 2e-8
    reference = np.linalg.norm(np.einsum("nk,nkj->nj", grads, mobius_jacobian0_batch(pts)),
                               axis=1)
    closed = gradient_sweep(_GivenGradient(grads), pts)[3]
    assert closed.shape == (pts.shape[0],)
    assert np.max(np.abs(closed - reference) / reference) <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_matches_jacobian_on_a_polynomial(n):
    terms = {tuple(int(v) for v in RNG.integers(0, 5, size=n)): complex(*RNG.normal(size=2))
             for _ in range(8)}
    f = Series(n, terms)
    pts = _points_near_sphere(n, 500)
    reference = np.linalg.norm(
        np.einsum("nk,nkj->nj", f.partials(pts), mobius_jacobian0_batch(pts)), axis=1)
    closed = gradient_sweep(f, pts)[3]
    assert np.max(np.abs(closed - reference) / np.maximum(reference, 1e-300)) <= 1e-10


def _reference_power_table(f, pts):
    tables = []
    for j in range(f.n):
        dmax = max((m[j] for m in f.terms), default=0)
        tab = np.empty((dmax + 1, pts.shape[0]), dtype=complex)
        tab[0] = 1.0
        for d in range(1, dmax + 1):
            tab[d] = tab[d - 1] * pts[:, j]
        tables.append(tab)
    return tables


def _reference_eval(f, pts):
    out = np.zeros(pts.shape[0], dtype=complex)
    if not f.terms:
        return out
    tab = _reference_power_table(f, pts)
    for m in sorted(f.terms):
        mono = tab[0][m[0]].copy()
        for j in range(1, f.n):
            mono *= tab[j][m[j]]
        out += f.terms[m] * mono
    return out


def _reference_partials(f, pts):
    """One new Series, with its own power table, per coordinate."""
    out = np.zeros((pts.shape[0], f.n), dtype=complex)
    for j in range(f.n):
        shifted = {}
        for m, c in f.terms.items():
            if m[j] > 0:
                mm = list(m)
                mm[j] -= 1
                shifted[tuple(mm)] = shifted.get(tuple(mm), 0.0) + c * m[j]
        if shifted:
            out[:, j] = _reference_eval(Series(f.n, shifted), pts)
    return out


_SERIES = {
    "n1": Series(1, {(0,): 0.3 - 1j, (1,): 2.0, (4,): -0.7 + 0.2j, (9,): 1e-3j}),
    "n2": Series(2, {(3, 0): 1.5, (1, 2): -2j, (0, 1): 0.7, (2, 5): 0.25 + 0.5j}),
    "n2_zero_exponent": Series(2, {(0, 0): 1.0, (0, 4): -1.25j, (6, 0): 0.5}),
    "n1_empty": Series(1, {}),
    "n2_empty": Series(2, {}),
}


@pytest.mark.parametrize("name", sorted(_SERIES))
def test_shared_power_table_is_bitwise_the_per_coordinate_path(monkeypatch, name):
    # Single points too: there numpy rounds some complex products differently
    # (an in-place product, for one, differs in the last bit).  Blocks of 4
    # points make 3001 and 5 end in a lone point, which must join the block
    # before it to keep its batch bits.
    monkeypatch.setattr(holo, "_SERIES_BLOCK", 4)
    f = _SERIES[name]
    n = f.n
    for count in [3001, 7] + [1] * 60 + [5] * 60:
        w = RNG.normal(size=(count, n)) + 1j * RNG.normal(size=(count, n))
        pts = 0.99 * w / np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1.0)
        assert f._partials(pts).tobytes() == _reference_partials(f, pts).tobytes()
        assert f._eval(pts).tobytes() == _reference_eval(f, pts).tobytes()


# sha256 of the n = 2, alpha = 0 rule of degree 32 (the lift along e1) and of a
# two-variable degree-6 series and its partials on the first 16,385 nodes:
# one _SERIES_BLOCK plus a lone last point, which joins the block before it.
_N2_DIGESTS = {
    "points": "20037d99e1341a4277c5604a6f2ac6870acb17ccb7daf478439d6bf3a84d9ea0",
    "eval": "be6d8d317d415b3f6a50a62a44707907224cfbaa21de791ba5ac606a734fbae9",
    "partials": "22ccb1c3cfbdb3dfc6a6e4a8ad7ee8509f28b8ddfe7d59c455a199b15d39219b",
}


def test_n2_lift_and_series_walk_keep_their_bytes():
    rule = build_rule(make_measure(2, 0.0), 32)
    pts = rule.points[:16385]
    f = Series(2, {(0, 0): 0.5, (6, 0): 1.0 - 0.5j, (3, 3): -0.25j, (1, 4): 0.75,
                   (0, 6): 0.3 + 0.1j, (2, 1): -1.2, (0, 1): 2.0j})
    got = {"points": rule.points, "eval": f.eval(pts), "partials": f.partials(pts)}
    assert {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in got.items()} == _N2_DIGESTS


def test_series_scratch_memory_does_not_grow_with_the_terms():
    # Every power z_j^d with d <= 6 is read, 14 table rows.  Built over all
    # points at once, those rows alone would take 14 * 3.2 MB here; in
    # blocks they take 14 * 256 KiB.
    w = RNG.normal(size=(200_000, 2)) + 1j * RNG.normal(size=(200_000, 2))
    pts = 0.9 * w / np.linalg.norm(w, axis=1, keepdims=True)

    def peak(f):
        tracemalloc.start()
        f._partials(pts)
        f._eval(pts)
        top = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return top

    dense = Series(2, {(a, b): 1.0 + 0.5j for a in range(7) for b in range(7)})
    sparse = Series(2, {(1, 1): 1.0})
    assert peak(dense) - peak(sparse) < 8 * 2**20


def test_derivative_path_never_builds_a_jacobian(monkeypatch):
    def refuse(points):
        raise AssertionError("mobius_jacobian0_batch called on the derivative path")

    for name, mod in list(sys.modules.items()):
        if name == bergman_orlicz.__name__ or name.startswith(bergman_orlicz.__name__ + "."):
            for attr, value in list(vars(mod).items()):
                if value is mobius_jacobian0_batch:
                    monkeypatch.setattr(mod, attr, refuse)
    f = Series(2, {(2, 1): 1.0, (0, 3): -0.5j, (1, 0): 0.25})
    rule = build_rule(make_measure(2, 0.0), degree=12)
    mods = derivative_modulars(f, power_growth(2), rule)
    assert all(np.isfinite(m) and m > 0.0 for m in mods.values())
    # The chain check builds the Jacobian on purpose: it compares the closed
    # form with it.
    monkeypatch.undo()
    assert chain_inequality_check(f, rule.points).ok
