"""holo.on_rule: node values read off a rule's factors against pointwise evaluation.

Every rule keeps its factors (line, disc nodes, t nodes, phases).  on_rule
evaluates a Series' w-polynomials on the disc nodes and expands them over
each block's fibre; here its values, partials and Rf must match
Series._eval / _partials at rule.points on every kind of rule the builder
makes, and its 1-|z|^2 = (1-|w|^2)(1-t) must match 1 - sum |z_j|^2.
Only rules along e_1 take the factored path; a slice rule along another
line evaluates at its nodes, lifted leaf by leaf from the disc nodes that
cover the leaf, so the tilted cases must match bit for bit.
"""

import numpy as np
import pytest

from bergman_orlicz.holo import DEFAULT_TRUNCATION_DEGREE, KernelPower, Series, on_rule, to_series
from bergman_orlicz.measure import _tree_sum, build_rule, make_measure


def _random_series(n, degree=6):
    """Every monomial of degree <= 6 with a seeded normal coefficient."""
    rng = np.random.default_rng(20261019 + n)
    indices = np.ndindex(*(degree + 1,) * n)
    return Series(n, {m: complex(*rng.normal(size=2)) for m in indices if sum(m) <= degree})


def _collect(f, rule):
    """on_rule's blocks joined: (values, partials, Rf, 1-|z|^2) over every node."""
    blocks = list(on_rule(f, rule, derivatives=True))
    stops = [0] + [b.nodes.stop for b in blocks]
    assert [b.nodes.start for b in blocks] == stops[:-1]
    assert stops[-1] == rule.node_count
    return tuple(np.concatenate([getattr(b, k) for b in blocks])
                 for k in ("values", "partials", "radial", "one_minus"))


def _pointwise(f, rule):
    pts = rule.points
    grad = f._partials(pts)
    return f._eval(pts), grad, np.einsum("nj,nj->n", pts, grad)


def _unit(zeta):
    zeta = np.array(zeta, dtype=complex)
    return zeta / np.linalg.norm(zeta)


_N1_RULES = {
    "disc": lambda m: build_rule(m, 32),
    "kernel": lambda m: build_rule(m, 64, angular_count=512),
}


@pytest.mark.parametrize("kind", sorted(_N1_RULES))
def test_n1_rules_give_the_pointwise_bits(kind):
    rule = _N1_RULES[kind](make_measure(1, 0.5))
    f = _random_series(1)
    values, partials, radial, one_minus = _collect(f, rule)
    for got, want in zip((values, partials, radial), _pointwise(f, rule)):
        assert got.tobytes() == want.tobytes()
    want = 1.0 - np.sum(np.abs(rule.points) ** 2, axis=1)
    assert one_minus.tobytes() == want.tobytes()


_N2_RULES = {
    "lift32": lambda m: build_rule(m, 32),
    "lift64": lambda m: build_rule(m, 64),
    "kernel_lift": lambda m: build_rule(m, 16, angular_count=48),
    "slice_e1": lambda m: build_rule(m, 32, line=_unit((1.0, 0.0)), t_count=9),
    "slice_tilted": lambda m: build_rule(m, 32, line=_unit((0.6, 0.8j)), t_count=9),
}


@pytest.mark.parametrize("kind", sorted(_N2_RULES))
def test_n2_rules_match_pointwise_evaluation(kind):
    rule = _N2_RULES[kind](make_measure(2, 0.0))
    f = _random_series(2)
    values, partials, radial, one_minus = _collect(f, rule)
    want_values, want_partials, want_radial = _pointwise(f, rule)
    scale = np.max(np.abs(want_values))
    assert np.max(np.abs(values - want_values)) <= 1e-13 * scale
    assert np.max(np.abs(partials - want_partials)) <= 1e-13 * scale
    assert np.max(np.abs(radial - want_radial)) <= 1e-13 * scale
    want = 1.0 - np.sum(np.abs(rule.points) ** 2, axis=1)
    assert np.max(np.abs(one_minus - want)) <= 1e-15


@pytest.mark.parametrize("kind", ["lift32", "slice_tilted"])
def test_a_degree_48_slice_series_matches_pointwise_evaluation(kind):
    # The kernel at 0.7 zeta, zeta = (0.6, 0.8i), expanded to degree 48: a
    # function of <z, zeta> in both coordinates.  On the e_1 lift its
    # coefficients enter the frame unchanged; on the slice rule along zeta a
    # rewrite in the frame of zeta would add s-terms that cancel, with a
    # rounding error that grows with the degree, so that rule evaluates at
    # its points.
    rule = _N2_RULES[kind](make_measure(2, 0.0))
    zeta = _unit((0.6, 0.8j))
    f = to_series(KernelPower(0.7 * zeta, 3.0, 1.0), DEFAULT_TRUNCATION_DEGREE)
    assert max(map(sum, f.terms)) == 48
    got = _collect(f, rule)[:3]
    want = _pointwise(f, rule)
    if kind == "slice_tilted":
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    scale = np.max(np.abs(want[0]))
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-13 * scale


def test_other_functions_are_evaluated_at_the_points():
    rule = build_rule(make_measure(2, 0.0), 16)
    f = KernelPower(np.array([0.3, 0.4j]), 3.0, 0.5)
    values, partials, radial, _ = _collect(f, rule)
    for got, want in zip((values, partials, radial), _pointwise(f, rule)):
        assert got.tobytes() == want.tobytes()


# Rules past one leaf on both paths: the refined lift and the e_1 slice of a
# refined degree-48 series expand disc nodes, the tilted slice and the n = 1
# rule evaluate at the points.
_MANY_LEAF_RULES = {
    "lift64": (2, lambda m: build_rule(m, 64), 1_221_025),
    "slice_e1": (2, lambda m: build_rule(m, 208, line=_unit((1.0, 0.0)), t_count=17), 188_309),
    "slice_tilted": (2, lambda m: build_rule(m, 128, line=_unit((1.0, 1.0)), t_count=17),
                     72_369),
    "disc512": (1, lambda m: build_rule(m, 512), 66_177),
}


@pytest.mark.parametrize("derivatives", [False, True])
@pytest.mark.parametrize("kind", sorted(_MANY_LEAF_RULES))
def test_blocks_are_the_leaves_of_the_tree_sum(kind, derivatives):
    # Each streamed sum pairs leaf k with on_rule's k-th block by next(): a
    # block off its leaf would weight the wrong nodes without an error.
    n, make, count = _MANY_LEAF_RULES[kind]
    rule = make(make_measure(n, 0.0))
    assert rule.node_count == count
    leaves = _tree_sum(rule.node_count, lambda lo, hi: [slice(lo, hi)])
    f = _random_series(n)
    blocks = list(on_rule(f, rule, derivatives))
    assert len(leaves) > 1
    assert [b.nodes for b in blocks] == leaves
    for b in blocks:
        k = b.nodes.stop - b.nodes.start
        assert b.values.shape == b.one_minus.shape == (k,)
    if not derivatives:
        # A norm's blocks of |f| (norms._node_values): the same leaves, no 1-|z|^2.
        moduli = list(on_rule(f, rule, _modulus=True))
        assert [b.nodes for b in moduli] == leaves
        for b, m in zip(blocks, moduli):
            assert m.one_minus is None
            assert m.values.tobytes() == np.abs(b.values).tobytes()
