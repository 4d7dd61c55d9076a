"""Luxembourg norms of the default family against orthogonality oracles.

Monomials are orthogonal in L^2(nu_alpha) on the unit ball of C^n, with

    int |z^m|^2 d nu_alpha = m! Gamma(n+1+alpha) / Gamma(n+1+|m|+alpha)

(Zhu, Spaces of Holomorphic Functions in the Unit Ball, Lemma 1.11).  So
under t^2 the norm of f = sum c_m z^m is (sum |c_m|^2 ||z^m||_2^2)^(1/2), and
under t^4 it is ||f f||_2^(1/2), with f f from Series.times.  Both oracles read
coefficients only, while luxemburg_norm sums Phi over quadrature nodes through
Series evaluation, the rule and the bisection; the tolerance is the
bisection's stopping width of 1e-10 relative, with room for rounding.

Report quantities that have no oracle in Tier-1 yet:

* derivative_equivalence: the invariant-gradient, weighted-gradient and
  weighted-radial modulars, and so C_plus and C_minus;
* pointwise_estimates: the pointwise constants, maxima over probe points;
* test_functions: the kernel norms (perfbench/oracle.py reduces them to 2F1,
  at a 5% tolerance);
* cesaro_boundedness and cesaro_compactness: the Bloch seminorm of a symbol
  that is not stock, the upper modulars and the compactness profile;
* interpolation_power: the interpolated norms;
* small_type: the ratios at p = 0.7.
"""

import math

import pytest

from bergman_orlicz.growth import power_growth
from bergman_orlicz.harness import default_family
from bergman_orlicz.measure import make_measure
from bergman_orlicz.norms import luxemburg_norm, rule_for_function

REL_TOL = 2e-10


def _l2_squared(f, alpha):
    """||f||_2^2 in L^2(nu_alpha), from the coefficients of f alone."""
    n = f.n
    return math.fsum(
        abs(complex(c)) ** 2 * math.exp(
            sum(math.lgamma(d + 1) for d in m) + math.lgamma(n + 1 + alpha)
            - math.lgamma(n + 1 + sum(m) + alpha))
        for m, c in f.terms.items())


def _oracle_norm(f, p, alpha):
    if p == 2:
        return math.sqrt(_l2_squared(f, alpha))
    return _l2_squared(f.times(f), alpha) ** 0.25


@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("n,alpha", [(1, 0.0), (2, 0.0), (2, 1.5)])
def test_default_family_norms_match_the_orthogonality_oracle(n, alpha, p):
    phi = power_growth(p)
    measure = make_measure(n, alpha)
    worst = {}
    for cid, f in default_family(phi, measure, 0):
        got = luxemburg_norm(f, phi, rule_for_function(f, measure, phi)).lambda_star
        want = _oracle_norm(f, p, alpha)
        worst[cid] = abs(got - want) / want
    assert max(worst.values()) <= REL_TOL, max(worst.items(), key=lambda kv: kv[1])
