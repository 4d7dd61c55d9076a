"""Luxembourg norms of the default family against orthogonality oracles.

Monomials are orthogonal in L^2(nu_alpha) on the unit ball of C^n, with

    int |z^m|^2 d nu_alpha = m! Gamma(n+1+alpha) / Gamma(n+1+|m|+alpha)

(Zhu, Spaces of Holomorphic Functions in the Unit Ball, Lemma 1.11).  So
under t^2 the norm of f = sum c_m z^m is (sum |c_m|^2 ||z^m||_2^2)^(1/2), and
under t^4 it is ||f f||_2^(1/2), with f f from Series.times.  Both oracles read
coefficients only, while luxemburg_norm sums Phi over quadrature nodes through
Series evaluation, the rule and the bisection; the tolerance is the
bisection's stopping width of 1e-10 relative, with room for rounding.

The reports of the seven default suites under t^2 at alpha 0 and 1 are
also read whole by perfbench/oracle.py's compare(), which holds the monomial
modulars, norms and small-type ratios against Gamma-function moments, the
kernel norms and the truncated Cesaro images against 2F1 and finite sums,
and the stock symbols' Bloch seminorms against their closed form.

Report quantities that have no oracle in Tier-1 yet:

* derivative_equivalence: the modulars of the random polynomials and the
  truncated kernels, and so C_plus and C_minus;
* pointwise_estimates: the pointwise constants, maxima over probe points;
* cesaro_boundedness: the Bloch seminorm of a symbol that is not stock, the
  upper modulars and the lower bounds;
* cesaro_compactness at growth other than t^2, and its profile;
* small_type: the ratios of the random polynomials and truncated kernels.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from bergman_orlicz import cli
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


_ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"

# The worst relative error compare() may find in each suite's report.  The
# kernel test functions carry the 2% quadrature error of their rule.
_REPORT_BOUNDS = {
    "derivative_equivalence": 1e-12,
    "cesaro_compactness": 1e-9,
    "interpolation_power": 1e-5,
    "small_type": 1e-3,
    "cesaro_boundedness": 1e-12,
    "test_functions": 3e-2,
}


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", _ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_default_reports_match_the_perfbench_oracle(capsys, tmp_path, alpha):
    config = json.dumps({"growth": "power:p=2", "alpha": alpha})
    assert cli.main(["verify", "--config", config, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    compare = _oracle().compare
    worst = {}
    for suite in cli.SUITES:
        rows = compare(suite, json.loads((tmp_path / f"{suite}.json").read_text()))
        if suite in _REPORT_BOUNDS:
            assert rows, f"{suite}: no quantity compared"
            worst[suite] = max(rows, key=lambda row: row[3])
    over = {s: row for s, row in worst.items() if row[3] > _REPORT_BOUNDS[s]}
    assert not over, over
