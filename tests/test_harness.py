"""Verification suites: verdict logic, determinism, scaling invariance."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bergman_orlicz
from bergman_orlicz import harness
from bergman_orlicz.cli import canonical_json
from bergman_orlicz.growth import power_growth
from bergman_orlicz.harness import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    _drift_verdict,
    default_family,
    default_symbols,
    verify_cesaro_boundedness,
    verify_cesaro_compactness,
    verify_derivative_equivalence,
    verify_interpolation_power,
    verify_pointwise_estimates,
    verify_small_type,
    verify_test_functions,
)
from bergman_orlicz.holo import Series, chain_inequality_check
from bergman_orlicz.measure import make_measure
from bergman_orlicz.norms import rule_for_function

PHI2 = power_growth(2)


def as_canonical(report):
    return json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":"))


def test_default_family_composition():
    fam = default_family(PHI2, make_measure(1, 0.0), seed=0)
    ids = [cid for cid, _ in fam]
    assert len(ids) == len(set(ids)) == 20
    assert sum(cid.startswith("monomial:") for cid in ids) == 8
    assert sum(cid.startswith("random:") for cid in ids) == 10
    assert sum(cid.startswith("testfn:") for cid in ids) == 2
    for cid, f in fam:
        assert isinstance(f, Series)
        assert any(sum(m) > 0 for m in f.terms), cid


def test_default_family_is_seed_deterministic():
    measure = make_measure(2, 1.0)
    a = default_family(PHI2, measure, seed=9)
    b = default_family(PHI2, measure, seed=9)
    c = default_family(PHI2, measure, seed=10)
    assert all(x.terms == y.terms for (_, x), (_, y) in zip(a, b))
    assert any(x.terms != y.terms for (_, x), (_, y) in zip(a, c))


def test_default_symbols_shape():
    syms = default_symbols(1)
    assert [sid for sid, _ in syms] == ["g=z1", "g=z1^2", "g=z1+z1^2"]
    assert all(complex(g.eval(0.0 + 0.0j)) == 0.0 for _, g in syms)


def test_drift_verdict_thresholds():
    assert _drift_verdict([0.05], [1.0]) == PASS
    assert _drift_verdict([0.2], [1.0]) == INCONCLUSIVE
    assert _drift_verdict([0.6], [1.0]) == FAIL
    assert _drift_verdict([0.0], [float("inf")]) == FAIL
    assert _drift_verdict([], [1.0]) == PASS


def test_derivative_equivalence_passes_and_reports():
    rep = verify_derivative_equivalence(PHI2, 0.0, seed=1)
    assert rep.verdict == PASS
    measure = make_measure(1, 0.0)
    for cid, f in default_family(PHI2, measure, 1):
        assert chain_inequality_check(f, rule_for_function(f, measure, PHI2).points).ok, cid
    assert rep.empirical_constants["C_plus"] > 0
    assert rep.empirical_constants["C_minus"] > 0
    assert len(rep.cases) == 20


def test_pointwise_estimates_pass():
    rep = verify_pointwise_estimates(PHI2, 1.0, seed=1)
    assert rep.verdict == PASS
    assert math.isfinite(rep.empirical_constants["C_value"])


def test_test_function_suite_passes_then_fails_on_tight_bracket(monkeypatch):
    good = verify_test_functions(PHI2, 0.0, seed=0)
    assert good.verdict == PASS
    assert good.empirical_constants["tail_slope"] <= 0.05
    monkeypatch.setattr(harness, "_TEST_FUNCTION_BRACKET", 1.0)
    tight = verify_test_functions(PHI2, 0.0, seed=0)
    assert tight.verdict == FAIL


def test_boundedness_suite_passes_stock_symbols():
    rep = verify_cesaro_boundedness(PHI2, 0.0, seed=0)
    assert rep.verdict == PASS
    assert rep.empirical_constants["lower_over_m_min"] >= 0.5
    assert rep.empirical_constants["worst_upper_modular"] <= 1.0 + 1e-6


def test_boundedness_respects_custom_floor(monkeypatch):
    monkeypatch.setattr(harness, "CESARO_LOWER_OVER_M_MIN", 50.0)
    rep = verify_cesaro_boundedness(PHI2, 0.0, seed=0)
    assert rep.verdict == FAIL


def test_compactness_suite_decays():
    rep = verify_cesaro_compactness(PHI2, 0.0, seed=0)
    assert rep.verdict == PASS
    assert rep.empirical_constants["final_over_max"] < 0.1
    norms = [c["quantities"]["transformed_norm"] for c in rep.cases]
    peak = int(rep.empirical_constants["peak_index"])
    assert all(norms[j + 1] <= norms[j] * 1.02 for j in range(peak, len(norms) - 1))


def test_interpolation_suite():
    rep = verify_interpolation_power(2.0, 4.0, 0.5)
    assert rep.verdict == PASS
    assert rep.empirical_constants["two_sided_constant"] <= 1.01
    assert rep.empirical_constants["p_theta"] == pytest.approx(8.0 / 3.0)


def test_small_type_suite():
    rep = verify_small_type(0.7, 0.0, seed=2)
    assert rep.verdict == PASS
    assert rep.empirical_constants["C_drift"] <= 0.10


def _n2_family():
    """A z1-slice, a z2-slice, an affine Series on a tilted line and a seeded
    two-variable quartic, which gets the lifted rule."""
    rng = np.random.default_rng(11)
    quartic = {m: complex(*rng.normal(size=2)) for m in ((4, 0), (1, 2), (0, 3), (2, 2), (0, 1))}
    return [("z1^3", Series(2, {(3, 0): 1.0})), ("z2^2", Series(2, {(0, 2): 1.0})),
            ("affine", Series(2, {(1, 0): 0.6, (0, 1): 0.8j})), ("quartic", Series(2, quartic))]


# sha256 of the canonical n = 2 reports on _n2_family.  Like the n = 1
# digests in test_cli, a change that moves these bytes re-pins them and says
# so in CHANGES.md.  The lifted rule's node values pass through one BLAS
# zgemm per block (holo.on_rule), and OpenBLAS picks its kernel by CPU type,
# so these digests hold for one BLAS build and CPU type; on another, the
# last bits may move and the digests need re-pinning.
_N2_SUITE_SHA256 = {
    "derivative_equivalence": "3e1bab2aa4fc9c0a3cf8ebd8ed73efc819ca731f75dd039cfec0b7d5b4ccaea9",
    "small_type": "57ec9dc5755c52ee92772e7babcd804a4e1cdba9388fd212e95ceda97122f710",
}


@pytest.mark.parametrize("suite", sorted(_N2_SUITE_SHA256))
def test_n2_reports_keep_their_bytes(suite):
    if suite == "derivative_equivalence":
        report = verify_derivative_equivalence(PHI2, 0.0, 2, family=_n2_family(), seed=3)
    else:
        report = verify_small_type(0.7, 0.0, 2, family=_n2_family(), seed=3)
    digest = hashlib.sha256(canonical_json(report.to_json_dict()).encode()).hexdigest()
    assert digest == _N2_SUITE_SHA256[suite]


def test_rerun_is_byte_identical():
    a = as_canonical(verify_small_type(0.7, 1.0, seed=6))
    b = as_canonical(verify_small_type(0.7, 1.0, seed=6))
    assert a == b


def test_boundedness_ratio_is_family_scale_invariant():
    measure = make_measure(1, 0.0)
    fam = default_family(PHI2, measure, seed=3)
    scaled = [(cid, f.scaled(7.0)) for cid, f in fam]
    r1 = verify_cesaro_boundedness(PHI2, 0.0, family=fam, seed=3)
    r2 = verify_cesaro_boundedness(PHI2, 0.0, family=scaled, seed=3)
    a = r1.empirical_constants["lower_over_m_min"]
    b = r2.empirical_constants["lower_over_m_min"]
    assert b == pytest.approx(a, rel=1e-8)


def test_equivalence_constants_scale_invariant_for_powers():
    measure = make_measure(1, 0.0)
    fam = default_family(PHI2, measure, seed=5)
    scaled = [(cid, f.scaled(0.2)) for cid, f in fam]
    r1 = verify_derivative_equivalence(PHI2, 0.0, family=fam, seed=5)
    r2 = verify_derivative_equivalence(PHI2, 0.0, family=scaled, seed=5)
    for key in ("C_plus", "C_minus"):
        assert r2.empirical_constants[key] == pytest.approx(
            r1.empirical_constants[key], rel=1e-8)


# Two passes of the n = 2 derivative suite on the default family; prints the
# minor page faults of the second.
_FAULTS_CHILD = """
import resource
from bergman_orlicz.growth import power_growth
from bergman_orlicz.harness import verify_derivative_equivalence
verify_derivative_equivalence(power_growth(2), 0.0, 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
verify_derivative_equivalence(power_growth(2), 0.0, 2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's heap and ru_minflt")
def test_a_warm_n2_derivative_pass_faults_few_pages():
    # Each leaf of the walk writes its temporaries into scratch kept across
    # leaves.  Allocated afresh, they were handed back to the OS after each
    # leaf and faulted back in: about 570,000 minor faults per warm pass.
    src = str(Path(bergman_orlicz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _FAULTS_CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 5_000
