"""Command-line behavior: output documents, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bergman_orlicz
from bergman_orlicz import cli, operators

Z = '{"kind":"series","n":1,"terms":[[[1],1.0,0.0]]}'
ONE = '{"kind":"series","n":1,"terms":[[[0],1.0,0.0]]}'
ZERO = '{"kind":"series","n":1,"terms":[]}'
ZSQ = '{"kind":"series","n":1,"terms":[[[2],1.0,0.0]]}'


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_norm_of_unit_constant(capsys):
    code, out, _ = run(capsys, ["norm", "--function", ONE, "--growth", "power:p=2"])
    assert code == 0
    doc = last_json(out)
    assert doc["schema"] == "bol-report/1"
    assert doc["lambda_star"] == pytest.approx(1.0, abs=1e-9)


def test_norm_of_coordinate(capsys):
    code, out, _ = run(capsys, ["norm", "--function", Z])
    assert code == 0
    assert last_json(out)["lambda_star"] == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_norm_of_zero(capsys):
    code, out, _ = run(capsys, ["norm", "--function", ZERO])
    assert code == 0
    assert last_json(out)["lambda_star"] == 0.0


def test_norm_of_a_tiny_constant_is_that_constant(capsys):
    # Under t^2 the norm of a constant c is c; the halving floor follows
    # max |f| below 1, where a fixed floor of 1e-280 read it as 0.
    tiny = '{"kind":"series","n":1,"terms":[[[0],1e-290,0]]}'
    code, out, _ = run(capsys, ["norm", "--function", tiny])
    assert code == 0
    assert last_json(out)["lambda_star"] == pytest.approx(1e-290, rel=1e-9, abs=0.0)


def test_norm_check_reports_drift(capsys):
    code, out, _ = run(capsys, ["norm", "--function", Z, "--check"])
    assert code == 0
    doc = last_json(out)
    assert doc["check"]["drift"] <= 1e-8


def test_cesaro_known_coefficients(capsys):
    code, out, _ = run(capsys, ["cesaro", "--symbol", ZSQ, "--function", Z])
    assert code == 0
    doc = last_json(out)
    assert doc["result"]["terms"] == [[[3], pytest.approx(2.0 / 3.0), 0.0]]


def test_cesaro_check_cross_validates(capsys):
    code, out, _ = run(capsys, ["cesaro", "--symbol", Z, "--function", ONE, "--check"])
    assert code == 0
    doc = last_json(out)
    assert doc["result"]["terms"] == [[[1], 1.0, 0.0]]
    assert doc["check"]["max_deviation"] <= 1e-10


_NON_FINITE_SPECS = {
    "series coefficient": ('{"kind":"series","n":1,"terms":[[[1],NaN,0]]}', "series"),
    "kernel exponent": ('{"kind":"kernel_power","center":[[0.5,0]],"exponent":Infinity}',
                        "kernel_power"),
    "kernel centre": ('{"kind":"kernel_power","center":[[NaN,0]],"exponent":2}',
                      "kernel_power"),
}


@pytest.mark.parametrize("where", sorted(_NON_FINITE_SPECS))
def test_cesaro_refuses_a_non_finite_spec_number(capsys, where):
    spec, kind = _NON_FINITE_SPECS[where]
    for argv in (["--symbol", Z, "--function", spec], ["--symbol", spec, "--function", Z]):
        code, out, err = run(capsys, ["cesaro", *argv])
        assert (code, out) == (65, "")
        assert f"malformed {kind!r} spec: non-finite number" in err


def test_verify_refuses_a_non_finite_symbol_number(capsys):
    symbol = json.loads(_NON_FINITE_SPECS["series coefficient"][0])
    cfg = json.dumps({"suites": ["cesaro_boundedness"], "symbols": [symbol]})
    code, out, err = run(capsys, ["verify", "--config", cfg])
    assert (code, out) == (65, "")
    assert "malformed 'series' spec: non-finite number nan" in err


# Series specs whose n or index entry is not an integer: int() read each of
# them as an integer (the index 2.9 ran as z^2, the n 1.9 as n = 1).
_NON_INTEGER_SERIES = {
    "index 2.9": ('{"kind":"series","n":1,"terms":[[[2.9],1,0]]}', "2.9"),
    "index 1.5": ('{"kind":"series","n":1,"terms":[[[1.5],1,0]]}', "1.5"),
    "index string": ('{"kind":"series","n":1,"terms":[["2",1,0]]}', "'2'"),
    "index true": ('{"kind":"series","n":1,"terms":[[[true],1,0]]}', "True"),
    "n 1.9": ('{"kind":"series","n":1.9,"terms":[[[1],1,0]]}', "1.9"),
    "n true": ('{"kind":"series","n":true,"terms":[[[1],1,0]]}', "True"),
    "n string": ('{"kind":"series","n":"1","terms":[[[1],1,0]]}', "'1'"),
}


@pytest.mark.parametrize("where", sorted(_NON_INTEGER_SERIES))
def test_series_specs_refuse_a_non_integer_n_or_index(capsys, where):
    spec, got = _NON_INTEGER_SERIES[where]
    cfg = json.dumps({"suites": ["cesaro_boundedness"], "symbols": [json.loads(spec)]})
    for argv in (["norm", "--function", spec],
                 ["cesaro", "--symbol", Z, "--function", spec],
                 ["cesaro", "--symbol", spec, "--function", Z],
                 ["verify", "--config", cfg]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (65, ""), argv
        assert f"expected an integer, got {got}" in err


# Spec numbers that float() read: the term ran as (1 + i) z and the exponent
# as 2.  A bare string scale was refused already, as no [re, im] pair.
_NON_NUMBER_SPECS = {
    "term true": ('{"kind":"series","n":1,"terms":[[[1],1,true]]}',
                  "expected a number, got True"),
    "exponent string": ('{"kind":"kernel_power","center":[[0.5,0]],"exponent":"2"}',
                        "expected a number, got '2'"),
    "scale string": ('{"kind":"kernel_power","center":[[0.5,0]],"exponent":2,"scale":"3"}',
                     "expected number or [re, im] pair, got '3'"),
}


@pytest.mark.parametrize("where", sorted(_NON_NUMBER_SPECS))
def test_function_specs_refuse_a_bool_or_string_number(capsys, where):
    spec, message = _NON_NUMBER_SPECS[where]
    code, out, err = run(capsys, ["norm", "--function", spec])
    assert (code, out) == (65, "")
    assert message in err


def test_series_specs_read_an_integral_float_as_its_integer(capsys):
    spec = '{"kind":"series","n":1.0,"terms":[[[2.0],1,0]]}'
    assert run(capsys, ["norm", "--function", spec]) == run(capsys, ["norm", "--function", ZSQ])


def test_cesaro_refuses_an_overflowing_coefficient(capsys):
    # 1e308 z is finite, but T_g f = 1e616 z^2 / 2 for g = f = 1e308 z is not.
    big = '{"kind":"series","n":1,"terms":[[[1],1e308,0]]}'
    code, out, err = run(capsys, ["cesaro", "--symbol", big, "--function", big])
    assert (code, out) == (65, "")
    assert "overflows the float range" in err


def test_cesaro_rejects_constant_term(capsys):
    bad = '{"kind":"series","n":1,"terms":[[[0],1.0,0.0],[[1],1.0,0.0]]}'
    code, _, err = run(capsys, ["cesaro", "--symbol", bad, "--function", Z])
    assert code == 65
    assert "vanish" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--suite", "spectral_gap"])
    assert code == 64
    assert "unknown suite" in err


def test_malformed_function_is_data_error(capsys):
    code, _, err = run(capsys, ["norm", "--function", '{"kind":"series"'])
    assert code == 65


def test_bad_config_schema_is_data_error(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schema": "bol-config/999", "n": 1}')
    code, _, err = run(capsys, ["verify", "--config", str(cfg), "--suite", "small_type"])
    assert code == 65
    assert "schema" in err


def test_unknown_config_key_is_data_error(capsys):
    # `jobs` is a command-line flag only; a config that sets it is refused.
    for key, config in (("batch_size", '{"batch_size": 4}'), ("jobs", '{"jobs": 2}')):
        code, _, err = run(capsys, ["verify", "--config", config])
        assert code == 65
        assert key in err


@pytest.mark.parametrize("config, key", [
    ('{"interpolation":{"p0":2}}', "interpolation"),
    ('{"n":"x"}', "'n'"),
    ('{"suites":"small_type"}', "suites"),
    ('{"suites":["smal_type"]}', "smal_type"),
    ('{"tolerances":{"cesaro_uper":0.5}}', "cesaro_uper"),
    # A negative degree ran with exit 0 at n = 1 and exited 65 naming no key
    # at n = 2; a negative tolerance made the upper check a certain fail.
    ('{"degree":-5}', "'degree' must be a non-negative integer"),
    ('{"n":2,"degree":-5}', "'degree' must be a non-negative integer"),
    ('{"tolerances":{"cesaro_upper":-1}}', "'tolerances' must be an object of non-negative"),
])
def test_malformed_config_value_is_data_error(capsys, config, key):
    code, out, err = run(capsys, ["verify", "--config", config])
    assert code == 65
    assert out == ""
    assert key in err


@pytest.mark.parametrize("config, key", [
    ('{"alpha": Infinity}', "'alpha'"),
    ('{"small_type_p": NaN}', "'small_type_p'"),
    ('{"tolerances": {"cesaro_upper": NaN}}', "'tolerances'"),
    ('{"interpolation": {"p0": 2, "p1": Infinity, "theta": 0.5}}', "'interpolation'"),
    ('{"n": 1.5}', "'n'"),
    ('{"n": true}', "'n'"),
    ('{"seed": 2.7}', "'seed'"),
    ('{"degree": 1.9}', "'degree'"),
])
def test_non_finite_or_non_integral_config_value_is_data_error(capsys, config, key):
    code, out, err = run(capsys, ["verify", "--config", config, "--suite",
                                  "interpolation_power"])
    assert code == 65
    assert out == ""
    assert key in err


def test_negative_truncation_is_usage_error(capsys):
    # It printed T_g f = 0 (an empty series) with exit 0.
    kernel = '{"kind":"kernel_power","center":[[0.5,0]],"exponent":2}'
    code, out, err = run(capsys, ["cesaro", "--symbol", Z, "--function", kernel,
                                  "--truncation", "-1"])
    assert (code, out) == (64, "")
    assert "--truncation" in err


@pytest.mark.parametrize("n, cap", [(1, 2144), (2, 64)])
def test_truncation_above_the_cap_is_data_error(capsys, monkeypatch, n, cap):
    # Uncapped, a kernel at degree 100,000 did not end in 100 s at n = 1, and
    # at 1,000 took 28 s at n = 2.  Past the cap nothing is expanded; at it,
    # the kernel is.
    expanded = []
    real_to_series = operators.to_series
    monkeypatch.setattr(operators, "to_series",
                        lambda *a: expanded.append(a[1]) or real_to_series(*a))
    kernel = json.dumps({"kind": "kernel_power", "center": [[0.5, 0]] + [[0, 0]] * (n - 1),
                         "exponent": 2})
    z1 = json.dumps({"kind": "series", "n": n, "terms": [[[1] + [0] * (n - 1), 1, 0]]})
    argv = ["cesaro", "--symbol", z1, "--function", kernel, "--truncation"]
    code, out, err = run(capsys, [*argv, str(cap + 1)])
    assert (code, out, expanded) == (65, "", [])
    assert f"--truncation {cap + 1} would expand to more than 2145 terms at n={n}" in err
    assert run(capsys, [*argv, str(cap)])[0] == 0
    assert expanded == [cap]


@pytest.mark.parametrize("jobs", ["0", "-3", "1.5"])
def test_jobs_below_one_is_usage_error(capsys, jobs):
    code, out, err = run(capsys, ["verify", "--suite", "interpolation_power", "--jobs", jobs])
    assert (code, out) == (64, "")
    assert "--jobs" in err


def test_negative_config_seed_is_data_error(capsys):
    # numpy's generators refuse a negative seed; the config reader names it.
    code, out, err = run(capsys, ["verify", "--config", '{"seed": -1}', "--suite",
                                  "interpolation_power"])
    assert code == 65
    assert out == ""
    assert "'seed' must be a non-negative integer" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--seed", "-3", "--suite", "interpolation_power"], id="verify"),
    pytest.param(["cesaro", "--symbol", Z, "--function", Z, "--check", "--seed", "-1"],
                 id="cesaro"),
])
def test_negative_seed_flag_is_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 64
    assert out == ""
    assert "--seed" in err


def test_negative_norm_degree_is_usage_error(capsys):
    code, out, err = run(capsys, ["norm", "--function", Z, "--degree", "-5"])
    assert (code, out) == (64, "")
    assert "--degree" in err


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", ["1e300", "1e5"])
def test_an_alpha_past_the_rules_is_data_error(capsys, n, alpha):
    # At 1e300 the Gauss-Jacobi rule's Jacobi matrix is not finite; it exited 70.
    f = Z if n == 1 else '{"kind":"series","n":2,"terms":[[[1,0],1.0,0.0]]}'
    code, out, err = run(capsys, ["norm", "--n", str(n), "--alpha", alpha, "--function", f])
    assert (code, out) == (65, "")
    assert "alpha=" in err
    code, out, err = run(capsys, ["verify", "--config", json.dumps({"n": n, "alpha": float(alpha)})])
    assert (code, out) == (65, "")
    assert "alpha=" in err


@pytest.mark.parametrize("config, suite", [
    pytest.param({"alpha": 1e300}, "interpolation_power", id="alpha=1e300"),
    pytest.param({"n": 2, "alpha": 1e300}, "interpolation_power", id="n=2,alpha=1e300"),
    pytest.param({"alpha": 1100}, "interpolation_power", id="alpha=1100"),
    pytest.param({"alpha": -0.9999999999}, "cesaro_compactness", id="alpha=-0.9999999999"),
    pytest.param({"alpha": -0.9999999999999999}, "cesaro_compactness", id="alpha=-1+ulp"),
    pytest.param({"degree": -5}, "derivative_equivalence", id="degree=-5"),
    pytest.param({"degree": 0}, "derivative_equivalence", id="degree=0"),
    pytest.param({"seed": 2**64}, "cesaro_compactness", id="seed=2^64"),
    pytest.param({"tolerances": {"cesaro_upper": -1}}, "cesaro_boundedness",
                 id="cesaro_upper=-1"),
])
def test_boundary_configs_end_in_a_verdict_or_a_refusal(capsys, config, suite):
    # One fast suite per config: each ends in a verdict or exit 65, never 70.
    code, _, err = run(capsys, ["verify", "--config", json.dumps(config), "--suite", suite])
    assert code in (0, 1, 2, 65), err


@pytest.mark.parametrize("config, digest", [
    ('{}', "f77982744211bbb9"),
    ('{"n": 2.0, "seed": 3.0, "degree": 16}', "ad28fb632b1c516c"),
    ('{"n": 2, "seed": 3, "degree": 16}', "ad28fb632b1c516c"),
    ('{"alpha": 1, "small_type_p": 0.5}', "972d1024c3eb4a3c"),
    ('{"interpolation": {"p0": 2, "p1": 4.0, "theta": 0.5},'
     ' "tolerances": {"cesaro_upper": 1e-5}}', "bc88dd7af1b5065a"),
    ('{"n": "2", "alpha": "1.5", "growth": "power:p=1/2", "suites": ["small_type"],'
     ' "symbols": null}', "0006132c1421a12a"),
])
def test_config_hash_is_pinned(config, digest):
    # The digests are those of the config as read before each value was
    # checked and converted in one step; an accepted config keeps its hash.
    args = cli._build_parser().parse_args(["verify", "--config", config])
    cfg = cli._effective_config(args)
    assert hashlib.sha256(cli.canonical_json(cfg).encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_norm_refuses_a_non_finite_alpha(capsys, alpha):
    code, out, err = run(capsys, ["norm", "--function", Z, "--alpha", alpha])
    assert code == 65
    assert out == ""
    assert "alpha" in err


@pytest.mark.parametrize("growth", ["power:p=1/0", "power:p=inf", "powerlog:p=2,a=inf"])
def test_malformed_growth_id_is_data_error(capsys, growth):
    code, out, err = run(capsys, ["norm", "--function", Z, "--growth", growth])
    assert code == 65
    assert out == ""
    assert "number" in err


def test_verify_has_no_refine_flag(capsys):
    code, _, err = run(capsys, ["verify", "--refine"])
    assert code == 64
    assert "--refine" in err


# sha256 of the report `bol verify --suite NAME` writes under the default
# config (power:p=2, alpha 0, n 1, seed 0).  A change that moves a report's
# digits on purpose updates its digest here and says so in CHANGES.md.
_REPORT_SHA256 = {
    "cesaro_boundedness": "6910cc3a59367490ba52371ab41a0523930921ba419db2b8449e92ab34350551",
    "cesaro_compactness": "93101101a245c2f618330078ab35be599959644d1ce3e76177e58c66eebe650f",
    "derivative_equivalence": "efac33506844527640a3bbf7b3a4f10a92222e5d61f29b7973c3837b6c2226fe",
    "interpolation_power": "6239072b4a595f99d8b370f3f15d50298e24578af2993347be9f2fadab0831b9",
    "pointwise_estimates": "d8833dc270a815aa787ce717ff0c486b68b2c9a03fe9a19591453ea351c4a9f4",
    "small_type": "e4055f67cdde23d071673b0844af146a67625bc3fecbf4f72b124f66af9a8d53",
    "test_functions": "9b00ae946b7a1986398f0a0577707ed96d81721bf65c99b7ebc6b110b9956102",
}

# At n = 2 both suites run on slice rules, kernel ones among them.
_N2_REPORT_SHA256 = {
    "cesaro_compactness": "9924a6536904ee7507c270f180defa4d78c478ec94e7daf2bbeebb4b169ce73e",
    "interpolation_power": "0481a5d0a42d9519039a27883ad94629c19139a02df737e07150a5202ec1a00b",
}


def _report_digest(capsys, tmp_path, suite, *config):
    assert cli.main(["verify", *config, "--suite", suite, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    return hashlib.sha256((tmp_path / f"{suite}.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("suite", sorted(_REPORT_SHA256))
def test_default_reports_keep_their_bytes(capsys, tmp_path, suite):
    digest = _report_digest(capsys, tmp_path, suite)
    assert digest == _REPORT_SHA256[suite]


@pytest.mark.parametrize("suite", sorted(_N2_REPORT_SHA256))
def test_default_n2_reports_keep_their_bytes(capsys, tmp_path, suite):
    digest = _report_digest(capsys, tmp_path, suite, "--config", '{"n":2}')
    assert digest == _N2_REPORT_SHA256[suite]


@pytest.mark.parametrize("n", [3, 9])
def test_out_of_range_dimension_is_data_error(capsys, n):
    code, _, err = run(capsys, ["verify", "--config", json.dumps({"n": n})])
    assert code == 65
    assert "[1, 2]" in err


def test_n2_verify_runs_on_slice_rules(capsys, tmp_path):
    # Both suites integrate z1-slices of degree up to 49 only; on the 4-D
    # product rule their power tables alone needed about 6 GB.
    code, out, _ = run(capsys, ["verify", "--config", '{"n":2}', "--out", str(tmp_path),
                                "--suite", "cesaro_compactness,interpolation_power"])
    assert code == 0
    assert out.split() == ["cesaro_compactness:", "pass", "interpolation_power:", "pass"]
    doc = json.loads((tmp_path / "cesaro_compactness.json").read_text())
    assert doc["config"]["n"] == 2


def test_zero_symbol_rejected_by_boundedness(capsys):
    cfg = json.dumps({"symbols": [json.loads(ZERO)], "suites": ["cesaro_boundedness"],
                      "growth": "power:p=2"})
    code, _, err = run(capsys, ["verify", "--config", cfg])
    assert code == 65
    assert "Bloch" in err


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("node array\nof 4.9 GB")

    monkeypatch.setattr(cli.harness, "verify_small_type", out_of_memory)
    code, out, err = run(capsys, ["verify", "--suite", "small_type"])
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err.splitlines() == ["internal error: MemoryError: node array of 4.9 GB"]


def test_verify_writes_reports_and_verdict_lines(capsys, tmp_path):
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, [
        "verify", "--suite", "small_type,interpolation_power",
        "--seed", "2", "--out", str(out_dir), "--csv",
    ])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines == ["small_type: pass", "interpolation_power: pass"]
    for name in ("small_type", "interpolation_power"):
        doc = json.loads((out_dir / f"{name}.json").read_text())
        assert doc["schema"] == "bol-report/1"
        assert doc["verdict"] == "pass"
        assert "config_hash" in doc
        assert (out_dir / f"{name}.cases.csv").exists()


def test_interp_with_rho_that_is_not_pseudo_concave_is_data_error(capsys):
    growth = "interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=1.7"
    code, out, err = run(capsys, [
        "verify", "--config", json.dumps({"growth": growth}),
        "--suite", "interpolation_power,small_type",
    ])
    assert code == cli.EXIT_DATA == 65
    assert out == ""
    assert "not pseudo-concave" in err


def test_reports_byte_identical_across_jobs(capsys, tmp_path):
    args = ["verify", "--suite", "derivative_equivalence", "--seed", "3"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(d1), "--jobs", "1"]) == 0
    assert cli.main(args + ["--out", str(d2), "--jobs", "4"]) == 0
    capsys.readouterr()
    f1 = (d1 / "derivative_equivalence.json").read_bytes()
    f2 = (d2 / "derivative_equivalence.json").read_bytes()
    assert f1 == f2


def test_emitted_report_reserializes_to_same_bytes(capsys, tmp_path):
    out_dir = tmp_path / "r"
    assert cli.main(["verify", "--suite", "interpolation_power",
                     "--out", str(out_dir)]) == 0
    capsys.readouterr()
    raw = (out_dir / "interpolation_power.json").read_text()
    assert cli.canonical_json(json.loads(raw)) == raw


def test_config_file_round_trip(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "schema": "bol-config/1",
        "growth": "power:p=1/2",
        "alpha": 1.0,
        "suites": ["test_functions"],
        "seed": 5,
    }))
    code, out, _ = run(capsys, ["verify", "--config", str(cfg)])
    assert code == 0
    assert out.splitlines()[0] == "test_functions: pass"


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, [])
    assert code == 64


# `bol` in a child under a 1.5 GiB address-space cap, set in the child
# alone, that prints its exit code and the peak RSS of its own address space
# (VmHWM): ru_maxrss also counts the pages of the forking test process,
# which exec folds into it.
_CAPPED_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))
from bergman_orlicz import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"exit": code, "maxrss_mb": peak / 1024}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_n2_test_functions_fit_in_400_mb(tmp_path):
    # Its |a| = 0.999 kernel norm runs on a 9.4M-node slice rule along e_1,
    # evaluated at the disc nodes: it peaked at 674 MB while the rule's
    # (N, 2) points were written, and at about 265 MB without them.
    src = str(Path(bergman_orlicz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["verify", "--config", '{"n":2}', "--suite", "test_functions",
            "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert result["maxrss_mb"] < 400


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_n2_two_centre_kernel_norm_fits_in_300_mb():
    # A kernel sum off e_1 gets the 9,335,601-node lift.  With the (N, 2)
    # points built and |f| taken over the whole rule it peaked at 784 MB;
    # leaf by leaf from the covering disc nodes it holds the weights and
    # the values, at about 210 MB.
    src = str(Path(bergman_orlicz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    spec = json.dumps({"kind": "sum", "parts": [
        {"kind": "kernel_power", "center": [[0.9, 0], [0, 0]], "exponent": 3},
        {"kind": "kernel_power", "center": [[0, 0], [0.9, 0]], "exponent": 3}]})
    done = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, "norm", "--n", "2",
                           "--function", spec], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert "nodes=9335601" in done.stdout
    assert result["maxrss_mb"] < 300


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("suite", ["derivative_equivalence", "small_type"])
def test_n2_streamed_suites_fit_in_110_mb(tmp_path, suite):
    # The two suites peaked at 118 and 114 MB while their sums held node-sized
    # arrays, and at 94 and 86 MB once streamed leaf by leaf.
    src = str(Path(bergman_orlicz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["verify", "--config", '{"n":2}', "--suite", suite, "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert result["maxrss_mb"] < 110


# `bol` in a child where any scipy import raises ImportError; it prints the
# exit code and the Bloch seminorm of z1 z2, which is no slice.
_SCIPY_BLOCKED_CHILD = """
import json, sys
sys.modules["scipy"] = None
from bergman_orlicz import Series, bloch_seminorm, cli
code = cli.main(sys.argv[1:])
print(json.dumps({"exit": code, "M": bloch_seminorm(Series(2, {(1, 1): 1.0})).M}))
"""


def test_n2_probes_run_with_scipy_blocked(tmp_path):
    # numpy is the one runtime dependency: the n = 2 probe directions of the
    # pointwise sweep and of the Bloch search import nothing else.
    src = str(Path(bergman_orlicz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["verify", "--config", '{"n":2}', "--suite", "pointwise_estimates",
            "--out", str(tmp_path)]
    done = subprocess.run([sys.executable, "-c", _SCIPY_BLOCKED_CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["exit"] == 0
    assert result["M"] == pytest.approx(0.25, rel=1e-12)
    assert json.loads((tmp_path / "pointwise_estimates.json").read_text())["verdict"] == "pass"
