"""Command-line behavior: output documents, exit codes, determinism."""

import json
import math

import pytest

from bergman_orlicz import cli

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
])
def test_malformed_config_value_is_data_error(capsys, config, key):
    code, out, err = run(capsys, ["verify", "--config", config])
    assert code == 65
    assert out == ""
    assert key in err


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
