"""The package still offers everything the benchmark calls and wraps.

perfbench/tracing.py replaces module functions and class methods by name, and
perfbench/workloads.py calls harness, norm and CLI entry points with fixed
arguments; a rename or a dropped parameter would crash every benchmark run,
so it fails here.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bergman_orlicz import cli, harness, holo, norms
from bergman_orlicz.measure import build_rule, make_measure

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = []
    for mod, fn, _, _ in tracing.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"bergman_orlicz.{mod}"), fn, None)):
            missing.append(f"{mod}.{fn}")
    for mod, cls, meth, _, _ in tracing.METHODS:
        # The tracer wraps cls.__dict__[meth]; an inherited method would not do.
        if meth not in vars(getattr(importlib.import_module(f"bergman_orlicz.{mod}"), cls)):
            missing.append(f"{mod}.{cls}.{meth}")
    assert not missing, f"traced names missing from the package: {missing}"


# The calls perfbench/workloads.py makes, with placeholder arguments: binding
# checks the parameter names and positions a benchmark run relies on.
_WORKLOAD_CALLS = {
    "verify_derivative_equivalence": (
        harness.verify_derivative_equivalence, ("phi", 0.0, 2),
        {"family": [], "seed": 0, "jobs": 1}),
    "verify_small_type": (
        harness.verify_small_type, (0.7, 0.0, 2), {"family": [], "seed": 0, "jobs": 1}),
    "verify_cesaro_boundedness": (
        harness.verify_cesaro_boundedness, ("phi", 0.0, 2),
        {"family": [], "seed": 0, "jobs": 1}),
    "default_family": (harness.default_family, ("phi", "measure", 0), {}),
    "rule_for_function": (norms.rule_for_function, ("f", "measure", "phi"), {}),
    "test_function": (holo.test_function, ("phi", "a", 0.0), {}),
    "cli_main": (cli.main, (["verify"],), {}),
}


@pytest.mark.parametrize("name", sorted(_WORKLOAD_CALLS))
def test_benchmark_calls_still_bind(name):
    fn, args, kwargs = _WORKLOAD_CALLS[name]
    inspect.signature(fn).bind(*args, **kwargs)


def test_verify_still_takes_jobs():
    argv = ["verify", "--config", '{"growth": "power:p=2"}', "--suite", "small_type",
            "--out", "reports", "--jobs", "2"]
    assert cli._build_parser().parse_args(argv).jobs == 2


def test_traced_rule_stats_read_every_kind_of_rule():
    # tracing._rule reads node_count, points, weights and rule_id of what
    # build_rule returns, so a QuadratureRule field that --trace 1 can no
    # longer read fails here: an n = 1 rule, an n = 1 kernel rule, an n = 2
    # lift and an n = 2 slice rule.
    rules = [build_rule(make_measure(1, 0.0), 12),
             build_rule(make_measure(1, 0.0), 12, angular_count=64),
             build_rule(make_measure(2, 0.0), 8),
             build_rule(make_measure(2, 0.0), 12, line=np.array([0.6, 0.8j]), t_count=3)]
    for rule in rules:
        assert _tracing()._rule((), {}, rule) == {
            "nodes": len(rule.weights),
            "bytes_computed": rule.points.nbytes + rule.weights.nbytes,
            "rule_id": rule.rule_id,
        }
    assert [r.rule_id.split(",")[0] for r in rules] == [
        "product:n=1", "product:n=1", "product:n=2", "slice:n=2"]
    assert rules[1].rule_id.endswith(",refined,angles=64")


# perfbench's count check, run as `run.py --trace 1` runs it: the traced pass
# of the pinned combination, its spans aggregated per name.  It runs in a
# child process because Tracer.install rebinds the package's functions.
_COUNT_CHECK = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, tracing, worker, workloads

tracer = tracing.Tracer()
tracer.install(workloads.import_package())
tracer.op = tracing.SETUP_OP
growth, alpha = worker.COUNT_CHECK_OPS
ops = [op for op in workloads.prepare("verify-n1-stock", worker.COUNT_CHECK_SEED)
       if op.op_id.startswith(f"{growth}|alpha={alpha:g}|")]
with tempfile.TemporaryDirectory() as tmp:
    worker.run_pass(ops, Path(tmp), 1, tracer)
    tracer.write(Path(tmp) / "spans.jsonl")
    spans = tracing.read(Path(tmp) / "spans.jsonl")
agg = tracing.aggregate(spans, {op.op_id for op in ops})
print(json.dumps({
    "got": {name: agg.get(name, {}).get("calls", 0) for name in run.COUNT_EXPECTED},
    "expected": run.COUNT_EXPECTED,
    "distinct": len(agg.get("measure.build_rule", {}).get("rule_ids", ())),
    "expected_distinct": run.COUNT_DISTINCT_RULES,
}))
"""


def test_perfbench_call_counts_hold():
    done = subprocess.run([sys.executable, "-c", _COUNT_CHECK, str(_PERFBENCH)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["got"] == result["expected"]
    assert result["distinct"] == result["expected_distinct"]
