"""The package still offers everything the benchmark calls and wraps.

perfbench/tracing.py replaces module functions and class methods by name, and
perfbench/workloads.py calls harness, norm and CLI entry points with fixed
arguments; a rename or a dropped parameter would crash every benchmark run,
so it fails here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from bergman_orlicz import cli, harness, holo, norms
from bergman_orlicz.measure import build_rule, make_measure

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
    # build_rule returns: an n = 1 kernel rule and an n = 2 slice rule here.
    rules = [build_rule(make_measure(1, 0.0), 12, angular_count=64),
             build_rule(make_measure(2, 0.0), 12, line=np.array([0.6, 0.8j]), t_count=3)]
    for rule in rules:
        assert _tracing()._rule((), {}, rule) == {
            "nodes": len(rule.weights),
            "bytes_computed": rule.points.nbytes + rule.weights.nbytes,
            "rule_id": rule.rule_id,
        }
    assert rules[0].rule_id.endswith(",refined,angles=64")
    assert rules[1].rule_id.startswith("slice:n=2,")
