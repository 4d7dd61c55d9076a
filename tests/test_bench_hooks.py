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

import pytest

from bergman_orlicz import cli, harness, holo, norms

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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
