"""The benchmark's workloads: what one pass runs, built from a seed.

A pass is a fixed list of operations.  An operation is one suite of one
growth/weight combination (n = 1 workloads, through `cli.main`) or one call
into the public harness and norm API (the n = 2 workload).  Each operation
writes its report as canonical JSON into its own file, so passes, processes
and thread counts can be compared byte for byte.

Why these workloads:

* verify-n1-stock is the default CLI traffic on the four combinations the
  Cesaro calibration in `brackets.py` was taken on; the Luxembourg solve and
  growth-function calls dominate it.
* verify-n1-orlicz uses growth functions without a closed-form inverse, so
  the bisection inverse behind every Phi call dominates.  The interpolated
  growth leaves out pointwise_estimates, test_functions and
  cesaro_boundedness only because they take 30 s, 271 s and 16 s per pass;
  they run the same code on more nodes.
* verify-n2-poly is bound by rule construction, node evaluation and memory;
  the growth inverse is negligible there.

BENCHMARK.json lists verify-n1-stock and verify-n2-poly only: timed runs
pair every operation with the reference copy, which doubles their length,
and the three workloads together no longer fit the benchmark's total time.
verify-n1-orlicz still runs from the command line.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "bergman_orlicz"
# A frozen copy of the package as of the benchmark's first commit; timed runs
# pair every operation with the same operation on this copy (see run.py).
REFERENCE = "bergman_orlicz_seed"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SUITES = (
    "derivative_equivalence",
    "pointwise_estimates",
    "test_functions",
    "cesaro_boundedness",
    "cesaro_compactness",
    "interpolation_power",
    "small_type",
)

INTERP = "interp:phi0=power:p=2,phi1=power:p=4,rho=power:theta=0.5"
INTERP_SUITES = ("derivative_equivalence", "cesaro_compactness", "small_type",
                 "interpolation_power")

# (growth id, alpha, suites) per workload; all at n = 1.
CLI_COMBOS = {
    "verify-n1-stock": [
        ("power:p=2", 0.0, SUITES),
        ("power:p=2", 1.0, SUITES),
        ("power:p=1/2", 0.0, SUITES),
        ("power:p=1/2", 1.0, SUITES),
    ],
    "verify-n1-orlicz": [
        ("powerlog:p=2,a=1", 0.0, SUITES),
        ("powerinvlog:p=2", 0.0, SUITES),
        (INTERP, 0.0, INTERP_SUITES),
    ],
}
WORKLOADS = ("verify-n1-stock", "verify-n1-orlicz", "verify-n2-poly")

N2_SUITES = ("derivative_equivalence", "small_type", "cesaro_boundedness")
N2_NORM = "luxemburg_norm"
N2_NORM_RADIUS = 0.5
N2_MONOMIAL_MAX = 6
N2_RANDOM_COUNT = 2
N2_RANDOM_DEGREE = 6

# Exit codes of `bol verify` that carry a verdict; 64 and 65 are refusals.
_VERDICT_CODES = {0: "pass", 1: "fail", 2: "inconclusive"}


def import_package(name: str = PACKAGE):
    where = SRC if name == PACKAGE else REFERENCE_DIR
    if str(where) not in sys.path:
        sys.path.insert(0, str(where))
    importlib.import_module(f"{name}.cli")  # the package imports every other module
    return sys.modules[name]


def _slug(growth: str, alpha: float) -> str:
    keep = "".join(c if c.isalnum() else "_" for c in growth)
    return f"{keep}__alpha{alpha:g}"


@dataclass
class Operation:
    """One timed unit of work.

    run(out_dir, jobs) returns (status, verdict, report path); status is "ok"
    when a verdict was reached and "refused" for exit codes 64 and 65.
    """

    op_id: str
    group: str
    run: Callable


def cli_operation(config: dict, suite: str, op_id: str, sub: str = "",
                  package: str = PACKAGE) -> Operation:
    """`bol verify --config CONFIG --suite SUITE --out DIR --jobs J`."""
    cli = import_package(package).cli
    text = json.dumps(config)

    def run(out_dir: Path, jobs: int):
        target = out_dir / sub
        argv = ["verify", "--config", text, "--suite", suite,
                "--out", str(target), "--jobs", str(jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code in _VERDICT_CODES:
            return "ok", _VERDICT_CODES[code], target / f"{suite}.json"
        return "refused", None, None

    return Operation(op_id, suite, run)


def n2_family(seed: int, package: str = PACKAGE):
    """Monomials z1^k (k <= 6) plus seeded random polynomials of degree <= 6."""
    import numpy as np

    Series = import_package(package).holo.Series

    fam = [(f"monomial:k={k}", Series(2, {(k, 0): 1.0}))
           for k in range(1, N2_MONOMIAL_MAX + 1)]
    rng = np.random.default_rng(seed)
    for i in range(N2_RANDOM_COUNT):
        terms = {}
        lead = int(rng.integers(1, N2_RANDOM_DEGREE + 1))
        terms[(lead, 0)] = complex(*rng.normal(size=2))
        for _ in range(5):
            m = tuple(int(v) for v in rng.integers(0, N2_RANDOM_DEGREE + 1, size=2))
            if sum(m) <= N2_RANDOM_DEGREE:
                terms[m] = terms.get(m, 0.0) + complex(*rng.normal(size=2))
        fam.append((f"random:i={i}", Series(2, terms)))
    return fam


def _n2_operations(seed: int, package: str):
    import numpy as np

    pkg = import_package(package)
    cli, harness, holo, norms = pkg.cli, pkg.harness, pkg.holo, pkg.norms
    phi = pkg.growth.resolve_growth("power:p=2")
    measure = pkg.measure.make_measure(2, 0.0)
    family = n2_family(seed, package)
    kernel = holo.test_function(phi, np.array([N2_NORM_RADIUS, 0.0]), 0.0)

    def write(out_dir: Path, name: str, doc: dict) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{name}.json"
        path.write_text(cli.canonical_json(doc))
        return path

    # Harness functions are looked up at call time so tracing wrappers apply.
    calls = {
        "derivative_equivalence": lambda jobs: harness.verify_derivative_equivalence(
            phi, 0.0, 2, family=family, seed=seed, jobs=jobs),
        "small_type": lambda jobs: harness.verify_small_type(
            0.7, 0.0, 2, family=family, seed=seed, jobs=jobs),
        "cesaro_boundedness": lambda jobs: harness.verify_cesaro_boundedness(
            phi, 0.0, 2, family=family, seed=seed, jobs=jobs),
    }

    def suite_op(name):
        def run(out_dir: Path, jobs: int):
            report = calls[name](jobs)
            return "ok", report.verdict, write(out_dir, name, report.to_json_dict())
        return Operation(f"n2|{name}", name, run)

    def norm(out_dir: Path, jobs: int):
        rule = norms.rule_for_function(kernel, measure, phi)
        res = norms.luxemburg_norm(kernel, phi, rule)
        doc = {"n": 2, "alpha": 0.0, "growth": phi.name, "radius": N2_NORM_RADIUS,
               "lambda_star": res.lambda_star, "residual": res.residual,
               "iterations": res.iterations, "rule": res.rule_id}
        return "ok", "computed", write(out_dir, N2_NORM, doc)

    ops = [suite_op(name) for name in N2_SUITES]
    ops.append(Operation(f"n2|{N2_NORM}", N2_NORM, norm))
    return ops


def prepare(workload: str, seed: int, package: str = PACKAGE):
    """Import the package and build every input of one pass.

    For the CLI workloads this resolves each growth function, builds each
    measure and the default family the suites will sweep, as a caller
    preparing that traffic would; the CLI then builds its own copies.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pkg = import_package(package)
    if workload == "verify-n2-poly":
        return _n2_operations(seed, package)
    ops = []
    for growth, alpha, suites in CLI_COMBOS[workload]:
        pkg.harness.default_family(pkg.growth.resolve_growth(growth),
                                   pkg.measure.make_measure(1, alpha), seed)
        config = {"growth": growth, "alpha": alpha, "seed": seed}
        ops.extend(cli_operation(config, suite, f"{growth}|alpha={alpha:g}|{suite}",
                                 _slug(growth, alpha), package) for suite in suites)
    return ops


def suites(workload: str) -> list[str]:
    """The suites a pass runs, each an operation group."""
    if workload == "verify-n2-poly":
        return list(N2_SUITES)
    seen = []
    for _, _, suites in CLI_COMBOS[workload]:
        seen.extend(s for s in suites if s not in seen)
    return [s for s in SUITES if s in seen]
