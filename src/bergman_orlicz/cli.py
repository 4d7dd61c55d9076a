"""Command-line front end: norms, Cesaro coefficients, verification suites.

Three subcommands.  `norm` evaluates a Luxembourg norm for a function spec,
`cesaro` applies the averaging operator and prints exact coefficients,
`verify` runs the named suites and writes their reports.  All machine output
is canonical JSON (sorted keys, tight separators), so parsing a report and
re-serializing it reproduces the same bytes, and two runs with the same seed
and configuration produce identical documents across reruns and fresh
processes.  `verify --jobs` is accepted for compatibility and has no effect;
it goes with the benchmark's next revision.

Exit codes: 0 pass, 1 fail, 2 inconclusive, 64 usage, 65 data format
(including a quadrature rule above the node ceiling of measure.py), 70
internal error: any other exception, such as MemoryError, is reported on one
stderr line as `internal error: <Type>: <message>` so that it never reads as
a failing verdict.  At n = 2 a rule costs 40 bytes per node; the largest
one the node ceiling accepts (2^24 nodes) holds 0.67 GB.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import (
    DivergentNormError,
    FunctionSpecError,
    WorkbenchError,
)
from .growth import resolve_growth, shipped_growth_ids
from .holo import DEFAULT_TRUNCATION_DEGREE, function_from_spec, function_to_spec
from .measure import make_measure
from .norms import luxemburg_norm, rule_for_function
from .operators import CesaroSymbol, cesaro_apply_exact, cesaro_apply_numeric

__all__ = ["main", "canonical_json", "CONFIG_SCHEMA", "REPORT_SCHEMA"]

CONFIG_SCHEMA = "bol-config/1"
REPORT_SCHEMA = "bol-report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

def canonical_json(doc) -> str:
    """The one serialization used everywhere; reparse + redump is a fixpoint."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_json_arg(text: str):
    """Accept an inline JSON object or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    path = Path(text)
    if not path.exists():
        raise FunctionSpecError(f"no such file and not inline JSON: {text!r}")
    return json.loads(path.read_text())


def _write_or_print(doc: dict, out: str | None) -> None:
    rendered = canonical_json(doc)
    if out:
        Path(out).write_text(rendered)
    print(rendered)


# ---------------------------------------------------------------------------
# norm


def cmd_norm(args) -> int:
    phi = resolve_growth(args.growth)
    measure = make_measure(args.n, args.alpha)
    f = function_from_spec(_load_json_arg(args.function))
    if f.n != args.n:
        raise FunctionSpecError(f"function has n={f.n} but --n is {args.n}")
    refine = 1 if args.refine else 0
    rule = rule_for_function(f, measure, phi, base_degree=args.degree, refine=refine)
    res = luxemburg_norm(f, phi, rule)
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "norm",
        "growth": phi.name,
        "n": args.n,
        "alpha": args.alpha,
        "lambda_star": res.lambda_star,
        "residual": res.residual,
        "iterations": res.iterations,
        "rule": res.rule_id,
    }
    if args.check:
        rule2 = rule_for_function(f, measure, phi, base_degree=args.degree,
                                  refine=refine + 1)
        res2 = luxemburg_norm(f, phi, rule2)
        scale = max(res.lambda_star, res2.lambda_star, 1e-300)
        doc["check"] = {
            "lambda_star_refined": res2.lambda_star,
            "drift": abs(res.lambda_star - res2.lambda_star) / scale,
            "rule": res2.rule_id,
        }
    _write_or_print(doc, args.out)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# cesaro


# Most terms C(truncation + n, n) of bol cesaro's expansions: degree 2,144 at
# n = 1, 64 at n = 2.  Two kernel inputs at the cap took 2.9 s and 5-8 s.
_MAX_TRUNCATION_TERMS = 2145


def cmd_cesaro(args) -> int:
    g = function_from_spec(_load_json_arg(args.symbol))
    f = function_from_spec(_load_json_arg(args.function))
    if g.n != f.n:
        raise FunctionSpecError(f"symbol has n={g.n} but function has n={f.n}")
    if math.comb(args.truncation + f.n, f.n) > _MAX_TRUNCATION_TERMS:
        raise FunctionSpecError(f"--truncation {args.truncation} would expand to more than "
                                f"{_MAX_TRUNCATION_TERMS} terms at n={f.n}")
    symbol = CesaroSymbol(g)
    out_series = cesaro_apply_exact(symbol, f, args.truncation)
    if not all(map(cmath.isfinite, out_series.terms.values())):
        raise FunctionSpecError("a coefficient of the Cesaro image overflows the float range")
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "cesaro",
        "n": f.n,
        "truncation_degree": args.truncation,
        "result": function_to_spec(out_series),
    }
    code = EXIT_PASS
    if args.check:
        rng = np.random.default_rng(args.seed)
        count = 10
        radius = 0.5 / np.sqrt(f.n)
        w = rng.normal(size=(count, f.n, 2))
        pts = (w[..., 0] + 1j * w[..., 1])
        pts *= radius * rng.uniform(0.1, 1.0, size=(count, 1)) / np.maximum(
            np.abs(pts), 1e-12)
        exact_vals = out_series.eval(pts)
        numeric_vals = cesaro_apply_numeric(symbol, f, pts)
        dev = float(np.max(np.abs(exact_vals - numeric_vals)))
        tol = 1e-8
        doc["check"] = {"max_deviation": dev, "points": count, "tol": tol}
        if not dev <= tol:
            code = EXIT_FAIL
    _write_or_print(doc, args.out)
    if code != EXIT_PASS:
        print("cesaro check failed: exact and numeric paths disagree",
              file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# verify


def _config_symbols(cfg: dict):
    if cfg["symbols"] is None:
        return None
    return [(f"symbol:{i}", function_from_spec(doc))
            for i, doc in enumerate(cfg["symbols"])]


# Suite name -> runner(phi, cfg), in report order.  Each runner looks its
# harness function up at call time, so a wrapper installed on the harness
# module after import still sees the call.
SUITES = {
    "derivative_equivalence": lambda phi, c: harness.verify_derivative_equivalence(
        phi, c["alpha"], c["n"], seed=c["seed"], base_degree=c["degree"]),
    "pointwise_estimates": lambda phi, c: harness.verify_pointwise_estimates(
        phi, c["alpha"], c["n"], seed=c["seed"]),
    "test_functions": lambda phi, c: harness.verify_test_functions(
        phi, c["alpha"], c["n"], seed=c["seed"]),
    "cesaro_boundedness": lambda phi, c: harness.verify_cesaro_boundedness(
        phi, c["alpha"], c["n"], symbols=_config_symbols(c), seed=c["seed"],
        tol=float(c["tolerances"].get("cesaro_upper", 1e-6))),
    "cesaro_compactness": lambda phi, c: harness.verify_cesaro_compactness(
        phi, c["alpha"], c["n"], seed=c["seed"]),
    "interpolation_power": lambda phi, c: harness.verify_interpolation_power(
        float(c["interpolation"]["p0"]), float(c["interpolation"]["p1"]),
        float(c["interpolation"]["theta"]), alpha=c["alpha"], n=c["n"],
        seed=c["seed"]),
    "small_type": lambda phi, c: harness.verify_small_type(
        c["small_type_p"], c["alpha"], c["n"], seed=c["seed"]),
}


def _finite(value) -> bool:
    """Whether value is a number, not a bool, whose float is finite."""
    try:
        return not isinstance(value, bool) and math.isfinite(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _checked(ok, convert=lambda v: v):
    """A reader that refuses (ValueError) a value failing ok and converts the rest."""
    def read(value):
        if not ok(value):
            raise ValueError(value)
        return convert(value)
    return read


_number = _checked(_finite, float)
_integer = _checked(lambda v: _finite(v) and float(v).is_integer(), int)


def non_negative_int(value) -> int:
    """A seed, from the config or a --seed flag (numpy's generators refuse
    negatives), or a degree: the config's degree, --degree of bol norm and
    --truncation of bol cesaro."""
    if not (_finite(value) and float(value).is_integer() and float(value) >= 0):
        raise ValueError(value)
    return int(value)


def positive_int(value) -> int:
    """The --jobs of bol verify: an integer of at least 1, read and then unused."""
    count = non_negative_int(value)
    if count < 1:
        raise ValueError(value)
    return count


def _numbers(keys: set, every: bool, ok=_finite):
    # An object of numbers passing ok (finite by default) keyed from keys (by
    # every key if every), kept as written so that the config hash still tells
    # 2 from 2.0.
    return _checked(lambda t: isinstance(t, dict) and all(map(ok, t.values()))
                    and (set(t) == keys if every else set(t) <= keys), dict)


# Each config key: what its value must be, the reader that checks and converts
# it in one step, and its default, which the reader copies.
_CONFIG_KEYS = {
    "n": ("an integer", _integer, 1),
    "alpha": ("a finite number", _number, 0.0),
    "growth": ("a growth id", str, "power:p=2"),
    "seed": ("a non-negative integer", non_negative_int, 0),
    "degree": ("a non-negative integer", non_negative_int, 32),
    "suites": ("a list of known suite names", _checked(lambda v: isinstance(v, list) and all(
        isinstance(x, str) and x in SUITES for x in v), list), list(SUITES)),
    "symbols": ("null or a list of function specs",
                _checked(lambda v: v is None or isinstance(v, list)), None),
    "interpolation": ("an object of the finite numbers p0, p1 and theta",
                      _numbers({"p0", "p1", "theta"}, every=True),
                      {"p0": 2.0, "p1": 4.0, "theta": 0.5}),
    "small_type_p": ("a finite number", _number, 0.7),
    "tolerances": ("an object of non-negative finite numbers with keys from ['cesaro_upper']",
                   _numbers({"cesaro_upper"}, every=False,
                            ok=lambda v: _finite(v) and float(v) >= 0), {}),
}


def _effective_config(args) -> dict:
    doc = {}
    if args.config:
        doc = _load_json_arg(args.config)
        if not isinstance(doc, dict):
            raise FunctionSpecError("config must be a JSON object")
        if doc.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
            raise FunctionSpecError(
                f"unsupported config schema {doc.get('schema')!r};"
                f" expected {CONFIG_SCHEMA!r}")
        unknown = set(doc) - {"schema"} - set(_CONFIG_KEYS)
        if unknown:
            raise FunctionSpecError(f"unknown config keys: {sorted(unknown)}")
    cfg = {"schema": CONFIG_SCHEMA}
    for key, (expected, read, default) in _CONFIG_KEYS.items():
        value = doc.get(key, default)
        try:
            cfg[key] = read(value)
        except ValueError:
            raise FunctionSpecError(
                f"config key {key!r} must be {expected}, got {value!r}") from None
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.suite:
        cfg["suites"] = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not (1 <= cfg["n"] <= 2):
        raise FunctionSpecError(
            f"n must lie in [1, 2], where quadrature rules exist; got {cfg['n']}")
    if not cfg["alpha"] > -1.0:
        raise FunctionSpecError(f"alpha must exceed -1, got {cfg['alpha']}")
    for name in cfg["suites"]:
        if name not in SUITES:
            raise _UsageError(
                f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    resolve_growth(cfg["growth"])
    _config_symbols(cfg)  # every symbol parses before the config is hashed
    return cfg


def _csv_rows(report: harness.VerificationReport):
    keys = sorted({k for case in report.cases
                   for k in case.get("quantities", {})})
    head = ["id"] + keys
    rows = [head]
    for case in report.cases:
        q = case.get("quantities", {})
        rows.append([case["id"]] + [repr(q[k]) if k in q else "" for k in keys])
    return rows


def cmd_verify(args) -> int:
    cfg = _effective_config(args)
    cfg_hash = hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    verdicts = []
    for name in cfg["suites"]:
        report = SUITES[name](resolve_growth(cfg["growth"]), cfg)
        verdicts.append(report.verdict)
        doc = report.to_json_dict()
        doc["schema"] = REPORT_SCHEMA
        doc["config_hash"] = cfg_hash
        if out_dir:
            (out_dir / f"{name}.json").write_text(canonical_json(doc))
            if args.csv:
                with (out_dir / f"{name}.cases.csv").open("w", newline="") as fh:
                    csv.writer(fh).writerows(_csv_rows(report))
        print(f"{name}: {report.verdict}")
    if any(v == harness.FAIL for v in verdicts):
        return EXIT_FAIL
    if any(v == harness.INCONCLUSIVE for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="bol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="Luxembourg norm of a function spec")
    p_norm.add_argument("--function", required=True,
                        help="function spec: inline JSON or a path")
    p_norm.add_argument("--growth", default="power:p=2",
                        help=f"growth id, one of the forms {shipped_growth_ids()}")
    p_norm.add_argument("--n", type=int, default=1)
    p_norm.add_argument("--alpha", type=float, default=0.0)
    p_norm.add_argument("--degree", type=non_negative_int, default=32)
    p_norm.add_argument("--refine", action="store_true",
                        help="double the quadrature resolution")
    p_norm.add_argument("--check", action="store_true",
                        help="re-run refined and report the drift")
    p_norm.add_argument("--out", help="also write the JSON document here")
    p_norm.set_defaults(func=cmd_norm)

    p_ces = sub.add_parser("cesaro", help="apply the averaging operator")
    p_ces.add_argument("--symbol", required=True,
                       help="symbol g spec (must vanish at 0)")
    p_ces.add_argument("--function", required=True, help="argument f spec")
    p_ces.add_argument("--truncation", type=non_negative_int,
                       default=DEFAULT_TRUNCATION_DEGREE)
    p_ces.add_argument("--check", action="store_true",
                       help="cross-validate against the ray-integral oracle")
    p_ces.add_argument("--seed", type=non_negative_int, default=0)
    p_ces.add_argument("--out", help="also write the JSON document here")
    p_ces.set_defaults(func=cmd_cesaro)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--config", help="config JSON (inline or path), "
                                        f"schema {CONFIG_SCHEMA}")
    p_ver.add_argument("--suite", help="comma-separated suite names "
                                       "(default: all)")
    p_ver.add_argument("--seed", type=non_negative_int, default=None)
    p_ver.add_argument("--out", help="directory for report JSON files")
    p_ver.add_argument("--csv", action="store_true",
                       help="also write per-case CSV next to each report")
    p_ver.add_argument("--jobs", type=positive_int, default=1,
                       help="accepted for compatibility, no effect (suites run "
                            "on one thread); to be removed")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FunctionSpecError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergentNormError as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except WorkbenchError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
