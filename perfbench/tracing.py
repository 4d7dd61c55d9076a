"""Spans around the package's public functions, installed from outside.

`install()` wraps every binding a caller can use: a function imported into
several modules (`luxemburg_norm` lives in norms, harness, operators and cli)
is replaced in each of them, and the evaluation methods of the holomorphic
function classes are replaced on the classes.  Each call records a span with
its name, start, end, parent span and the current operation id, plus the
counts named in FUNCTIONS and METHODS.  Spans stay in memory until `write()`.

Self time is a span's duration minus the durations of its direct children;
the traced pass runs on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

# Operation id of spans recorded while the inputs are built.
SETUP_OP = "setup"

SUITE_FUNCTIONS = {
    "verify_derivative_equivalence": "harness.derivative_equivalence",
    "verify_pointwise_estimates": "harness.pointwise_estimates",
    "verify_test_functions": "harness.test_functions",
    "verify_cesaro_boundedness": "harness.cesaro_boundedness",
    "verify_cesaro_compactness": "harness.cesaro_compactness",
    "verify_interpolation_power": "harness.interpolation_power",
    "verify_small_type": "harness.small_type",
}


def _first_size(args, kwargs, out):
    return {"values": int(np.size(args[0]))}


def _method_size(args, kwargs, out):
    return {"values": int(np.size(args[1]))}


def _rows(args, kwargs, out):
    return {"points": int(args[1].shape[0])}


def _rule(args, kwargs, out):
    return {"nodes": int(out.node_count),
            "bytes_computed": int(out.points.nbytes + out.weights.nbytes),
            "rule_id": out.rule_id}


# (module, function, span name, stats) for module-level functions.
FUNCTIONS = [
    ("growth", "resolve_growth", "growth.resolve_growth", None),
    ("measure", "build_rule", "measure.build_rule", _rule),
    ("measure", "kernel_factor", "measure.kernel_factor",
     lambda a, k, out: {"points": int(np.size(out))}),
    ("measure", "mobius_jacobian0_batch", "measure.mobius_jacobian0_batch",
     lambda a, k, out: {"points": int(out.shape[0])}),
    ("measure", "make_measure", "measure.make_measure", None),
    ("holo", "to_series", "holo.to_series",
     lambda a, k, out: {"terms": len(out.terms)}),
    ("holo", "chain_inequality_check", "holo.chain_inequality_check", None),
    ("norms", "luxemburg_norm", "norms.luxemburg_norm",
     lambda a, k, out: {"iterations": int(out.iterations)}),
    ("norms", "modular_of_values", "norms.modular_of_values", _first_size),
    ("norms", "rule_for_function", "norms.rule_for_function", None),
    ("norms", "derivative_modulars", "norms.derivative_modulars", None),
    ("norms", "pointwise_bound_constant", "norms.pointwise_constant", None),
    ("norms", "derivative_pointwise_constant", "norms.pointwise_constant", None),
    ("norms", "small_type_estimate_check", "norms.small_type_estimate_check", None),
    ("operators", "cesaro_apply_exact", "operators.cesaro_apply_exact",
     lambda a, k, out: {"output_terms": len(out.terms)}),
    ("operators", "bloch_seminorm", "operators.bloch_seminorm", None),
    ("operators", "cesaro_norm_lower_bound", "operators.cesaro_norm_lower_bound", None),
    ("operators", "cesaro_upper_bound_check", "operators.cesaro_upper_bound_check", None),
    ("cli", "canonical_json", "cli.canonical_json",
     lambda a, k, out: {"bytes": len(out)}),
] + [("harness", fn, name, None) for fn, name in SUITE_FUNCTIONS.items()]

# (module, class, method, span name, stats) for methods.
METHODS = [
    ("growth", "GrowthFunction", "__call__", "growth.call", _method_size),
    ("growth", "GrowthFunction", "inverse", "growth.inverse", _method_size),
] + [("holo", cls, meth, name, _rows)
     for cls in ("Series", "KernelPower", "Sum", "Product")
     for meth, name in (("_eval", "holo.eval"), ("_partials", "holo.partials"))]


class Tracer:
    """Span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, stats]
        self._stack = []
        self.op = None
        self.origin = time.perf_counter()

    def wrap(self, name, fn, stats):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if stats is not None:
                rec[5] = stats(args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every binding of the traced functions in the package's modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for mod_name, fn_name, span, stats in FUNCTIONS:
            orig = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            wrapper = self.wrap(span, orig, stats)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth, span, stats in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{mod_name}"], cls_name)
            setattr(cls, meth, self.wrap(span, cls.__dict__[meth], stats))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, stats in self.spans:
                rec = {"name": name, "start": start - self.origin,
                       "end": end - self.origin, "parent": parent, "op": op}
                if stats:
                    rec.update(stats)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def read(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans, ops=None) -> dict:
    """Per span name: calls, inclusive and self seconds, summed counts.

    With ops given, only spans of those operation ids count (children of a
    counted span always share its operation).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = {}
    for i, s in enumerate(spans):
        if ops is not None and s["op"] not in ops:
            continue
        agg = out.setdefault(s["name"], {"calls": 0, "wall_s": 0.0, "self_s": 0.0,
                                         "top_s": 0.0, "rule_ids": set()})
        dur = s["end"] - s["start"]
        agg["calls"] += 1
        agg["wall_s"] += dur
        agg["self_s"] += dur - child_time[i]
        if s["parent"] < 0:
            agg["top_s"] += dur
        for key, value in s.items():
            if key == "rule_id":
                agg["rule_ids"].add(value)
            elif key not in ("name", "start", "end", "parent", "op"):
                agg[key] = agg.get(key, 0) + value
    return out


def nested_calls(spans, child: str, parent: str, ops=None) -> int:
    """Calls of `child` whose direct parent span is a `parent` span."""
    return sum(1 for s in spans
               if s["name"] == child and s["parent"] >= 0
               and spans[s["parent"]]["name"] == parent
               and (ops is None or s["op"] in ops))
