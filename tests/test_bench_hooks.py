"""Every name the benchmark's tracer wraps still exists in the package.

perfbench/tracing.py replaces module functions and class methods by name; a
rename in the package would crash the traced benchmark run, so it fails here.
"""

import importlib
import importlib.util
from pathlib import Path

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
