"""The benchmark's tracer wraps package functions by name; every name it
wraps must exist, or ``perfbench/run.py --trace 1`` stops working."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
tracing = importlib.import_module("tracing")

MODULES = {name: importlib.import_module(f"causalpred.{name}") for name in tracing.MODULES}


def test_every_trace_target_exists():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.targets(MODULES)
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
