"""The benchmark's tracer patches package attributes by name: each must exist."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_exists(monkeypatch):
    # read the tracer without leaving a bytecode cache beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = tracing.SPANNED + tracing.COUNTED + tracing.GENERATORS
    missing = [f"{getattr(obj, '__name__', obj)}.{attr}"
               for obj, attr, _ in hooks if not hasattr(obj, attr)]
    assert hooks and missing == []
