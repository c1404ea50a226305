"""The benchmark's tracer wraps `gackit` functions by name; every name it
looks up must still exist, so a refactor that drops one fails here and not
only in the benchmark's smoke run. `perfbench/` is read, never written."""

import importlib.util
import sys
from pathlib import Path

import gackit.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def resolve(dotted):
    module, *attrs = dotted.split(".")
    obj = sys.modules[f"gackit.{module}"]
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_name_resolves(monkeypatch):
    spans = load_tracer(monkeypatch).SPANS
    assert spans
    names = [f"{module}.{attr}" for module, attr, _ in spans]
    names += ["propagation.gac_filter", "propagation.UnitPropagator.propagate",
              "gac_check.enumerate_knowledge_states"]
    for name in names:
        assert callable(resolve(name)), name
