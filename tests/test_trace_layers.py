"""The traced benchmark pass can wrap every call that BENCHMARK.json counts.

bench/trace_layers.py finds layer functions by name and methods through the
class __dict__, so a deleted or renamed function or method shows up here, in
the test suite, and not only as a KeyError in a traced benchmark run.  The
bench files are read, never written.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import tentspec

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("plmap", "markov", "exact", "poly", "spectral", "transfer", "cli")


def load_trace_layers():
    spec = importlib.util.spec_from_file_location("trace_layers", ROOT / "bench" / "trace_layers.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_wraps_every_counted_call_and_restores_them():
    trace_layers = load_trace_layers()
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counted = {m["name"][: -len(".calls")] for m in per_layer if m["name"].endswith(".calls")}
    modules = [importlib.import_module(f"tentspec.{layer}") for layer in LAYERS]
    before = [dict(vars(namespace)) for namespace in (tentspec, *modules)]
    pow_before = tentspec.exact.ExactMatrix.__dict__["__pow__"]
    with trace_layers.Tracer() as tracer:
        wrapped = set(tracer.names)
        assert tentspec.exact.ExactMatrix.__dict__["__pow__"] is not pow_before
    assert counted <= wrapped, sorted(counted - wrapped)
    assert [dict(vars(namespace)) for namespace in (tentspec, *modules)] == before
    assert tentspec.exact.ExactMatrix.__dict__["__pow__"] is pow_before


def test_every_all_entry_resolves():
    for module in (tentspec, *(importlib.import_module(f"tentspec.{layer}") for layer in LAYERS)):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
