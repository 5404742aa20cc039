"""Spans around every call into a tentspec layer, for the traced benchmark run.

`Tracer` is a context manager.  On entry it wraps each public function of the
layer modules (plmap, markov, exact, poly, spectral, transfer, cli) in every
tentspec namespace that binds it -- `spectral.aberth_roots` as well as
`poly.aberth_roots` -- plus the few methods named in METHODS; on exit it puts
the originals back.  The untraced run never builds a Tracer, so it runs the
program unwrapped.

Spans stay in memory as [name, start, end, parent] and are written out once,
at the end.  A span's self time is its duration minus the durations of its
direct children; calls are single-threaded and nested, so children never
overlap each other or outlast their parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("plmap", "markov", "exact", "poly", "spectral", "transfer", "cli")

# (layer, class, attribute, short name) of the methods that get spans too.
METHODS = (
    ("exact", "ExactMatrix", "__pow__", "pow"),
    ("exact", "ExactMatrix", "__matmul__", "matmul"),
    ("plmap", "PiecewiseLinearMap", "eval_one_sided", "eval_one_sided"),
    ("transfer", "MarkovOperator", "apply", "apply"),
)

# Work counts read off a call's arguments or result: names, then a function
# of (args, result) giving their values.  Each is cheap next to the call
# itself; all are summed over calls except max_residual.
STATS = {
    "exact.krylov_min_poly": (("dim_sum",), lambda args, out: (args[0].rows,)),
    "markov.adjacency_matrix": (
        ("nnz", "cells"),
        lambda args, out: (sum(map(sum, out.entries)), out.rows * out.cols),
    ),
    "markov.detect_markov_partition": (("steps",), lambda args, out: (len(out[1].steps) - 1,)),
    "poly.aberth_roots": (
        ("degree_sum", "max_residual"),
        lambda args, out: (out.degree, max(out.residuals, default=0.0)),
    ),
    "transfer.evolve_density": (("steps",), lambda args, out: (len(out) - 1,)),
    "transfer.ulam_matrix": (("cells",), lambda args, out: (out.shape[0],)),
}
MAX_STATS = {"max_residual"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._stats: dict[str, float] = {}
        self._errors: Counter = Counter()
        self._trajectories: list = []
        self._patches: list[tuple] = []
        self.names: list[str] = []

    def _wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack
        stats = STATS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self._errors[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if stats is not None:
                keys, values = stats
                for key, value in zip(keys, values(args, out)):
                    full = f"{name}.{key}"
                    old = self._stats.get(full, 0)
                    self._stats[full] = max(old, value) if key in MAX_STATS else old + value
            if name == "transfer.evolve_density":
                self._trajectories.append(out)
            return out

        self.names.append(name)
        return traced

    def __enter__(self):
        package = importlib.import_module("tentspec")
        modules = {layer: importlib.import_module(f"tentspec.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        for layer, cls_name, attr, short in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{short}", layer, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def summary(self, bytes_written: int) -> dict:
        """Per-layer metrics of the traced pass, every name present even at 0."""
        durations = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += durations[i]
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            for key in STATS.get(name, ((),))[0]:
                out[f"{name}.{key}"] = 0
        min_self = 0.0
        for i, (name, _, _, _) in enumerate(self.spans):
            own = durations[i] - covered[i]
            min_self = min(min_self, own)
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        out.update(self._stats)
        for layer in LAYERS:
            out[f"{layer}.errors"] = self._errors[layer]
        out["transfer.max_mass_drift"] = max(
            (abs(f.integral() - traj[0].integral()) for traj in self._trajectories for f in traj),
            default=0.0,
        )
        out["cli.bytes_written"] = bytes_written
        out["trace.min_span_self_s"] = min_self
        return out

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
