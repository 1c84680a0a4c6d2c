"""Span recording around the public functions of each ``sdidml`` layer.

The wrappers live here, in the benchmark's own files; nothing under
``src/`` is touched. Each public function of a layer module is wrapped once
and the wrapper is bound under every name a caller can look it up by: the
defining module and every other ``sdidml`` module (or the package) that
imported the function by name at import time. Modules are fetched with
``importlib.import_module`` because the package attribute
``sdidml.aggregate`` is the ``aggregate()`` function, not the submodule.
``PanelDataset`` is traced through its ``__init__``. A function that moves
or is renamed is simply not traced; the per-workload list of spans that
must fire (``workloads.py``) turns that into a failed run.

Spans nest. For every span name the recorder keeps the call count, the
busy time (summed durations; no function at this commit calls itself
through another span of the same name) and the self time (duration minus
the time covered by direct child spans). Two spans also take counts from the values their
function returns: ``learners.fit.<kind>`` adds the model's
``diagnostics.iterations`` and non-convergence, and
``aggregate.bootstrap.<mode>`` adds ``n_reps`` and ``n_failed``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("panel", "learners", "crossfit", "didcore", "aggregate",
          "pipeline", "simulate", "cli")

class SpanStats:
    __slots__ = ("calls", "busy", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.counts = defaultdict(int)


class Recorder:
    """In-memory span statistics, kept per phase (``setup``, ``op``, ``check``)."""

    def __init__(self):
        self.phase = "setup"
        self.stats = defaultdict(lambda: defaultdict(SpanStats))
        self._stack = []  # child time accumulated by each open span

    def span(self, name, func, args, kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child_time = self._stack.pop()
            stats = self.stats[self.phase][name]
            stats.calls += 1
            stats.busy += duration
            stats.self_time += duration - child_time
            if self._stack:
                self._stack[-1] += duration
        return result

    def counts(self, name):
        return self.stats[self.phase][name].counts

    def snapshot(self, phase):
        return {name: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_time,
                       **dict(s.counts)}
                for name, s in sorted(self.stats[phase].items())}


def _wrap(recorder, qualname, func):
    if qualname == "learners.fit":
        @functools.wraps(func)
        def fit(spec, *args, **kwargs):
            name = f"learners.fit.{spec.kind}"
            model = recorder.span(name, func, (spec,) + args, kwargs)
            counts = recorder.counts(name)
            counts["iters"] += int(model.diagnostics.iterations)
            counts["nonconverged"] += int(not model.diagnostics.converged)
            return model
        return fit
    if qualname == "aggregate.bootstrap":
        signature = inspect.signature(func)

        @functools.wraps(func)
        def bootstrap(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            name = f"aggregate.bootstrap.{bound.arguments['mode']}"
            inference = recorder.span(name, func, args, kwargs)
            counts = recorder.counts(name)
            counts["replicates"] += int(inference.n_reps)
            counts["failed"] += int(inference.n_failed)
            return inference
        return bootstrap

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return recorder.span(qualname, func, args, kwargs)
    return wrapper


class Tracer:
    """Installs and removes the wrappers; ``recorder`` holds the spans."""

    def __init__(self):
        self.recorder = Recorder()
        self._patches = []  # (owner, attribute, original), in patch order

    def install(self):
        if self._patches:
            return
        package = importlib.import_module("sdidml")
        layers = {name: importlib.import_module(f"sdidml.{name}") for name in LAYERS}
        # Keyed by id(): module namespaces also hold unhashable values.
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, module in layers.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, _wrap(self.recorder, f"{layer}.{attr}", obj))
        for namespace in [package, *layers.values()]:
            for attr, obj in list(vars(namespace).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(namespace, attr, entry[1])
        dataset = layers["panel"].PanelDataset
        self._patch(dataset, "__init__",
                    _wrap(self.recorder, "panel.PanelDataset", dataset.__init__))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
