"""Every span the benchmark requires names something the package still has,
and fires when the benchmark's tracer runs the workload's command.

``perfbench/workloads.py`` lists, per workload, the spans that a traced run
must see fire. A span is a public function of an ``sdidml`` layer module,
``learners.fit.<kind>``, ``aggregate.bootstrap.<mode>`` or the
``panel.PanelDataset`` constructor. Moving, renaming or changing the
signature of a traced function would otherwise show up only as a failed
traced benchmark run. ``workloads.py`` and ``perfbench/spans.py`` are
loaded by path and only read.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from sdidml.aggregate import BOOTSTRAP_MODES
from sdidml.learners import KINDS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD_NAMES = ("s3-full", "s2-full", "s3-fixed", "mc-s1")


def load(monkeypatch, name: str):
    """``perfbench/<name>.py`` as a module, without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def required_spans(monkeypatch) -> set:
    workloads = load(monkeypatch, "workloads").WORKLOADS
    assert sorted(workloads) == sorted(WORKLOAD_NAMES)
    return {span for workload in workloads.values() for span in workload.spans}


def names_something(span: str) -> bool:
    if span == "panel.PanelDataset":
        return True
    layer, name, *rest = span.split(".")
    if (layer, name) == ("learners", "fit") and rest:
        return rest == [rest[0]] and rest[0] in KINDS
    if (layer, name) == ("aggregate", "bootstrap") and rest:
        return rest == [rest[0]] and rest[0] in BOOTSTRAP_MODES
    try:
        module = importlib.import_module(f"sdidml.{layer}")
    except ImportError:
        return False
    obj = getattr(module, name, None)
    return (not rest and not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__)


def test_every_required_span_names_a_public_function(monkeypatch):
    spans = required_spans(monkeypatch)
    assert spans
    assert sorted(span for span in spans if not names_something(span)) == []


@pytest.mark.parametrize("span", ["panel.read_csv", "learners.fit.forest",
                                  "aggregate.bootstrap.wild", "panel._fill",
                                  "didcore.GroupTimeEffects", "crossfit.np"])
def test_a_span_that_names_nothing_is_caught(span):
    assert not names_something(span)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_the_traced_command_fires_every_required_span(monkeypatch, tmp_path, name):
    # The workload's command on a small S1 panel: a run with B=3, or a
    # one-rep Monte Carlo with B=3.
    workload = load(monkeypatch, "workloads").WORKLOADS[name]
    tracer = load(monkeypatch, "spans").Tracer()
    codes = []

    def runner(argv):  # cli.main is looked up after the tracer wrapped it
        codes.append(importlib.import_module("sdidml.cli").main(list(argv)))
        return codes[-1]

    tracer.install()
    try:
        tracer.recorder.phase = "op"
        if hasattr(workload, "config"):
            workload.warm_up(runner, tmp_path)
        else:
            runner(workload._argv("S1", 1, 1, 3, tmp_path / "out"))
    finally:
        tracer.uninstall()
    assert codes == [0]
    fired = {span for span, stats in tracer.recorder.snapshot("op").items()
             if stats["calls"] > 0}
    assert sorted(set(workload.spans) - fired) == []


def test_the_names_the_benchmark_looks_up_untraced_resolve():
    # perfbench/worker.py builds its coverage gate's config from
    # sdidml.pipeline.PipelineConfig and runs simulate.monte_carlo on
    # simulate.scenario; workloads.py writes its inputs with
    # simulate.generate; both call cli.main. A name that moves fails the
    # benchmark run, not a span check.
    pipeline = importlib.import_module("sdidml.pipeline")
    assert pipeline.PipelineConfig is importlib.import_module("sdidml.config").PipelineConfig
    pipeline.PipelineConfig(bootstrap_reps=99, bootstrap_mode="fixed_nuisance",
                            ci_level=0.95, seed=2000)
    simulate = importlib.import_module("sdidml.simulate")
    calls = {"monte_carlo": ("scenario", "config", 60, 2000), "scenario": ("S1",),
             "generate": ("config",)}
    for name, args in calls.items():
        func = getattr(simulate, name, None)
        assert inspect.isfunction(func), name
        inspect.signature(func).bind(*args)
    main = getattr(importlib.import_module("sdidml.cli"), "main", None)
    assert inspect.isfunction(main)
    inspect.signature(main).bind(["run"])
