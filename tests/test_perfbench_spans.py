"""Every span the benchmark requires names something the package still has.

``perfbench/workloads.py`` lists, per workload, the spans that a traced run
must see fire. A span is a public function of an ``sdidml`` layer module,
``learners.fit.<kind>``, ``aggregate.bootstrap.<mode>`` or the
``panel.PanelDataset`` constructor. Moving or renaming a traced function
would otherwise show up only as a failed traced benchmark run. The file is
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

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def required_spans(monkeypatch) -> set:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {span for workload in module.WORKLOADS.values() for span in workload.spans}


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
