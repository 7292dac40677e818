"""Each benchmark workload runs once at the default seed and passes every check.

perfbench/ is imported read-only: the workloads, their checks and the stored
reference outputs are the benchmark's own, so an output it would call
incorrect fails here first.
"""

import functools
import importlib
import json
import warnings
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("checks")


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_workload_passes_its_checks_at_the_default_seed(name, perfbench, tmp_path):
    workloads, checks = perfbench
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wl = workloads.WORKLOADS[name](0, tmp_path)
        wl.run()
    ck = checks.Checker()
    wl.check(ck, REFERENCE[name])
    assert ck.attempted > 0
    assert ck.failed == 0, ck.messages


def test_metrics_summary_equals_the_reference_exactly(perfbench, tmp_path):
    # the benchmark compares within 1e-9, which a last-bit change of the cut norm
    # passes even where it reroutes no search; the stored values are exact
    workloads, _ = perfbench
    wl = workloads.WORKLOADS["metrics"](0, tmp_path)
    wl.run()
    assert wl.summary() == REFERENCE["metrics"]


def test_every_traced_name_resolves(monkeypatch):
    # --trace 1 wraps each TARGETS name by getattr; a rename under src/ would
    # otherwise break the traced run alone.  The tracer is imported, not installed.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, attr, span in tracing.TARGETS:
        owner = importlib.import_module(module)
        assert callable(functools.reduce(getattr, attr.split("."), owner)), span
