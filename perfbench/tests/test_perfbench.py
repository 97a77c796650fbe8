"""Tests of the benchmark's own arithmetic, its wrappers, and a smoke run per workload.

Run from the root of the repository: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import types

import pytest

from perfbench import sweep
from perfbench.catalog import END_TO_END, PER_LAYER
from perfbench.common import GateError
from perfbench.spans import (
    Patches,
    Span,
    SpanRecorder,
    layer_totals,
    residual_share,
    self_times,
    union_length,
)
from perfbench.stats import percentile, tail_supported

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


# ----------------------------------------------------------------------
# Percentiles with their sample count
# ----------------------------------------------------------------------
def test_percentile_interpolates_and_counts():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == (2.5, 4)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.0) == (1.0, 5)
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 100.0) == (5.0, 5)
    assert percentile([7.0], 99.0) == (7.0, 1)
    value, count = percentile(list(range(101)), 99.0)
    assert (value, count) == (pytest.approx(99.0), 101)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_tail_needs_ten_samples_beyond_it():
    assert tail_supported(1000, 99.0)
    assert not tail_supported(999, 99.0)
    assert tail_supported(20, 50.0)
    assert not tail_supported(19, 50.0)


# ----------------------------------------------------------------------
# Self time, residual
# ----------------------------------------------------------------------
def _span(span_id, name, start, end, parent=None, rid=None):
    return Span(span_id, name, start, end, parent, rid)


def test_union_length_merges_overlaps():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(0.0, 4.0), (1.0, 2.0)]) == 4.0
    assert union_length([]) == 0.0


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span(1, "root", 0.0, 10.0),
        _span(2, "a", 1.0, 4.0, parent=1),
        _span(3, "b", 3.0, 6.0, parent=1),   # overlaps a (another thread)
        _span(4, "a.inner", 2.0, 3.0, parent=2),
        _span(5, "late", 9.0, 12.0, parent=1),  # clipped to the root's end
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    totals = layer_totals(spans, selfs)
    assert totals["a"].calls == 1 and totals["a"].inclusive_s == pytest.approx(3.0)


def test_residual_is_root_time_no_child_covers():
    spans = [
        _span(1, "op", 0.0, 4.0),
        _span(2, "layer", 0.0, 3.0, parent=1),
        _span(3, "op", 10.0, 16.0),
        _span(4, "layer", 10.0, 16.0, parent=3),
    ]
    selfs = self_times(spans)
    assert residual_share(spans, selfs, "op") == pytest.approx(1.0 / 10.0)
    # Self times of every span in a tree add up to the root's duration.
    assert sum(selfs.values()) == pytest.approx(4.0 + 6.0)


# ----------------------------------------------------------------------
# Recorder and patching
# ----------------------------------------------------------------------
def test_recorder_links_parents_and_request_ids_across_threads():
    recorder = SpanRecorder()
    with recorder.span("client"):
        root = recorder.enclosing()[0]

        def server():
            with recorder.span("handler", parent=root, rid=root):
                with recorder.span("inner"):
                    pass

        thread = threading.Thread(target=server)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["client"].parent is None and by_name["client"].rid == root
    assert by_name["handler"].parent == root and by_name["handler"].rid == root
    assert by_name["inner"].parent == by_name["handler"].span_id
    assert by_name["inner"].rid == root


def test_patches_replace_and_restore_every_kind_of_owner():
    module = types.ModuleType("fake")
    module.function = lambda x: x + 1

    class Base:
        def method(self):
            return "base"

    class Child(Base):
        pass

    instance = Child()
    recorder = SpanRecorder()
    patches = Patches()
    original_function = module.function
    patches.replace(module, "function", lambda f: recorder.wrap("f", f))
    patches.replace(Child, "method", lambda m: recorder.wrap("m", m))
    patches.replace(instance, "method", lambda m: recorder.wrap("bound", m))
    assert module.function(1) == 2
    assert instance.method() == "base"
    assert [span.name for span in recorder.spans] == ["f", "m", "bound"]
    patches.restore()
    assert module.function is original_function
    assert "method" not in vars(Child) and "method" not in vars(instance)
    assert instance.method() == "base"


# ----------------------------------------------------------------------
# The sweep's warm-rerun gate
# ----------------------------------------------------------------------
def _one_unit_run(store):
    """A stand-in for ``repro.runtime.run``: one deterministic unit, looked up first."""
    def run(spec, executor, cache, telemetry=None):
        hit, value = cache.lookup("unit")
        if not hit:
            value = {"score": 0.5}
            if telemetry is not None:
                telemetry.increment("units_executed")
            if store:
                cache.store("unit", value)
        return [value]
    return run


def test_sweep_gate_passes_a_warm_rerun_served_from_the_cache(monkeypatch):
    monkeypatch.setattr(sweep, "run_spec", _one_unit_run(store=True))
    record = sweep.sweep(types.SimpleNamespace(name="fake"))
    assert record["cache_hit_ratio"] == 1.0 and record["units"] == 1.0


def test_sweep_gate_refuses_a_warm_rerun_that_missed(monkeypatch):
    # Nothing is stored, so the rerun re-executes: same bytes, but no hit.
    monkeypatch.setattr(sweep, "run_spec", _one_unit_run(store=False))
    with pytest.raises(GateError, match="missed the cache: 0 hits in 1 lookups"):
        sweep.sweep(types.SimpleNamespace(name="fake"))


# ----------------------------------------------------------------------
# Smoke runs
# ----------------------------------------------------------------------
def _run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload, trace", [
    ("serve_tiny", 0), ("serve_tiny", 1), ("serve_paper", 0),
    ("stream_hop", 0), ("stream_hop", 1), ("sweep_tiny", 0), ("sweep_tiny", 1),
])
def test_smoke_run_prints_the_contract_line(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert list(last["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    completed = _run("serve_tiny", 0, cwd=str(tmp_path),
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
