"""Tests of the shared telemetry primitive and the repro.run progress hooks."""

from __future__ import annotations

import threading

from repro.runtime import ResultCache, progress_hooks, run
from repro.runtime.registry import register_work
from repro.runtime.spec import ExperimentSpec, WorkUnit
from repro.obs import Counter, Telemetry, Timer


@register_work("telemetry_probe_unit")
def telemetry_probe_unit(scale, *, value: int) -> int:
    return value * 10


def _probe_spec(values):
    units = tuple(WorkUnit.create("telemetry_probe_unit", value=value)
                  for value in values)
    return ExperimentSpec(name="telemetry-probe", scale=TinyKnobs(), units=units)


class TinyKnobs:
    """Duck-typed scale stand-in (hashable knob bundle for fingerprints)."""

    knob = 1


class TestPrimitives:
    def test_counter_thread_safety(self):
        counter = Counter("hits")
        threads = [threading.Thread(target=lambda: [counter.increment()
                                                    for _ in range(1000)])
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000

    def test_timer_accumulates(self):
        timer = Timer("work")
        with timer:
            pass
        with timer:
            pass
        assert timer.count == 2
        assert timer.seconds >= 0.0

    def test_snapshot_shape(self):
        telemetry = Telemetry()
        telemetry.increment("requests", 3)
        with telemetry.timer("engine"):
            pass
        snapshot = telemetry.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["engine_count"] == 1
        assert "engine_seconds" in snapshot

    def test_registry_reuses_instances(self):
        telemetry = Telemetry()
        assert telemetry.counter("a") is telemetry.counter("a")
        assert telemetry.timer("b") is telemetry.timer("b")


class TestRunHooks:
    def test_run_counts_units(self):
        telemetry = Telemetry()
        results = run(_probe_spec([1, 2, 3]), telemetry=telemetry)
        assert results == [10, 20, 30]
        snapshot = telemetry.snapshot()
        assert snapshot["units_total"] == 3
        assert snapshot["units_executed"] == 3
        assert snapshot["run_execute_count"] == 1

    def test_run_counts_cache_hits(self):
        cache = ResultCache()
        spec = _probe_spec([4, 5])
        run(spec, cache=cache)
        telemetry = Telemetry()
        results = run(spec, cache=cache, telemetry=telemetry)
        assert results == [40, 50]
        snapshot = telemetry.snapshot()
        assert snapshot["units_cached"] == 2
        assert "units_executed" not in snapshot

    def test_on_unit_fires_in_order(self):
        events = []

        def on_unit(index, total, unit, source):
            events.append((index, total, unit.kind, source))

        run(_probe_spec([7, 8]), on_unit=on_unit)
        assert events == [
            (0, 2, "telemetry_probe_unit", "executed"),
            (1, 2, "telemetry_probe_unit", "executed"),
        ]

    def test_ambient_progress_hooks(self):
        telemetry = Telemetry()
        events = []
        with progress_hooks(telemetry, lambda *args: events.append(args)):
            run(_probe_spec([1]))
        assert telemetry.snapshot()["units_total"] == 1
        assert len(events) == 1
        # Outside the context the hooks are gone.
        run(_probe_spec([2]))
        assert telemetry.snapshot()["units_total"] == 1
        assert len(events) == 1

    def test_explicit_hooks_win_over_ambient(self):
        ambient, explicit = Telemetry(), Telemetry()
        with progress_hooks(ambient):
            run(_probe_spec([1]), telemetry=explicit)
        assert "units_total" not in ambient.snapshot()
        assert explicit.snapshot()["units_total"] == 1

    def test_mixed_cache_and_executed_sources(self):
        cache = ResultCache()
        run(_probe_spec([1]), cache=cache)
        events = []

        def on_unit(index, total, unit, source):
            events.append((index, source))

        results = run(_probe_spec([1, 2]), cache=cache, on_unit=on_unit)
        assert results == [10, 20]
        assert (0, "cache") in events and (1, "executed") in events


def test_null_telemetry_helper():
    from repro.obs import null_telemetry

    telemetry = Telemetry()
    assert null_telemetry(telemetry) is telemetry
    assert isinstance(null_telemetry(None), Telemetry)
