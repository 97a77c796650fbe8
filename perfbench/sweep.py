"""``sweep_tiny``: ``repro.run`` of the Table 3 spec at tiny scale, cold then warm.

Every timed operation is one cold sweep: the serial executor with a fresh
in-memory :class:`~repro.runtime.ResultCache`, followed (untimed in the
sweep's latency) by a warm rerun through the same cache whose results must
be byte-identical.  Each sweep draws its datasets from its own base seed, so
no per-process dataset memo carries over between sweeps.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Dict, List, Optional

from repro.experiments.config import tiny_scale
from repro.experiments.table3 import table3_spec
from repro.obs import Telemetry
from repro.runtime import ExperimentSpec, ResultCache, SerialExecutor, run as run_spec

from .common import GateError, Result, peak_rss_mb, span_breakdown, timed_setups
from .layers import install_model_layers, install_sweep_layers
from .spans import Patches, SpanRecorder

SETUP_REPEATS = 9
#: Sweep index of the pre-timing gate's reduced spec.
_GATE_INDEX = 15
#: Untraced/traced pairs of runs of the gate's slice in a traced run.  The
#: tracing overhead is measured on the same work, one pair at a time and in
#: alternating order, so neither a drift of the host's speed nor going first
#: is mistaken for it.
TRACE_PAIRS = 6


def spec_for(seed: int, index: int) -> ExperimentSpec:
    """The tiny Table 3 spec whose datasets derive from ``(seed, index)``."""
    return table3_spec(tiny_scale(), base_seed=((seed % 100_000) * 16 + index) * 1000)


def sweep(spec: ExperimentSpec, recorder: Optional[SpanRecorder] = None) -> Dict[str, float]:
    """One cold sweep plus its warm rerun; raises unless the rerun is byte-identical."""
    cache, telemetry = ResultCache(), Telemetry()
    started = time.perf_counter()
    if recorder is None:
        cold = run_spec(spec, executor=SerialExecutor(), cache=cache, telemetry=telemetry)
    else:
        with recorder.span("runtime.sweep"):
            cold = run_spec(spec, executor=SerialExecutor(), cache=cache, telemetry=telemetry)
    cold_s = time.perf_counter() - started
    cache.reset_stats()
    started = time.perf_counter()
    warm = run_spec(spec, executor=SerialExecutor(), cache=cache)
    warm_s = time.perf_counter() - started
    # Unit by unit: pickling the whole list would also compare which equal
    # objects happen to be shared between units.
    if len(warm) != len(cold) or any(
            pickle.dumps(ours, pickle.HIGHEST_PROTOCOL) != pickle.dumps(theirs, pickle.HIGHEST_PROTOCOL)
            for ours, theirs in zip(warm, cold)):
        raise GateError(f"warm rerun of {spec.name} differs from the cold run")
    # A rerun that re-executed deterministic units would pass the check above.
    if cache.stats.lookups == 0 or cache.stats.hits != cache.stats.lookups:
        raise GateError(f"warm rerun of {spec.name} missed the cache: {cache.stats.hits} hits "
                        f"in {cache.stats.lookups} lookups")
    return {
        "sweep_s": cold_s,
        "units": float(telemetry.snapshot()["units_executed"]),
        "warm_rerun_s": warm_s,
        "cache_hit_ratio": cache.stats.hits / cache.stats.lookups,
    }


def gate_spec(seed: int) -> ExperimentSpec:
    """A two-unit slice of a spec that no timed sweep uses."""
    full = spec_for(seed, _GATE_INDEX)
    return ExperimentSpec(name=full.name, scale=full.scale, units=full.units[:2])


def _traced_sweep(spec: ExperimentSpec) -> Dict[str, float]:
    """:func:`sweep` with every wrapper installed; its spans are dropped."""
    patches, recorder = Patches(), SpanRecorder()
    install_model_layers(patches, recorder)
    install_sweep_layers(patches, recorder)
    try:
        return sweep(spec)
    finally:
        patches.restore()


def _measure(seed: int, first_index: int, seconds: float,
             recorder: Optional[SpanRecorder] = None) -> List[Dict[str, float]]:
    """Whole cold sweeps until ``seconds`` pass (at least one)."""
    sweeps: List[Dict[str, float]] = []
    started = time.perf_counter()
    while not sweeps or time.perf_counter() - started < seconds:
        sweeps.append(sweep(spec_for(seed, first_index + len(sweeps)), recorder))
    return sweeps


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    result = Result()

    def build():
        spec = spec_for(seed, 0)
        spec.fingerprints()
        return spec, ResultCache(), Telemetry()

    _, setup_s, setups = timed_setups(build, SETUP_REPEATS, lambda kept: None)
    result.end_to_end["setup_s"] = setup_s
    result.details["setup_s_each"] = setups
    # The gate: the slice cold then warm, before anything is timed.  It also
    # fills the slice's dataset memo, so every later run of it does the same work.
    _record_phases(result, [sweep(gate_spec(seed))], "gate-")
    if not trace:
        sweeps = _measure(seed, 1, seconds)
        _end_to_end(result, sweeps)
    else:
        # Under tracing, the slice's runs are the gate again.
        untraced: List[Dict[str, float]] = []
        traced: List[Dict[str, float]] = []
        for pair in range(TRACE_PAIRS):
            if pair % 2:
                traced.append(_traced_sweep(gate_spec(seed)))
            untraced.append(sweep(gate_spec(seed)))
            if not pair % 2:
                traced.append(_traced_sweep(gate_spec(seed)))
        recorder, patches = SpanRecorder(), Patches()
        install_model_layers(patches, recorder)
        install_sweep_layers(patches, recorder)
        try:
            full = _measure(seed, 1, 0.0, recorder)
        finally:
            patches.restore()
        result.recorder = recorder
        _per_layer(result, full)
        result.per_layer["trace_overhead"] = statistics.median(
            ours["sweep_s"] / theirs["sweep_s"] for ours, theirs in zip(traced, untraced)) - 1.0
        _record_phases(result, untraced, "overhead-untraced-")
        _record_phases(result, traced, "overhead-traced-")
        _record_phases(result, full, "traced-")
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result


def _record_phases(result: Result, sweeps: List[Dict[str, float]], label: str) -> None:
    for index, record in enumerate(sweeps):
        units = int(record["units"])
        result.attempted += units
        result.phases.append({"phase": f"{label}sweep{index}", "loop": "closed",
                              "connections": 1, "executor": "serial", "sent": units,
                              "succeeded": units, "shed": 0, "failed": 0,
                              "elapsed_s": record["sweep_s"],
                              "warm_rerun_s": record["warm_rerun_s"]})


def _end_to_end(result: Result, sweeps: List[Dict[str, float]]) -> None:
    _record_phases(result, sweeps, "")
    seconds = [record["sweep_s"] for record in sweeps]
    median_s = statistics.median(seconds)
    units = sum(record["units"] for record in sweeps)
    result.end_to_end["latency_p50_ms"] = median_s * 1e3
    result.details.update(
        sweep_s={"value": median_s, "unit": "s", "n": len(sweeps)},
        units_per_s={"value": units / sum(seconds), "unit": "1/s", "n": int(units)},
        warm_rerun_s={"value": statistics.median(r["warm_rerun_s"] for r in sweeps),
                      "unit": "s", "n": len(sweeps)},
        warm_cache_hit_ratio={"value": min(r["cache_hit_ratio"] for r in sweeps),
                              "unit": "ratio", "n": len(sweeps)},
        failed_share={"value": 0.0, "unit": "ratio", "n": int(units)},
    )


def _per_layer(result: Result, traced: List[Dict[str, float]]) -> None:
    values = result.per_layer
    recorder = result.recorder
    spans = recorder.spans
    count = len(traced)
    result.stage_table = span_breakdown(
        recorder, "runtime.sweep", sum(r["sweep_s"] for r in traced), values)

    def inclusive_s(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name) / count

    fits = [s for s in spans if s.name == "training.fit"]
    values["training.fit_s"] = inclusive_s("training.fit")
    values["training.prepare_s"] = sum(s.attrs["prepare_s"] for s in fits) / count
    values["training.epochs"] = sum(s.attrs["epochs"] for s in fits) / count
    values["explain.evaluate_s"] = inclusive_s("explain.evaluate")
    values["data.generate_s"] = inclusive_s("data.generate")
    values["runtime.units"] = sum(r["units"] for r in traced) / count
    values["runtime.warm_rerun_s"] = statistics.mean(r["warm_rerun_s"] for r in traced)
    values["runtime.cache_hit_ratio"] = min(r["cache_hit_ratio"] for r in traced)
