"""What every workload shares: its result record, set-up timing and span breakdown."""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .catalog import per_layer_zeros
from .spans import SpanRecorder, layer_totals, residual_share, self_times


class GateError(RuntimeError):
    """A correctness gate failed: the program's output differs from its reference."""


@dataclass
class Result:
    """One workload run: contract metrics, the record behind them, and the spans."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=per_layer_zeros)
    #: The issue's named figures with their sample counts (not gated).
    details: Dict[str, Any] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    stage_table: List[Dict[str, Any]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    recorder: Optional[SpanRecorder] = None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(build: Callable[[], Any], repeats: int,
                 discard: Callable[[Any], None]) -> Tuple[Any, float, List[float]]:
    """Run ``build`` ``repeats`` times; keep the last, discard the rest.

    Returns the kept object, the median set-up time and every time.
    """
    seconds: List[float] = []
    kept = None
    for _ in range(repeats):
        if kept is not None:
            discard(kept)
        started = time.perf_counter()
        kept = build()
        seconds.append(time.perf_counter() - started)
    return kept, statistics.median(seconds), seconds


def span_breakdown(recorder: SpanRecorder, root: str, engine_seconds: float,
                   values: Dict[str, float]) -> List[Dict[str, Any]]:
    """Fill the span-derived per-layer metrics; return the per-stage table.

    Times are self times per end-to-end operation (one root span), so the
    table's self column plus the residual adds up to the mean operation time.
    """
    spans = list(recorder.spans)
    selfs = self_times(spans)
    totals = layer_totals(spans, selfs)
    operations = totals[root].calls

    def per_op_ms(name: str) -> float:
        entry = totals.get(name)
        return entry.self_s / operations * 1e3 if entry else 0.0

    for metric, layer in [
        ("explain.dcam.self_ms", "explain.dcam"),
        ("core.input_transform.cube_ms", "core.input_transform.cube"),
        ("nn.trunk.block0_ms", "nn.trunk.block0"),
        ("nn.trunk.block1_ms", "nn.trunk.block1"),
        ("nn.trunk.block2_ms", "nn.trunk.block2"),
        ("core.dcam.forward_self_ms", "core.dcam.forward"),
        ("core.dcam.merge_ms", "core.dcam.merge"),
        ("core.dcam.extract_ms", "core.dcam.extract"),
        ("stream.roll_cube_ms", "stream.roll_cube"),
        ("stream.trunk_slide_ms", "stream.trunk_slide"),
        ("stream.delta_merge_ms", "stream.delta_merge"),
        ("stream.extract_ms", "stream.extract"),
    ]:
        values[metric] = per_op_ms(layer)
    block0 = totals.get("nn.trunk.block0")
    values["nn.trunk.block0_share"] = block0.self_s / engine_seconds if block0 else 0.0
    rows = sum(s.attrs.get("rows", 0) for s in spans if s.name == "core.dcam.forward")
    values["core.dcam.rows_forwarded"] = rows / operations
    values["residual_share"] = residual_share(spans, selfs, root)

    table = [
        {"stage": name, "calls": entry.calls,
         "self_ms_per_op": entry.self_s / operations * 1e3,
         "inclusive_ms_per_op": entry.inclusive_s / operations * 1e3}
        for name, entry in totals.items() if name != root
    ]
    table.sort(key=lambda row: -row["self_ms_per_op"])
    root_total = totals[root]
    table.append({"stage": "(residual)", "calls": root_total.calls,
                  "self_ms_per_op": root_total.self_s / operations * 1e3,
                  "inclusive_ms_per_op": root_total.inclusive_s / operations * 1e3})
    return table
