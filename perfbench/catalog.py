"""The benchmark's workloads and metrics, as ``BENCHMARK.json`` names them.

``END_TO_END`` is what a user sees and is reported by every workload (the
untraced run).  ``PER_LAYER`` is one layer's share of the work (the traced
run); a workload that does not exercise a layer reports 0 for it.  Both are
the entries of ``BENCHMARK.json``.  The one thing that file cannot hold is
``MOVES``: which end-to-end metrics, on which workloads, each per-layer
metric should move.  ``goodput_rps``, ``hops_per_s`` and ``units_per_s`` are
not in ``BENCHMARK.json``: the untraced run prints them as named figures.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "BENCHMARK.json")
with open(_PATH, encoding="utf-8") as _handle:
    _SPEC = json.load(_handle)

WORKLOADS: List[str] = [workload["name"] for workload in _SPEC["workloads"]]
END_TO_END: List[Dict[str, Any]] = _SPEC["end_to_end"]
PER_LAYER: List[Dict[str, Any]] = _SPEC["per_layer"]

_SERVE = "latency_p50_ms, goodput_rps"
_TRUNK = (f"{_SERVE} on serve_paper; latency_p50_ms, hops_per_s on stream_hop; "
          "latency_p50_ms on sweep_tiny")
_PAPER_AND_STREAM = "latency_p50_ms on serve_paper; latency_p50_ms, hops_per_s on stream_hop"
_STREAM = "latency_p50_ms, hops_per_s on stream_hop"
_SWEEP = "latency_p50_ms, units_per_s on sweep_tiny"

MOVES: Dict[str, str] = {
    "serve.http.handler_ms":
        "latency_p50_ms on serve_tiny (p50 over explains of the call that /metrics "
        "http_explain times)",
    "serve.http.outside_ms": f"{_SERVE} on serve_tiny; about none on serve_paper",
    "serve.batcher.queue_wait_ms":
        "latency_p50_ms on serve_tiny and serve_paper (p50 over explains)",
    "serve.batcher.flush_width": "latency_p50_ms on serve_tiny and serve_paper",
    "serve.batcher.shed": f"{_SERVE} on serve_tiny and serve_paper",
    "serve.cache.hit_ratio": f"{_SERVE} on serve_tiny",
    "serve.cache.perm_hit_ratio": f"{_SERVE} on serve_tiny",
    "serve.cache.get_ms": f"{_SERVE} on serve_tiny",
    "serve.cache.put_ms": f"{_SERVE} on serve_tiny",
    "serve.engine.flush_ms": f"{_SERVE} on serve_tiny and serve_paper",
    "explain.dcam.self_ms": "latency_p50_ms on serve_paper",
    "core.input_transform.cube_ms": "latency_p50_ms and peak_rss_mb on serve_paper",
    "nn.trunk.block0_ms": _TRUNK,
    "nn.trunk.block1_ms": _TRUNK,
    "nn.trunk.block2_ms": _TRUNK,
    "nn.trunk.block0_share":
        f"{_SERVE} on serve_paper (share of engine time; gates layer-1 factorisation)",
    "core.dcam.forward_self_ms": _PAPER_AND_STREAM,
    "core.dcam.merge_ms": _PAPER_AND_STREAM,
    "core.dcam.extract_ms": _PAPER_AND_STREAM,
    "core.dcam.rows_forwarded": _PAPER_AND_STREAM,
    "stream.roll_cube_ms": _STREAM,
    "stream.trunk_slide_ms": _STREAM,
    "stream.delta_merge_ms": _STREAM,
    "stream.extract_ms": _STREAM,
    "stream.rebuilds": _STREAM,
    "training.fit_s": _SWEEP,
    "training.prepare_s": _SWEEP,
    "training.epochs": _SWEEP,
    "explain.evaluate_s": _SWEEP,
    "data.generate_s": _SWEEP,
    "runtime.units": "units_per_s on sweep_tiny",
    "runtime.warm_rerun_s": "none of the end-to-end metrics (warm rerun)",
    "runtime.cache_hit_ratio": "none; must be 1.0 on the warm rerun of sweep_tiny",
    "trace_overhead": "none; traced over untraced time per operation, minus 1, per workload",
    "residual_share": "none; end-to-end time no layer span covers, per workload",
}


def per_layer_zeros() -> Dict[str, float]:
    return {metric["name"]: 0.0 for metric in PER_LAYER}
