"""``stream_hop``: one incremental :class:`~repro.stream.StreamSession`, fed hop by hop.

Set-up builds a seeded dCNN, opens the session and pushes the first window
(the cold start).  Every timed operation is one ``push`` of one new sample,
which slides the window by ``hop = 1`` and emits one dCAM heatmap.
"""

from __future__ import annotations

import time
from statistics import fmean
from typing import List, Optional, Tuple

import numpy as np

from repro.models import DCNNClassifier
from repro.stream import StreamConfig, StreamSession

from .common import GateError, Result, peak_rss_mb, span_breakdown, timed_setups
from .layers import install_model_layers, install_stream_layers
from .spans import Patches, SpanRecorder
from .stats import percentile, tail_supported

DIMENSIONS, WINDOW, K, HOP, CLASSES = 6, 128, 8, 1, 3
FILTERS = (8, 16, 16)
SETUP_REPEATS = 15
#: Untraced/traced slice pairs a traced run alternates (see serve.Shape).
TRACE_PAIRS = 4
GATE_HOPS = 48
TOLERANCE = 1e-10
_CHUNK = 4096


def make_model(seed: int) -> DCNNClassifier:
    model = DCNNClassifier(DIMENSIONS, WINDOW, CLASSES, filters=FILTERS,
                           rng=np.random.default_rng(seed))
    model.eval()
    return model


def config(engine: str, seed: int) -> StreamConfig:
    return StreamConfig(hop=HOP, engine=engine, k=K, seed=seed)


class Feed:
    """The seeded synthetic series, generated chunk by chunk as the run needs it."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 1])
        self._chunks: List[np.ndarray] = []

    def columns(self, start: int, stop: int) -> np.ndarray:
        while len(self._chunks) * _CHUNK < stop:
            self._chunks.append(self._rng.standard_normal((DIMENSIONS, _CHUNK)))
        if stop - start == 1:
            return self._chunks[start // _CHUNK][:, start % _CHUNK]
        return np.concatenate(self._chunks, axis=1)[:, start:stop]


def compare(emitted, reference, exact: bool) -> None:
    """Raise unless an incremental emission matches the naive oracle's."""
    for field in ("predicted", "class_id", "success_ratio"):
        if getattr(emitted, field) != getattr(reference, field):
            raise GateError(f"stream window {emitted.index}: {field} differs from the naive engine")
    if exact and not np.array_equal(emitted.heatmap, reference.heatmap):
        raise GateError(f"stream window {emitted.index}: first-window heatmap not bitwise equal")
    # Logits come from a k-row head product, so they agree to round-off only.
    for field in ("heatmap", "logits"):
        ours, theirs = getattr(emitted, field), getattr(reference, field)
        if np.max(np.abs(ours - theirs)) > TOLERANCE:
            raise GateError(f"stream window {emitted.index}: {field} differs by more than "
                            f"{TOLERANCE} from the naive engine")


def gate(model, seed: int, round_index: int) -> int:
    """Incremental emissions equal the naive engine's (first window bitwise)."""
    series = np.random.default_rng([seed, 2, round_index]).standard_normal(
        (DIMENSIONS, WINDOW + GATE_HOPS))
    incremental = StreamSession(model, config("incremental", seed))
    naive = StreamSession(model, config("naive", seed))
    count = 0
    for column in range(series.shape[1]):
        for ours, theirs in zip(incremental.push(series[:, column]),
                                naive.push(series[:, column])):
            compare(ours, theirs, exact=count == 0)
            count += 1
    if count != GATE_HOPS + 1:
        raise GateError(f"stream emitted {count} windows, expected {GATE_HOPS + 1}")
    return count


def _measure(session: StreamSession, feed: Feed, position: int, seconds: float,
             recorder: Optional[SpanRecorder] = None) -> Tuple[List[float], float, int, object]:
    """Push one sample per hop until ``seconds`` pass; returns per-hop seconds,
    wall time, the next feed position and the last emission."""
    hops: List[float] = []
    last = None
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        sample = feed.columns(position, position + 1)
        begin = time.perf_counter()
        if recorder is None:
            emitted = session.push(sample)
        else:
            with recorder.span("stream.hop"):
                emitted = session.push(sample)
        hops.append(time.perf_counter() - begin)
        if len(emitted) != 1:
            raise GateError(f"hop at sample {position} emitted {len(emitted)} windows")
        last = emitted[0]
        position += 1
    return hops, time.perf_counter() - started, position, last


def _check_last(model, seed: int, feed: Feed, position: int, last) -> None:
    """The last timed emission must match the naive engine on the same window."""
    naive = StreamSession(model, config("naive", seed))
    reference = naive.push(feed.columns(position - WINDOW, position))
    if len(reference) != 1:
        raise GateError("naive engine did not emit the check window")
    compare(last, reference[0], exact=False)


def run(seed: int, seconds: float, trace: bool, workdir: str) -> Result:
    result = Result()
    feed = Feed(seed)

    def build():
        model = make_model(seed)
        session = StreamSession(model, config("incremental", seed))
        if len(session.push(feed.columns(0, WINDOW))) != 1:
            raise GateError("the first full window emitted nothing")
        return model, session

    (model, session), setup_s, setups = timed_setups(build, SETUP_REPEATS, lambda kept: None)
    result.end_to_end["setup_s"] = setup_s
    result.details["setup_s_each"] = setups
    result.attempted += gate(model, seed, 0)
    position = WINDOW
    if not trace:
        hops, wall, position, last = _measure(session, feed, position, seconds)
        _check_last(model, seed, feed, position, last)
        _end_to_end(result, hops, wall)
    else:
        recorder, patches = SpanRecorder(), Patches()
        untraced: List[float] = []
        traced: List[float] = []
        rebuilds_before = session.stats["cam_rebuilds"]
        slice_s = seconds / (2 * TRACE_PAIRS)
        for pair in range(TRACE_PAIRS):
            hops, _, position, _ = _measure(session, feed, position, slice_s)
            untraced.extend(hops)
            install_model_layers(patches, recorder)
            install_stream_layers(patches, recorder, model)
            try:
                if pair == 0:
                    result.attempted += gate(model, seed, 1)
                    recorder.spans.clear()
                hops, _, position, last = _measure(session, feed, position, slice_s, recorder)
                traced.extend(hops)
            finally:
                patches.restore()
        _check_last(model, seed, feed, position, last)
        result.recorder = recorder
        values = result.per_layer
        result.stage_table = span_breakdown(recorder, "stream.hop", sum(traced), values)
        values["stream.rebuilds"] = float(session.stats["cam_rebuilds"] - rebuilds_before)
        values["trace_overhead"] = fmean(traced) / fmean(untraced) - 1.0
        result.attempted += len(untraced) + len(traced)
        for label, hops in (("untraced-hops", untraced), ("traced-hops", traced)):
            result.phases.append({"phase": label, "loop": "closed", "connections": 1,
                                  "sent": len(hops), "succeeded": len(hops), "shed": 0,
                                  "failed": 0, "busy_s": sum(hops)})
    result.end_to_end["peak_rss_mb"] = peak_rss_mb()
    return result


def _end_to_end(result: Result, hops: List[float], wall: float) -> None:
    p50, count = percentile(hops, 50.0)
    p99, _ = percentile(hops, 99.0)
    result.attempted += count
    result.end_to_end["latency_p50_ms"] = p50 * 1e3
    result.phases.append({"phase": "hops", "loop": "closed", "connections": 1,
                          "sent": count, "succeeded": count, "shed": 0, "failed": 0,
                          "elapsed_s": wall})
    result.details.update(
        hops_per_s={"value": count / wall, "unit": "1/s", "n": count},
        hop_p50_ms={"value": p50 * 1e3, "unit": "ms", "n": count},
        hop_p99_ms={"value": p99 * 1e3, "unit": "ms", "n": count,
                    "supported": tail_supported(count, 99.0)},
        failed_share={"value": 0.0, "unit": "ratio", "n": count},
    )
