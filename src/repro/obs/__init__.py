"""Observability: metrics, latency histograms, request tracing, exposition.

The package grows the original flat ``repro.telemetry`` registry into a real
observability layer shared by every subsystem:

* :mod:`repro.obs.metrics` — the thread-safe primitives: monotonic
  :class:`Counter`\\ s, last-value :class:`Gauge`\\ s, cumulative
  :class:`Timer`\\ s, and fixed-log-bucket :class:`Histogram`\\ s with
  mergeable buckets and p50/p90/p99 estimators.  Every :class:`Telemetry`
  timer records its measurements into a histogram of the same name, so every
  latency point of the stack (HTTP handler, batcher queue-wait and flush,
  engine calls, cache tier hits, remote round-trips, fleet units, stream
  hops) has percentiles, not just cumulative totals.  Registration is
  collision-checked: a timer named ``x`` and a counter named ``x_seconds``
  can no longer silently shadow each other in ``snapshot()``.
* :mod:`repro.obs.tracing` — sampled ``trace_id``/``span_id`` request
  tracing propagated through :data:`contextvars`, across threads (the
  micro-batcher captures the submitting context per request) and across
  processes (the wire-protocol JSON frame header carries the context —
  unknown header keys are opaque, so old peers interoperate).  Finished
  spans land in a bounded in-process :class:`SpanRing`.
* :mod:`repro.obs.exposition` — Prometheus text rendering of a registry
  (negotiated on the serve ``/metrics`` endpoint; also served by the
  byte-store server and fleet workers through :class:`MetricsHTTPServer`)
  plus the ``/trace`` JSON span dump.
* :mod:`repro.obs.config` — :class:`ObsConfig`, the serving layer's
  observability knobs.

Everything here is **out of band**: response bytes, cache keys and fleet
results are byte-identical with tracing on or off (pinned by tests), and
``benchmarks/bench_obs_overhead.py`` gates the hot-path overhead.
"""

from .config import ObsConfig
from .exposition import (
    MetricsHTTPServer,
    parse_prometheus,
    render_prometheus,
    spans_to_json,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    ProgressHook,
    Telemetry,
    Timer,
    null_telemetry,
)
from .tracing import (
    Span,
    SpanRing,
    TraceContext,
    Tracer,
    activate,
    current,
    maybe_trace,
    span,
    trace_wire_header,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsHTTPServer",
    "ObsConfig",
    "ProgressHook",
    "Span",
    "SpanRing",
    "Telemetry",
    "Timer",
    "TraceContext",
    "Tracer",
    "activate",
    "current",
    "maybe_trace",
    "null_telemetry",
    "parse_prometheus",
    "render_prometheus",
    "span",
    "spans_to_json",
    "trace_wire_header",
]
