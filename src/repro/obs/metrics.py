"""Thread-safe metric primitives: counters, gauges, timers, histograms.

One :class:`Telemetry` registry holds named monotonic :class:`Counter`\\ s,
cumulative :class:`Timer`\\ s, last-value :class:`Gauge`\\ s and
fixed-log-bucket :class:`Histogram`\\ s.  The primitives are deliberately
tiny — a lock, an integer / a float / a bucket array — so they can sit on hot
paths (the serving batcher, the ``repro.run`` unit loop) without measurable
overhead, and deliberately *shared*: the serve ``/metrics`` endpoint and the
runtime progress hooks both render the same :meth:`Telemetry.snapshot`
mapping.

Two behaviours added on top of the original flat registry:

* every :meth:`Telemetry.timer` is backed by a same-named
  :class:`Histogram`, so each existing ``with telemetry.timer(...)`` site
  gains p50/p90/p99 latency estimates without touching the call site;
* registration is collision-checked.  ``snapshot()`` flattens a timer named
  ``x`` into the keys ``x_seconds``/``x_count``, which used to silently
  shadow a counter or gauge holding that literal name (and a counter could
  shadow a gauge).  Cross-kind reuse of a snapshot key now raises
  :class:`ValueError` at registration time instead of corrupting the export.

>>> telemetry = Telemetry()
>>> telemetry.counter("requests").increment()
1
>>> with telemetry.timer("explain"):
...     pass
>>> sorted(telemetry.snapshot())
['explain_count', 'explain_seconds', 'requests']
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "ProgressHook",
    "Telemetry",
    "Timer",
    "null_telemetry",
]


class Counter:
    """A named, thread-safe, monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` (default 1) and return the new value."""
        with self._lock:
            self._value += int(amount)
            return self._value

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A named, thread-safe last-value metric (queue depth, in-flight total).

    Unlike :class:`Counter` a gauge moves in both directions: ``set`` replaces
    the value, ``adjust`` moves it relative to the current one (and returns
    the new value).  Snapshot renders the instantaneous value.
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def adjust(self, delta: float) -> float:
        with self._lock:
            self._value += float(delta)
            return self._value

    @property
    def value(self) -> float:
        return self._value


# Histogram bucket geometry, fixed for every histogram in the process (and
# across processes: fleet workers ship sparse bucket dicts in heartbeats and
# the coordinator merges them index-for-index, which is only sound because
# the bounds are a program constant, not per-instance state).
#
# Buckets are log-spaced at factor 2**0.25 (~1.19x) from 1 microsecond:
# bucket 0 holds values <= 1e-6 s, bucket i holds (1e-6 * G**(i-1),
# 1e-6 * G**i], and the last bucket catches everything above ~928 s.  120
# buckets cover nine decades of latency at a bounded footprint (one int
# each), and quantile estimates read the geometric midpoint of the target
# bucket, so the relative error is at most sqrt(G) - 1 ~ 9% — an explicit,
# documented error budget in exchange for O(1) memory and lock-free reads
# of a consistent snapshot under the instance lock.
_BUCKET_MIN = 1e-6
_BUCKET_GROWTH = 2.0**0.25
_BUCKET_COUNT = 120
_LOG_GROWTH = math.log(_BUCKET_GROWTH)
#: Inclusive upper bound of every bucket except the last (which is +inf).
BUCKET_UPPER_BOUNDS: Tuple[float, ...] = tuple(
    _BUCKET_MIN * _BUCKET_GROWTH**i for i in range(_BUCKET_COUNT - 1)
) + (math.inf,)


def bucket_index(value: float) -> int:
    """The fixed-geometry bucket index holding ``value`` (seconds)."""
    if value <= _BUCKET_MIN:
        return 0
    index = int(math.log(value / _BUCKET_MIN) / _LOG_GROWTH) + 1
    return index if index < _BUCKET_COUNT else _BUCKET_COUNT - 1


class Histogram:
    """A named, thread-safe latency histogram over fixed log-spaced buckets.

    ``observe`` is O(1); ``quantile`` walks the bucket array and returns the
    geometric midpoint of the bucket containing the requested rank (clamped
    to the observed min/max), so estimates carry at most ~9% relative error —
    see the bucket-geometry comment above.  Histograms from other processes
    with the same geometry merge exactly (bucket-wise addition) via
    :meth:`merge_dict`, which is how fleet worker latencies aggregate on the
    coordinator.
    """

    __slots__ = ("name", "_buckets", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets = [0] * _BUCKET_COUNT
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one measurement (seconds)."""
        value = float(value)
        index = bucket_index(value)
        with self._lock:
            self._buckets[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0 < q <= 1); 0.0 when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        with self._lock:
            if self._count == 0:
                return 0.0
            target = q * self._count
            cumulative = 0
            index = _BUCKET_COUNT - 1
            for i, bucket in enumerate(self._buckets):
                cumulative += bucket
                if cumulative >= target:
                    index = i
                    break
            estimate = _bucket_midpoint(index)
            return min(max(estimate, self._min), self._max)

    def percentiles(self) -> Dict[str, float]:
        """The conventional ``{"p50": ..., "p90": ..., "p99": ...}`` trio."""
        return {"p50": self.quantile(0.50), "p90": self.quantile(0.90), "p99": self.quantile(0.99)}

    def summary(self) -> Dict[str, float]:
        """Count, sum and percentiles as one plain-scalar mapping."""
        with self._lock:
            count, total = self._count, self._sum
        summary: Dict[str, float] = {"count": count, "sum": total}
        summary.update(self.percentiles())
        return summary

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs for text exposition.

        Only buckets where the cumulative count changes are returned (plus
        the final ``+inf`` bucket), keeping the Prometheus rendering sparse.
        """
        with self._lock:
            buckets = list(self._buckets)
            count = self._count
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for index, bucket in enumerate(buckets):
            cumulative += bucket
            if bucket:
                pairs.append((BUCKET_UPPER_BOUNDS[index], cumulative))
        if not pairs or pairs[-1][0] != math.inf:
            pairs.append((math.inf, count))
        return pairs

    def to_dict(self) -> Dict[str, object]:
        """Sparse JSON-safe transport form (heartbeat payloads, /trace dumps)."""
        with self._lock:
            sparse = {str(i): c for i, c in enumerate(self._buckets) if c}
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "buckets": sparse,
            }

    def merge_dict(self, payload: Dict[str, object]) -> None:
        """Fold a :meth:`to_dict` payload (same fixed geometry) into this one."""
        buckets = payload.get("buckets") or {}
        low = payload.get("min")
        high = payload.get("max")
        with self._lock:
            for raw_index, raw_count in buckets.items():
                index = int(raw_index)
                if 0 <= index < _BUCKET_COUNT:
                    self._buckets[index] += int(raw_count)
            self._count += int(payload.get("count", 0))
            self._sum += float(payload.get("sum", 0.0))
            if low is not None and float(low) < self._min:
                self._min = float(low)
            if high is not None and float(high) > self._max:
                self._max = float(high)

    def merge(self, other: "Histogram") -> None:
        """Fold another in-process histogram into this one."""
        self.merge_dict(other.to_dict())


def _bucket_midpoint(index: int) -> float:
    """Representative value for a bucket: its geometric midpoint."""
    if index == 0:
        return _BUCKET_MIN
    if index == _BUCKET_COUNT - 1:
        # The overflow bucket has no upper bound; report its lower edge.
        return _BUCKET_MIN * _BUCKET_GROWTH ** (index - 1)
    return _BUCKET_MIN * _BUCKET_GROWTH ** (index - 0.5)


class Timer:
    """A named, thread-safe cumulative wall-clock timer.

    Use as a context manager (:func:`time.perf_counter` based); ``seconds``
    accumulates across entries and ``count`` records how many measurements
    contributed.  The in-flight start mark is thread-local, so concurrent
    ``with`` blocks on one timer measure independently.  When constructed by
    a :class:`Telemetry` registry the timer also feeds a same-named
    :class:`Histogram`, so cumulative totals and percentiles stay in sync.
    """

    __slots__ = ("name", "seconds", "count", "histogram", "_lock", "_local")

    def __init__(self, name: str, histogram: Optional[Histogram] = None) -> None:
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.histogram = histogram
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, seconds: float) -> None:
        seconds = float(seconds)
        with self._lock:
            self.seconds += seconds
            self.count += 1
        if self.histogram is not None:
            self.histogram.observe(seconds)

    def __enter__(self) -> "Timer":
        self._local.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.add(time.perf_counter() - self._local.start)


class Telemetry:
    """A registry of named metrics with one flat ``snapshot()`` view.

    Metrics are created lazily on first access and live for the registry's
    lifetime.  ``snapshot()`` returns plain scalars (counters as ints, timers
    as ``<name>_seconds`` / ``<name>_count`` pairs, gauges as floats), which
    is what both the serve ``/metrics`` endpoint and the CLI progress output
    render; :meth:`histogram_summaries` adds the percentile view alongside.

    The snapshot keys a metric will emit are *claimed* at registration:
    re-requesting the same name with the same kind returns the existing
    instance, but a cross-kind claim (a counter named ``engine_seconds`` next
    to a timer named ``engine``, a gauge reusing a counter name, ...) raises
    :class:`ValueError` instead of silently shadowing one metric with the
    other in the flat export.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._timers: Dict[str, Timer] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._claims: Dict[str, str] = {}
        self._lock = threading.Lock()

    def _claim_keys(self, keys: Iterable[str], kind: str, name: str) -> None:
        """Reserve snapshot ``keys`` for one metric; caller holds ``_lock``."""
        claim = f"{kind} {name!r}"
        for key in keys:
            owner = self._claims.get(key)
            if owner is not None and owner != claim:
                raise ValueError(
                    f"telemetry snapshot key {key!r} is already emitted by {owner}; "
                    f"registering {claim} would silently shadow it"
                )
        for key in keys:
            self._claims[key] = claim

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    self._claim_keys((name,), "counter", name)
                    counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            with self._lock:
                timer = self._timers.get(name)
                if timer is None:
                    self._claim_keys((f"{name}_seconds", f"{name}_count"), "timer", name)
                    histogram = self._histograms.get(name)
                    if histogram is None:
                        histogram = self._histograms[name] = Histogram(name)
                    timer = self._timers[name] = Timer(name, histogram=histogram)
        return timer

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    self._claim_keys((name,), "gauge", name)
                    gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        """A standalone histogram (timers attach one of the same name)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram(name))
        return histogram

    def increment(self, name: str, amount: int = 1) -> int:
        """Shorthand for ``telemetry.counter(name).increment(amount)``."""
        return self.counter(name).increment(amount)

    def observe(self, name: str, seconds: float) -> None:
        """Shorthand for ``telemetry.timer(name).add(seconds)``."""
        self.timer(name).add(seconds)

    def snapshot(self) -> Dict[str, Union[int, float]]:
        """All metrics as one flat ``{name: scalar}`` mapping."""
        values: Dict[str, Union[int, float]] = {}
        with self._lock:
            counters = list(self._counters.values())
            timers = list(self._timers.values())
            gauges = list(self._gauges.values())
        for counter in counters:
            values[counter.name] = counter.value
        for timer in timers:
            values[f"{timer.name}_seconds"] = timer.seconds
            values[f"{timer.name}_count"] = timer.count
        for gauge in gauges:
            values[gauge.name] = gauge.value
        return values

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """``{name: {count, sum, p50, p90, p99}}`` for every histogram."""
        with self._lock:
            histograms = list(self._histograms.values())
        return {histogram.name: histogram.summary() for histogram in histograms}

    def histogram_dump(self) -> Dict[str, Dict[str, object]]:
        """Sparse transport form of every histogram (heartbeat payloads)."""
        with self._lock:
            histograms = list(self._histograms.values())
        return {histogram.name: histogram.to_dict() for histogram in histograms}

    def histograms(self) -> Dict[str, Histogram]:
        """A point-in-time copy of the name → histogram mapping."""
        with self._lock:
            return dict(self._histograms)


#: Hook signature of :func:`repro.runtime.run`'s per-unit progress callback:
#: ``on_unit(index, total, unit, source)`` where ``source`` is ``"cache"`` or
#: ``"executed"``.
ProgressHook = Callable[[int, int, object, str], None]


def null_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """``telemetry`` or a fresh throwaway registry (keeps call sites branch-free)."""
    return telemetry if telemetry is not None else Telemetry()
