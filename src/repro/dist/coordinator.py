"""Fleet coordination: a work-unit queue served over the wire protocol.

:class:`FleetCoordinator` is the in-memory queue — pending unit deque, active
leases with heartbeat deadlines, completed result blobs — and
:class:`FleetExecutor` embeds one (plus a :class:`~repro.dist.server.WireServer`
publishing the ``fleet-*`` operations) to implement the runtime
:class:`~repro.runtime.executor.Executor` protocol across machines:
``python -m repro worker --connect host:port`` processes lease units, execute
them and post results back, while the executor's ``imap`` yields them in
submission order exactly like the serial and process-pool executors.

Failure semantics — the part that makes a fleet usable:

* a worker that *reports* an exception fails the unit; the coordinator
  re-queues it up to ``max_attempts`` times and only then surfaces the error
  to the caller (as the same exception type semantics as local execution:
  ``imap`` raises);
* a worker that *dies silently* (killed, OOM, network partition) simply stops
  heartbeating; when its lease deadline passes, the unit is re-queued for the
  next lease request.  Nothing is lost — at-least-once delivery — and because
  units are deterministic and results content-addressed, re-execution is
  idempotent;
* results are delivered as the worker's pickle bytes; when the worker served
  a unit from the shared cache it forwards the cached blob verbatim, so a
  warm fleet run is byte-identical to a warm local run.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from ..obs.exposition import spans_to_json
from ..obs.metrics import Histogram
from ..obs.tracing import Span, SpanRing, TraceContext, current
from ..runtime.spec import WorkUnit, unit_fingerprint
from ..obs import Telemetry
from .server import WireServer


@dataclass
class FleetConfig:
    """Knobs of the coordinator embedded in a :class:`FleetExecutor`."""

    #: Interface the coordinator listens on (workers connect here).
    host: str = "127.0.0.1"
    #: Port to bind; 0 picks an ephemeral port (printed by the CLI).
    port: int = 0
    #: Seconds a leased unit may go without a heartbeat before it is
    #: considered abandoned and re-queued for another worker.
    lease_timeout_s: float = 10.0
    #: Times one unit may be attempted (initial execution + re-queues after
    #: worker-reported failures or silent deaths) before the run fails.
    max_attempts: int = 3
    #: Largest frame payload the coordinator's wire server will buffer
    #: (``None``: :data:`repro.dist.protocol.DEFAULT_SERVER_MAX_PAYLOAD_BYTES`).
    #: Raise it only when unit results genuinely exceed the default.
    max_payload_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.max_payload_bytes is not None and self.max_payload_bytes <= 0:
            raise ValueError("max_payload_bytes must be positive")


class UnitFailedError(RuntimeError):
    """A unit exhausted its attempts; carries the last worker-side error."""


@dataclass
class _UnitState:
    blob: bytes  # pickled (fn, payload)
    fingerprint: Optional[str]
    attempts: int = 0
    result_blob: Optional[bytes] = None
    from_cache: bool = False
    error: Optional[str] = None
    done: bool = False
    #: Monotonic clock at the latest lease; feeds the ``fleet_unit``
    #: lease-to-complete latency histogram on completion.
    leased_at: Optional[float] = None
    #: Trace context captured at submit time (the executor's calling
    #: thread); carried to the worker in the lease header and used to
    #: parent a ``fleet.unit`` span when the result lands.
    trace: Optional[TraceContext] = None


class FleetCoordinator:
    """The queue itself: thread-safe lease/complete/fail/heartbeat state."""

    def __init__(self, config: FleetConfig, telemetry: Optional[Telemetry] = None) -> None:
        """Create an empty queue governed by ``config``'s lease/retry knobs.

        ``telemetry`` receives the ``fleet_*`` counters (submitted, leased,
        completed, deduped, failed, expired); a private registry is created
        when omitted.
        """
        self.config = config
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._lock = threading.Condition()
        self._units: Dict[int, _UnitState] = {}
        self._pending: Deque[int] = deque()
        self._leases: Dict[int, Tuple[str, float]] = {}  # unit id -> (worker, deadline)
        self._next_id = 0
        self._draining = False
        self.workers_seen: set = set()
        # Fleet-wide observability aggregated from worker heartbeats: spans
        # drained out of worker rings land here, and each worker's latest
        # cumulative metric/histogram snapshot is kept whole (latest-wins —
        # merging cumulative snapshots per beat would double-count).
        self.span_ring = SpanRing(2048)
        self._worker_reports: Dict[str, Dict[str, Any]] = {}

    # -- executor side -------------------------------------------------
    def submit(self, blob: bytes, fingerprint: Optional[str] = None) -> int:
        """Enqueue one pickled ``(fn, payload)``; returns its unit id."""
        with self._lock:
            unit_id = self._next_id
            self._next_id += 1
            self._units[unit_id] = _UnitState(blob=blob, fingerprint=fingerprint, trace=current())
            self._pending.append(unit_id)
            self.telemetry.increment("fleet_units_submitted")
            self._lock.notify_all()
        return unit_id

    def wait(self, unit_id: int, timeout_s: Optional[float] = None) -> _UnitState:
        """Block until ``unit_id`` finishes (or fails); re-queues dead leases."""
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._lock:
            while True:
                state = self._units[unit_id]
                if state.done:
                    return state
                self._expire_leases_locked()
                remaining = 0.25
                if deadline is not None:
                    remaining = min(remaining, deadline - time.monotonic())
                    if remaining <= 0:
                        raise TimeoutError(f"unit {unit_id} not finished after {timeout_s}s")
                # Wake at least every 250ms so lease expiry runs even when no
                # worker traffic arrives (e.g. the only worker just died).
                self._lock.wait(timeout=remaining)

    def drain(self) -> None:
        """Tell pollers the run is over: subsequent leases answer ``shutdown``."""
        with self._lock:
            self._draining = True
            self._lock.notify_all()

    # -- worker side ---------------------------------------------------
    def lease(self, worker: str) -> Tuple[Optional[int], Optional[_UnitState], bool]:
        """``(unit_id, state, shutdown)`` — unit id ``None`` when queue is empty."""
        with self._lock:
            self.workers_seen.add(worker)
            self._expire_leases_locked()
            if not self._pending:
                return None, None, self._draining
            unit_id = self._pending.popleft()
            state = self._units[unit_id]
            state.attempts += 1
            state.leased_at = time.monotonic()
            self._leases[unit_id] = (worker, time.monotonic() + self.config.lease_timeout_s)
            self.telemetry.increment("fleet_units_leased")
            return unit_id, state, False

    def complete(self, unit_id: int, result_blob: bytes, from_cache: bool = False) -> None:
        """Record a worker's result for ``unit_id`` and release its lease.

        ``from_cache`` marks a unit the worker answered from the shared
        result cache (counted as ``fleet_units_deduped``).  A late delivery
        for a unit that already finished — e.g. a presumed-dead worker's
        answer arriving after the expiry re-run completed — is ignored.
        """
        with self._lock:
            state = self._units.get(unit_id)
            if state is None or state.done:
                return  # late delivery after an expiry re-run finished first
            state.result_blob = result_blob
            state.from_cache = from_cache
            state.done = True
            self._leases.pop(unit_id, None)
            self.telemetry.increment("fleet_units_completed")
            if from_cache:
                self.telemetry.increment("fleet_units_deduped")
            if state.leased_at is not None:
                lease_to_complete = max(0.0, time.monotonic() - state.leased_at)
            else:
                lease_to_complete = None
            trace = state.trace
            self._lock.notify_all()
        # Record observability outside the queue lock: nothing below touches
        # queue state, and result bytes are already delivered unchanged.
        if lease_to_complete is not None:
            self.telemetry.timer("fleet_unit").add(lease_to_complete)
            if trace is not None:
                trace.tracer.record(
                    trace,
                    "fleet.unit",
                    time.time() - lease_to_complete,
                    lease_to_complete,
                    attrs={"unit": unit_id, "cached": from_cache},
                )

    def fail(self, unit_id: int, error: str) -> None:
        """Record a worker-reported failure of ``unit_id``.

        The unit is re-queued for another attempt while its budget lasts;
        once ``max_attempts`` is exhausted it is marked done with ``error``
        set, which makes the waiting executor raise :class:`UnitFailedError`.
        """
        with self._lock:
            state = self._units.get(unit_id)
            if state is None or state.done:
                return
            self._leases.pop(unit_id, None)
            self.telemetry.increment("fleet_units_failed")
            if state.attempts >= self.config.max_attempts:
                state.error = error
                state.done = True
            else:
                self._pending.append(unit_id)
            self._lock.notify_all()

    def heartbeat(self, worker: str) -> int:
        """Extend every lease ``worker`` holds; returns how many it holds."""
        with self._lock:
            held = 0
            deadline = time.monotonic() + self.config.lease_timeout_s
            for unit_id, (owner, _) in list(self._leases.items()):
                if owner == worker:
                    self._leases[unit_id] = (owner, deadline)
                    held += 1
            return held

    # -- fleet-wide observability --------------------------------------
    def ingest_report(self, worker: str, report: Dict[str, Any]) -> None:
        """Fold a worker's heartbeat-carried observability into the aggregate.

        ``report`` may carry ``spans`` (drained from the worker's ring —
        appended to the coordinator-side ring) and ``metrics`` /
        ``histograms`` (the worker's *cumulative* registry snapshots — kept
        whole per worker, latest-wins, because folding cumulative counters
        on every beat would double-count).  Old workers send none of these
        keys; unknown keys are simply absent.
        """
        spans = report.get("spans")
        if isinstance(spans, list):
            for payload in spans:
                try:
                    self.span_ring.record(Span.from_dict(payload))
                except (KeyError, TypeError, ValueError):
                    continue  # a malformed span is dropped, never fatal
        metrics = report.get("metrics")
        histograms = report.get("histograms")
        if isinstance(metrics, dict) or isinstance(histograms, dict):
            with self._lock:
                self._worker_reports[worker] = {
                    "metrics": dict(metrics) if isinstance(metrics, dict) else {},
                    "histograms": dict(histograms) if isinstance(histograms, dict) else {},
                }

    def fleet_metrics(self) -> Dict[str, Any]:
        """Fleet-wide view: summed worker counters + merged histograms.

        Built fresh from each worker's latest cumulative snapshot, so the
        result is consistent however often workers heartbeat.  Returns
        ``{"workers": [...], "metrics": {...}, "histograms": {name:
        summary}}``.
        """
        with self._lock:
            reports = {worker: report for worker, report in self._worker_reports.items()}
        summed: Dict[str, float] = {}
        merged: Dict[str, Histogram] = {}
        for report in reports.values():
            for name, value in report["metrics"].items():
                if isinstance(value, (int, float)):
                    summed[name] = summed.get(name, 0) + value
            for name, payload in report["histograms"].items():
                if isinstance(payload, dict):
                    histogram = merged.get(name)
                    if histogram is None:
                        histogram = merged[name] = Histogram(name)
                    histogram.merge_dict(payload)
        return {
            "workers": sorted(reports),
            "metrics": summed,
            "histograms": {name: histogram.summary() for name, histogram in merged.items()},
        }

    # ------------------------------------------------------------------
    def _expire_leases_locked(self) -> None:
        now = time.monotonic()
        for unit_id, (worker, deadline) in list(self._leases.items()):
            if deadline >= now:
                continue
            del self._leases[unit_id]
            state = self._units[unit_id]
            self.telemetry.increment("fleet_leases_expired")
            if state.attempts >= self.config.max_attempts:
                state.error = f"worker {worker!r} stopped heartbeating and attempts are exhausted"
                state.done = True
            else:
                self._pending.appendleft(unit_id)  # dead-worker units jump the queue
            self._lock.notify_all()


class FleetExecutor:
    """Multi-host :class:`~repro.runtime.executor.Executor` over a worker fleet.

    Embeds the coordinator and its wire server in-process — only workers
    speak TCP; the executor reads coordinator state directly.  Payloads of
    the shape ``(scale, WorkUnit)`` (what :func:`repro.runtime.run` ships)
    are fingerprinted so workers can serve them straight from the shared
    :class:`~repro.runtime.cache.ResultCache` without executing anything.
    """

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        """Start the embedded coordinator and its wire server immediately.

        The bound address (``config.port`` 0 picks an ephemeral port) is
        available as :attr:`address` right after construction — hand it to
        ``python -m repro worker --connect``.
        """
        self.config = config if config is not None else FleetConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.coordinator = FleetCoordinator(self.config, telemetry=self.telemetry)
        self.server = WireServer(
            host=self.config.host,
            port=self.config.port,
            telemetry=self.telemetry,
            process_label="fleet-coordinator",
            max_payload_bytes=self.config.max_payload_bytes,
        )
        self._register_ops()
        self.server.start()

    # ------------------------------------------------------------------
    def _register_ops(self) -> None:
        coordinator = self.coordinator

        def handle_lease(header: Dict[str, Any], payload: bytes):
            worker = str(header.get("worker", "?"))
            unit_id, state, shutdown = coordinator.lease(worker)
            if unit_id is None:
                return {"ok": True, "unit": None, "shutdown": shutdown}, b""
            response = {
                "ok": True,
                "unit": unit_id,
                "fingerprint": state.fingerprint,
                "attempt": state.attempts,
            }
            if state.trace is not None:
                # Hand the submitter's trace context to the worker so its
                # unit-execution spans join the same trace (old workers
                # ignore the key).
                response["trace"] = state.trace.wire()
            return response, state.blob

        def handle_complete(header: Dict[str, Any], payload: bytes):
            worker = str(header.get("worker", "?"))
            # Ingest before completing: complete() wakes the submitter, so
            # the spans riding this frame must already be in the ring when
            # it resumes and inspects the trace.
            coordinator.ingest_report(worker, header)
            coordinator.complete(
                int(header["unit"]), payload, from_cache=bool(header.get("cached"))
            )
            return {"ok": True}, b""

        def handle_fail(header: Dict[str, Any], payload: bytes):
            coordinator.fail(int(header["unit"]), str(header.get("error", "unknown error")))
            return {"ok": True}, b""

        def handle_heartbeat(header: Dict[str, Any], payload: bytes):
            worker = str(header.get("worker", "?"))
            held = coordinator.heartbeat(worker)
            coordinator.ingest_report(worker, header)
            return {"ok": True, "held": held}, b""

        def handle_trace_dump(header: Dict[str, Any], payload: bytes):
            # The coordinator's dump covers both its own server-side spans
            # and the worker spans aggregated from heartbeats.
            spans = spans_to_json(self.server.tracer.ring.spans())
            spans.extend(spans_to_json(coordinator.span_ring.spans()))
            return {"ok": True, "spans": spans}, b""

        self.server.register("fleet-lease", handle_lease)
        self.server.register("fleet-complete", handle_complete)
        self.server.register("fleet-fail", handle_fail)
        self.server.register("fleet-heartbeat", handle_heartbeat)
        self.server.register("trace-dump", handle_trace_dump)

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """``host:port`` the coordinator's wire server is listening on."""
        return self.server.address

    @property
    def label(self) -> str:
        """Human-readable executor label (shown by the CLI run banner)."""
        return f"fleet[{self.address}]"

    @staticmethod
    def _fingerprint(payload: Any) -> Optional[str]:
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and isinstance(payload[1], WorkUnit)
        ):
            return unit_fingerprint(payload[0], payload[1])
        return None

    def imap(self, fn: Callable[[Any], Any], payloads: Iterable[Any]) -> Iterator[Any]:
        """Ordered lazy results, yielded as the fleet completes them in order."""
        unit_ids = [
            self.coordinator.submit(
                pickle.dumps((fn, payload), protocol=pickle.HIGHEST_PROTOCOL),
                fingerprint=self._fingerprint(payload),
            )
            for payload in payloads
        ]
        for unit_id in unit_ids:
            state = self.coordinator.wait(unit_id)
            if state.error is not None:
                raise UnitFailedError(
                    f"fleet unit {unit_id} failed after {state.attempts} attempt(s): {state.error}"
                )
            yield pickle.loads(state.result_blob)

    def map(self, fn: Callable[[Any], Any], payloads: Iterable[Any]) -> List[Any]:
        """Eager :meth:`imap`: all results in submission order."""
        return list(self.imap(fn, payloads))

    def fleet_metrics(self) -> Dict[str, Any]:
        """Fleet-wide worker counters/histograms (see coordinator docs)."""
        return self.coordinator.fleet_metrics()

    def trace_spans(self) -> List[Span]:
        """Worker spans aggregated from heartbeats, oldest first."""
        return self.coordinator.span_ring.spans()

    def close(self) -> None:
        """Signal workers to shut down and stop the wire server."""
        self.coordinator.drain()
        self.server.close()

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"FleetExecutor(address={self.address!r})"
