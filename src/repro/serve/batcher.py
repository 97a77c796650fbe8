"""Dynamic micro-batching: coalesce concurrent requests into one engine call.

Requests enter through :meth:`MicroBatcher.submit`, which returns a
:class:`concurrent.futures.Future` immediately.  Each *group key* (the
serving layer uses ``(artifact name, request kind)``) owns a dedicated
worker thread with its own queue — one slow dCAM flush can therefore never
stall classify traffic, or another model's explains: flushes of different
groups overlap freely.

The batcher is **work-conserving**: a group's worker never holds a request
while it is idle.  As soon as it holds one it flushes everything already
queued, up to the policy's flush size, to the ``execute`` callable.  Nothing
waits for companions that have not arrived; under load, batches form from
the requests that queued behind a running flush.  The flush size comes from
a pluggable :class:`~repro.serve.policy.BatchPolicy` consulted once per
flush and fed back the width, wall clock and remaining backlog of every
flush — a :class:`StaticBatchPolicy` holds it constant (``max_batch_size=1``
is the serial per-request dispatch mode the throughput benchmark compares
against), an :class:`~repro.serve.policy.AdaptiveBatchPolicy` tunes it from
the observed load.

Admission control: ``max_queue_depth`` bounds each group's in-flight
requests (queued + executing).  A submit over the bound fails fast with
:class:`QueueFullError` carrying a ``retry_after_s`` estimate from the
group's smoothed service rate — the backpressure signal the HTTP layer
translates into ``429`` + ``Retry-After`` instead of letting queues (and
client latency) grow without bound.  ``max_total_depth`` adds a *global*
bound across every group, and it is **priority-aware**: normal-priority
submits (expensive explains) are shed once the total reaches
``shed_watermark`` of the bound, while high-priority submits (cheap
classifies, health-relevant traffic) ride all the way to the full bound — so
under fleet-wide pressure the service keeps answering cheap requests long
after it has started refusing expensive ones.

The ``execute(group_key, requests)`` callable runs on the group's worker
thread and must return one result per request (order-preserving); an
exception fails every future of the flush.  Results must not depend on how
requests were grouped — the engine layer (:mod:`repro.serve.engine`)
guarantees that, so neither the per-group workers nor any batching policy
can change response bytes.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..obs.tracing import TraceContext, activate, current, span
from ..obs import Telemetry
from .policy import BatchPolicy, StaticBatchPolicy

#: Default flush size: the most requests one engine call takes.
DEFAULT_MAX_BATCH_SIZE = 8

#: Fallback ``retry_after_s`` before a group has measured its service rate.
DEFAULT_RETRY_AFTER_S = 1.0

_SHUTDOWN = object()


class QueueFullError(RuntimeError):
    """A group's in-flight bound was hit; retry after ``retry_after_s``."""

    def __init__(self, group_key: Hashable, depth: int, limit: int, retry_after_s: float) -> None:
        super().__init__(
            f"group {group_key!r} is overloaded: {depth} requests in flight "
            f"(bound {limit}); retry in ~{retry_after_s:.2f}s"
        )
        self.group_key = group_key
        self.depth = depth
        self.limit = limit
        self.retry_after_s = retry_after_s


@dataclass
class _Pending:
    request: Any
    future: Future
    #: Relative execution cost (e.g. a dCAM request's permutation count ``k``);
    #: summed per flush and reported to the policy so queue pressure is
    #: measured in work, not request count.
    cost: float = 1.0
    enqueued_at: float = field(default_factory=time.perf_counter)
    #: Trace context captured on the *submitting* thread — the flush runs on
    #: the group's worker thread, where the submitter's context variable is
    #: invisible, so cross-thread propagation has to be explicit.
    trace: Optional[TraceContext] = None


class _GroupWorker:
    """One queue + worker thread serving a single group key.

    In-flight accounting (``depth``) covers queued *and* currently-executing
    requests; it is incremented by the owning batcher under its admission
    check and decremented here as each future resolves, so the bound holds
    however slow the flushes run.
    """

    def __init__(self, batcher: "MicroBatcher", group_key: Hashable) -> None:
        self.batcher = batcher
        self.group_key = group_key
        self.queue: "queue.Queue" = queue.Queue()
        self.depth = 0
        #: Summed cost of the in-flight requests (same accounting as depth).
        self.cost_in_flight = 0.0
        self.depth_lock = threading.Lock()
        #: EWMA of per-request service seconds; drives retry-after estimates.
        self.request_seconds: Optional[float] = None
        self.thread = threading.Thread(
            target=self._loop,
            name=f"repro-serve-batcher-{group_key!r}",
            daemon=True,
        )
        self.thread.start()

    # ------------------------------------------------------------------
    def admit(self, cost: float = 1.0) -> bool:
        """Reserve one in-flight slot; False when the bound is hit."""
        limit = self.batcher.max_queue_depth
        with self.depth_lock:
            if limit is not None and self.depth >= limit:
                return False
            self.depth += 1
            self.cost_in_flight += cost
        self._publish_depth()
        return True

    def release(self, count: int = 1, cost: float = 0.0) -> None:
        with self.depth_lock:
            self.depth -= count
            self.cost_in_flight = max(0.0, self.cost_in_flight - cost)
        self.batcher._release_total(count)
        self._publish_depth()

    def retry_after(self) -> float:
        """Seconds until the backlog plausibly drained at the observed rate."""
        per_request = self.request_seconds
        if per_request is None:
            return DEFAULT_RETRY_AFTER_S
        return min(30.0, max(0.05, per_request * self.depth))

    def _publish_depth(self) -> None:
        self.batcher.telemetry.gauge(_depth_gauge_name(self.group_key)).set(self.depth)

    # ------------------------------------------------------------------
    def _flush(self, batch: List[_Pending]) -> None:
        telemetry = self.batcher.telemetry
        telemetry.increment("batches_flushed")
        telemetry.increment("batched_requests", len(batch))
        if isinstance(self.group_key, tuple) and len(self.group_key) == 2:
            kind = self.group_key[1]
        else:
            kind = "other"
        batch_cost = sum(pending.cost for pending in batch)
        started = time.perf_counter()
        # Batcher-visible queueing delay of this flush: how long its oldest
        # request sat before execution began.  Reported to the policy so an
        # adaptive width answers to end-to-end latency, not just flush time.
        queue_seconds = max(0.0, started - batch[0].enqueued_at)
        # Per-request queue-wait distribution, plus a queue span per *traced*
        # request.  Engine/cache spans of a coalesced flush attribute to the
        # first traced request of the batch (the flush runs once for all of
        # them); the per-request queue spans keep every traced request's own
        # wait visible.
        queue_timer = telemetry.timer(f"queue_wait_{kind}")
        wall_started = time.time()
        first_trace: Optional[TraceContext] = None
        for pending in batch:
            wait = max(0.0, started - pending.enqueued_at)
            queue_timer.add(wait)
            if pending.trace is not None:
                pending.trace.tracer.record(
                    pending.trace, "batcher.queue", wall_started - wait, wait, attrs={"kind": str(kind)}
                )
                if first_trace is None:
                    first_trace = pending.trace
        try:
            with telemetry.timer(f"flush_{kind}"):
                if first_trace is not None:
                    with activate(first_trace):
                        with span("batcher.flush", width=len(batch)):
                            self._execute_batch(batch)
                else:
                    self._execute_batch(batch)
        finally:
            elapsed = time.perf_counter() - started
            self.release(len(batch), batch_cost)
            per_request = elapsed / len(batch)
            if self.request_seconds is None:
                self.request_seconds = per_request
            else:
                self.request_seconds += 0.3 * (per_request - self.request_seconds)
            self.batcher.policy.observe(
                self.group_key,
                len(batch),
                elapsed,
                queue_depth=self.depth,
                batch_cost=batch_cost,
                queue_cost=self.cost_in_flight,
                queue_seconds=queue_seconds,
            )

    def _execute_batch(self, batch: List[_Pending]) -> None:
        execute = self.batcher._execute
        try:
            results = execute(self.group_key, [pending.request for pending in batch])
            if len(results) != len(batch):
                raise RuntimeError(
                    f"execute returned {len(results)} results for {len(batch)} requests"
                )
        except BaseException as error:  # noqa: BLE001 - forwarded per future below
            if len(batch) == 1:
                batch[0].future.set_exception(error)
                return
            # One bad request must not fail its coalesced companions: retry
            # the batch one request at a time so only the offender errors.
            # Nothing was resolved yet, so re-execution never double-serves.
            self.batcher.telemetry.increment("flush_error_isolations")
            for pending in batch:
                try:
                    result = execute(self.group_key, [pending.request])[0]
                except BaseException as single_error:  # noqa: BLE001
                    pending.future.set_exception(single_error)
                else:
                    pending.future.set_result(result)
            return
        for pending, result in zip(batch, results):
            pending.future.set_result(result)

    def _loop(self) -> None:
        while True:
            # Block only while idle, then take what is already queued, up to
            # the flush size: requests that piled up behind the previous
            # flush coalesce, and a lone request is flushed at once.  The
            # rest stays queued, where close(timeout) can still fail it.
            size = self.batcher.policy.decision(self.group_key)
            batch: List[_Pending] = []
            item = self.queue.get()
            while item is not _SHUTDOWN:
                batch.append(item)
                if len(batch) >= size:
                    break
                try:
                    item = self.queue.get_nowait()
                except queue.Empty:
                    break
            if batch:
                self._flush(batch)
            if item is _SHUTDOWN:
                # close() enqueues the marker after every accepted request,
                # so nothing is left behind it.
                return

    def fail_queued(self, error_factory: Callable[[], BaseException]) -> int:
        """Fail everything still sitting in the queue (post-timeout drain)."""
        items = []
        while True:
            try:
                items.append(self.queue.get_nowait())
            except queue.Empty:
                break
        failed = 0
        for item in items:
            if item is _SHUTDOWN:
                # Keep the marker: a worker stuck inside execute still needs
                # it to exit its loop once the engine call returns.
                self.queue.put(item)
            else:
                if item.future.set_running_or_notify_cancel():
                    item.future.set_exception(error_factory())
                self.release(cost=item.cost)
                failed += 1
        return failed


class MicroBatcher:
    """Per-group queues + worker threads coalescing requests per group key.

    Parameters
    ----------
    execute:
        ``execute(group_key, requests) -> results`` — evaluated on the
        group's worker thread with between 1 and the policy's flush size
        requests per call.
    max_batch_size:
        Flush size of the default static policy; ``1`` disables coalescing
        (serial dispatch).  Ignored when ``policy`` is given.
    policy:
        A :class:`~repro.serve.policy.BatchPolicy`; defaults to
        ``StaticBatchPolicy(max_batch_size)``.
    max_queue_depth:
        Per-group bound on in-flight requests (queued + executing); submits
        over it raise :class:`QueueFullError`.  ``None`` disables shedding.
    max_total_depth:
        Global bound on in-flight requests across *all* groups; ``None``
        disables it.  Priority-aware: submits with ``priority > 0`` may fill
        the whole bound, priority-0 submits are shed once the total reaches
        ``shed_watermark * max_total_depth`` — expensive work yields
        admission headroom to cheap work under global pressure.
    shed_watermark:
        Fraction of ``max_total_depth`` where priority-0 submits start
        shedding (default 0.75).
    telemetry:
        Optional shared registry; the batcher counts ``batches_flushed``,
        ``batched_requests``, ``requests_shed`` (plus
        ``requests_shed_priority`` for priority-0 sheds at the global
        watermark), per-kind ``flush_<kind>`` / ``queue_wait_<kind>`` timers
        (each backed by a latency histogram), per-group ``queue_depth[...]``
        gauges and the global ``total_depth`` gauge.
    """

    def __init__(
        self,
        execute: Callable[[Hashable, List[Any]], List[Any]],
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        telemetry: Optional[Telemetry] = None,
        policy: Optional[BatchPolicy] = None,
        max_queue_depth: Optional[int] = None,
        max_total_depth: Optional[int] = None,
        shed_watermark: float = 0.75,
    ) -> None:
        self._execute = execute
        self.policy = policy if policy is not None else StaticBatchPolicy(max_batch_size)
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if max_total_depth is not None and max_total_depth < 1:
            raise ValueError(f"max_total_depth must be >= 1, got {max_total_depth}")
        if not 0.0 < shed_watermark <= 1.0:
            raise ValueError(f"shed_watermark must be in (0, 1], got {shed_watermark}")
        self.max_queue_depth = max_queue_depth
        self.max_total_depth = max_total_depth
        self.shed_watermark = float(shed_watermark)
        self._total_depth = 0
        self._total_lock = threading.Lock()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._workers: Dict[Hashable, _GroupWorker] = {}
        self._closed = False
        # Serialises submit's closed-check+enqueue against close's
        # closed-set+shutdown-marker: every accepted request is enqueued
        # *before* its group's marker, so the worker's shutdown drain flushes
        # it and no future is ever stranded by a submit/close race.
        self._lifecycle = threading.Lock()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(
        self, group_key: Hashable, request: Any, cost: float = 1.0, priority: int = 0
    ) -> "Future":
        """Enqueue ``request`` under ``group_key``; resolve via the future.

        ``cost`` is the request's relative execution weight (the serving layer
        passes a dCAM explain's permutation count ``k``); a cost-aware policy
        sizes flushes from the summed cost of the backlog rather than the raw
        request count.  The default ``1.0`` reproduces count-based behaviour.

        ``priority`` only matters under a global ``max_total_depth`` bound:
        priority-0 submits shed at the ``shed_watermark`` fraction of it,
        ``priority > 0`` submits at the full bound (cheap classifies outlive
        expensive explains under global pressure).

        Raises :class:`RuntimeError` after :meth:`close` and
        :class:`QueueFullError` when the group's or the global in-flight
        bound is hit.
        """
        if not cost > 0.0:
            raise ValueError(f"cost must be > 0, got {cost}")
        pending = _Pending(request=request, future=Future(), cost=float(cost), trace=current())
        with self._lifecycle:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            worker = self._workers.get(group_key)
            if worker is None:
                worker = self._workers[group_key] = _GroupWorker(self, group_key)
            admitted, total_limit = self._admit_total(priority)
            if not admitted:
                self.telemetry.increment("requests_shed")
                if priority <= 0:
                    self.telemetry.increment("requests_shed_priority")
                raise QueueFullError(
                    group_key, self._total_depth, total_limit, worker.retry_after()
                )
            if not worker.admit(pending.cost):
                self._release_total()
                self.telemetry.increment("requests_shed")
                raise QueueFullError(
                    group_key, worker.depth, self.max_queue_depth, worker.retry_after()
                )
            worker.queue.put(pending)
        return pending.future

    def _admit_total(self, priority: int) -> Tuple[bool, Optional[int]]:
        """Reserve one global slot; ``(admitted, effective_limit)``."""
        limit = self.max_total_depth
        effective = limit
        with self._total_lock:
            if limit is not None:
                if priority <= 0:
                    effective = max(1, int(limit * self.shed_watermark))
                if self._total_depth >= effective:
                    return False, effective
            self._total_depth += 1
            depth = self._total_depth
        self.telemetry.gauge("total_depth").set(depth)
        return True, effective

    def _release_total(self, count: int = 1) -> None:
        with self._total_lock:
            self._total_depth = max(0, self._total_depth - count)
            depth = self._total_depth
        self.telemetry.gauge("total_depth").set(depth)

    def queue_depth(self, group_key: Hashable) -> int:
        """Current in-flight requests (queued + executing) of one group."""
        worker = self._workers.get(group_key)
        return 0 if worker is None else worker.depth

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush everything still queued and stop every worker thread.

        Gracefully drains by default: each group's worker flushes its
        backlog before exiting.  Pass ``timeout`` to bound the *total* wait —
        anything still queued (not yet handed to ``execute``) when it expires
        fails fast with :class:`RuntimeError` instead of leaving callers
        blocked; requests already inside an ``execute`` call still resolve
        whenever it returns.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            for worker in workers:
                worker.queue.put(_SHUTDOWN)
        deadline = None if timeout is None else time.perf_counter() + timeout
        for worker in workers:
            remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
            worker.thread.join(timeout=remaining)
        for worker in workers:  # only finds work when a join timed out
            worker.fail_queued(lambda: RuntimeError("MicroBatcher is closed"))

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _depth_gauge_name(group_key: Hashable) -> str:
    if isinstance(group_key, tuple):
        label = "/".join(str(part) for part in group_key)
    else:
        label = str(group_key)
    return f"queue_depth[{label}]"


def group_key_of(model_name: str, kind: str) -> Tuple[str, str]:
    """The canonical grouping key: one flush never mixes models or kinds."""
    return (model_name, kind)
