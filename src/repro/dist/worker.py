"""The fleet worker loop behind ``python -m repro worker --connect host:port``.

A worker is a plain process that leases pickled ``(fn, payload)`` units from
a :class:`~repro.dist.coordinator.FleetCoordinator`, executes them and posts
the pickled result back.  Two behaviours make a fleet of them efficient and
survivable:

* **dedupe against the shared cache** — when a unit carries a content-address
  fingerprint and the worker holds a :class:`~repro.runtime.cache.ResultCache`
  (typically local disk backed by the shared remote tier), a cache hit is
  answered with the stored blob verbatim (``cached=True``) and nothing is
  executed; a miss stores the freshly computed blob *before* replying, so the
  whole fleet — and later serving hosts — reuse it;
* **heartbeats** — a daemon thread heartbeats the coordinator while the
  worker lives; a worker that dies mid-unit simply stops, its lease expires
  and the coordinator re-queues the unit for a peer.

The loop exits when the coordinator drains (the executor closed), when the
coordinator becomes unreachable, or after ``max_idle_s`` without work.
"""

from __future__ import annotations

import importlib
import os
import pickle
import socket
import threading
import time
import traceback
from typing import Iterable, Optional

from ..obs.tracing import Tracer, activate, span
from ..runtime.cache import ResultCache
from ..obs import Telemetry
from .client import RemoteStoreConfig, RemoteUnavailableError, WireClient


def import_providers(modules: Iterable[str]) -> None:
    """Import modules whose side effect registers work kinds on the worker."""
    for module in modules:
        importlib.import_module(module)


def default_worker_id() -> str:
    """The ``hostname-pid`` lease/heartbeat identity used when none is given."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat(threading.Thread):
    """Daemon thread renewing this worker's leases every ``interval_s``.

    Each beat doubles as the worker's observability uplink: spans drained
    from the worker's ring plus its cumulative metric/histogram snapshots
    ride the heartbeat header (old coordinators ignore the extra keys), so
    the coordinator aggregates fleet-wide latency without any extra op.
    """

    def __init__(
        self,
        client: WireClient,
        worker_id: str,
        interval_s: float,
        telemetry: Optional[Telemetry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(name=f"fleet-heartbeat-{worker_id}", daemon=True)
        self._client = client
        self._worker_id = worker_id
        self._interval_s = interval_s
        self._telemetry = telemetry
        self._tracer = tracer
        self._stop = threading.Event()

    def _report_header(self) -> dict:
        header = {"op": "fleet-heartbeat", "worker": self._worker_id}
        if self._tracer is not None and len(self._tracer.ring):
            header["spans"] = [s.to_dict() for s in self._tracer.ring.drain(256)]
        if self._telemetry is not None:
            header["metrics"] = self._telemetry.snapshot()
            header["histograms"] = self._telemetry.histogram_dump()
        return header

    def run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._client.request(self._report_header())
            except RemoteUnavailableError:
                return  # coordinator gone; the main loop notices on its next op

    def stop(self) -> None:
        self._stop.set()


def run_worker(
    connect: str,
    cache: Optional[ResultCache] = None,
    providers: Iterable[str] = (),
    worker_id: Optional[str] = None,
    poll_interval_s: float = 0.2,
    heartbeat_interval_s: float = 2.0,
    max_idle_s: Optional[float] = None,
    max_units: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
    tracer: Optional[Tracer] = None,
) -> int:
    """Lease-execute-report until the coordinator drains; returns units done.

    Parameters
    ----------
    connect:
        ``host:port`` of the coordinator (printed by ``repro run --executor
        fleet``).
    cache:
        Optional shared :class:`ResultCache`; fingerprinted units are served
        from it (dedupe) and freshly computed results stored into it.
    providers:
        Module names imported before the loop starts, so work kinds
        registered outside the core package resolve on this worker.
    worker_id:
        Identity used for leases/heartbeats; defaults to ``hostname-pid``.
    poll_interval_s / heartbeat_interval_s:
        Idle re-poll delay and heartbeat period.  Keep the heartbeat well
        under the coordinator's ``lease_timeout_s``.
    max_idle_s:
        Exit after this long without being handed a unit (``None``: wait for
        the coordinator to drain or disappear).
    max_units:
        Exit after completing this many units (test/bench hook).
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer` recording this worker's
        spans (a private one is created when omitted).  Units whose lease
        header carries a trace context execute under it, and finished spans
        ship to the coordinator in heartbeat/complete headers.
    """
    import_providers(providers)
    telemetry = telemetry if telemetry is not None else Telemetry()
    worker_id = worker_id or default_worker_id()
    if tracer is None:
        tracer = Tracer(sample_rate=0.0, process=f"worker:{worker_id}")
    # A worker's lease poll must out-survive transient coordinator pauses but
    # fail fast when it is truly gone; modest timeouts + retries do both.
    client = WireClient(
        RemoteStoreConfig(address=connect, connect_timeout_s=2.0, retries=2),
        telemetry=telemetry,
    )
    heartbeat = _Heartbeat(client, worker_id, heartbeat_interval_s, telemetry=telemetry, tracer=tracer)
    heartbeat.start()
    completed = 0
    idle_since: Optional[float] = None
    try:
        while True:
            try:
                header, blob = client.request({"op": "fleet-lease", "worker": worker_id})
            except RemoteUnavailableError:
                break  # coordinator gone
            if header.get("unit") is None:
                if header.get("shutdown"):
                    break
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if max_idle_s is not None and now - idle_since >= max_idle_s:
                    break
                time.sleep(poll_interval_s)
                continue
            idle_since = None
            unit_id = int(header["unit"])
            fingerprint = header.get("fingerprint")
            # Execute under the trace context that rode the lease header (if
            # any): the unit's span joins the submitter's trace.  The result
            # bytes are untouched either way.
            trace = tracer.adopt(header.get("trace"))
            try:
                with telemetry.timer("worker_unit"):
                    with activate(trace):
                        with span("worker.unit", unit=unit_id):
                            result_blob, from_cache = _evaluate(blob, fingerprint, cache)
            except Exception:
                telemetry.increment("worker_units_failed")
                try:
                    client.request(
                        {
                            "op": "fleet-fail",
                            "worker": worker_id,
                            "unit": unit_id,
                            "error": traceback.format_exc(limit=20),
                        }
                    )
                except RemoteUnavailableError:
                    break
                continue
            complete_header = {
                "op": "fleet-complete",
                "worker": worker_id,
                "unit": unit_id,
                "cached": from_cache,
            }
            if len(tracer.ring):
                # Ship finished spans with the result instead of waiting for
                # the next heartbeat — short-lived workers still report.
                complete_header["spans"] = [s.to_dict() for s in tracer.ring.drain(256)]
            try:
                client.request(complete_header, result_blob)
            except RemoteUnavailableError:
                break
            completed += 1
            telemetry.increment("worker_units_done")
            if from_cache:
                telemetry.increment("worker_units_deduped")
            if max_units is not None and completed >= max_units:
                break
    finally:
        heartbeat.stop()
        client.close()
    return completed


def _evaluate(blob: bytes, fingerprint: Optional[str], cache: Optional[ResultCache]):
    """``(result_blob, from_cache)`` for one leased unit."""
    if fingerprint and cache is not None:
        cached = cache.get_blob(fingerprint)
        if cached is not None:
            return cached, True
    fn, payload = pickle.loads(blob)
    result = fn(payload)
    if fingerprint and cache is not None:
        return cache.store(fingerprint, result), False
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL), False
