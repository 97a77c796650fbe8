"""Keep-alive HTTP clients that drive a closed or an open loop against the server.

A closed loop sends each connection's next request when its previous reply
arrives; an open loop sends on a fixed absolute schedule and charges latency
from the scheduled send time, so a stall also delays the requests behind it.
Each connection runs in its own thread and draws its requests from its own
seeded source.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .layers import SPAN_HEADER
from .spans import SpanRecorder
from .stats import percentile, tail_supported

_CACHED_TRUE = b'"cached": true'
_CACHED_FALSE = b'"cached": false'


@dataclass
class Op:
    """One request: ``expect`` is the exact body a repeated explain must get back."""

    kind: str  # "explain" or "classify"
    body: bytes
    expect: Optional[bytes] = None


@dataclass
class Outcome:
    kind: str
    scheduled: float
    sent: float
    done: float
    status: int  # HTTP status; 0 = transport error
    mismatch: bool = False

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.mismatch


def first_served(body: bytes) -> bytes:
    """A reply with its ``cached`` flag normalised, for byte comparison."""
    return body.replace(_CACHED_TRUE, _CACHED_FALSE)


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self._connection: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes, headers: Optional[Dict[str, str]] = None
             ) -> Tuple[int, bytes]:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(*self.address, timeout=120)
        try:
            self._connection.request("POST", path, body, {
                "Content-Type": "application/json", **(headers or {})})
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def get(self, path: str) -> bytes:
        connection = http.client.HTTPConnection(*self.address, timeout=120)
        try:
            connection.request("GET", path)
            return connection.getresponse().read()
        finally:
            connection.close()

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def _issue(client: Client, op: Op, scheduled: float,
           recorder: Optional[SpanRecorder]) -> Outcome:
    path = "/explain" if op.kind == "explain" else "/classify"
    if recorder is None:
        sent = time.perf_counter()
        status, body = client.post(path, op.body)
    else:
        with recorder.span("client.request", kind=op.kind):
            root = recorder.enclosing()[0]
            sent = time.perf_counter()
            status, body = client.post(path, op.body, {SPAN_HEADER: str(root)})
    done = time.perf_counter()
    mismatch = status == 200 and op.expect is not None and first_served(body) != op.expect
    return Outcome(op.kind, scheduled, sent, done, status, mismatch)


@dataclass
class Phase:
    """Every outcome of one load phase plus its shape."""

    shape: Dict[str, object]
    started: float
    outcomes: List[Outcome] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Phase start to the last reply (replies after the deadline count)."""
        return max(outcome.done for outcome in self.outcomes) - self.started

    def succeeded(self) -> int:
        return sum(outcome.ok for outcome in self.outcomes)

    def goodput(self) -> float:
        return self.succeeded() / self.elapsed

    def latencies(self, kind: str = "explain") -> List[float]:
        """Seconds from scheduled send to reply, successful ``kind`` requests only."""
        return [o.done - o.scheduled for o in self.outcomes if o.kind == kind and o.ok]

    def summary(self) -> Dict[str, object]:
        shed = sum(outcome.status == 429 for outcome in self.outcomes)
        record: Dict[str, object] = dict(self.shape)
        record.update(
            sent=len(self.outcomes),
            succeeded=self.succeeded(),
            shed=shed,
            failed=len(self.outcomes) - self.succeeded() - shed,
            mismatched=sum(outcome.mismatch for outcome in self.outcomes),
            elapsed_s=self.elapsed,
        )
        latencies = self.latencies()
        if latencies:
            for q in (50.0, 99.0):
                value, count = percentile(latencies, q)
                record[f"explain_p{q:g}_ms"] = value * 1e3
                record[f"explain_p{q:g}_supported"] = tail_supported(count, q)
            record["explain_samples"] = len(latencies)
        if self.shape["loop"] == "open":
            lateness = [o.sent - o.scheduled for o in self.outcomes]
            record["lateness_p50_ms"] = percentile(lateness, 50.0)[0] * 1e3
            record["lateness_max_ms"] = max(lateness) * 1e3
        return record


def closed_loop(address: Tuple[str, int], sources: List[Callable[[], Op]], seconds: float,
                recorder: Optional[SpanRecorder] = None) -> Phase:
    """One connection per source; each sends its next request on the previous reply."""
    phase = Phase({"loop": "closed", "connections": len(sources), "rate_per_s": None},
                  time.perf_counter())
    deadline = phase.started + seconds

    def connection(index: int, source: Callable[[], Op], sink: List[Outcome]) -> None:
        client = Client(address)
        try:
            while time.perf_counter() < deadline:
                op = source()
                sink.append(_issue(client, op, time.perf_counter(), recorder))
        finally:
            client.close()

    _run_threads(connection, sources, phase)
    return phase


def open_loop(address: Tuple[str, int], sources: List[Callable[[], Op]], rate: float,
              seconds: float, recorder: Optional[SpanRecorder] = None) -> Phase:
    """Requests due every ``1/rate`` s, dealt round-robin to the connections."""
    count = max(1, int(rate * seconds))
    phase = Phase({"loop": "open", "connections": len(sources), "rate_per_s": rate},
                  time.perf_counter() + 0.05)
    width = len(sources)

    def connection(index: int, source: Callable[[], Op], sink: List[Outcome]) -> None:
        client = Client(address)
        try:
            for slot in range(index, count, width):
                op = source()
                scheduled = phase.started + slot / rate
                pause = scheduled - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sink.append(_issue(client, op, scheduled, recorder))
        finally:
            client.close()

    _run_threads(connection, sources, phase)
    return phase


def _run_threads(target, sources, phase: Phase) -> None:
    sinks: List[List[Outcome]] = [[] for _ in sources]
    threads = [threading.Thread(target=target, args=(index, source, sink), daemon=True)
               for index, (source, sink) in enumerate(zip(sources, sinks))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            raise RuntimeError("a load-generator connection did not finish")
    for sink in sinks:
        phase.outcomes.extend(sink)
