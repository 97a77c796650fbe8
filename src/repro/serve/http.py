"""Stdlib HTTP front-end for the explanation service.

A thin JSON-over-HTTP adapter on :class:`~repro.serve.service.ExplanationService`
built on :class:`http.server.ThreadingHTTPServer` (one thread per connection,
so concurrent clients genuinely reach the micro-batcher concurrently — no
third-party web framework needed).

Routes
------
``GET /healthz``
    Liveness: ``{"status": "ok", "models": N}``.
``GET /models``
    Artifact records of every registered model.
``GET /metrics``
    The shared telemetry snapshot (request / batch / cache counters plus
    latency-histogram summaries) as JSON by default; Prometheus text
    exposition when the client sends ``Accept: text/plain`` (content
    negotiation — see :mod:`repro.obs.exposition`).
``GET /trace``
    The bounded ring of finished trace spans (sampled requests only; see
    :mod:`repro.obs.tracing`), as ``{"spans": [...]}``.
``POST /classify``
    ``{"model": name, "instance": [[...], ...]}`` →
    logits, prediction and class probabilities.
``POST /explain``
    ``{"model": name, "instance": [[...], ...], "class_id"?, "k"?, "seed"?}``
    → the ``(D, n)`` heatmap plus the dCAM success ratio where applicable.

Errors map to JSON bodies: 400 for malformed requests (a negative or
non-numeric ``Content-Length`` included), 404 for unknown routes/models,
413 for a body over :data:`MAX_BODY_BYTES`, **429 + ``Retry-After``** when
a model/kind queue is over its admission watermark (the load-shedding
backpressure signal — see :class:`repro.serve.batcher.QueueFullError`), 500
otherwise.  Arrays travel
as nested JSON lists; numbers round-trip exactly (``repr``-based float
serialisation on both sides).

Shutdown is a graceful drain: :func:`run_server` stops accepting
connections, then closes the service, whose batcher flushes every queued
request (bounded by ``ServeConfig.drain_timeout_s``) before the process
exits.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..obs.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_requested,
    render_prometheus,
    spans_to_json,
)
from ..obs.tracing import maybe_trace
from .batcher import QueueFullError
from .service import ExplanationService

#: Largest accepted request body.  A ``(D, n)`` instance costs about 20 bytes
#: per value as JSON, so this admits well over a million values; a larger
#: ``Content-Length`` is refused before a byte of the body is read.
MAX_BODY_BYTES = 32 * 1024 * 1024


class _UnreadBody(ValueError):
    """A ``Content-Length`` refused before reading: answer, then hang up."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handler threads."""

    daemon_threads = True
    # The stdlib default listen backlog (5) resets connections when many
    # clients connect in one burst; admission control belongs to the
    # micro-batcher's bounded queues, not the TCP accept queue.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: ExplanationService) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # HTTP/1.1 keep-alive: every response carries Content-Length, so clients
    # can reuse connections instead of paying a TCP handshake per request —
    # load-bearing under heavy traffic (see benchmarks/bench_serve_load.py).
    protocol_version = "HTTP/1.1"
    # Responses go out as two writes (header block, then body); with Nagle
    # enabled the body segment stalls behind the client's delayed ACK —
    # ~40ms added to every keep-alive response.
    disable_nagle_algorithm = True

    # Quieter than the default stderr-per-request logging; the service's
    # telemetry counters are the intended observability surface.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send_json(
        self, status: int, payload: Dict[str, Any], extra_headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Dict[str, Any]:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        # rfile.read(-1) reads to EOF, which blocks until the client hangs
        # up; a huge length asks for that many bytes.  Either is refused
        # unread, and the connection closes since the body cannot be skipped.
        if length < 0:
            raise _UnreadBody(400, f"invalid Content-Length {header!r}")
        if length > MAX_BODY_BYTES:
            raise _UnreadBody(413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        try:
            if self.path == "/healthz":
                self._send_json(200, service.healthz())
            elif self.path == "/metrics":
                if prometheus_requested(self.headers.get("Accept")):
                    body = render_prometheus(service.telemetry).encode("utf-8")
                    self._send_text(200, body, PROMETHEUS_CONTENT_TYPE)
                else:
                    self._send_json(200, service.metrics())
            elif self.path == "/trace":
                self._send_json(200, {"spans": spans_to_json(service.tracer.ring.spans())})
            elif self.path == "/models":
                self._send_json(200, {"models": service.models()})
            else:
                self._send_json(404, {"error": f"unknown route {self.path!r}"})
        except Exception as error:  # noqa: BLE001 - boundary of the process
            self._send_json(500, {"error": str(error)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        try:
            payload = self._read_json()
            if self.path == "/classify":
                self._send_json(200, self._timed(service, "classify", payload, self._classify))
            elif self.path == "/explain":
                self._send_json(200, self._timed(service, "explain", payload, self._explain))
            else:
                self._send_json(404, {"error": f"unknown route {self.path!r}"})
        except _UnreadBody as error:
            self._send_json(error.status, {"error": str(error)}, {"Connection": "close"})
        except QueueFullError as error:
            # Load-shedding backpressure: the request was never admitted, so
            # the client can safely retry once the queue drains.
            retry_after = max(1, math.ceil(error.retry_after_s))
            self._send_json(
                429,
                {"error": str(error), "retry_after_s": error.retry_after_s},
                extra_headers={"Retry-After": str(retry_after)},
            )
        except KeyError as error:
            self._send_json(404, {"error": str(error.args[0]) if error.args else str(error)})
        except (ValueError, TypeError) as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - boundary of the process
            self._send_json(500, {"error": str(error)})

    def _timed(self, service: ExplanationService, kind: str, payload: Dict[str, Any], handler):
        """Time one request into ``http_<kind>`` and open its sampled root span.

        The handler-level histogram sees every outcome (including errors and
        shed requests); the root span is only recorded for sampled requests
        and never alters the response bytes.
        """
        started = time.perf_counter()
        try:
            with maybe_trace(service.tracer, f"http./{kind}", model=str(payload.get("model"))):
                return handler(service, payload)
        finally:
            service.telemetry.timer(f"http_{kind}").add(time.perf_counter() - started)

    @staticmethod
    def _required(payload: Dict[str, Any], *names: str) -> None:
        missing = [name for name in names if name not in payload]
        if missing:
            raise ValueError(f"missing request field(s): {', '.join(missing)}")

    def _classify(self, service: ExplanationService, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._required(payload, "model", "instance")
        response = service.classify(payload["model"], payload["instance"])
        return {
            "model": response.model,
            "predicted": response.predicted,
            "logits": response.logits.tolist(),
            "probabilities": response.probabilities.tolist(),
            "cached": response.cached,
        }

    def _explain(self, service: ExplanationService, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._required(payload, "model", "instance")
        response = service.explain(
            payload["model"],
            payload["instance"],
            class_id=payload.get("class_id"),
            k=payload.get("k"),
            seed=payload.get("seed"),
        )
        return {
            "model": response.model,
            "family": response.family,
            "class_id": response.class_id,
            "heatmap": response.heatmap.tolist(),
            "success_ratio": response.success_ratio,
            "k": response.k,
            "seed": response.seed,
            "cached": response.cached,
        }


def make_server(service: ExplanationService, host: str = "127.0.0.1", port: int = 0) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer` (``port=0`` picks an ephemeral port)."""
    return ServiceHTTPServer((host, port), service)


def serve_in_background(
    service: ExplanationService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start a server thread; returns ``(server, thread)`` — callers own shutdown."""
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, name="repro-serve-http", daemon=True)
    thread.start()
    return server, thread


def run_server(service: ExplanationService, host: str, port: int, announce=None) -> None:
    """Blocking ``serve_forever`` with Ctrl-C shutdown (the CLI entry point)."""
    server = make_server(service, host, port)
    if announce is not None:
        actual_host, actual_port = server.server_address[:2]
        announce(actual_host, actual_port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
