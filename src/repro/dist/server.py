"""Reference servers for the fleet wire protocol.

:class:`WireServer` is a tiny threaded TCP server: one daemon thread per
connection, each running a persistent request loop (a client keeps one socket
open for many round-trips — connection setup never sits on the hot path).
Handlers are plain functions ``(header, payload) -> (response_header,
response_payload)`` registered per ``op``; a handler exception is answered as
``{"ok": false, "error": ...}`` instead of tearing the connection down, so a
single bad request never takes a worker's connection with it.

:class:`ByteStoreServer` registers the byte-store operations (``ping`` /
``get`` / ``put`` / ``contains`` / ``stats`` / ``index-update``) over a
:class:`~repro.runtime.eviction.TieredByteStore`, which gives the shared
remote tier the same LRU memory/disk bounds and torn-file-safe persistence as
every local cache.  Start it from the CLI::

    python -m repro byte-store-server --port 7070 --dir /srv/repro-store

The protocol is unauthenticated (see :mod:`repro.dist.protocol`): bind it to
interfaces reachable only by trusted hosts.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.exposition import spans_to_json
from ..obs.tracing import Tracer
from ..runtime.eviction import TieredByteStore
from ..obs import Telemetry
from . import protocol

#: A request handler: ``(header, payload) -> (response_header, response_payload)``.
Handler = Callable[[Dict[str, Any], bytes], Tuple[Dict[str, Any], bytes]]


class _ConnectionHandler(socketserver.BaseRequestHandler):
    def setup(self) -> None:
        self.server.track(self.request)  # type: ignore[attr-defined]

    def finish(self) -> None:
        self.server.untrack(self.request)  # type: ignore[attr-defined]

    def handle(self) -> None:  # one persistent loop per connection
        server: "_InnerServer" = self.server  # type: ignore[assignment]
        sock: socket.socket = self.request
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while True:
            try:
                header, payload = protocol.recv_message(
                    sock, max_payload_bytes=server.wire.max_payload_bytes
                )
            except (protocol.ProtocolError, OSError):
                return  # client went away (or spoke garbage): drop the connection
            response, blob = server.wire.dispatch(header, payload)
            try:
                protocol.send_message(sock, response, blob)
            except OSError:
                return


class _InnerServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], wire: "WireServer") -> None:
        self.wire = wire
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, _ConnectionHandler)

    def track(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.add(sock)

    def untrack(self, sock: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(sock)

    def close_connections(self) -> None:
        """Drop live connections so ``close()`` means dead to clients too."""
        with self._connections_lock:
            connections = list(self._connections)
        for sock in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class WireServer:
    """A threaded TCP server routing protocol frames to registered handlers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Optional[Telemetry] = None,
        process_label: str = "wire-server",
        trace_ring_size: int = 2048,
        max_payload_bytes: Optional[int] = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        #: Per-connection receive bound: the server rejects (and drops the
        #: connection of) any frame announcing a larger payload *before*
        #: buffering it.  The protocol is unauthenticated, so this is the
        #: only thing standing between a crafted frame header and a
        #: multi-GiB allocation; raise it only for trusted deployments that
        #: genuinely ship larger blobs.
        self.max_payload_bytes = (
            protocol.DEFAULT_SERVER_MAX_PAYLOAD_BYTES
            if max_payload_bytes is None
            else int(max_payload_bytes)
        )
        # Server-side spans only ever *adopt* contexts carried in frame
        # headers (the sampling decision was made at the requesting edge),
        # so the tracer's own sample rate stays 0.
        self.tracer = Tracer(sample_rate=0.0, ring_size=trace_ring_size, process=process_label)
        self._handlers: Dict[str, Handler] = {}
        self._server = _InnerServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self.register("ping", lambda header, payload: ({"ok": True}, b""))
        self.register("trace-dump", self._handle_trace_dump)
        self.register("metrics", self._handle_metrics)

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return protocol.format_address(self.host, self.port)

    def register(self, op: str, handler: Handler) -> None:
        self._handlers[op] = handler

    def dispatch(self, header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        op = header.get("op")
        handler = self._handlers.get(op)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}, b""
        self.telemetry.increment(f"server_op_{op}")
        # Adopt a trace context riding the frame header (one dict lookup for
        # the untraced hot path); the server-side span parents to the
        # client's in-flight wire span.
        trace = self.tracer.adopt(header.get("trace"))
        started = time.perf_counter() if trace is not None else 0.0
        wall_started = time.time() if trace is not None else 0.0
        try:
            return handler(header, payload)
        except Exception as error:  # answer, don't tear down the connection
            self.telemetry.increment("server_handler_errors")
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}, b""
        finally:
            if trace is not None:
                self.tracer.record(
                    trace, f"server.{op}", wall_started, time.perf_counter() - started
                )

    def _handle_trace_dump(self, header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        """Export the server-side span ring (``python -m repro trace-dump --connect``)."""
        return {"ok": True, "spans": spans_to_json(self.tracer.ring.spans())}, b""

    def _handle_metrics(self, header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        """The server process's registry snapshot + histogram summaries."""
        return {
            "ok": True,
            "metrics": self.telemetry.snapshot(),
            "histograms": self.telemetry.histogram_summaries(),
        }, b""

    # ------------------------------------------------------------------
    def start(self) -> "WireServer":
        """Serve in a daemon thread; returns ``self`` for chaining."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"wire-server-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI server verbs block here)."""
        self._server.serve_forever(poll_interval=0.05)

    def close(self) -> None:
        self._server.shutdown()
        self._server.close_connections()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class ByteStoreServer:
    """The byte-store ops served over a local :class:`TieredByteStore`.

    One instance serialises nothing globally — the underlying memory tier is
    already thread-safe and disk writes are write-then-rename — so concurrent
    clients (a whole worker fleet plus serving hosts) stream blobs in
    parallel.  Keys are content-addressed by the callers, which is what makes
    last-write-wins safe: two writers racing on one key are writing identical
    bytes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        directory: Optional[str] = None,
        max_memory_bytes: Optional[int] = None,
        max_disk_bytes: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        max_payload_bytes: Optional[int] = None,
    ) -> None:
        self.store = TieredByteStore(
            directory=directory,
            suffix=".blob",
            max_memory_bytes=max_memory_bytes,
            max_disk_bytes=max_disk_bytes,
        )
        self.wire = WireServer(
            host=host,
            port=port,
            telemetry=telemetry,
            process_label="byte-store",
            max_payload_bytes=max_payload_bytes,
        )
        self.wire.register("get", self._handle_get)
        self.wire.register("put", self._handle_put)
        self.wire.register("contains", self._handle_contains)
        self.wire.register("stats", self._handle_stats)
        self.wire.register("index-update", self._handle_index_update)
        self._served_hits = 0
        self._served_misses = 0
        self._served_puts = 0
        self._stats_lock = threading.Lock()
        # index-update is the one op that genuinely read-modify-writes a
        # shared key; everything else stays lock-free (content-addressed
        # last-write-wins — see the class docstring).
        self._index_lock = threading.Lock()

    # ------------------------------------------------------------------
    @staticmethod
    def _key(header: Dict[str, Any]) -> str:
        key = header.get("key")
        if not isinstance(key, str) or not key or "/" in key or "\\" in key or ".." in key:
            raise ValueError(f"invalid store key {key!r}")
        return key

    def _handle_get(self, header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        blob = self.store.get(self._key(header))
        with self._stats_lock:
            if blob is None:
                self._served_misses += 1
            else:
                self._served_hits += 1
        if blob is None:
            return {"ok": True, "found": False}, b""
        return {"ok": True, "found": True}, blob

    def _handle_put(self, header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        self.store.put(self._key(header), payload)
        with self._stats_lock:
            self._served_puts += 1
        return {"ok": True, "stored": len(payload)}, b""

    def _handle_contains(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        return {"ok": True, "found": self._key(header) in self.store}, b""

    def _handle_index_update(
        self, header: Dict[str, Any], payload: bytes
    ) -> Tuple[Dict[str, Any], bytes]:
        """Atomic server-side union into the JSON name list stored at ``key``.

        Closes the artifact-store race: two hosts registering concurrently
        used to read-modify-write the index from the client side, so the
        slower writer could erase the faster one's name until its next
        publish.  The server merges under one lock instead; a corrupt or
        missing index is rebuilt from the submitted names.
        """
        key = self._key(header)
        add = header.get("add")
        if not isinstance(add, list) or not all(isinstance(name, str) for name in add):
            raise ValueError("index-update requires 'add': a list of name strings")
        with self._index_lock:
            blob = self.store.get(key)
            names = set()
            if blob is not None:
                try:
                    decoded = json.loads(blob.decode("utf-8"))
                    names = {str(name) for name in decoded} if isinstance(decoded, list) else set()
                except (ValueError, UnicodeDecodeError):
                    names = set()
            names.update(add)
            merged = sorted(names)
            self.store.put(key, json.dumps(merged).encode("utf-8"))
        return {"ok": True, "names": merged}, b""

    def _handle_stats(self, header: Dict[str, Any], payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        with self._stats_lock:
            stats = {
                "entries": len(self.store),
                "memory_bytes": self.store.memory.total_bytes,
                "evictions": self.store.evictions,
                "hits": self._served_hits,
                "misses": self._served_misses,
                "puts": self._served_puts,
            }
        return {"ok": True, "stats": stats}, b""

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return self.wire.address

    def start(self) -> "ByteStoreServer":
        self.wire.start()
        return self

    def serve_forever(self) -> None:
        self.wire.serve_forever()

    def close(self) -> None:
        self.wire.close()
