"""Integration tests for end-to-end observability.

One sampled HTTP ``/explain`` request must be traceable across every hop —
HTTP handler → batcher queue → flush → engine → cache → remote byte-store →
server-side spans — while the served bytes stay identical with tracing on or
off (observability is out-of-band).  Also covers the serve ``/metrics``
content negotiation, the ``trace-dump`` CLI, and fleet workers shipping
spans + metric snapshots to the coordinator through heartbeat/complete
headers.
"""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.dist import ByteStoreServer, RemoteByteStore, RemoteStoreConfig
from repro.dist.coordinator import FleetConfig, FleetExecutor
from repro.obs import ObsConfig, Tracer, maybe_trace, parse_prometheus
from repro.obs.exposition import PROMETHEUS_CONTENT_TYPE
from repro.runtime.cli import main as cli_main
from repro.serve import (
    ExplanationCache,
    ExplanationService,
    ModelArtifactStore,
    ServeConfig,
)
from repro.serve.http import serve_in_background

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAST_REMOTE = dict(connect_timeout_s=0.2, request_timeout_s=2.0,
                   retries=1, backoff_s=0.01, down_cooldown_s=0.2)


@pytest.fixture()
def byte_server(tmp_path):
    server = ByteStoreServer(directory=str(tmp_path / "blobs")).start()
    yield server
    server.close()


@pytest.fixture()
def obs_store(tmp_path_factory, trained_dcnn):
    store = ModelArtifactStore(str(tmp_path_factory.mktemp("obs-store")))
    store.register("dcnn-obs", trained_dcnn, model_name="dcnn",
                   metadata={"model_kwargs": {"filters": (8, 16)}})
    return store


def _get(url, accept=None):
    headers = {"Accept": accept} if accept else {}
    request = urllib.request.Request(url, headers=headers)
    with urllib.request.urlopen(request, timeout=15) as response:
        return response.status, response.headers.get("Content-Type"), response.read()


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read()


def _service(store, byte_server=None, sample_rate=0.0):
    remote = None
    if byte_server is not None:
        remote = RemoteByteStore(
            RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
    cache = ExplanationCache(max_memory_bytes=None, remote=remote)
    config = ServeConfig(max_batch_size=4, obs=ObsConfig(trace_sample_rate=sample_rate))
    return ExplanationService(store, cache=cache, config=config)


class TestEndToEndTracing:
    def test_sampled_explain_spans_cover_every_hop(self, obs_store, byte_server,
                                                   tiny_type1_dataset):
        service = _service(obs_store, byte_server, sample_rate=1.0)
        server, _ = serve_in_background(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            payload = {"model": "dcnn-obs",
                       "instance": tiny_type1_dataset.X[0].tolist(),
                       "class_id": 1, "k": 4, "seed": 0}
            status, _ = _post(f"{base}/explain", payload)
            assert status == 200

            status, _, body = _get(f"{base}/trace")
            assert status == 200
            spans = json.loads(body)["spans"]
            by_name = {}
            for record in spans:
                by_name.setdefault(record["name"], []).append(record)
            # The explain pipeline classifies first, so both kinds flushed.
            for name in ("http./explain", "batcher.queue", "batcher.flush",
                         "engine", "cache.get", "cache.put", "wire.put"):
                assert name in by_name, f"missing span {name!r}"
            # Every hop belongs to the root request's trace.
            root = by_name["http./explain"][0]
            assert root["parent_id"] is None
            trace_ids = {record["trace_id"] for record in spans}
            assert trace_ids == {root["trace_id"]}
            # The remote byte-store recorded matching server-side spans
            # under the same trace (propagated through the frame header).
            remote_spans = byte_server.wire.tracer.ring.spans()
            assert any(s.name == "server.put" for s in remote_spans)
            assert {s.trace_id for s in remote_spans} == {root["trace_id"]}
            # Cache tier attribution rode the span attrs.
            tiers = {record["attrs"].get("tier")
                     for record in by_name["cache.get"]}
            assert tiers & {"miss", "memory", "disk", "remote"}
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_responses_byte_identical_with_tracing_on_and_off(
            self, obs_store, tiny_type1_dataset):
        payload = {"model": "dcnn-obs",
                   "instance": tiny_type1_dataset.X[1].tolist(),
                   "class_id": 1, "k": 4, "seed": 0}
        bodies = []
        for sample_rate in (0.0, 1.0):
            service = _service(obs_store, sample_rate=sample_rate)
            server, _ = serve_in_background(service)
            host, port = server.server_address[:2]
            try:
                status, body = _post(f"http://{host}:{port}/explain", payload)
                assert status == 200
            finally:
                server.shutdown()
                server.server_close()
                service.close()
            bodies.append(body)
        assert bodies[0] == bodies[1]

    def test_metrics_content_negotiation_and_histograms(self, obs_store,
                                                        tiny_type1_dataset):
        service = _service(obs_store)
        server, _ = serve_in_background(service)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            _post(f"{base}/classify",
                  {"model": "dcnn-obs",
                   "instance": tiny_type1_dataset.X[0].tolist()})
            # Default (no Accept preference): the JSON snapshot, now with a
            # nested percentile view.
            status, content_type, body = _get(f"{base}/metrics")
            assert status == 200 and "application/json" in content_type
            payload = json.loads(body)
            assert payload["http_classify_count"] == 1
            assert payload["histograms"]["http_classify"]["count"] == 1
            # Accept: text/plain switches to Prometheus exposition.
            status, content_type, body = _get(f"{base}/metrics",
                                              accept="text/plain")
            assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
            series = parse_prometheus(body.decode("utf-8"))
            assert series[("repro_http_classify_seconds_count", ())] == 1
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestTraceDumpCLI:
    def test_dump_from_http_endpoint(self, obs_store, tiny_type1_dataset,
                                     tmp_path, capsys):
        service = _service(obs_store, sample_rate=1.0)
        server, _ = serve_in_background(service)
        host, port = server.server_address[:2]
        try:
            _post(f"http://{host}:{port}/classify",
                  {"model": "dcnn-obs",
                   "instance": tiny_type1_dataset.X[0].tolist()})
            output = str(tmp_path / "spans.jsonl")
            assert cli_main(["trace-dump", "--url", f"http://{host}:{port}",
                             "--output", output]) == 0
            with open(output, "r", encoding="utf-8") as handle:
                spans = [json.loads(line) for line in handle]
            assert spans and any(s["name"] == "http./classify" for s in spans)
            # stdout variant emits the same JSONL.
            assert cli_main(["trace-dump",
                             "--url", f"http://{host}:{port}"]) == 0
            stdout = capsys.readouterr().out
            assert any(json.loads(line)["name"] == "http./classify"
                       for line in stdout.splitlines())
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_dump_from_wire_server(self, byte_server, capsys):
        client_tracer = Tracer(sample_rate=1.0, process="test-client")
        remote = RemoteByteStore(
            RemoteStoreConfig(address=byte_server.address, **FAST_REMOTE))
        with maybe_trace(client_tracer, "root"):
            remote.put("k", b"blob")
        assert cli_main(["trace-dump", "--connect", byte_server.address]) == 0
        stdout = capsys.readouterr().out
        names = [json.loads(line)["name"] for line in stdout.splitlines()]
        assert "server.put" in names

    def test_unreachable_targets_fail_cleanly(self, capsys):
        assert cli_main(["trace-dump", "--url", "http://127.0.0.1:9"]) == 2
        assert cli_main(["trace-dump", "--connect", "127.0.0.1:9"]) == 2


def worker_env():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    tests = os.path.join(REPO_ROOT, "tests")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, tests] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class TestFleetObservability:
    def test_worker_subprocess_propagates_trace_and_reports_metrics(self):
        tracer = Tracer(sample_rate=1.0, process="submitter")
        with FleetExecutor(FleetConfig(lease_timeout_s=5.0)) as executor:
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", executor.address,
                 "--provider", "fleet_provider",
                 "--poll-interval-s", "0.05", "--max-idle-s", "60"],
                env=worker_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            try:
                with maybe_trace(tracer, "fleet-root"):
                    root_ctx_trace = tracer.ring  # root recorded on exit
                    results = executor.map(_square, [2, 3, 4])
                assert results == [4, 9, 16]
                spans = executor.trace_spans()
                unit_spans = [s for s in spans if s.name == "worker.unit"]
                assert len(unit_spans) == 3
                root = [s for s in root_ctx_trace.spans()
                        if s.name == "fleet-root"][0]
                assert {s.trace_id for s in unit_spans} == {root.trace_id}
                assert all(s.process.startswith("worker:") for s in unit_spans)
                # Coordinator-side aggregation: the worker's cumulative
                # metric/histogram snapshots arrive with its next heartbeat
                # (default period 2 s) — poll until the full report lands.
                deadline = time.monotonic() + 15.0
                fleet = executor.fleet_metrics()
                while (fleet["metrics"].get("worker_units_done", 0) < 3
                       and time.monotonic() < deadline):
                    time.sleep(0.2)
                    fleet = executor.fleet_metrics()
                assert fleet["workers"], "no worker report ingested"
                assert fleet["metrics"]["worker_units_done"] == 3
                assert fleet["histograms"]["worker_unit"]["count"] == 3
                summaries = executor.telemetry.histogram_summaries()
                assert summaries["fleet_unit"]["count"] == 3
            finally:
                executor.close()
                worker.wait(timeout=30)
                if worker.poll() is None:  # pragma: no cover
                    worker.kill()

    def test_untraced_fleet_results_identical_to_traced(self):
        def sweep(trace):
            tracer = Tracer(sample_rate=1.0 if trace else 0.0)
            with FleetExecutor(FleetConfig(lease_timeout_s=5.0)) as executor:
                worker = subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--connect", executor.address,
                     "--provider", "fleet_provider",
                     "--poll-interval-s", "0.05", "--max-idle-s", "60"],
                    env=worker_env(), stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                try:
                    with maybe_trace(tracer, "root"):
                        return executor.map(_square, [5, 6, 7])
                finally:
                    executor.close()
                    worker.wait(timeout=30)
                    if worker.poll() is None:  # pragma: no cover
                        worker.kill()

        assert sweep(trace=False) == sweep(trace=True) == [25, 36, 49]


def _square(value):
    return value * value
