"""Tests of the micro-batcher under load: per-group flush workers,
admission control / load-shedding, and graceful shutdown.

The load-bearing guarantees pinned here:

* coalescing never changes response bytes (a coalescing service == a
  serial one, byte for byte, under real concurrency);
* per-(model, kind) flush workers: one group's slow flush cannot stall
  another group's traffic (deterministic, event-controlled);
* bounded queues: submits over the in-flight watermark fail fast with
  :class:`QueueFullError`, and over HTTP a saturated ``/explain`` sheds with
  429 + ``Retry-After`` while ``/classify`` and ``/healthz`` stay live;
* shutdown: requests racing ``close()`` either complete or fail fast with a
  clear error — no future ever hangs.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.serve import (
    ExplanationCache,
    ExplanationService,
    MicroBatcher,
    ModelArtifactStore,
    QueueFullError,
    ServeConfig,
    probe_batch_parity,
    serve_in_background,
)


@pytest.fixture(scope="module")
def batcher_store(tmp_path_factory, trained_ccnn, trained_dcnn):
    store = ModelArtifactStore(str(tmp_path_factory.mktemp("batcher-store")))
    specs = {"ccnn": {"filters": (8, 16)}, "dcnn": {"filters": (8, 16)}}
    for model_name, model in (("ccnn", trained_ccnn), ("dcnn", trained_dcnn)):
        parity = probe_batch_parity(model)
        store.register(f"{model_name}-a", model, model_name=model_name,
                       metadata={"model_kwargs": dict(specs[model_name]),
                                 "batch_parity": parity.to_json()})
    return store


def make_service(store, **config_kwargs):
    return ExplanationService(store, cache=ExplanationCache(max_memory_bytes=None),
                              config=ServeConfig(**config_kwargs))


# ---------------------------------------------------------------------------
# Per-group flush workers
# ---------------------------------------------------------------------------

class TestPerGroupWorkers:
    def test_slow_group_does_not_stall_fast_group(self):
        """One blocked dCAM-style flush must not delay other groups."""
        release_slow = threading.Event()

        def execute(group_key, requests):
            if group_key == ("slow", "explain"):
                assert release_slow.wait(timeout=10)
            return requests

        with MicroBatcher(execute, max_batch_size=1) as batcher:
            slow = batcher.submit(("slow", "explain"), "s0")
            time.sleep(0.05)  # the slow worker is now blocked inside execute
            fast = [batcher.submit(("fast", "classify"), index) for index in range(4)]
            # Fast-group responses arrive while the slow flush is still stuck.
            assert [future.result(timeout=5) for future in fast] == [0, 1, 2, 3]
            assert not slow.done()
            release_slow.set()
            assert slow.result(timeout=5) == "s0"

    def test_one_worker_thread_per_group(self):
        seen_threads = {}

        def execute(group_key, requests):
            seen_threads.setdefault(group_key, set()).add(threading.get_ident())
            return requests

        with MicroBatcher(execute, max_batch_size=2) as batcher:
            futures = [batcher.submit(("m", kind), index)
                       for index, kind in enumerate(["classify", "explain"] * 6)]
            for future in futures:
                future.result(timeout=5)
        assert len(seen_threads) == 2
        for threads in seen_threads.values():
            assert len(threads) == 1
        assert seen_threads[("m", "classify")] != seen_threads[("m", "explain")]



# ---------------------------------------------------------------------------
# Admission control / load-shedding
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    def test_submit_over_watermark_sheds(self):
        release = threading.Event()

        def execute(group_key, requests):
            release.wait(timeout=10)
            return requests

        batcher = MicroBatcher(execute, max_batch_size=1, 
                               max_queue_depth=2)
        try:
            first = batcher.submit("g", 1)   # dequeued, blocked in execute
            second = batcher.submit("g", 2)  # queued
            time.sleep(0.05)
            with pytest.raises(QueueFullError) as excinfo:
                batcher.submit("g", 3)
            error = excinfo.value
            assert error.limit == 2
            assert error.retry_after_s > 0
            # Other groups are unaffected by the saturated one.
            other = batcher.submit("other", 9)
            release.set()
            assert first.result(timeout=5) == 1
            assert second.result(timeout=5) == 2
            assert other.result(timeout=5) == 9
            assert batcher.telemetry.snapshot()["requests_shed"] == 1
            # Once drained, the group admits again.
            assert batcher.submit("g", 4).result(timeout=5) == 4
        finally:
            release.set()
            batcher.close()

    def test_depth_gauge_tracks_in_flight(self):
        with MicroBatcher(lambda key, requests: requests, max_batch_size=1,
                          max_queue_depth=8) as batcher:
            batcher.submit(("m", "classify"), 1).result(timeout=5)
            # The slot is released just after the future resolves; poll.
            deadline = time.time() + 2
            while time.time() < deadline and batcher.queue_depth(("m", "classify")):
                time.sleep(0.005)
            snapshot = batcher.telemetry.snapshot()
            assert snapshot["queue_depth[m/classify]"] == 0

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            MicroBatcher(lambda key, requests: requests, max_queue_depth=0)

class TestPriorityShedding:
    """Under *global* pressure cheap traffic outlives expensive traffic.

    ``/classify`` submits with ``priority=1`` and keeps admitting up to the
    full ``max_total_depth``; ``/explain`` (priority 0) is shed earlier, at
    the watermark — the regression pinned here is that a flood of expensive
    explains can never starve the cheap classify path.
    """

    def test_low_priority_sheds_at_watermark_high_priority_admits(self):
        release = threading.Event()

        def execute(group_key, requests):
            release.wait(timeout=10)
            return requests

        batcher = MicroBatcher(execute, max_batch_size=1, 
                               max_total_depth=4, shed_watermark=0.75)
        try:
            # Three explains fill the priority-0 share: int(4 * 0.75) == 3.
            explains = [batcher.submit(("m", "explain"), value) for value in range(3)]
            with pytest.raises(QueueFullError) as excinfo:
                batcher.submit(("m", "explain"), 99)
            assert excinfo.value.limit == 3
            assert excinfo.value.retry_after_s > 0
            # The cheap path still has headroom up to the full depth...
            classify = batcher.submit(("m", "classify"), "c", priority=1)
            # ...and only sheds when the batcher is truly full.
            with pytest.raises(QueueFullError) as excinfo:
                batcher.submit(("m", "classify"), "c2", priority=1)
            assert excinfo.value.limit == 4
            counters = batcher.telemetry.snapshot()
            assert counters["requests_shed"] == 2
            # Only the priority-0 shed counts as a priority shed.
            assert counters["requests_shed_priority"] == 1
            release.set()
            assert [f.result(timeout=5) for f in explains] == [0, 1, 2]
            assert classify.result(timeout=5) == "c"
            # Drained: both classes admit again.
            assert batcher.submit(("m", "explain"), 7).result(timeout=5) == 7
        finally:
            release.set()
            batcher.close()

    def test_invalid_total_depth_and_watermark_rejected(self):
        with pytest.raises(ValueError, match="max_total_depth"):
            MicroBatcher(lambda key, requests: requests, max_total_depth=0)
        with pytest.raises(ValueError, match="shed_watermark"):
            MicroBatcher(lambda key, requests: requests, max_total_depth=4,
                         shed_watermark=0.0)

    def test_service_submits_classify_above_explain_priority(self, batcher_store):
        # The service-level half of the guarantee: /classify rides the
        # high-priority lane, /explain the default one.  (The batcher-level
        # test above pins what those lanes mean under pressure.)
        service = make_service(batcher_store, max_total_depth=64)
        submitted = []
        real_submit = service.batcher.submit

        def recording_submit(group_key, request, priority=0):
            submitted.append((group_key[1], priority))
            return real_submit(group_key, request, priority=priority)

        service.batcher.submit = recording_submit
        try:
            rng = np.random.default_rng(0)
            series = rng.normal(size=(4, 48)).tolist()
            service.classify("ccnn-a", series)
            service.explain("ccnn-a", series, k=4, seed=0)
        finally:
            service.batcher.submit = real_submit
            service.close()
        priorities = dict(submitted)
        assert priorities["classify"] == 1
        assert priorities["explain"] == 0


# ---------------------------------------------------------------------------
# Shutdown: no request may hang (ISSUE 6 regression)
# ---------------------------------------------------------------------------

class TestShutdownDrain:
    def test_queued_requests_complete_on_graceful_close(self):
        entered, release = threading.Event(), threading.Event()
        flushes = []

        def execute(group_key, requests):
            flushes.append(list(requests))
            if len(flushes) == 1:
                entered.set()
                assert release.wait(timeout=10)
            return requests

        batcher = MicroBatcher(execute, max_batch_size=4)
        held = batcher.submit("g", "held")
        assert entered.wait(timeout=5)  # the worker is inside the first flush
        futures = [batcher.submit("g", index) for index in range(3)]
        # close() queues its shutdown marker behind the three requests; the
        # worker's drain must still flush them once the held flush returns.
        closer = threading.Thread(target=batcher.close)
        closer.start()
        release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert held.result(timeout=1) == "held"
        assert [future.result(timeout=1) for future in futures] == [0, 1, 2]
        assert flushes == [["held"], [0, 1, 2]]

    def test_requests_racing_close_complete_or_fail_fast(self):
        """Submits concurrent with close() never leave a hanging future."""

        def execute(group_key, requests):
            time.sleep(0.001)
            return requests

        batcher = MicroBatcher(execute, max_batch_size=4)
        outcomes = []
        outcomes_lock = threading.Lock()

        def client(worker):
            for index in range(50):
                try:
                    future = batcher.submit("g", (worker, index))
                except RuntimeError:
                    with outcomes_lock:
                        outcomes.append("rejected")
                    return
                with outcomes_lock:
                    outcomes.append(future)

        threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.01)
        batcher.close(timeout=10)
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert outcomes, "no requests were attempted"
        for outcome in outcomes:
            if isinstance(outcome, Future):
                # Every accepted future resolves promptly: a result (served
                # before/during the drain) — never a hang.
                assert outcome.result(timeout=1) is not None

    def test_close_timeout_fails_stuck_queue_fast(self):
        stuck = threading.Event()

        def execute(group_key, requests):
            stuck.wait(timeout=30)  # simulates a wedged engine
            return requests

        batcher = MicroBatcher(execute, max_batch_size=1)
        in_flight = batcher.submit("g", 1)   # worker blocks on this one
        time.sleep(0.05)
        queued = batcher.submit("g", 2)      # still in the queue
        start = time.perf_counter()
        batcher.close(timeout=0.2)
        assert time.perf_counter() - start < 5
        with pytest.raises(RuntimeError, match="closed"):
            queued.result(timeout=1)
        assert not in_flight.done()  # in execute's hands; must not double-fail
        stuck.set()
        assert in_flight.result(timeout=5) == 1

    def test_submit_after_close_fails_fast(self):
        batcher = MicroBatcher(lambda key, requests: requests)
        batcher.close()
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit("g", 1)
        assert time.perf_counter() - start < 1
        batcher.close()  # idempotent


# ---------------------------------------------------------------------------
# Service-level: coalescing parity, metrics, HTTP backpressure
# ---------------------------------------------------------------------------

class TestCoalescingServiceParity:
    def _mixed_load(self, service, dataset, n_requests=24):
        def one(index):
            series = dataset.X[index % len(dataset.X)]
            if index % 2 == 0:
                return ("classify", service.classify("ccnn-a", series).logits)
            response = service.explain("dcnn-a", series, class_id=1, k=6,
                                       seed=index % 5)
            return ("dcam", response.heatmap, response.success_ratio)

        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(one, range(n_requests)))

    def test_coalescing_equals_serial_bytes(self, batcher_store, tiny_type1_dataset):
        coalescing = make_service(batcher_store, max_batch_size=4)
        serial = make_service(batcher_store, max_batch_size=1)
        try:
            left = self._mixed_load(coalescing, tiny_type1_dataset)
            right = self._mixed_load(serial, tiny_type1_dataset)
        finally:
            coalescing.close()
            serial.close()
        for a, b in zip(left, right):
            assert a[0] == b[0]
            assert np.array_equal(a[1], b[1])
            if len(a) > 2:
                assert a[2] == b[2]

    def test_metrics_expose_batcher_state(self, batcher_store, tiny_type1_dataset):
        service = make_service(batcher_store, max_batch_size=2)
        try:
            for _ in range(3):
                service.classify("ccnn-a", tiny_type1_dataset.X[0])
            snapshot = service.metrics()
        finally:
            service.close()
        assert "queue_depth[ccnn-a/classify]" in snapshot
        assert "flush_classify_seconds" in snapshot
        assert snapshot["requests_classify"] == 3


class TestHTTPBackpressure:
    @pytest.fixture()
    def gated_server(self, batcher_store):
        """A live server whose explain flushes block until released."""
        service = make_service(batcher_store, max_batch_size=1, 
                               max_queue_depth=2)
        release = threading.Event()
        inner_execute = service.batcher._execute

        def gated_execute(group_key, requests):
            if group_key[1] == "explain":
                assert release.wait(timeout=30)
            return inner_execute(group_key, requests)

        service.batcher._execute = gated_execute
        server, thread = serve_in_background(service)
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", release
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            service.close()

    @staticmethod
    def _post(url, payload, timeout=30):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, dict(response.headers), json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())

    @staticmethod
    def _get(url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_saturated_explain_sheds_while_classify_stays_live(
            self, gated_server, tiny_type1_dataset):
        base, release = gated_server
        series = tiny_type1_dataset.X[0]

        def explain(index):
            # Unique seeds: identical requests would collapse into the
            # response cache instead of occupying the queue.
            return self._post(f"{base}/explain",
                              {"model": "dcnn-a", "instance": series.tolist(),
                               "class_id": 1, "k": 4, "seed": index})

        with ThreadPoolExecutor(max_workers=6) as pool:
            pending = [pool.submit(explain, index) for index in range(6)]
            # Wait until the bounded queue (depth 2) is saturated and the
            # overflow requests have been shed.
            deadline = time.time() + 10
            shed = []
            while time.time() < deadline:
                shed = [f for f in pending if f.done() and f.result()[0] == 429]
                if len(shed) >= 4:
                    break
                time.sleep(0.02)
            assert len(shed) >= 1, "no request was shed"
            status, headers, body = shed[0].result()
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] > 0
            assert "overloaded" in body["error"]

            # While /explain is saturated, /classify and /healthz stay live.
            status, _, classified = self._post(
                f"{base}/classify",
                {"model": "ccnn-a", "instance": series.tolist()}, timeout=10)
            assert status == 200 and "logits" in classified
            status, health = self._get(f"{base}/healthz")
            assert status == 200 and health["status"] == "ok"
            status, metrics = self._get(f"{base}/metrics")
            assert status == 200
            assert metrics["requests_shed"] >= 1
            assert metrics["queue_depth[dcnn-a/explain]"] >= 1

            # Releasing the gate drains the admitted requests successfully.
            release.set()
            statuses = sorted(f.result()[0] for f in pending)
            assert statuses.count(200) == 2  # exactly the admitted watermark
            assert statuses.count(429) == 4
