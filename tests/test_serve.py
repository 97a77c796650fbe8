"""Tests of the online serving subsystem (repro.serve).

The load-bearing guarantees pinned here:

* store round-trip — a registered artifact reloads to a bit-identical model;
* exactness — responses assembled through the micro-batching scheduler and
  through the explanation cache are byte-identical to per-request execution,
  for every explainer family and for classify;
* real concurrency — N client threads against a batched service receive
  exactly the bytes a serial per-request service produces, while the batcher
  demonstrably coalesces;
* work-conserving batching — a lone request flushes without any timed
  wait; requests queued behind a busy worker coalesce in submit order, at
  most the flush size per flush, with error isolation and shedding intact;
* cache behaviour — warm vs cold byte-identity, LRU eviction of both tiers
  (shared with the runtime ResultCache), content keys that change with the
  model state;
* HTTP — a live ``ThreadingHTTPServer`` on an ephemeral port answers every
  route, and refuses a bad ``Content-Length`` or an out-of-range ``k``
  before any work is done.
"""

from __future__ import annotations

import json
import pickle
import queue
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.explain import get_explainer
from repro.runtime import ResultCache
from repro.runtime.eviction import (
    ENTRY_OVERHEAD_BYTES,
    BoundedMemoryStore,
    TieredByteStore,
    enforce_disk_budget,
)
from repro.serve import (
    ExplanationCache,
    ExplanationService,
    MicroBatcher,
    ModelArtifactStore,
    QueueFullError,
    ServeConfig,
    probe_batch_parity,
    serve_in_background,
    serve_logits,
)
from repro.serve import batcher as batcher_module
from repro.serve.cache import content_key, response_cache_key
from repro.serve.engine import (
    draw_request_permutations,
    explain_outputs,
    per_request_explain,
)
from repro.serve.http import MAX_BODY_BYTES

MODEL_SPECS = {
    "ccnn": {"filters": (8, 16)},
    "mtex": {"block1_filters": (4, 8), "block2_filters": 8, "hidden_units": 16},
    "dcnn": {"filters": (8, 16)},
}


@pytest.fixture(scope="session")
def serve_store(tmp_path_factory, trained_ccnn, trained_mtex, trained_dcnn):
    """A session store holding one artifact per explainer family."""
    store = ModelArtifactStore(str(tmp_path_factory.mktemp("serve-store")))
    for model_name, model in (("ccnn", trained_ccnn), ("mtex", trained_mtex),
                              ("dcnn", trained_dcnn)):
        parity = probe_batch_parity(model)
        store.register(
            f"{model_name}-t", model, model_name=model_name,
            metadata={"model_kwargs": dict(MODEL_SPECS[model_name]),
                      "batch_parity": parity.to_json()})
    return store


def make_service(store, **config_kwargs):
    return ExplanationService(store, cache=ExplanationCache(max_memory_bytes=None),
                              config=ServeConfig(**config_kwargs))


# ---------------------------------------------------------------------------
# Model artifact store
# ---------------------------------------------------------------------------

class TestModelArtifactStore:
    def test_round_trip_is_bit_identical(self, serve_store, trained_dcnn,
                                         tiny_type1_dataset):
        reloaded = serve_store.load("dcnn-t")
        assert reloaded is not trained_dcnn
        state, reloaded_state = trained_dcnn.state_dict(), reloaded.state_dict()
        assert list(state) == list(reloaded_state)
        for key in state:
            assert np.array_equal(state[key], reloaded_state[key])
        X = tiny_type1_dataset.X[:4]
        assert np.array_equal(trained_dcnn.logits(X), reloaded.logits(X))

    def test_warm_cache_returns_same_instance(self, serve_store):
        assert serve_store.load("ccnn-t") is serve_store.load("ccnn-t")

    def test_list_and_contains(self, serve_store):
        assert serve_store.list_names() == ["ccnn-t", "dcnn-t", "mtex-t"]
        assert "dcnn-t" in serve_store
        assert "nope" not in serve_store

    def test_artifact_metadata(self, serve_store):
        artifact = serve_store.artifact("dcnn-t")
        assert artifact.explainer_family == "dcam"
        assert artifact.model_name == "dcnn"
        assert len(artifact.state_hash) == 64
        assert artifact.metadata["batch_parity"]["explain"] is True

    def test_unknown_artifact_raises(self, serve_store):
        with pytest.raises(KeyError, match="nope"):
            serve_store.artifact("nope")

    def test_register_refuses_overwrite(self, serve_store, trained_ccnn):
        with pytest.raises(FileExistsError):
            serve_store.register("ccnn-t", trained_ccnn, model_name="ccnn")

    def test_invalid_name_rejected(self, serve_store, trained_ccnn):
        with pytest.raises(ValueError, match="invalid artifact name"):
            serve_store.register("../escape", trained_ccnn, model_name="ccnn")

    def test_integrity_check(self, tmp_path, trained_ccnn):
        store = ModelArtifactStore(str(tmp_path))
        store.register("model", trained_ccnn, model_name="ccnn",
                       metadata={"model_kwargs": dict(MODEL_SPECS["ccnn"])})
        # Corrupt the artifact record's hash: load must fail loudly.
        artifact_path = tmp_path / "model" / "artifact.json"
        record = json.loads(artifact_path.read_text())
        record["state_hash"] = "0" * 64
        artifact_path.write_text(json.dumps(record))
        fresh = ModelArtifactStore(str(tmp_path))  # no memoized record
        with pytest.raises(ValueError, match="integrity"):
            fresh.load("model")


# ---------------------------------------------------------------------------
# Explanation cache + shared LRU eviction
# ---------------------------------------------------------------------------

class TestExplanationCache:
    def test_memory_round_trip(self):
        cache = ExplanationCache()
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, b"payload")
        assert cache.get("k" * 64) == b"payload"
        assert ("k" * 64) in cache and len(cache) == 1

    def test_disk_tier_survives_instances(self, tmp_path):
        first = ExplanationCache(directory=str(tmp_path))
        first.put("a" * 64, b"one")
        second = ExplanationCache(directory=str(tmp_path))
        assert second.get("a" * 64) == b"one"

    def test_memory_lru_eviction_order(self):
        cache = ExplanationCache(max_memory_bytes=2 * (4 + ENTRY_OVERHEAD_BYTES))
        cache.put("a" * 64, b"aaaa")
        cache.put("b" * 64, b"bbbb")
        assert cache.get("a" * 64) == b"aaaa"  # refresh a
        cache.put("c" * 64, b"cccc")           # evicts b, the LRU entry
        assert cache.get("b" * 64) is None
        assert cache.get("a" * 64) == b"aaaa"
        assert cache.get("c" * 64) == b"cccc"

    def test_disk_lru_eviction(self, tmp_path):
        cache = ExplanationCache(directory=str(tmp_path), max_disk_bytes=8)
        cache.put("a" * 64, b"aaaa")
        cache.put("b" * 64, b"bbbb")
        cache.put("c" * 64, b"cccc")
        names = {path.name[:1] for path in tmp_path.glob("*.blob")}
        assert len(names) <= 2 and "c" in names

    def test_telemetry_counters(self):
        cache = ExplanationCache()
        cache.get("x" * 64)
        cache.put("x" * 64, b"1")
        cache.get("x" * 64)
        snapshot = cache.telemetry.snapshot()
        assert snapshot["cache_misses"] == 1
        assert snapshot["cache_hits"] == 1
        assert snapshot["cache_stores"] == 1

    def test_content_key_sensitivity(self):
        array = np.arange(6, dtype=np.float64)
        base = content_key("tag", array, 1)
        assert base == content_key("tag", np.arange(6, dtype=np.float64), 1)
        assert base != content_key("tag", array, 2)
        assert base != content_key("tag", array.astype(np.float32), 1)
        assert base != content_key("tag", array.reshape(2, 3), 1)

    def test_response_key_separates_model_states(self):
        instance = np.zeros((2, 3))
        key_one = response_cache_key("hash-one", "explain", instance, 1, 8, 0)
        key_two = response_cache_key("hash-two", "explain", instance, 1, 8, 0)
        assert key_one != key_two


class TestSharedEviction:
    def test_bounded_memory_store(self):
        store = BoundedMemoryStore(max_bytes=2 * (5 + ENTRY_OVERHEAD_BYTES))
        store.put("a", b"12345")
        store.put("b", b"12345")
        store.get("a")
        store.put("c", b"12345")  # b is least recently used
        assert "b" not in store and "a" in store and "c" in store
        assert store.evictions == 1

    def test_bounded_memory_store_thread_safety(self):
        from concurrent.futures import ThreadPoolExecutor

        charge = 10 + ENTRY_OVERHEAD_BYTES
        store = BoundedMemoryStore(max_bytes=6 * charge)  # constant churn

        def hammer(worker):
            for index in range(400):
                key = f"{worker}-{index % 7}"
                store.put(key, b"0123456789")
                store.get(key)  # must never KeyError against a racing evict

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(hammer, range(6)))
        assert store.total_bytes <= 7 * charge  # bound holds (± one in-flight entry)

    def test_zero_byte_entries_fill_the_memory_budget(self):
        store = BoundedMemoryStore(max_bytes=10 * ENTRY_OVERHEAD_BYTES)
        for index in range(10_000):
            store.put(f"{index:064x}", b"")
        assert len(store) == 10
        assert store.evictions == 10_000 - 10

    def test_zero_byte_entries_fill_the_disk_budget(self, tmp_path):
        store = TieredByteStore(directory=str(tmp_path), suffix=".blob",
                                max_memory_bytes=1, max_disk_bytes=10 * ENTRY_OVERHEAD_BYTES)
        for index in range(200):
            store.put(f"{index:064x}", b"")
        assert len(list(tmp_path.glob("*.blob"))) <= 10

    def test_result_cache_disk_lru(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), max_disk_bytes=1)
        cache.store("first", {"payload": 1})
        cache.store("second", {"payload": 2})
        # Budget of one byte: only the newest entry file survives.
        remaining = sorted(path.name for path in tmp_path.glob("*.pkl"))
        assert remaining == ["second.pkl"]
        # The evicted entry still lives in the memory tier of this instance.
        hit, value = cache.lookup("first")
        assert hit and value == {"payload": 1}
        # ... but is gone for a fresh process/instance.
        fresh = ResultCache(directory=str(tmp_path))
        hit, _ = fresh.lookup("first")
        assert not hit

    def test_result_cache_memory_bound(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), max_memory_bytes=1)
        cache.store("first", list(range(100)))
        cache.store("second", list(range(100)))
        # Disk is unbounded: both entries remain loadable.
        assert cache.lookup("first") == (True, list(range(100)))
        assert cache.lookup("second") == (True, list(range(100)))

    def test_enforce_disk_budget_none_is_noop(self, tmp_path):
        (tmp_path / "entry.pkl").write_bytes(b"x" * 100)
        assert enforce_disk_budget(str(tmp_path), None) == 0


# ---------------------------------------------------------------------------
# Engine exactness: scheduler-assembled == per-request, per family
# ---------------------------------------------------------------------------

class TestEngineExactness:
    @pytest.mark.parametrize("artifact_name", ["ccnn-t", "mtex-t", "dcnn-t"])
    def test_coalesced_explain_matches_per_request(self, serve_store, artifact_name,
                                                   tiny_type1_dataset):
        model = serve_store.load(artifact_name)
        family = serve_store.artifact(artifact_name).explainer_family
        X = tiny_type1_dataset.X[:5]
        class_ids = [int(label) for label in tiny_type1_dataset.y[:5]]
        ks = [4, 8, 4, 6, 8]          # heterogeneous on purpose
        seeds = [7, 1, 3, 3, 9]
        coalesced = explain_outputs(model, family, X, class_ids, ks, seeds,
                                    batch_size=32)
        for index, output in enumerate(coalesced):
            reference = per_request_explain(model, family, X[index],
                                            class_ids[index], ks[index],
                                            seeds[index], batch_size=32)
            assert np.array_equal(output.heatmap, reference.heatmap)
            assert output.success_ratio == reference.success_ratio

    def test_dcam_per_request_matches_plain_explainer(self, serve_store,
                                                      tiny_type1_dataset):
        """The serve reference path IS Explainer.explain with the seeded draw."""
        model = serve_store.load("dcnn-t")
        series = tiny_type1_dataset.X[0]
        explainer = get_explainer(model, keep_details=False)
        direct = explainer.explain(
            series, 1,
            permutations=draw_request_permutations(series.shape[0], 8, 42))
        served = per_request_explain(model, "dcam", series, 1, 8, 42, batch_size=32)
        assert np.array_equal(served.heatmap, direct.heatmap)
        # ... and the seeded draw equals an rng-driven explain, the way a
        # client would call it locally.
        rng_driven = get_explainer(model, k=8, keep_details=False,
                                   rng=np.random.default_rng(42)).explain(series, 1)
        assert np.array_equal(served.heatmap, rng_driven.heatmap)

    @pytest.mark.parametrize("artifact_name", ["ccnn-t", "mtex-t", "dcnn-t"])
    def test_serve_logits_width_invariant(self, serve_store, artifact_name,
                                          tiny_type1_dataset):
        model = serve_store.load(artifact_name)
        X = tiny_type1_dataset.X[:6]
        batched = serve_logits(model, X)
        singles = np.concatenate([serve_logits(model, X[i : i + 1])
                                  for i in range(len(X))])
        assert np.array_equal(batched, singles)
        # And close to the raw model path (the head contraction differs only
        # in BLAS kernel rounding).
        np.testing.assert_allclose(batched, model.logits(X), atol=1e-10)

    def test_probe_reports_parity(self, serve_store):
        for artifact_name in serve_store.list_names():
            report = probe_batch_parity(serve_store.load(artifact_name))
            assert report.classify is True
            assert report.explain is True


# ---------------------------------------------------------------------------
# Micro-batcher
# ---------------------------------------------------------------------------

class _HeldFirstFlush:
    """An ``execute`` whose first flush blocks until ``release`` is set.

    While the worker sits inside that flush, later submits queue behind it:
    the only way requests coalesce in a work-conserving batcher.
    """

    def __init__(self, compute=lambda requests: requests):
        self.compute = compute
        self.entered = threading.Event()
        self.release = threading.Event()
        self.flushes = []

    def __call__(self, group_key, requests):
        self.flushes.append(list(requests))
        if len(self.flushes) == 1:
            self.entered.set()
            assert self.release.wait(timeout=10)
        return self.compute(requests)

    def hold(self, batcher, group_key="g"):
        """Submit the held request; return once the worker is inside it."""
        future = batcher.submit(group_key, "held")
        assert self.entered.wait(timeout=5)
        return future


class TestMicroBatcher:
    def test_flush_on_max_batch_size(self):
        execute = _HeldFirstFlush(lambda requests: [value * 2 for value in requests])
        with MicroBatcher(execute, max_batch_size=4) as batcher:
            execute.hold(batcher)
            futures = [batcher.submit("g", value) for value in range(10)]
            execute.release.set()
            assert [future.result(timeout=5) for future in futures] == \
                [2 * value for value in range(10)]
        # Everything queued behind the held flush goes out in submit order,
        # at most the flush size per flush.
        assert execute.flushes == [["held"], [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_lone_request_flushes_without_waiting(self, monkeypatch):
        # Work-conserving: an idle worker flushes a lone request at once.  It
        # may block on an empty queue, never on a timeout for companions.
        timeouts = []

        class RecordingQueue(queue.Queue):
            def get(self, block=True, timeout=None):
                if block and timeout is not None:
                    timeouts.append(timeout)
                return super().get(block, timeout)

        monkeypatch.setattr(batcher_module, "queue",
                            SimpleNamespace(Queue=RecordingQueue, Empty=queue.Empty))
        with MicroBatcher(lambda key, requests: requests, max_batch_size=64) as batcher:
            assert batcher.submit("g", "lonely").result(timeout=5) == "lonely"
        snapshot = batcher.telemetry.snapshot()
        assert snapshot["batches_flushed"] == 1
        assert "flushes_timed_out" not in snapshot
        assert timeouts == []

    def test_groups_never_mix(self):
        seen = {}

        def execute(group_key, requests):
            seen.setdefault(group_key, []).extend(requests)
            return requests

        with MicroBatcher(execute, max_batch_size=8) as batcher:
            futures = [batcher.submit(index % 2, index) for index in range(8)]
            for future in futures:
                future.result(timeout=5)
        assert sorted(seen[0]) == [0, 2, 4, 6]
        assert sorted(seen[1]) == [1, 3, 5, 7]

    def test_execute_error_fails_every_future(self):
        def explode(requests):
            raise RuntimeError("engine exploded")

        execute = _HeldFirstFlush(explode)
        with MicroBatcher(execute, max_batch_size=2) as batcher:
            held = execute.hold(batcher)
            futures = [batcher.submit("g", index) for index in range(2)]
            execute.release.set()
            for future in [held] + futures:
                with pytest.raises(RuntimeError, match="engine exploded"):
                    future.result(timeout=5)
        # The coalesced pair failed, was retried one request at a time, and
        # each retry failed on its own.
        assert execute.flushes == [["held"], [0, 1], [0], [1]]
        assert batcher.telemetry.snapshot()["flush_error_isolations"] == 1

    def test_one_bad_request_does_not_poison_companions(self):
        def compute(requests):
            if any(value == "bad" for value in requests):
                raise ValueError("malformed request")
            return [value * 2 for value in requests]

        execute = _HeldFirstFlush(compute)
        with MicroBatcher(execute, max_batch_size=3) as batcher:
            execute.hold(batcher)
            good_one = batcher.submit("g", 1)
            bad = batcher.submit("g", "bad")
            good_two = batcher.submit("g", 2)
            execute.release.set()
            assert good_one.result(timeout=5) == 2
            assert good_two.result(timeout=5) == 4
            with pytest.raises(ValueError, match="malformed request"):
                bad.result(timeout=5)
        assert execute.flushes[1] == [1, "bad", 2]  # they did coalesce

    def test_shedding_behind_a_busy_worker(self):
        execute = _HeldFirstFlush()
        with MicroBatcher(execute, max_batch_size=8, max_queue_depth=3) as batcher:
            execute.hold(batcher)  # in flight: 1
            queued = [batcher.submit("g", index) for index in range(2)]
            with pytest.raises(QueueFullError) as excinfo:
                batcher.submit("g", 2)
            assert excinfo.value.limit == 3
            execute.release.set()
            assert [future.result(timeout=5) for future in queued] == [0, 1]
        assert execute.flushes == [["held"], [0, 1]]
        assert batcher.telemetry.snapshot()["requests_shed"] == 1

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda key, requests: requests)
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.submit("g", 1)


# ---------------------------------------------------------------------------
# Service: batched vs serial under real concurrency, cache identity
# ---------------------------------------------------------------------------

class TestServiceParity:
    def _run_mixed_load(self, service, dataset, n_clients=8, n_requests=24):
        """Mixed classify/explain requests from a thread pool, in request order."""
        X = dataset.X

        def one(index):
            series = X[index % len(X)]
            if index % 3 == 0:
                response = service.classify("ccnn-t", series)
                return ("classify", response.logits)
            if index % 3 == 1:
                response = service.explain("dcnn-t", series, class_id=1,
                                           k=6, seed=index % 5)
                return ("dcam", response.heatmap, response.success_ratio)
            response = service.explain("mtex-t", series, class_id=0)
            return ("gradcam", response.heatmap)

        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            return list(pool.map(one, range(n_requests)))

    def test_batched_equals_serial_under_concurrency(self, serve_store,
                                                     tiny_type1_dataset):
        batched_service = make_service(serve_store, max_batch_size=8)
        serial_service = make_service(serve_store, max_batch_size=1)
        try:
            batched = self._run_mixed_load(batched_service, tiny_type1_dataset)
            serial = self._run_mixed_load(serial_service, tiny_type1_dataset)
        finally:
            batched_service.close()
            serial_service.close()
        assert len(batched) == len(serial)
        for left, right in zip(batched, serial):
            assert left[0] == right[0]
            assert np.array_equal(left[1], right[1])
            if len(left) > 2:
                assert left[2] == right[2]
        # The batched service must actually have coalesced something.
        snapshot = batched_service.metrics()
        assert snapshot["batches_flushed"] < snapshot["batched_requests"]

    def test_cache_warm_vs_cold_byte_identity(self, serve_store, tiny_type1_dataset):
        service = make_service(serve_store, max_batch_size=4)
        try:
            series = tiny_type1_dataset.X[0]
            cold = service.explain("dcnn-t", series, class_id=1, k=8, seed=3)
            warm = service.explain("dcnn-t", series, class_id=1, k=8, seed=3)
            assert not cold.cached and warm.cached
            assert np.array_equal(cold.heatmap, warm.heatmap)
            assert cold.success_ratio == warm.success_ratio
            assert pickle.dumps((cold.heatmap, cold.success_ratio)) == \
                pickle.dumps((warm.heatmap, warm.success_ratio))
            cold_logits = service.classify("ccnn-t", series)
            warm_logits = service.classify("ccnn-t", series)
            assert not cold_logits.cached and warm_logits.cached
            assert np.array_equal(cold_logits.logits, warm_logits.logits)
        finally:
            service.close()

    def test_explain_defaults_to_predicted_class(self, serve_store,
                                                 tiny_type1_dataset):
        service = make_service(serve_store, max_batch_size=1)
        try:
            series = tiny_type1_dataset.X[0]
            predicted = service.classify("dcnn-t", series).predicted
            response = service.explain("dcnn-t", series, k=4, seed=0)
            assert response.class_id == predicted
        finally:
            service.close()

    def test_request_validation(self, serve_store):
        service = make_service(serve_store)
        try:
            with pytest.raises(KeyError):
                service.classify("missing-model", np.zeros((4, 48)))
            with pytest.raises(ValueError, match="shape"):
                service.classify("ccnn-t", np.zeros((3, 48)))
            with pytest.raises(ValueError, match="class_id"):
                service.explain("dcnn-t", np.zeros((4, 48)), class_id=99)
            with pytest.raises(ValueError, match="k must be"):
                service.explain("dcnn-t", np.zeros((4, 48)), class_id=1, k=0)
            with pytest.raises(ValueError, match="k must be"):
                service.explain("dcnn-t", np.zeros((4, 48)), class_id=1,
                                k=10**9)
        finally:
            service.close()

    def test_classify_response_derivations(self, serve_store, tiny_type1_dataset):
        service = make_service(serve_store)
        try:
            response = service.classify("ccnn-t", tiny_type1_dataset.X[0])
            assert response.predicted == int(response.logits.argmax())
            np.testing.assert_allclose(response.probabilities.sum(), 1.0)
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Permutation-level caching (Figure 10's below-unit reuse)
# ---------------------------------------------------------------------------

class TestPermutationCache:
    def test_growing_k_reuses_permutation_cams(self, monkeypatch, trained_dcnn,
                                               tiny_type1_test_dataset):
        import repro.core.dcam as core_dcam
        from repro.explain.evaluation import evaluate_explainer

        k_values = (1, 2, 4, 8)
        plain = [
            evaluate_explainer(trained_dcnn, tiny_type1_test_dataset, k=k,
                               n_instances=3, random_state=11).dr_acc
            for k in k_values
        ]
        forwarded = []
        original = core_dcam._permutation_cams_batched

        def counting(model, permuted, class_weights, batch_size):
            forwarded.append(len(permuted))
            return original(model, permuted, class_weights, batch_size)

        monkeypatch.setattr(core_dcam, "_permutation_cams_batched", counting)
        cache = ExplanationCache(max_memory_bytes=None)
        cached = [
            evaluate_explainer(trained_dcnn, tiny_type1_test_dataset, k=k,
                               n_instances=3, random_state=11, cache=cache).dr_acc
            for k in k_values
        ]
        assert cached == plain
        # The first instance's draws nest across k, so from its second
        # evaluation on its table serves rows and fewer than sum(k) rows
        # per instance are forwarded.
        assert sum(forwarded) < 3 * sum(k_values)
        # At most one table store per instance and evaluation.
        assert cache.telemetry.snapshot()["cache_stores"] <= 3 * len(k_values)

    def test_cache_keys_depend_on_model_state(self, trained_dcnn):
        from repro.core.dcam import _table_key

        series = np.zeros((4, 8))
        key_one = _table_key("hash-one", series, 1)
        assert key_one == _table_key("hash-one", np.zeros((4, 8)), 1)
        assert key_one != _table_key("hash-two", series, 1)
        assert key_one != _table_key("hash-one", series, 0)
        changed = series.copy()
        changed[3, 7] = 1.0
        assert key_one != _table_key("hash-one", changed, 1)
        assert key_one != _table_key("hash-one", series.reshape(8, 4), 1)


# ---------------------------------------------------------------------------
# CLI: export-model (train-or-load through the runtime ResultCache)
# ---------------------------------------------------------------------------

class TestExportModelCLI:
    def test_export_then_cached_reexport(self, tmp_path):
        from repro.runtime.cli import main as cli_main

        store_dir = str(tmp_path / "models")
        cache_dir = str(tmp_path / "cache")
        argv = ["export-model", "--model", "dcnn", "--scale", "tiny",
                "--store", store_dir, "--cache-dir", cache_dir, "--epochs", "2"]
        assert cli_main(argv) == 0
        store = ModelArtifactStore(store_dir)
        assert store.list_names() == ["dcnn-tiny"]
        first_hash = store.artifact("dcnn-tiny").state_hash

        # Re-export hits the runtime ResultCache and reproduces the exact
        # same state (the artifact hash is content-addressed).
        assert cli_main(argv + ["--overwrite"]) == 0
        fresh = ModelArtifactStore(store_dir)
        assert fresh.artifact("dcnn-tiny").state_hash == first_hash
        # Without --overwrite the existing artifact is protected.
        with pytest.raises(FileExistsError):
            cli_main(argv)

    def test_export_unknown_model(self, tmp_path):
        from repro.runtime.cli import main as cli_main

        assert cli_main(["export-model", "--model", "not-a-model",
                         "--store", str(tmp_path)]) == 2

    def test_serve_refuses_empty_store(self, tmp_path):
        from repro.runtime.cli import main as cli_main

        assert cli_main(["serve", "--store", str(tmp_path)]) == 2

    def test_exported_artifact_serves(self, tmp_path, tiny_type1_dataset):
        from repro.runtime.cli import main as cli_main

        store_dir = str(tmp_path / "models")
        assert cli_main(["export-model", "--model", "ccnn", "--scale", "tiny",
                         "--store", store_dir, "--epochs", "2"]) == 0
        service = make_service(ModelArtifactStore(store_dir))
        try:
            response = service.classify("ccnn-tiny", tiny_type1_dataset.X[0])
            assert response.logits.shape == (2,)
        finally:
            service.close()


class TestServeCLI:
    def test_serve_cli_defaults_come_from_serve_config(self):
        import argparse

        from repro.obs import ObsConfig
        from repro.runtime.cli import _add_serve_arguments
        from repro.serve.cache import DEFAULT_MEMORY_BYTES

        parser = argparse.ArgumentParser()
        _add_serve_arguments(parser)
        args = parser.parse_args(["--store", "unused"])
        defaults = ServeConfig()
        assert args.max_batch_size == defaults.max_batch_size
        assert args.max_queue_depth == defaults.max_queue_depth
        assert args.drain_timeout_s == defaults.drain_timeout_s
        assert args.precision == defaults.precision
        assert args.trace_sample_rate == ObsConfig().trace_sample_rate
        assert args.cache_memory_mb * 1024 * 1024 == DEFAULT_MEMORY_BYTES


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------

class TestHTTP:
    @pytest.fixture()
    def live_server(self, serve_store):
        service = make_service(serve_store, max_batch_size=4)
        server, thread = serve_in_background(service)  # ephemeral port
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        service.close()

    @staticmethod
    def _get(url):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())

    @staticmethod
    def _post(url, payload):
        request = urllib.request.Request(
            url, data=json.dumps(payload).encode("utf-8"), method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_healthz_models_metrics(self, live_server):
        status, health = self._get(f"{live_server}/healthz")
        assert status == 200 and health == {"status": "ok", "models": 3}
        status, models = self._get(f"{live_server}/models")
        assert status == 200
        assert {record["name"] for record in models["models"]} == \
            {"ccnn-t", "mtex-t", "dcnn-t"}
        status, metrics = self._get(f"{live_server}/metrics")
        assert status == 200 and isinstance(metrics, dict)

    def test_classify_and_explain_round_trip(self, live_server, serve_store,
                                             tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        status, classified = self._post(
            f"{live_server}/classify",
            {"model": "ccnn-t", "instance": series.tolist()})
        assert status == 200
        # JSON floats round-trip exactly: the served logits equal the
        # canonical serve_logits bytes.
        expected = serve_logits(serve_store.load("ccnn-t"), series[None])[0]
        assert np.array_equal(np.asarray(classified["logits"]), expected)
        assert classified["predicted"] == int(expected.argmax())

        status, explained = self._post(
            f"{live_server}/explain",
            {"model": "dcnn-t", "instance": series.tolist(),
             "class_id": 1, "k": 6, "seed": 2})
        assert status == 200 and explained["family"] == "dcam"
        reference = per_request_explain(serve_store.load("dcnn-t"), "dcam",
                                        series, 1, 6, 2, batch_size=32)
        assert np.array_equal(np.asarray(explained["heatmap"]), reference.heatmap)
        assert explained["success_ratio"] == reference.success_ratio

        # A repeat is a cache hit with identical bytes.
        status, repeat = self._post(
            f"{live_server}/explain",
            {"model": "dcnn-t", "instance": series.tolist(),
             "class_id": 1, "k": 6, "seed": 2})
        assert repeat["cached"] is True
        assert repeat["heatmap"] == explained["heatmap"]

    def test_http_errors(self, live_server):
        status, body = self._post(f"{live_server}/classify", {"model": "ccnn-t"})
        assert status == 400 and "instance" in body["error"]
        status, body = self._post(
            f"{live_server}/classify",
            {"model": "missing", "instance": [[0.0] * 48] * 4})
        assert status == 404
        status, body = self._get(f"{live_server}/metrics")
        assert status == 200
        status, body = self._post(f"{live_server}/nope", {})
        assert status == 404

    @staticmethod
    def _raw_post(url, content_length):
        """POST headers only, over a raw socket; ``(status, body)`` or a timeout.

        The socket timeout turns a handler that blocks on the body into a
        test failure instead of a hang.
        """
        host, port = url.rsplit("/", 1)[1].split(":")
        head = (f"POST /explain HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(head.encode("ascii"))
            chunks = []
            while True:
                chunk = sock.recv(65536)  # the server hangs up after replying
                if not chunk:
                    break
                chunks.append(chunk)
        header, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return int(header.split()[1]), json.loads(body)

    def test_bad_content_length_is_refused_unread(self, live_server):
        # read(-1) would block until the client hangs up.
        status, body = self._raw_post(live_server, -1)
        assert status == 400 and "Content-Length" in body["error"]
        status, body = self._raw_post(live_server, MAX_BODY_BYTES + 1)
        assert status == 413 and "exceeds" in body["error"]
        status, body = self._raw_post(live_server, "abc")
        assert status == 400 and "Content-Length" in body["error"]
        # The server still answers afterwards.
        assert self._get(f"{live_server}/healthz")[0] == 200

    def test_k_out_of_range_reaches_no_flush_and_no_cache(self, serve_store,
                                                         tiny_type1_dataset):
        service = make_service(serve_store, max_k=16)
        server, thread = serve_in_background(service)
        host, port = server.server_address[:2]
        try:
            for k in (service.config.max_k + 1, 0):
                status, body = self._post(
                    f"http://{host}:{port}/explain",
                    {"model": "dcnn-t", "instance": tiny_type1_dataset.X[0].tolist(),
                     "class_id": 1, "k": k, "seed": 0})
                assert status == 400 and "k must be between 1 and 16" in body["error"]
            counters = service.metrics()
            assert "batches_flushed" not in counters
            assert "cache_stores" not in counters
            # Response and per-permutation entries share this cache.
            assert len(service.cache) == 0
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_non_finite_instances_are_rejected_uncached(self, serve_store,
                                                        tiny_type1_dataset):
        # json.loads accepts NaN/Infinity: they must answer 400, not a
        # partly-NaN heatmap or NaN logits, and must never reach the cache.
        service = make_service(serve_store, max_batch_size=4)
        server, thread = serve_in_background(service)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            for bad in (np.nan, np.inf, -np.inf):
                series = tiny_type1_dataset.X[0].copy()
                series[1, 3] = bad
                status, body = self._post(
                    f"{url}/explain",
                    {"model": "dcnn-t", "instance": series.tolist(),
                     "class_id": 1, "k": 4, "seed": 0})
                assert status == 400 and "NaN or infinite" in body["error"]
                for model in ("ccnn-t", "dcnn-t"):
                    status, body = self._post(
                        f"{url}/classify", {"model": model, "instance": series.tolist()})
                    assert status == 400 and "NaN or infinite" in body["error"]
            assert len(service.cache) == 0
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_concurrent_http_clients(self, live_server, tiny_type1_dataset):
        X = tiny_type1_dataset.X

        def call(index):
            return self._post(
                f"{live_server}/explain",
                {"model": "dcnn-t", "instance": X[index % 4].tolist(),
                 "class_id": 1, "k": 4, "seed": index % 3})

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(call, range(16)))
        assert all(status == 200 for status, _ in responses)
        # Identical (instance, k, seed) requests must yield identical bytes.
        by_key = {}
        for index, (_, body) in enumerate(responses):
            key = (index % 4, index % 3)
            if key in by_key:
                assert by_key[key] == body["heatmap"]
            else:
                by_key[key] = body["heatmap"]
