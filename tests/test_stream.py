"""Streaming incremental explanation (:mod:`repro.stream`).

The contract under test: the incremental engine — ring buffer, rolled
``C(T)`` cubes, shifted conv feature maps, delta-updated CAM stacks — emits
the same results as the naive per-window oracle.  Cold starts are bitwise;
steady-state hops agree to 1e-10 at float64 (the documented float32-tier
tolerance on the single-precision tier).  Untrained seeded models are used
throughout: explanation parity is a property of the arithmetic, not the
weights.
"""

import json
import pickle

import numpy as np
import pytest

from repro.models import (
    CCNNClassifier,
    CNNClassifier,
    DCNNClassifier,
    DResNetClassifier,
    GRUClassifier,
)
from repro.nn import Tensor
from repro.serve import ExplanationCache
from repro.serve.cache import stream_window_key
from repro.serve.store import ModelArtifactStore
from repro.stream import (
    IncrementalTrunk,
    StreamConfig,
    StreamSession,
    UnsupportedArchitectureError,
    supports_incremental,
)
from repro.stream.session import _RingWindow

D, CLASSES = 4, 3


def make_model(cls=DCNNClassifier, length=32, seed=1, filters=(4, 8)):
    return cls(D, length, CLASSES, filters=filters, rng=np.random.default_rng(seed))


def make_feed(total, seed=0):
    return np.random.default_rng(seed).standard_normal((D, total))


def run_stream(session, feed, chunk=1):
    results = []
    for offset in range(0, feed.shape[1], chunk):
        results.extend(session.push(feed[:, offset : offset + chunk]))
    return results


def assert_emissions_match(left, right, atol=1e-10, rtol=1e-10):
    assert len(left) == len(right) and left
    for a, b in zip(left, right):
        assert (a.index, a.t_start, a.t_end) == (b.index, b.t_start, b.t_end)
        assert a.predicted == b.predicted
        assert a.class_id == b.class_id
        assert a.success_ratio == b.success_ratio
        np.testing.assert_allclose(a.logits, b.logits, atol=atol, rtol=rtol)
        if a.heatmap is None:
            assert b.heatmap is None
        else:
            np.testing.assert_allclose(a.heatmap, b.heatmap, atol=atol, rtol=rtol)


def both_engines(model_factory, config_kwargs, feed, chunk=1):
    incremental = run_stream(
        StreamSession(model_factory(), StreamConfig(**config_kwargs)), feed, chunk
    )
    naive = run_stream(
        StreamSession(model_factory(), StreamConfig(engine="naive", **config_kwargs)),
        feed,
        chunk,
    )
    return incremental, naive


class TestRingWindow:
    def test_window_is_last_capacity_columns(self):
        ring = _RingWindow(2, 5)
        feed = np.arange(2 * 13, dtype=float).reshape(2, 13)
        # Odd chunk sizes force wraparound splits.
        for lo, hi in ((0, 3), (3, 4), (4, 9), (9, 13)):
            ring.push(feed[:, lo:hi])
        np.testing.assert_array_equal(ring.window(), feed[:, -5:])
        np.testing.assert_array_equal(ring.tail(2), feed[:, -2:])

    def test_oversized_push_keeps_tail(self):
        ring = _RingWindow(2, 4)
        feed = np.arange(2 * 11, dtype=float).reshape(2, 11)
        ring.push(feed)
        np.testing.assert_array_equal(ring.window(), feed[:, -4:])

    def test_not_full_raises(self):
        ring = _RingWindow(2, 4)
        ring.push(np.zeros((2, 3)))
        assert not ring.full
        with pytest.raises(RuntimeError):
            ring.window()
        with pytest.raises(ValueError):
            ring.tail(4)


class TestIncrementalSupport:
    def test_cnn_family_supported(self):
        for cls in (CNNClassifier, CCNNClassifier, DCNNClassifier):
            assert supports_incremental(make_model(cls))

    def test_resnet_and_recurrent_unsupported(self):
        resnet = DResNetClassifier(D, 32, CLASSES, rng=np.random.default_rng(0))
        assert not supports_incremental(resnet)
        assert not supports_incremental(
            GRUClassifier(D, 32, CLASSES, rng=np.random.default_rng(0))
        )

    def test_fallback_policy(self):
        resnet = DResNetClassifier(D, 32, CLASSES, rng=np.random.default_rng(0))
        session = StreamSession(resnet, StreamConfig(hop=8, k=4))
        assert session.engine == "naive"
        with pytest.raises(UnsupportedArchitectureError):
            StreamSession(resnet, StreamConfig(on_unsupported="error"))

    def test_trunk_reset_matches_model_features(self):
        model = make_model()
        model.eval()  # fused inference path: BN consumes running statistics
        trunk = IncrementalTrunk(model)
        window = make_feed(32)
        from repro.nn import inference_mode

        # dCAM's forward (the naive engine's) reads layer 1 off the series:
        # the cold start matches it bitwise, and the cube path to round-off.
        with inference_mode():
            expected = model.features(Tensor(window[None])).data
            through_cube = model.features(model.prepare_input(window[None])).data
        cube = model.prepare_input(window[None]).data
        features, (a, b) = trunk.reset(cube)
        assert (a, b) == (32, 0)
        np.testing.assert_array_equal(features, expected)
        np.testing.assert_allclose(features, through_cube, rtol=1e-12, atol=1e-12)


class TestDcamParity:
    @pytest.mark.parametrize("length,hop", [(32, 1), (32, 3), (31, 4), (32, 32), (32, 40)])
    def test_incremental_matches_naive(self, length, hop):
        # Streams long enough that the ring buffer wraps several times.
        feed = make_feed(length * 3 + 7)
        kwargs = dict(hop=hop, k=6, seed=5)
        incremental, naive = both_engines(
            lambda: make_model(length=length), kwargs, feed
        )
        assert_emissions_match(incremental, naive)

    def test_first_window_bitwise(self):
        feed = make_feed(32)
        incremental, naive = both_engines(make_model, dict(k=6), feed)
        assert np.array_equal(incremental[0].heatmap, naive[0].heatmap)
        assert incremental[0].t_start == 0 and incremental[0].t_end == 32

    def test_block_push_equals_per_sample_push(self):
        feed = make_feed(80)
        per_sample = run_stream(
            StreamSession(make_model(), StreamConfig(hop=3, k=5)), feed, chunk=1
        )
        blocks = run_stream(
            StreamSession(make_model(), StreamConfig(hop=3, k=5)), feed, chunk=17
        )
        assert_emissions_match(per_sample, blocks, atol=0.0, rtol=0.0)

    def test_pinned_explain_class(self):
        feed = make_feed(70)
        kwargs = dict(hop=2, k=5, explain_class=1)
        incremental, naive = both_engines(make_model, kwargs, feed)
        assert all(r.class_id == 1 for r in incremental)
        assert_emissions_match(incremental, naive)

    @pytest.mark.parametrize("engine", ["incremental", "naive"])
    def test_non_finite_push_is_rejected_and_consumes_nothing(self, engine):
        feed = make_feed(40)
        config = dict(hop=2, k=4, engine=engine)
        clean = StreamSession(make_model(), StreamConfig(**config))
        probed = StreamSession(make_model(), StreamConfig(**config))
        expected = run_stream(clean, feed)
        results = run_stream(probed, feed[:, :33])
        for bad in (np.nan, np.inf):
            block = feed[:, 33:36].copy()
            block[2, 1] = bad
            with pytest.raises(ValueError, match="NaN or infinite"):
                probed.push(block)
        results += run_stream(probed, feed[:, 33:])
        assert_emissions_match(results, expected, atol=0.0, rtol=0.0)

    def test_incremental_hops_actually_incremental(self):
        session = StreamSession(make_model(), StreamConfig(hop=2, k=4))
        run_stream(session, make_feed(60))
        assert session.stats["cold_starts"] == 1
        assert session.stats["incremental_hops"] == session.stats["emissions"] - 1


class TestCamParity:
    @pytest.mark.parametrize("cls", [CNNClassifier, CCNNClassifier])
    def test_incremental_matches_naive(self, cls):
        feed = make_feed(90)
        incremental, naive = both_engines(
            lambda: make_model(cls), dict(hop=2), feed
        )
        assert_emissions_match(incremental, naive)
        shape = incremental[0].heatmap.shape
        assert shape == ((32,) if cls is CNNClassifier else (D, 32))

    def test_heatmaps_are_copies(self):
        session = StreamSession(make_model(CNNClassifier), StreamConfig(hop=1))
        results = run_stream(session, make_feed(34))
        results[0].heatmap[:] = np.nan
        assert np.isfinite(results[1].heatmap).all()


class TestFloat32Tier:
    def test_parity_within_tier_tolerance(self):
        feed = make_feed(70)
        incremental = run_stream(
            StreamSession(make_model().astype(np.float32), StreamConfig(hop=2, k=5)),
            feed,
        )
        naive = run_stream(
            StreamSession(
                make_model().astype(np.float32),
                StreamConfig(hop=2, k=5, engine="naive"),
            ),
            feed,
        )
        assert incremental[0].logits.dtype == np.float32
        for a, b in zip(incremental, naive):
            np.testing.assert_allclose(a.logits, b.logits, atol=1e-4, rtol=1e-3)
            np.testing.assert_allclose(a.heatmap, b.heatmap, atol=1e-4, rtol=1e-3)

    def test_float32_hash_qualified(self):
        cache = ExplanationCache()
        f64 = StreamSession(make_model(), StreamConfig(k=4), cache=cache)
        f32 = StreamSession(
            make_model().astype(np.float32), StreamConfig(k=4), cache=cache
        )
        assert f32._qualified_hash().endswith(":float32")
        assert not f64._qualified_hash().endswith(":float32")


class TestModelSwap:
    def test_swap_matches_naive(self):
        feed = make_feed(100)
        sessions = [
            StreamSession(make_model(seed=1), StreamConfig(hop=3, k=5)),
            StreamSession(make_model(seed=1), StreamConfig(hop=3, k=5, engine="naive")),
        ]
        collected = [[], []]
        for t in range(feed.shape[1]):
            if t == 60:
                for session in sessions:
                    session.set_model(make_model(seed=9))
            for results, session in zip(collected, sessions):
                results.extend(session.push(feed[:, t]))
        assert_emissions_match(*collected)
        assert sessions[0].stats["cold_starts"] == 2

    def test_swap_rejects_shape_mismatch(self):
        session = StreamSession(make_model(), StreamConfig(k=4))
        with pytest.raises(ValueError, match="length"):
            session.set_model(make_model(length=48))


class TestCache:
    def test_engines_share_entries_and_recover_after_hits(self):
        feed = make_feed(80)
        cache = ExplanationCache()
        kwargs = dict(hop=3, k=5, seed=2)
        # Naive populates a prefix of the stream ...
        naive = StreamSession(
            make_model(), StreamConfig(engine="naive", **kwargs), cache=cache
        )
        run_stream(naive, feed[:, :50])
        # ... the incremental session hits it, then recovers parity once the
        # cache runs out (its state is stale by the hit prefix).
        incremental = StreamSession(make_model(), StreamConfig(**kwargs), cache=cache)
        results = run_stream(incremental, feed)
        oracle = run_stream(
            StreamSession(make_model(), StreamConfig(engine="naive", **kwargs)), feed
        )
        assert incremental.stats["cache_hits"] > 0
        assert [r.cached for r in results].count(True) == incremental.stats["cache_hits"]
        assert_emissions_match(results, oracle)

    @pytest.mark.parametrize(
        "cls,family",
        [(DCNNClassifier, "dcam"), (CNNClassifier, "cam"), (CCNNClassifier, "cam")],
    )
    def test_mid_stream_hits_shift_by_accumulated_gap(self, cls, family):
        # Regression: cache hits after a computed emission leave incremental
        # state behind by a multiple of hop; the next miss slides the trunk
        # and inputs by that accumulated gap, and the cached CAM/M̄ stacks
        # must shift by the same amount (they used to shift by hop
        # unconditionally, silently emitting misaligned heatmaps whenever
        # hop < gap < window).
        feed = make_feed(80)
        kwargs = dict(hop=3, k=5, seed=2, explain_class=0)
        oracle = run_stream(
            StreamSession(make_model(cls), StreamConfig(engine="naive", **kwargs)), feed
        )
        # Seed the cache with ONLY emissions 2 and 3: the incremental session
        # computes 0-1, hits 2-3, and resumes at 4 having to slide its state
        # by 3 * hop = 9 < window columns.
        from repro.nn.serialization import state_hash

        cache = ExplanationCache()
        h = state_hash(make_model(cls))
        for r in (oracle[2], oracle[3]):
            key = stream_window_key(
                h, feed[:, r.t_start : r.t_end], family, 0,
                kwargs["k"] if family == "dcam" else None,
                kwargs["seed"] if family == "dcam" else None,
            )
            cache.put(key, pickle.dumps({
                "logits": r.logits, "predicted": r.predicted,
                "class_id": r.class_id, "heatmap": r.heatmap,
                "success_ratio": r.success_ratio,
            }))
        session = StreamSession(make_model(cls), StreamConfig(**kwargs), cache=cache)
        results = run_stream(session, feed)
        assert session.stats["cache_hits"] == 2
        assert session.stats["cold_starts"] == 1  # the gap slid, not reset
        assert_emissions_match(results, oracle)

    def test_key_depends_on_window_and_model(self):
        window_a, window_b = make_feed(32, seed=0), make_feed(32, seed=1)
        key = stream_window_key("h", window_a, "dcam", None, 8, 0)
        assert key != stream_window_key("h", window_b, "dcam", None, 8, 0)
        assert key != stream_window_key("h2", window_a, "dcam", None, 8, 0)
        assert key != stream_window_key("h", window_a, "dcam", None, 8, 1)
        assert key == stream_window_key("h", window_a, "dcam", None, 8, 0)


class TestConfigAndModes:
    def test_validation_errors(self):
        for bad in (
            dict(hop=0),
            dict(window=1),
            dict(engine="turbo"),
            dict(explain="loud"),
            dict(k=0),
            dict(batch_size=0),
            dict(on_unsupported="shrug"),
        ):
            with pytest.raises(ValueError):
                StreamConfig(**bad).validate()

    def test_window_must_match_model_length(self):
        with pytest.raises(ValueError, match="length"):
            StreamSession(make_model(), StreamConfig(window=64))

    @pytest.mark.parametrize("cls", [DCNNClassifier, CCNNClassifier])
    @pytest.mark.parametrize("engine", ["incremental", "naive"])
    def test_out_of_range_explain_class_rejected_at_construction(self, cls, engine):
        # -1 used to wrap to the last class (incremental, CAM) or fail inside
        # push() after the samples were taken (naive dCAM).
        for bad in (-1, CLASSES):
            with pytest.raises(ValueError, match="out of range"):
                StreamSession(make_model(cls), StreamConfig(engine=engine, explain_class=bad))

    def test_set_model_checks_explain_class(self):
        session = StreamSession(make_model(), StreamConfig(hop=4, k=4, explain_class=2))
        two_classes = DCNNClassifier(D, 32, 2, filters=(4, 8), rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="out of range"):
            session.set_model(two_classes)
        results = run_stream(session, make_feed(40))
        assert results and all(r.class_id == 2 for r in results)

    def test_explain_none_classifies_any_model(self):
        gru = GRUClassifier(D, 32, CLASSES, rng=np.random.default_rng(0))
        session = StreamSession(gru, StreamConfig(explain="none", hop=8))
        results = run_stream(session, make_feed(48), chunk=8)
        assert results and all(
            r.heatmap is None and r.class_id is None for r in results
        )

    def test_unexplainable_family_suggests_none(self):
        gru = GRUClassifier(D, 32, CLASSES, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="explain='none'"):
            StreamSession(gru, StreamConfig())


class TestStreamCLI:
    @pytest.fixture
    def store_dir(self, tmp_path):
        store = ModelArtifactStore(str(tmp_path / "models"))
        store.register(
            "dcnn-demo",
            make_model(length=48),
            model_name="dcnn",
            metadata={"model_kwargs": {"filters": (4, 8)}, "default_k": 5},
        )
        return str(tmp_path / "models")

    def test_stream_smoke(self, store_dir, tmp_path, capsys):
        from repro.runtime import cli

        heatmaps = str(tmp_path / "heatmaps.npz")
        code = cli.main(
            ["stream", "--store", store_dir, "--hop", "8", "--samples", "96",
             "--json-lines", "--heatmaps", heatmaps]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert len(lines) == 7  # (96 - 48) / 8 + 1
        assert lines[0]["t_end"] == 48 and lines[-1]["t_end"] == 96
        assert all(line["engine"] == "incremental" for line in lines)
        assert all(line["heatmap_shape"] == [D, 48] for line in lines)
        archive = np.load(heatmaps)
        assert len(archive.files) == 7
        assert "incremental hops 6" in captured.err

    def test_stream_empty_store_fails(self, tmp_path, capsys):
        from repro.runtime import cli

        code = cli.main(["stream", "--store", str(tmp_path / "empty")])
        assert code == 2
        assert "no model artifacts" in capsys.readouterr().err

    def test_stream_unknown_artifact_fails(self, store_dir, capsys):
        from repro.runtime import cli

        code = cli.main(["stream", "--store", store_dir, "--model", "nope"])
        assert code == 2
        assert "unknown artifact" in capsys.readouterr().err
