"""Equivalence tests: batched no-grad dCAM vs the legacy per-permutation path,
and the one pipeline's cache and memory behaviour."""

import tracemalloc

import numpy as np
import pytest

import repro.core.dcam as core_dcam
from oracles.dcam import m_transform, permutation_cam
from repro.core.dcam import (
    _materialize_group,
    compute_dcam,
    compute_dcam_batch,
    extract_dcam,
    _read_table,
    _table_key,
    merge_permutation_cams,
)
from repro.core.input_transform import random_permutations
from repro.models import DCNNClassifier
from repro.nn import is_grad_enabled

ATOL = 1e-10


def legacy_dcam(model, series, class_id, permutations):
    """The seed implementation: k graph-recording batch-size-1 passes plus a
    Python-loop merge of (D, D, n) M-transform temporaries."""
    model.eval()
    collected = []
    n_correct = 0
    for order in permutations:
        cam_rows, predicted = permutation_cam(model, series, class_id, order)
        collected.append((cam_rows, order))
        if predicted == class_id:
            n_correct += 1
    total = None
    for cam_rows, order in collected:
        transformed = m_transform(cam_rows, np.asarray(order))
        total = transformed if total is None else total + transformed
    m_bar = total / len(collected)
    dcam, averaged_cam = extract_dcam(m_bar)
    return dcam, m_bar, averaged_cam, n_correct


class TestBatchedEquivalence:
    def test_matches_legacy_path(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        perms = random_permutations(tiny_type1_dataset.n_dimensions, 12,
                                    np.random.default_rng(7))
        dcam, m_bar, averaged_cam, n_correct = legacy_dcam(trained_dcnn, series, 1, perms)
        result = compute_dcam(trained_dcnn, series, 1, permutations=perms)
        assert result.n_correct == n_correct
        np.testing.assert_allclose(result.dcam, dcam, rtol=0, atol=ATOL)
        np.testing.assert_allclose(result.m_bar, m_bar, rtol=0, atol=ATOL)
        np.testing.assert_allclose(result.averaged_cam, averaged_cam, rtol=0, atol=ATOL)

    def test_matches_legacy_with_only_correct_filter(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[1]
        perms = random_permutations(tiny_type1_dataset.n_dimensions, 8,
                                    np.random.default_rng(3))
        result = compute_dcam(trained_dcnn, series, 1, permutations=perms,
                              use_only_correct=True)
        # Reference: filter manually, merge with the public API.
        trained_dcnn.eval()
        kept = []
        for order in perms:
            cam_rows, predicted = permutation_cam(trained_dcnn, series, 1, order)
            if predicted == 1:
                kept.append((cam_rows, order))
        if kept:
            expected, _ = extract_dcam(merge_permutation_cams(kept))
            np.testing.assert_allclose(result.dcam, expected, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5, 12, 64])
    def test_independent_of_batch_size(self, trained_dcnn, tiny_type1_dataset, batch_size):
        series = tiny_type1_dataset.X[2]
        perms = random_permutations(tiny_type1_dataset.n_dimensions, 12,
                                    np.random.default_rng(11))
        reference = compute_dcam(trained_dcnn, series, 1, permutations=perms, batch_size=12)
        result = compute_dcam(trained_dcnn, series, 1, permutations=perms,
                              batch_size=batch_size)
        assert result.n_correct == reference.n_correct
        np.testing.assert_allclose(result.dcam, reference.dcam, rtol=0, atol=ATOL)

    def test_batch_pipeline_matches_instance_loop(self, trained_dcnn, tiny_type1_dataset):
        X = tiny_type1_dataset.X[:4]
        y = tiny_type1_dataset.y[:4]
        batched = compute_dcam_batch(trained_dcnn, X, y, k=5,
                                     rng=np.random.default_rng(9), batch_size=7)
        looped = [
            compute_dcam(trained_dcnn, X[index], int(y[index]), k=5,
                         rng=np.random.default_rng(9))
            for index in [0]
        ]
        # Same generator state sequence: instance 0 must agree exactly.
        np.testing.assert_allclose(batched[0].dcam, looped[0].dcam, rtol=0, atol=ATOL)
        assert batched[0].n_correct == looped[0].n_correct
        assert len(batched) == 4

    def test_grad_mode_restored_after_compute(self, trained_dcnn, tiny_type1_dataset):
        compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1, k=3,
                     rng=np.random.default_rng(0))
        assert is_grad_enabled()

    def test_rejects_ragged_permutations(self, trained_dcnn, tiny_type1_dataset):
        with pytest.raises(ValueError):
            compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1,
                         permutations=[np.arange(4), np.arange(3)])

    def test_rejects_non_permutation(self, trained_dcnn, tiny_type1_dataset):
        with pytest.raises(ValueError, match="not a permutation"):
            compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1,
                         permutations=[np.array([0, 0, 1, 2])])

    def test_rejects_float_permutation(self, trained_dcnn, tiny_type1_dataset):
        with pytest.raises(ValueError, match="integer"):
            compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1,
                         permutations=[np.array([0.9, 1.2, 2.0, 3.0])])


class TestMergeValidation:
    def test_requires_matching_cam_shapes(self):
        rng = np.random.default_rng(0)
        pairs = [
            (rng.standard_normal((4, 6)), np.arange(4)),
            (rng.standard_normal((4, 7)), np.arange(4)),
        ]
        with pytest.raises(ValueError, match="shape"):
            merge_permutation_cams(pairs)

    def test_requires_matching_order_length(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal((4, 6)), np.arange(3))]
        with pytest.raises(ValueError, match="order #0"):
            merge_permutation_cams(pairs)

    def test_rejects_non_permutation_order(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal((4, 6)), np.array([0, 1, 1, 3]))]
        with pytest.raises(ValueError, match="not a permutation"):
            merge_permutation_cams(pairs)

    def test_rejects_one_dimensional_cam(self):
        pairs = [(np.zeros(4), np.arange(4))]
        with pytest.raises(ValueError, match="cam_rows #0"):
            merge_permutation_cams(pairs)

    def test_matches_per_pair_m_transform_average(self):
        rng = np.random.default_rng(5)
        pairs = [
            (rng.standard_normal((5, 9)), rng.permutation(5))
            for _ in range(7)
        ]
        expected = np.mean(
            [m_transform(cam, np.asarray(order)) for cam, order in pairs], axis=0
        )
        np.testing.assert_allclose(merge_permutation_cams(pairs), expected,
                                   rtol=0, atol=ATOL)


class TestMaterializationCap:
    def test_group_accounting(self, monkeypatch):
        monkeypatch.setattr(core_dcam, "_BATCH_MATERIALIZE_BYTES", 10_000)
        # ~2 · k · D · n · 8 bytes per item, and never fewer than one item.
        assert _materialize_group(2, 4, 10) == 10_000 // (2 * 2 * 4 * 10 * 8)
        assert _materialize_group(100, 40, 100) == 1
        assert _materialize_group(0, 4, 10) == 10_000

    def test_capped_groups_keep_every_bit(self, monkeypatch, trained_dcnn,
                                          tiny_type1_dataset):
        from repro.explain import get_explainer
        from repro.serve import ExplanationCache

        X, y = tiny_type1_dataset.X[:4], tiny_type1_dataset.y[:4]
        perms = [random_permutations(X.shape[1], 6, np.random.default_rng(seed))
                 for seed in range(4)]

        def run_all():
            batch = compute_dcam_batch(trained_dcnn, X, y, permutations=perms, batch_size=4)
            explainer = get_explainer(trained_dcnn, batch_size=4,
                                      cache=ExplanationCache(max_memory_bytes=None))
            cached = explainer.explain_batch(X, y, permutations=perms)
            return [r.dcam for r in batch] + [e.heatmap for e in cached]

        free = run_all()
        # One instance per group and one micro-batch per cached forward chunk.
        monkeypatch.setattr(core_dcam, "_BATCH_MATERIALIZE_BYTES", 1)
        capped = run_all()
        assert all(np.array_equal(a, b) for a, b in zip(free, capped))


class TestOnePipeline:
    """The cached explainer and ``compute_dcam_batch`` are one generator."""

    @pytest.mark.parametrize("use_only_correct", [False, True])
    def test_partly_warm_cache_matches_uncached(self, monkeypatch, use_only_correct):
        from repro.explain import DCAMExplainer
        from repro.obs import Telemetry
        from repro.serve import ExplanationCache

        model = DCNNClassifier(5, 24, 3, filters=(4, 8), rng=np.random.default_rng(0)).eval()
        X = np.random.default_rng(1).standard_normal((5, 5, 24))
        class_ids = [0, 1, 2, 1, 0]
        perms = [random_permutations(5, 8, np.random.default_rng(seed)) for seed in range(5)]
        # Two instances per group: groups {0, 1}, {2, 3}, {4}.
        monkeypatch.setattr(core_dcam, "_BATCH_MATERIALIZE_BYTES", 2 * (2 * 8 * 5 * 24 * 8))
        assert _materialize_group(8, 5, 24) == 2
        expected = compute_dcam_batch(model, X, class_ids, permutations=perms,
                                      use_only_correct=use_only_correct, batch_size=4)

        telemetry = Telemetry()
        cache = ExplanationCache(max_memory_bytes=None, telemetry=telemetry)
        explainer = DCAMExplainer(model, batch_size=4, cache=cache,
                                  use_only_correct=use_only_correct)
        # Warm every other row of instances 0 and 3, one in each of two
        # groups: the first explain stores an empty table, the second its rows.
        warm = [0, 3]
        for _ in range(2):
            explainer.explain_batch(X[warm], [class_ids[i] for i in warm],
                                    permutations=[perms[i][::2] for i in warm])
        model_hash = explainer.model_state_hash()
        keys = [_table_key(model_hash, X[i], class_ids[i]) for i in range(len(X))]
        held = [set() if cache.get(key) is None else
                {order.tobytes() for order in _read_table(cache.get(key), 5, 24)[0]}
                for key in keys]
        missed = [[np.asarray(order, dtype=np.int64).tobytes() not in held[i]
                   for order in perms[i]] for i in range(len(X))]
        for i in warm:
            assert 0 < sum(missed[i]) < len(perms[i])
        forwarded = []
        original = core_dcam._permutation_cams_batched

        def counting(model, permuted, class_weights, batch_size):
            forwarded.append(len(permuted))
            return original(model, permuted, class_weights, batch_size)

        monkeypatch.setattr(core_dcam, "_permutation_cams_batched", counting)
        stores = telemetry.snapshot()["cache_stores"]
        cached = explainer.explain_batch(X, class_ids, permutations=perms)

        # One table stored per instance: the warm two re-put with their
        # missing rows appended, the other three stored empty.
        assert telemetry.snapshot()["cache_stores"] - stores == len(X)
        assert len(cache) == len(X)
        # One forward per group, of exactly the group's missing rows.
        assert forwarded == [sum(map(sum, missed[first:first + 2])) for first in (0, 2, 4)]
        for explanation, result in zip(cached, expected):
            assert np.array_equal(explanation.heatmap, result.dcam)
            assert np.array_equal(explanation.details.m_bar, result.m_bar)
            assert explanation.details.n_correct == result.n_correct

    def test_fresh_instances_leave_empty_tables(self):
        from repro.explain import DCAMExplainer
        from repro.serve import ExplanationCache

        model = DCNNClassifier(5, 24, 3, filters=(4, 8), rng=np.random.default_rng(0)).eval()
        X = np.random.default_rng(1).standard_normal((6, 5, 24))
        class_ids = [0, 1, 2, 1, 0, 2]
        cache = ExplanationCache(max_memory_bytes=None)
        explainer = DCAMExplainer(model, k=8, batch_size=4, cache=cache,
                                  rng=np.random.default_rng(2))
        explainer.explain_batch(X, class_ids)
        # No rows are kept for instances seen once: one empty table each.
        assert len(cache) == len(X)
        model_hash = explainer.model_state_hash()
        assert all(cache.get(_table_key(model_hash, series, class_id)) == b""
                   for series, class_id in zip(X, class_ids))

    def test_second_explain_stores_exactly_its_missing_rows(self, monkeypatch):
        from repro.explain import DCAMExplainer
        from repro.serve import ExplanationCache

        model = DCNNClassifier(5, 24, 3, filters=(4, 8), rng=np.random.default_rng(0)).eval()
        series = np.random.default_rng(1).standard_normal((5, 24))
        orders = [np.asarray(order) for order in
                  {tuple(order) for order in random_permutations(5, 40, np.random.default_rng(3))}]
        first, second, third = orders[:6], orders[6:12], orders[9:16]
        cache = ExplanationCache(max_memory_bytes=None)
        explainer = DCAMExplainer(model, batch_size=4, cache=cache)
        key = _table_key(explainer.model_state_hash(), series, 1)
        expected = [compute_dcam(model, series, 1, permutations=explained, batch_size=4).dcam
                    for explained in (first, second, third, third)]
        forwarded = []
        original = core_dcam._permutation_cams_batched

        def counting(model, permuted, class_weights, batch_size):
            forwarded.append(len(permuted))
            return original(model, permuted, class_weights, batch_size)

        monkeypatch.setattr(core_dcam, "_permutation_cams_batched", counting)
        for explained, reference in zip((first, second, third, third), expected):
            assert np.array_equal(explainer.explain(series, 1, permutations=explained).heatmap,
                                  reference)
        # The first explain stores an empty table; the second forwards and
        # stores all its rows; the third only the four it lacks; the fourth
        # forwards nothing.
        assert forwarded == [6, 6, 4]
        table_orders, table_predicted, table_cams = _read_table(cache.get(key), 5, 24)
        stored = second + third[3:]
        assert np.array_equal(table_orders, np.asarray(stored))
        cams, predicted = original(model, series[np.asarray(stored)],
                                   model.class_weights[[1] * len(stored)], 4)
        assert np.array_equal(table_cams, cams) and np.array_equal(table_predicted, predicted)

    def test_tables_stop_growing_at_their_cap(self, monkeypatch):
        from repro.explain import DCAMExplainer
        from repro.serve import ExplanationCache

        model = DCNNClassifier(5, 24, 3, filters=(4, 8), rng=np.random.default_rng(0)).eval()
        X = np.random.default_rng(1).standard_normal((2, 5, 24))
        row_bytes = 8 * (5 + 1 + 5 * 24)
        monkeypatch.setattr(core_dcam, "_TABLE_MAX_BYTES", 10 * row_bytes + row_bytes // 2)
        budget = 16 * row_bytes
        cache = ExplanationCache(max_memory_bytes=budget)
        explainer = DCAMExplainer(model, batch_size=4, cache=cache)
        keys = [_table_key(explainer.model_state_hash(), series, 1) for series in X]

        def explain(series, perms):
            heatmap = explainer.explain(series, 1, permutations=perms).heatmap
            assert np.array_equal(heatmap, compute_dcam(model, series, 1, permutations=perms,
                                                        batch_size=4).dcam)
            assert cache._store.memory.total_bytes <= budget
            return cache.telemetry.snapshot()["cache_stores"]

        # A hot instance explained with ever new seeds: its table fills to
        # ten rows, then takes no more and is not re-put.
        stores = []
        for seed in range(20):
            stores.append(explain(X[0], random_permutations(5, 4, np.random.default_rng(seed))))
            held = len(_read_table(cache.get(keys[0]), 5, 24)[0])
            assert held <= 10
            if held == 10:
                break
        assert held == 10
        for seed in range(20, 30):
            assert explain(X[0], random_permutations(5, 4, np.random.default_rng(seed))) \
                == stores[-1]
        assert len(_read_table(cache.get(keys[0]), 5, 24)[0]) == 10
        # One explain with a large k stores its first ten distinct orders.
        perms = random_permutations(5, 30, np.random.default_rng(99))
        explain(X[1], perms)
        stored = explain(X[1], perms)
        table_orders = _read_table(cache.get(keys[1]), 5, 24)[0]
        first = list(dict.fromkeys(tuple(order) for order in perms))[:10]
        assert [tuple(order) for order in table_orders] == first
        assert explain(X[1], perms) == stored

    @pytest.mark.parametrize("tier", ["memory", "disk"])
    def test_truncated_table_is_recomputed_and_overwritten(self, tmp_path, tier):
        from repro.explain import DCAMExplainer
        from repro.serve import ExplanationCache

        model = DCNNClassifier(5, 24, 3, filters=(4, 8), rng=np.random.default_rng(0)).eval()
        series = np.random.default_rng(1).standard_normal((5, 24))
        perms = random_permutations(5, 8, np.random.default_rng(2))
        expected = compute_dcam(model, series, 2, permutations=perms, batch_size=4)
        cache = ExplanationCache(directory=str(tmp_path), max_memory_bytes=None)
        explainer = DCAMExplainer(model, batch_size=4, cache=cache)
        for _ in range(2):
            explainer.explain(series, 2, permutations=perms)
        key = _table_key(explainer.model_state_hash(), series, 2)
        whole = cache.get(key)
        assert len(_read_table(whole, 5, 24)[0]) == len({tuple(p) for p in perms})
        if tier == "memory":
            cache.put(key, whole[:-8])
        else:
            (tmp_path / f"{key}.blob").write_bytes(whole[:-8])
            cache = ExplanationCache(directory=str(tmp_path), max_memory_bytes=None)
            explainer = DCAMExplainer(model, batch_size=4, cache=cache)
        heatmap = explainer.explain(series, 2, permutations=perms).heatmap
        assert np.array_equal(heatmap, expected.dcam)
        assert cache.telemetry.snapshot()["cache_invalidations"] == 1
        assert cache.get(key) == whole
        assert (tmp_path / f"{key}.blob").read_bytes() == whole

    def test_growing_k_sweep_matches_uncached(self, monkeypatch):
        from repro.explain import DCAMExplainer
        from repro.serve import ExplanationCache

        model = DCNNClassifier(6, 24, 3, filters=(4, 8), rng=np.random.default_rng(0)).eval()
        X = np.random.default_rng(1).standard_normal((3, 6, 24))
        class_ids = [0, 1, 2]
        k_values = (2, 4, 8, 16)
        forwarded = []
        original = core_dcam._permutation_cams_batched

        def counting(model, permuted, class_weights, batch_size):
            forwarded.append(len(permuted))
            return original(model, permuted, class_weights, batch_size)

        def sweep(cache):
            # One generator per instance, seeded alike at every k: each draw
            # is a prefix of the next.
            return [[DCAMExplainer(model, k=k, batch_size=4, cache=cache,
                                   rng=np.random.default_rng(5 + index)).explain(series,
                                                                                 class_id).heatmap
                     for index, (series, class_id) in enumerate(zip(X, class_ids))]
                    for k in k_values]

        plain = sweep(None)
        monkeypatch.setattr(core_dcam, "_permutation_cams_batched", counting)
        cached = sweep(ExplanationCache(max_memory_bytes=None))
        assert all(np.array_equal(a, b) for row, other in zip(cached, plain)
                   for a, b in zip(row, other))
        # Each draw extends the previous one, so the sweep forwards k₁ + max(k)
        # rows per instance (fewer where a draw repeats an order).
        assert sum(forwarded) <= len(X) * (k_values[0] + k_values[-1])

    def test_explain_batch_without_details_holds_one_m_bar(self, monkeypatch):
        from repro.explain import DCAMExplainer

        # Serial forwards: pool threads' transients would land at random.
        monkeypatch.setattr(core_dcam, "_FORWARD_THREADS", 1)
        # D ≫ 2k: one (D, D, n) M̄ outweighs an instance's permuted series
        # and CAM stack (2 · k · D · n) twelvefold.  Forwards of k rows keep
        # the trunk's working set the same at every instance count.
        n_dimensions, length, k = 96, 8, 2
        model = DCNNClassifier(n_dimensions, length, 2, filters=(4,),
                               rng=np.random.default_rng(0)).eval()
        X = np.random.default_rng(1).standard_normal((10, n_dimensions, length))
        m_bar_bytes = n_dimensions * n_dimensions * length * 8

        def peak(count):
            explainer = DCAMExplainer(model, k=k, batch_size=k, rng=np.random.default_rng(2),
                                      keep_details=False)
            tracemalloc.start()
            try:
                explanations = explainer.explain_batch(X[:count], [1] * count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(e.details is None for e in explanations)
            return peak

        peak(2)  # first-call allocations
        assert peak(10) - peak(2) < m_bar_bytes
