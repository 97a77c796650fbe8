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
    merge_permutation_cams,
    permutation_cache_key,
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
        # Warm every other row of instances 0 and 3, one in each of two groups.
        warm = [0, 3]
        explainer.explain_batch(X[warm], [class_ids[i] for i in warm],
                                permutations=[perms[i][::2] for i in warm])
        model_hash = explainer.model_state_hash()
        missed = [[permutation_cache_key(model_hash, X[i], class_ids[i], order) not in cache
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

        n_missed = sum(map(sum, missed))
        assert telemetry.snapshot()["cache_stores"] - stores == n_missed
        # One forward per group, of exactly the group's missing rows.
        assert forwarded == [sum(map(sum, missed[first:first + 2])) for first in (0, 2, 4)]
        for explanation, result in zip(cached, expected):
            assert np.array_equal(explanation.heatmap, result.dcam)
            assert np.array_equal(explanation.details.m_bar, result.m_bar)
            assert explanation.details.n_correct == result.n_correct

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
