"""Equivalence tests: batched no-grad dCAM vs the legacy per-permutation path."""

import numpy as np
import pytest

import repro.core.dcam as core_dcam
from repro.core.dcam import (
    _materialize_group,
    _m_transform,
    _permutation_cam,
    compute_dcam,
    compute_dcam_batch,
    extract_dcam,
    merge_permutation_cams,
)
from repro.core.input_transform import random_permutations
from repro.nn import is_grad_enabled

ATOL = 1e-10


def legacy_dcam(model, series, class_id, permutations):
    """The seed implementation: k graph-recording batch-size-1 passes plus a
    Python-loop merge of (D, D, n) M-transform temporaries."""
    model.eval()
    collected = []
    n_correct = 0
    for order in permutations:
        cam_rows, predicted = _permutation_cam(model, series, class_id, order)
        collected.append((cam_rows, order))
        if predicted == class_id:
            n_correct += 1
    total = None
    for cam_rows, order in collected:
        transformed = _m_transform(cam_rows, np.asarray(order))
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
            cam_rows, predicted = _permutation_cam(trained_dcnn, series, 1, order)
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
            [_m_transform(cam, np.asarray(order)) for cam, order in pairs], axis=0
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
