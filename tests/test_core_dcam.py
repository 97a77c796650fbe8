"""Unit tests of dCAM (repro.core.dcam)."""

import numpy as np
import pytest

from repro.core import (
    DCAMResult,
    compute_dcam,
    compute_dcam_batch,
    explanation_quality_proxy,
    extract_dcam,
    merge_permutation_cams,
)
from oracles.dcam import m_transform


class TestMTransform:
    def test_shape(self):
        cam_rows = np.random.default_rng(0).standard_normal((5, 12))
        transformed = m_transform(cam_rows, np.arange(5))
        assert transformed.shape == (5, 5, 12)

    def test_identity_order_mapping(self):
        """With the identity order, M[d, p] must be cam row (d - p) mod D."""
        n_dims, length = 4, 6
        cam_rows = np.arange(n_dims)[:, None] * np.ones((n_dims, length))
        transformed = m_transform(cam_rows, np.arange(n_dims))
        for dimension in range(n_dims):
            for position in range(n_dims):
                expected_row = (dimension - position) % n_dims
                np.testing.assert_allclose(transformed[dimension, position],
                                           cam_rows[expected_row])

    def test_permuted_order_mapping(self):
        n_dims, length = 4, 3
        cam_rows = np.random.default_rng(1).standard_normal((n_dims, length))
        order = np.array([2, 0, 3, 1])
        slots = {original: slot for slot, original in enumerate(order)}
        transformed = m_transform(cam_rows, order)
        for dimension in range(n_dims):
            for position in range(n_dims):
                expected_row = (slots[dimension] - position) % n_dims
                np.testing.assert_allclose(transformed[dimension, position],
                                           cam_rows[expected_row])


class TestMergeAndExtract:
    def test_merge_requires_input(self):
        with pytest.raises(ValueError):
            merge_permutation_cams([])

    def test_merge_averages(self):
        n_dims, length = 3, 4
        zeros = np.zeros((n_dims, length))
        twos = np.full((n_dims, length), 2.0)
        merged = merge_permutation_cams([(zeros, np.arange(3)), (twos, np.arange(3))])
        np.testing.assert_allclose(merged, np.ones((n_dims, n_dims, length)))

    def test_extract_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            extract_dcam(np.zeros((3, 4, 5)))

    def test_extract_formulas(self):
        rng = np.random.default_rng(2)
        m_bar = rng.standard_normal((4, 4, 7))
        dcam, averaged = extract_dcam(m_bar)
        np.testing.assert_allclose(averaged, m_bar.sum(axis=(0, 1)) / 8.0)
        np.testing.assert_allclose(dcam, m_bar.var(axis=1) * averaged[None, :])

    def test_discriminant_position_gets_high_score(self):
        """A dimension whose activation depends strongly on its position should
        score higher than one with constant activation (Section 4.4.3)."""
        n_dims, length = 5, 10
        m_bar = np.ones((n_dims, n_dims, length))
        # Dimension 2 at time 4: activation varies a lot across positions.
        m_bar[2, :, 4] = np.linspace(0.0, 4.0, n_dims)
        dcam, _ = extract_dcam(m_bar)
        assert dcam[2, 4] > dcam[2, 3]
        assert dcam[2, 4] > dcam[1, 4]


class TestComputeDCAM:
    def test_result_structure(self, trained_dcnn, tiny_type1_dataset):
        result = compute_dcam(trained_dcnn, tiny_type1_dataset.X[-1], class_id=1,
                              k=6, rng=np.random.default_rng(0))
        assert isinstance(result, DCAMResult)
        assert result.dcam.shape == (tiny_type1_dataset.n_dimensions,
                                     tiny_type1_dataset.length)
        assert result.m_bar.shape == (tiny_type1_dataset.n_dimensions,
                                      tiny_type1_dataset.n_dimensions,
                                      tiny_type1_dataset.length)
        assert result.averaged_cam.shape == (tiny_type1_dataset.length,)
        assert result.k == 6
        assert 0 <= result.n_correct <= 6
        assert 0.0 <= result.success_ratio <= 1.0
        assert explanation_quality_proxy(result) == result.success_ratio
        assert result.n_dimensions == tiny_type1_dataset.n_dimensions
        assert result.length == tiny_type1_dataset.length

    def test_requires_cube_model(self, trained_cnn, tiny_type1_dataset):
        with pytest.raises(TypeError):
            compute_dcam(trained_cnn, tiny_type1_dataset.X[0], 0)

    def test_rejects_bad_series(self, trained_dcnn):
        with pytest.raises(ValueError):
            compute_dcam(trained_dcnn, np.zeros(16), 0)

    def test_deterministic_given_rng(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        a = compute_dcam(trained_dcnn, series, 1, k=5, rng=np.random.default_rng(3))
        b = compute_dcam(trained_dcnn, series, 1, k=5, rng=np.random.default_rng(3))
        np.testing.assert_allclose(a.dcam, b.dcam)

    def test_explicit_permutations_override_k(self, trained_dcnn, tiny_type1_dataset):
        n_dims = tiny_type1_dataset.n_dimensions
        permutations = [np.arange(n_dims), np.roll(np.arange(n_dims), 1)]
        result = compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 1, k=50,
                              permutations=permutations)
        assert result.k == 2

    def test_use_only_correct_changes_nothing_when_all_wrong_or_all_right(
            self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        all_perms = compute_dcam(trained_dcnn, series, 1, k=4, rng=rng_a,
                                 use_only_correct=False)
        filtered = compute_dcam(trained_dcnn, series, 1, k=4, rng=rng_b,
                                use_only_correct=True)
        if all_perms.n_correct in (0, all_perms.k):
            np.testing.assert_allclose(all_perms.dcam, filtered.dcam)

    def test_batch_helper(self, trained_dcnn, tiny_type1_dataset):
        results = compute_dcam_batch(trained_dcnn, tiny_type1_dataset.X[:3],
                                     tiny_type1_dataset.y[:3], k=4,
                                     rng=np.random.default_rng(0))
        assert len(results) == 3
        assert all(isinstance(r, DCAMResult) for r in results)

    def test_batch_rejects_misaligned_labels(self, trained_dcnn, tiny_type1_dataset):
        with pytest.raises(ValueError):
            compute_dcam_batch(trained_dcnn, tiny_type1_dataset.X[:3], [0, 1], k=2)

    def test_single_permutation(self, trained_dcnn, tiny_type1_dataset):
        result = compute_dcam(trained_dcnn, tiny_type1_dataset.X[0], 0, k=1)
        assert result.k == 1
        assert result.dcam.shape == (tiny_type1_dataset.n_dimensions,
                                     tiny_type1_dataset.length)
