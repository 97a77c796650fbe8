"""Unit tests of CAM / cCAM (repro.core.cam) and the recorded-graph grad-CAM
oracle (tests/oracles/gradcam.py)."""

import numpy as np
import pytest

from oracles.gradcam import grad_cam, mtex_explanation, mtex_grad_cam
from repro.core import cam_as_multivariate, class_activation_map, predicted_class
from repro.models import GRUClassifier


class TestCAM:
    def test_cam_of_1d_model_is_univariate(self, trained_cnn, tiny_type1_dataset):
        cam = class_activation_map(trained_cnn, tiny_type1_dataset.X[0], class_id=1)
        assert cam.shape == (tiny_type1_dataset.length,)

    def test_cam_of_ccnn_is_multivariate(self, trained_ccnn, tiny_type1_dataset):
        cam = class_activation_map(trained_ccnn, tiny_type1_dataset.X[0], class_id=1)
        assert cam.shape == (tiny_type1_dataset.n_dimensions, tiny_type1_dataset.length)

    def test_cam_of_dcnn_over_cube_rows(self, trained_dcnn, tiny_type1_dataset):
        cam = class_activation_map(trained_dcnn, tiny_type1_dataset.X[0], class_id=0)
        assert cam.shape == (tiny_type1_dataset.n_dimensions, tiny_type1_dataset.length)

    def test_cam_matches_gap_logit_decomposition(self, trained_cnn, tiny_type1_dataset):
        """The time-average of CAM_c equals the class logit minus its bias."""
        series = tiny_type1_dataset.X[0]
        trained_cnn.eval()
        prepared = trained_cnn.prepare_input(series[None])
        logits = trained_cnn.forward(prepared).data[0]
        for class_id in range(tiny_type1_dataset.n_classes):
            cam = class_activation_map(trained_cnn, series, class_id)
            bias = trained_cnn.classifier.bias.data[class_id]
            np.testing.assert_allclose(cam.mean() + bias, logits[class_id],
                                       rtol=1e-8, atol=1e-10)

    def test_relu_option_clips_negatives(self, trained_cnn, tiny_type1_dataset):
        cam = class_activation_map(trained_cnn, tiny_type1_dataset.X[0], 1, relu=True)
        assert (cam >= 0).all()

    def test_order_rejected_for_non_cube_models(self, trained_cnn, tiny_type1_dataset):
        with pytest.raises(ValueError):
            class_activation_map(trained_cnn, tiny_type1_dataset.X[0], 1,
                                 order=np.array([1, 0, 2, 3]))

    def test_order_changes_dcnn_cam(self, trained_dcnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        base = class_activation_map(trained_dcnn, series, 1)
        permuted = class_activation_map(trained_dcnn, series, 1,
                                        order=np.array([1, 0, 3, 2]))
        assert not np.allclose(base, permuted)

    def test_rejects_models_without_gap(self, tiny_type1_dataset):
        model = GRUClassifier(tiny_type1_dataset.n_dimensions, tiny_type1_dataset.length,
                              2, hidden_size=8)
        with pytest.raises(TypeError):
            class_activation_map(model, tiny_type1_dataset.X[0], 0)

    def test_rejects_bad_series_shape(self, trained_cnn):
        with pytest.raises(ValueError):
            class_activation_map(trained_cnn, np.zeros(10), 0)

    def test_cam_as_multivariate(self):
        broadcast = cam_as_multivariate(np.arange(5.0), 3)
        assert broadcast.shape == (3, 5)
        np.testing.assert_allclose(broadcast[0], broadcast[2])
        with pytest.raises(ValueError):
            cam_as_multivariate(np.zeros((2, 5)), 3)

    def test_predicted_class(self, trained_cnn, tiny_type1_dataset):
        label = predicted_class(trained_cnn, tiny_type1_dataset.X[0])
        assert label in (0, 1)


class TestGradCAM:
    def test_grad_cam_shape_matches_cam(self, trained_cnn, tiny_type1_dataset):
        heatmap = grad_cam(trained_cnn, tiny_type1_dataset.X[0], class_id=1)
        assert heatmap.shape == (tiny_type1_dataset.length,)
        assert (heatmap >= 0).all()

    def test_grad_cam_on_ccnn(self, trained_ccnn, tiny_type1_dataset):
        heatmap = grad_cam(trained_ccnn, tiny_type1_dataset.X[0], class_id=0)
        assert heatmap.shape == (tiny_type1_dataset.n_dimensions, tiny_type1_dataset.length)

    def test_mtex_grad_cam_shapes(self, trained_mtex, tiny_type1_dataset):
        dimension_map, temporal_map = mtex_grad_cam(trained_mtex, tiny_type1_dataset.X[0], 1)
        assert dimension_map.shape == (tiny_type1_dataset.n_dimensions,
                                       tiny_type1_dataset.length)
        assert temporal_map.shape == (tiny_type1_dataset.length,)
        assert (dimension_map >= 0).all()

    def test_mtex_explanation_combines_maps(self, trained_mtex, tiny_type1_dataset):
        explanation = mtex_explanation(trained_mtex, tiny_type1_dataset.X[0], 1)
        assert explanation.shape == (tiny_type1_dataset.n_dimensions,
                                     tiny_type1_dataset.length)
        assert (explanation >= 0).all()

    def test_grad_cam_differs_between_classes(self, trained_cnn, tiny_type1_dataset):
        series = tiny_type1_dataset.X[0]
        a = grad_cam(trained_cnn, series, 0, relu=False)
        b = grad_cam(trained_cnn, series, 1, relu=False)
        assert not np.allclose(a, b)
