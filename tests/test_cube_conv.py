"""The cube-free first layer of the dCNN (``cube_conv_bn_relu``).

dCAM's forward pass reads a dCNN's layer 1 off the permuted series instead of
the ``C(T)`` cube.  Pinned here: the kernel equals the fused kernel over the
built cube to round-off, its rows do not depend on the batch width (the
property the serving parity probe checks), dCAM agrees with the cube path,
and dResNet / dInceptionTime still run the cube path bit for bit.
"""

import numpy as np
import pytest

from repro.core.dcam import _assemble_result, compute_dcam, compute_dcam_batch
from repro.core.input_transform import build_cube_batch, random_permutations
from repro.explain import DCAMExplainer
from repro.models import (
    CCNNClassifier,
    DCNNClassifier,
    DInceptionTimeClassifier,
    DResNetClassifier,
)
from repro.nn import Tensor, inference_mode, row_conv_block
from repro.nn.functional import cube_conv_bn_relu, fused_conv_bn_relu
from repro.serve import probe_batch_parity

LENGTH = 24


def make_block(n_dimensions, kernel_size, seed=0, dtype=np.float64):
    """Layer 1 of a seeded dCNN, with non-trivial BatchNorm statistics."""
    rng = np.random.default_rng(seed)
    model = DCNNClassifier(n_dimensions, LENGTH, 2, filters=(6,), kernel_size=kernel_size,
                           rng=rng)
    conv, bn = row_conv_block(model.feature_extractor[0])
    bn.running_mean = rng.standard_normal(6)
    bn.running_var = rng.random(6) + 0.5
    bn.weight.data = rng.standard_normal(6)
    bn.bias.data = rng.standard_normal(6)
    model.eval().astype(dtype)
    return conv, bn


def relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("n_dimensions", [1, 2, 5, 40])
@pytest.mark.parametrize("kernel_size", [1, 3, 5])
@pytest.mark.parametrize("padding", [None, (0, 0)])
def test_matches_fused_kernel_over_the_cube(n_dimensions, kernel_size, padding):
    series = np.random.default_rng(1).standard_normal((3, n_dimensions, LENGTH))
    for dtype, tolerance in ((np.float64, 1e-12), (np.float32, 1e-5)):
        conv, bn = make_block(n_dimensions, kernel_size, dtype=dtype)
        typed = series.astype(dtype)
        expected = fused_conv_bn_relu(build_cube_batch(typed), conv, bn, padding)
        actual = cube_conv_bn_relu(typed, conv, bn, padding)
        assert actual.shape == expected.shape
        assert actual.dtype == expected.dtype
        assert relative_error(actual, expected) <= tolerance


def test_rows_are_bitwise_independent_of_batch_width():
    conv, bn = make_block(40, 3)
    series = np.random.default_rng(2).standard_normal((32, 40, LENGTH))
    full = cube_conv_bn_relu(series, conv, bn)
    for width in (1, 7, 32):
        parts = [cube_conv_bn_relu(series[start:start + width], conv, bn)
                 for start in range(0, 32, width)]
        assert np.array_equal(np.concatenate(parts), full)


def test_rejects_kernels_that_mix_rows():
    conv, bn = make_block(4, 3)
    with pytest.raises(ValueError, match=r"\(1, ℓ\)"):
        cube_conv_bn_relu(np.zeros((1, 4, LENGTH)), conv, bn, padding=(1, 1))


@pytest.mark.parametrize("n_dimensions", [4, 8])
def test_rejects_a_series_of_another_dimension_count(n_dimensions):
    conv, bn = make_block(6, 3)
    with pytest.raises(ValueError, match=f"{n_dimensions} channels but the conv expects 6"):
        cube_conv_bn_relu(np.zeros((1, n_dimensions, LENGTH)), conv, bn)


@pytest.mark.parametrize("n_dimensions", [4, 8])
def test_dcam_entry_points_reject_a_series_of_another_dimension_count(n_dimensions):
    model = DCNNClassifier(6, LENGTH, 2, filters=(4, 8), rng=np.random.default_rng(0)).eval()
    series = np.random.default_rng(1).standard_normal((n_dimensions, LENGTH))
    message = f"series has {n_dimensions} dimensions but DCNNClassifier was built for D=6"
    explainer = DCAMExplainer(model, k=4, rng=np.random.default_rng(2))
    calls = [
        lambda: compute_dcam(model, series, 1, k=4),
        lambda: compute_dcam_batch(model, series[None], [1], k=4),
        lambda: explainer.explain(series, 1),
        lambda: explainer.explain_batch(series[None], [1]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


class TestSeriesBlock:
    def test_only_the_dcnn_reads_the_series(self):
        rng = np.random.default_rng(0)
        dcnn = DCNNClassifier(4, LENGTH, 2, filters=(4, 8), rng=rng).eval()
        others = [
            DResNetClassifier(4, LENGTH, 2, filters=(4, 4, 4), rng=rng).eval(),
            DInceptionTimeClassifier(4, LENGTH, 2, depth=1, n_filters=4, rng=rng).eval(),
            CCNNClassifier(4, LENGTH, 2, filters=(4,), rng=rng).eval(),
        ]
        with inference_mode():
            assert dcnn.series_block() is not None
            assert all(model.series_block() is None for model in others)
        # Autograd or a training-mode BatchNorm keep the cube path.
        assert dcnn.series_block() is None
        with inference_mode():
            assert dcnn.train().series_block() is None

    def test_features_of_the_series_match_the_cube(self):
        model = DCNNClassifier(5, LENGTH, 2, filters=(4, 8),
                               rng=np.random.default_rng(3)).eval()
        series = np.random.default_rng(4).standard_normal((3, 5, LENGTH))
        with inference_mode():
            direct = model.features(Tensor(series)).data
            through_cube = model.features(model.prepare_input(series)).data
        assert relative_error(direct, through_cube) <= 1e-12

    def test_features_refuse_the_series_without_a_row_block(self):
        model = DResNetClassifier(4, LENGTH, 2, filters=(4, 4, 4),
                                  rng=np.random.default_rng(0)).eval()
        with inference_mode(), pytest.raises(ValueError, match="C\\(T\\) cube"):
            model.features(Tensor(np.zeros((1, 4, LENGTH))))


def cube_path_dcam(model, series, class_id, permutations, batch_size=32):
    """dCAM's permutation CAMs through the ``C(T)`` cube, as before layer 1
    read the series: the reference the d-architectures are pinned against."""
    orders = np.asarray(permutations)
    permuted = series[orders]
    weights = model.class_weights[class_id]
    class_weights = np.broadcast_to(weights, (len(orders), weights.shape[0]))
    cams, predicted = [], []
    with inference_mode():
        for start in range(0, len(orders), batch_size):
            stop = start + batch_size
            features = model.features(model.prepare_input(permuted[start:stop]))
            logits = model.classifier(model.gap(features))
            cams.append(np.einsum("bf,bfdn->bdn", class_weights[start:stop], features.data))
            predicted.append(logits.data.argmax(axis=1))
    return np.concatenate(cams), np.concatenate(predicted)


@pytest.mark.parametrize("make_model", [
    lambda rng: DResNetClassifier(4, LENGTH, 2, filters=(4, 4, 4), rng=rng),
    lambda rng: DInceptionTimeClassifier(4, LENGTH, 2, depth=2, n_filters=4, rng=rng),
])
def test_cube_architectures_keep_the_cube_path_bitwise(make_model, monkeypatch):
    import repro.core.dcam as core_dcam

    model = make_model(np.random.default_rng(0)).eval()
    series = np.random.default_rng(1).standard_normal((4, LENGTH))
    permutations = random_permutations(4, 12, np.random.default_rng(2))
    captured = {}
    original = core_dcam._assemble_result

    def capture(cams, orders, predicted, class_id, use_only_correct):
        captured.update(cams=cams, predicted=predicted)
        return original(cams, orders, predicted, class_id, use_only_correct)

    monkeypatch.setattr(core_dcam, "_assemble_result", capture)
    compute_dcam(model, series, 1, permutations=permutations, batch_size=5)
    cams, predicted = cube_path_dcam(model, series, 1, permutations, batch_size=5)
    assert np.array_equal(captured["cams"], cams)
    assert np.array_equal(captured["predicted"], predicted)


def test_dcnn_dcam_matches_the_cube_path():
    model = DCNNClassifier(6, LENGTH, 2, filters=(4, 8), rng=np.random.default_rng(5)).eval()
    rng = np.random.default_rng(6)
    for seed in range(3):
        series = rng.standard_normal((6, LENGTH))
        permutations = random_permutations(6, 20, np.random.default_rng(seed))
        result = compute_dcam(model, series, 1, permutations=permutations)
        cams, predicted = cube_path_dcam(model, series, 1, permutations)
        expected = _assemble_result(cams, np.asarray(permutations), predicted, 1, False)
        assert result.n_correct == expected.n_correct
        np.testing.assert_allclose(result.dcam, expected.dcam, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n_dimensions", [4, 40])
def test_serving_parity_probe_keeps_coalescing(n_dimensions):
    model = DCNNClassifier(n_dimensions, LENGTH, 2, filters=(4, 8),
                           rng=np.random.default_rng(7)).eval()
    report = probe_batch_parity(model)
    assert report.classify is True
    assert report.explain is True
