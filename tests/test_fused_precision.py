"""Float-identity tests of the fused autograd nodes, inference-mode parity of
the graph-free grad-CAM engine, and the tolerance pins of the opt-in float32
compute tier.

The load-bearing guarantees:

* every fused node (``add_relu``, ``concat_batch_norm_relu``,
  ``same_max_pool3``, ``batch_norm_training``) is *bit-identical* to the
  composed graph it replaces — forward values, every parent gradient, and the
  BatchNorm running statistics (``np.array_equal``, not approx);
* the explicit-VJP grad-CAM engine agrees with the recorded-graph reference
  to <= 1e-10 and leaves no gradients behind (it never builds a tape);
* float64 stays the default and the reference; float32 is opt-in, requires
  the fused engine, and matches a float64 model cast for inference to the
  documented 1e-5 relative tolerance for both logits and heatmaps.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from oracles.gradcam import mtex_explanation
from repro.explain import get_explainer
from repro.models import CNNClassifier, TrainingConfig
from repro.serve import (
    ExplanationCache,
    ExplanationService,
    ModelArtifactStore,
    ServeConfig,
    probe_batch_parity,
)
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.fused import (
    add_relu,
    batch_norm_training,
    concat_batch_norm_relu,
    fused_training,
    same_max_pool3,
)
from repro.nn.layers import BatchNorm1d


def make_pair(shape, seed, scale=1.0):
    """Two leaf tensors with identical data for composed-vs-fused runs."""
    data = np.random.default_rng(seed).normal(scale=scale, size=shape)
    return (Tensor(data.copy(), requires_grad=True),
            Tensor(data.copy(), requires_grad=True))


def randomize_bn(bn: BatchNorm1d, seed: int) -> BatchNorm1d:
    """Non-trivial affine parameters so the backward exercises every path."""
    rng = np.random.default_rng(seed)
    bn.weight.data[...] = rng.normal(loc=1.0, scale=0.2, size=bn.weight.data.shape)
    bn.bias.data[...] = rng.normal(scale=0.1, size=bn.bias.data.shape)
    return bn


# ---------------------------------------------------------------------------
# Fused nodes: bit-identical to the composed graphs they replace
# ---------------------------------------------------------------------------

class TestFusedNodeFloatIdentity:
    def test_add_relu_matches_composed(self):
        a1, a2 = make_pair((3, 4, 5), seed=0)
        b1, b2 = make_pair((3, 4, 5), seed=1)
        composed = (a1 + b1).relu()
        composed.sum().backward()
        with fused_training():
            fused = add_relu(a2, b2)
        assert fused.name == "add_relu"  # the fused path actually dispatched
        fused.sum().backward()
        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(a2.grad, a1.grad)
        assert np.array_equal(b2.grad, b1.grad)

    def test_add_relu_composes_outside_fused_mode(self):
        a1, a2 = make_pair((2, 3), seed=2)
        b1, b2 = make_pair((2, 3), seed=3)
        assert add_relu(a2, b2).name != "add_relu"
        assert np.array_equal(add_relu(a2, b2).data, (a1 + b1).relu().data)

    def test_concat_batch_norm_relu_matches_composed(self):
        shapes = [(2, 3, 7), (2, 4, 7), (2, 5, 7)]
        left = [make_pair(shape, seed=10 + i) for i, shape in enumerate(shapes)]
        composed_inputs = [pair[0] for pair in left]
        fused_inputs = [pair[1] for pair in left]
        bn1 = randomize_bn(BatchNorm1d(12), seed=42)
        bn2 = randomize_bn(BatchNorm1d(12), seed=42)

        composed = bn1(Tensor.concatenate(composed_inputs, axis=1)).relu()
        composed.sum().backward()
        with fused_training():
            fused = concat_batch_norm_relu(fused_inputs, bn2, axis=1)
        assert fused.name == "concat_batch_norm_relu"
        fused.sum().backward()

        assert np.array_equal(fused.data, composed.data)
        for composed_in, fused_in in zip(composed_inputs, fused_inputs):
            assert np.array_equal(fused_in.grad, composed_in.grad)
        assert np.array_equal(bn2.weight.grad, bn1.weight.grad)
        assert np.array_equal(bn2.bias.grad, bn1.bias.grad)
        # The fused node replays the running-statistics update bit for bit.
        assert np.array_equal(bn2.running_mean, bn1.running_mean)
        assert np.array_equal(bn2.running_var, bn1.running_var)

    def test_batch_norm_relu_training_matches_composed(self):
        x1, x2 = make_pair((4, 6, 10), seed=20)
        bn1 = randomize_bn(BatchNorm1d(6), seed=21)
        bn2 = randomize_bn(BatchNorm1d(6), seed=21)
        composed = bn1(x1).relu()
        composed.sum().backward()
        with fused_training():
            fused = batch_norm_training(bn2, x2, relu=True)
        fused.sum().backward()
        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(x2.grad, x1.grad)
        assert np.array_equal(bn2.weight.grad, bn1.weight.grad)
        assert np.array_equal(bn2.bias.grad, bn1.bias.grad)
        assert np.array_equal(bn2.running_mean, bn1.running_mean)
        assert np.array_equal(bn2.running_var, bn1.running_var)

    def test_same_max_pool3_matches_composed_1d(self):
        # Integer-valued data forces ties, exercising the first-occurrence
        # argmax rule the fused node replicates with strict comparisons.
        data = np.random.default_rng(30).integers(-3, 4, size=(2, 3, 9)).astype(float)
        x1 = Tensor(data.copy(), requires_grad=True)
        x2 = Tensor(data.copy(), requires_grad=True)
        composed = F.max_pool1d(x1.pad(((0, 0), (0, 0), (1, 1))), 3, 1)
        composed.sum().backward()
        fused = same_max_pool3(x2)
        fused.sum().backward()
        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(x2.grad, x1.grad)

    def test_same_max_pool3_matches_composed_2d(self):
        data = np.random.default_rng(31).integers(-3, 4, size=(2, 3, 4, 9)).astype(float)
        x1 = Tensor(data.copy(), requires_grad=True)
        x2 = Tensor(data.copy(), requires_grad=True)
        composed = F.max_pool2d(x1.pad(((0, 0), (0, 0), (0, 0), (1, 1))), (1, 3), (1, 1))
        composed.sum().backward()
        fused = same_max_pool3(x2)
        fused.sum().backward()
        assert np.array_equal(fused.data, composed.data)
        assert np.array_equal(x2.grad, x1.grad)

    def test_fused_nodes_preserve_float32(self):
        """The fused kernels never silently promote a float32 graph."""
        data = np.random.default_rng(32).normal(size=(2, 4, 8)).astype(np.float32)
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        with fused_training():
            out = add_relu(a, b)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert a.grad.dtype == np.float32
        assert same_max_pool3(Tensor(data.copy())).data.dtype == np.float32


# ---------------------------------------------------------------------------
# Graph-free grad-CAM: recorded-graph parity, no tape
# ---------------------------------------------------------------------------

class TestGradCAMVJPParity:
    def test_vjp_matches_recorded_graph(self, trained_mtex, tiny_type1_dataset):
        explainer = get_explainer(trained_mtex)
        for index, class_id in ((0, 0), (3, 1), (7, 1)):
            series = tiny_type1_dataset.X[index]
            vjp = explainer.explain(series, class_id).heatmap
            recorded = mtex_explanation(trained_mtex, series, class_id)
            scale = max(np.abs(recorded).max(), 1.0)
            assert np.abs(vjp - recorded).max() / scale <= 1e-10

    def test_explain_leaves_no_gradients(self, trained_mtex, tiny_type1_dataset):
        for param in trained_mtex.parameters():
            param.grad = None
        get_explainer(trained_mtex).explain(tiny_type1_dataset.X[0], 1)
        assert all(param.grad is None for param in trained_mtex.parameters())

    def test_batched_equals_single(self, trained_mtex, tiny_type1_dataset):
        explainer = get_explainer(trained_mtex)
        X = tiny_type1_dataset.X[:4]
        class_ids = [0, 1, 1, 0]
        batched = explainer.explain_batch(X, class_ids)
        for series, class_id, from_batch in zip(X, class_ids, batched):
            single = explainer.explain(series, class_id)
            assert np.array_equal(from_batch.heatmap, single.heatmap)


# ---------------------------------------------------------------------------
# Float32 compute tier: opt-in, gated, tolerance-pinned
# ---------------------------------------------------------------------------

#: Documented relative tolerance of the float32 tier against the float64
#: reference for *inference on the same weights* (logits and heatmaps);
#: measured head-room is ~5.6e-7 on the tiny fixtures.
FLOAT32_RTOL = 1e-5


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.abs(np.asarray(b, dtype=np.float64)).max(), 1e-12)
    return float(np.abs(np.asarray(a, dtype=np.float64) - b).max() / scale)


def cast_copy(model, dtype):
    """A cast clone; the (session-scoped) original is never mutated."""
    clone = copy.deepcopy(model)
    clone.astype(dtype)
    return clone


class TestFloat32Tier:
    def test_default_precision_is_float64(self, trained_cnn, tiny_type1_dataset):
        assert TrainingConfig().precision == "float64"
        assert trained_cnn.compute_dtype == np.float64
        logits = trained_cnn.logits(tiny_type1_dataset.X[:2])
        assert logits.dtype == np.float64

    def test_unknown_precision_rejected(self, tiny_type1_dataset):
        model = CNNClassifier(tiny_type1_dataset.n_dimensions, tiny_type1_dataset.length,
                              tiny_type1_dataset.n_classes, filters=(4, 8))
        with pytest.raises(ValueError, match="precision"):
            model.fit(tiny_type1_dataset.X, tiny_type1_dataset.y,
                      config=TrainingConfig(epochs=1, precision="float16"))

    def test_float32_fit_runs_in_single_precision(self, tiny_type1_dataset):
        model = CNNClassifier(tiny_type1_dataset.n_dimensions, tiny_type1_dataset.length,
                              tiny_type1_dataset.n_classes, filters=(4, 8),
                              rng=np.random.default_rng(0))
        history = model.fit(tiny_type1_dataset.X, tiny_type1_dataset.y,
                            config=TrainingConfig(epochs=2, batch_size=8,
                                                  random_state=0,
                                                  precision="float32"))
        assert model.compute_dtype == np.float32
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        assert all(np.isfinite(loss) for loss in history.train_loss)
        logits = model.logits(tiny_type1_dataset.X[:4])
        assert logits.dtype == np.float32
        assert np.isfinite(logits).all()

    def test_astype_rejects_non_compute_dtypes(self, trained_cnn):
        with pytest.raises(ValueError, match="dtype"):
            copy.deepcopy(trained_cnn).astype(np.int32)

    @pytest.mark.parametrize("fixture", ["trained_cnn", "trained_ccnn", "trained_dcnn",
                                         "trained_mtex"])
    def test_cast_inference_logit_parity(self, fixture, tiny_type1_dataset, request):
        model = request.getfixturevalue(fixture)
        cast = cast_copy(model, np.float32)
        X = tiny_type1_dataset.X[:6]
        reference = model.logits(X)
        fast = cast.logits(X)
        assert fast.dtype == np.float32
        assert relative_error(fast, reference) <= FLOAT32_RTOL

    def test_cast_inference_dcam_parity(self, trained_dcnn, tiny_type1_dataset):
        """Same permutations (same seed), float32 forwards: heatmaps agree."""
        series = tiny_type1_dataset.X[0]
        reference = get_explainer(trained_dcnn, k=8,
                                  rng=np.random.default_rng(7)).explain(series, 1)
        cast = cast_copy(trained_dcnn, np.float32)
        fast = get_explainer(cast, k=8,
                             rng=np.random.default_rng(7)).explain(series, 1)
        # The dCAM merge deliberately averages in float64 whatever the
        # compute tier, so the heatmap dtype stays float64.
        assert fast.heatmap.dtype == np.float64
        assert relative_error(fast.heatmap, reference.heatmap) <= FLOAT32_RTOL

    def test_cast_inference_gradcam_parity(self, trained_mtex, tiny_type1_dataset):
        series = tiny_type1_dataset.X[2]
        reference = get_explainer(trained_mtex).explain(series, 1)
        fast = get_explainer(cast_copy(trained_mtex, np.float32)).explain(series, 1)
        assert relative_error(fast.heatmap, reference.heatmap) <= FLOAT32_RTOL

    def test_cast_back_to_float64_restores_inference(self, trained_cnn,
                                                     tiny_type1_dataset):
        X = tiny_type1_dataset.X[:4]
        reference = trained_cnn.logits(X)
        round_trip = cast_copy(cast_copy(trained_cnn, np.float32), np.float64)
        assert round_trip.compute_dtype == np.float64
        # The f64->f32->f64 round trip loses mantissa bits but stays within
        # the same documented tolerance as the cast itself.
        assert relative_error(round_trip.logits(X), reference) <= FLOAT32_RTOL


# ---------------------------------------------------------------------------
# Float32 serving: opt-in per service, precision-qualified cache keys
# ---------------------------------------------------------------------------

class TestFloat32Serving:
    @pytest.fixture()
    def store_dir(self, tmp_path, trained_cnn):
        store = ModelArtifactStore(str(tmp_path / "store"))
        parity = probe_batch_parity(trained_cnn)
        store.register("cnn-a", trained_cnn, model_name="cnn",
                       metadata={"model_kwargs": {"filters": (8, 16)},
                                 "batch_parity": parity.to_json()})
        return str(tmp_path / "store")

    @staticmethod
    def make_service(store_dir, **config_kwargs):
        # Each service gets its own store instance: the float32 service casts
        # the store's warm-cached model in place, so sharing one store across
        # precisions is explicitly unsupported.
        return ExplanationService(ModelArtifactStore(store_dir),
                                  cache=ExplanationCache(max_memory_bytes=None),
                                  config=ServeConfig(**config_kwargs))

    def test_invalid_serving_precision_rejected(self, store_dir):
        with pytest.raises(ValueError, match="precision"):
            self.make_service(store_dir, precision="half")

    def test_float32_responses_match_reference(self, store_dir, tiny_type1_dataset):
        reference_service = self.make_service(store_dir)
        fast_service = self.make_service(store_dir, precision="float32")
        try:
            series = tiny_type1_dataset.X[0]
            reference = reference_service.classify("cnn-a", series)
            fast = fast_service.classify("cnn-a", series)
            assert fast.logits.dtype == np.float32
            assert relative_error(fast.logits, reference.logits) <= FLOAT32_RTOL
            assert fast.predicted == reference.predicted
            # Repeating the request hits the precision-qualified cache entry.
            assert np.array_equal(fast_service.classify("cnn-a", series).logits,
                                  fast.logits)
        finally:
            reference_service.close()
            fast_service.close()

    def test_cache_keys_are_precision_qualified(self, store_dir):
        reference_service = self.make_service(store_dir)
        fast_service = self.make_service(store_dir, precision="float32")
        try:
            artifact = reference_service.store.artifact("cnn-a")
            assert reference_service._serving_hash(artifact) == artifact.state_hash
            assert (fast_service._serving_hash(artifact)
                    == f"{artifact.state_hash}:float32")
        finally:
            reference_service.close()
            fast_service.close()
