"""Parity and plumbing tests of the fused training engine.

The engine's contract is *float-identity* with the per-batch-prepare
reference loop (``tests/oracles/training.py``): same rng consumption, same loss curves, same early-stopping epochs,
bitwise-equal final weights.  These tests pin that for one architecture per
``input_kind`` (raw / channel / cube), for the non-fused fallback paths
(grad-CAM and recurrent architectures), for early stopping and gradient
clipping, and for buffer reuse under partial last batches — plus the
engine-specific plumbing: prepare-once semantics, slot reuse, the
lazy (memory-capped) prepared-input fallback and train/eval mode restoring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.base import TrainingConfig
from repro.models.registry import create_model
from repro.nn import Tensor, Workspace
from repro.nn.fused import batch_norm_training
from repro.nn.layers import BatchNorm
from oracles.training import fit_legacy
from repro.training import PreparedInputs, TrainingEngine

MODEL_KWARGS = {
    "cnn": {"filters": (4, 6)},
    "ccnn": {"filters": (4, 6)},
    "dcnn": {"filters": (4, 6)},
    "resnet": {"filters": (4, 6)},
    "dresnet": {"filters": (4, 6)},
    "inceptiontime": {"depth": 2, "n_filters": 3},
    "dinceptiontime": {"depth": 2, "n_filters": 3},
    "mtex": {"block1_filters": (3, 4), "block2_filters": 4, "hidden_units": 8},
    "gru": {"hidden_size": 8},
}

#: One architecture per input kind (the tentpole's parity matrix).
KIND_MODELS = [("raw", "cnn"), ("channel", "ccnn"), ("cube", "dcnn")]

#: Graphs whose fused BatchNorm sits under multi-consumer gradient flow —
#: residual adds (ResNet) and inception concatenates — pinned so a change to
#: the fused accumulation order cannot silently shift table2/3 numerics.
STRUCTURED_MODELS = ["resnet", "dresnet", "inceptiontime", "dinceptiontime"]


def make_data(n=24, n_dimensions=3, length=16, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n_dimensions, length))
    y = rng.integers(0, n_classes, size=n)
    return X, y


def make_model(name, n_dimensions=3, length=16, n_classes=2, seed=0):
    return create_model(name, n_dimensions, length, n_classes,
                        rng=np.random.default_rng(seed),
                        **MODEL_KWARGS.get(name, {}))


def fit_both(name, config, validation=True, n=24, **data_kwargs):
    """Train twin models through the legacy loop and the engine."""
    X, y = make_data(n=n, **data_kwargs)
    val = (X[: max(4, n // 4)], y[: max(4, n // 4)]) if validation else None
    results = []
    for legacy in (True, False):
        model = make_model(name, n_dimensions=data_kwargs.get("n_dimensions", 3),
                           length=data_kwargs.get("length", 16))
        if legacy:
            history = fit_legacy(model, X, y, val, config)
        else:
            history = model.fit(X, y, validation_data=val, config=config)
        results.append((history, model.state_dict()))
    return results


def assert_parity(legacy, fused):
    history_a, state_a = legacy
    history_b, state_b = fused
    assert history_a.train_loss == history_b.train_loss
    assert history_a.validation_loss == history_b.validation_loss
    assert history_a.validation_accuracy == history_b.validation_accuracy
    assert history_a.best_epoch == history_b.best_epoch
    assert history_a.stopped_early == history_b.stopped_early
    assert set(state_a) == set(state_b)
    for key in state_a:
        assert np.array_equal(state_a[key], state_b[key]), key


BASE = dict(epochs=6, batch_size=8, learning_rate=3e-3, random_state=0)


class TestEngineParity:
    @pytest.mark.parametrize("kind,name", KIND_MODELS)
    def test_float_identical_per_input_kind(self, kind, name):
        legacy, fused = fit_both(name, TrainingConfig(**BASE))
        assert_parity(legacy, fused)

    @pytest.mark.parametrize("name", STRUCTURED_MODELS)
    def test_float_identical_residual_and_inception(self, name):
        legacy, fused = fit_both(name, TrainingConfig(**{**BASE, "epochs": 3}))
        assert_parity(legacy, fused)

    @pytest.mark.parametrize("name", ["cnn", "dcnn"])
    def test_without_validation(self, name):
        legacy, fused = fit_both(name, TrainingConfig(**BASE), validation=False)
        assert_parity(legacy, fused)

    def test_without_shuffle(self):
        legacy, fused = fit_both("ccnn", TrainingConfig(**BASE, shuffle=False))
        assert_parity(legacy, fused)

    def test_early_stopping(self):
        config = TrainingConfig(**{**BASE, "epochs": 30}, patience=2, min_delta=0.5)
        legacy, fused = fit_both("cnn", config)
        assert legacy[0].stopped_early and fused[0].stopped_early
        assert legacy[0].epochs_run == fused[0].epochs_run
        assert_parity(legacy, fused)

    @pytest.mark.parametrize("clip", [0.05, None])
    def test_gradient_clip(self, clip):
        legacy, fused = fit_both("dcnn", TrainingConfig(**BASE, gradient_clip=clip))
        assert_parity(legacy, fused)

    def test_partial_last_batch(self):
        # 21 instances at batch 8 -> batches of 8, 8, 5: the gather slot is
        # sliced per batch, so the trailing partial batch exercises reuse
        # under a changing effective batch size.
        legacy, fused = fit_both("dcnn", TrainingConfig(**BASE), n=21)
        assert_parity(legacy, fused)

    def test_batch_larger_than_dataset(self):
        legacy, fused = fit_both("cnn", TrainingConfig(**{**BASE, "batch_size": 64}),
                                 n=10)
        assert_parity(legacy, fused)

    @pytest.mark.parametrize("name", ["mtex", "gru"])
    def test_fallback_forward_models(self, name):
        # No fused GAP head: mtex exercises the dropout rng consumption and
        # the fused BatchNorm/conv kernels inside a custom forward; gru the
        # plain recurrent path.
        legacy, fused = fit_both(name, TrainingConfig(**BASE))
        assert_parity(legacy, fused)

    def test_weight_decay(self):
        legacy, fused = fit_both("cnn", TrainingConfig(**BASE, weight_decay=1e-3))
        assert_parity(legacy, fused)

    def test_shape_validation(self):
        model = make_model("cnn")
        engine = TrainingEngine(model, TrainingConfig(**BASE))
        with pytest.raises(ValueError, match="instances, dimensions, length"):
            engine.fit(np.zeros((4, 3)), np.zeros(4))
        with pytest.raises(ValueError, match="model built for"):
            engine.fit(np.zeros((4, 5, 16)), np.zeros(4))


class TestPreparedInputs:
    def test_prepare_once_and_slot_reuse(self):
        X, y = make_data()
        model = make_model("dcnn")
        calls = []
        original = model.prepare_input

        def counting(batch, order=None):
            calls.append(np.shape(batch))
            return original(batch, order)

        model.prepare_input = counting
        engine = TrainingEngine(model, TrainingConfig(**BASE))
        engine.fit(X, y, validation_data=(X[:8], y[:8]))
        # One prepare for the training set, one for the validation set —
        # not one per batch per epoch.
        assert len(calls) == 2
        assert engine.slot_allocations == 1
        assert engine.train_inputs.materialized
        # The conv scratch buffers are checked out and returned per step, not
        # reallocated: far fewer fresh allocations than training steps.
        n_steps = 6 * len(range(0, len(X), 8))
        assert 0 < engine.workspace.allocations < n_steps
        assert engine.workspace.in_use == 0

    def test_lazy_fallback_is_float_identical(self):
        X, y = make_data()
        config = TrainingConfig(**BASE)
        legacy_model = make_model("dcnn")
        history_a = fit_legacy(legacy_model, X, y, (X[:8], y[:8]), config)

        model = make_model("dcnn")
        engine = TrainingEngine(model, config, max_materialize_bytes=0)
        history_b = engine.fit(X, y, validation_data=(X[:8], y[:8]))
        assert not engine.train_inputs.materialized
        assert engine.train_inputs.data is None
        assert_parity((history_a, legacy_model.state_dict()),
                      (history_b, model.state_dict()))

    def test_gather_matches_per_batch_prepare(self):
        X, _ = make_data()
        model = make_model("dcnn")
        prepared = PreparedInputs(model, X)
        slot = prepared.make_slot(8)
        idx = np.array([5, 2, 11, 7])
        gathered = prepared.batch(idx, slot)
        reference = model.prepare_input(X[idx]).data
        assert np.array_equal(gathered, reference)
        assert np.shares_memory(gathered, slot)
        assert np.array_equal(prepared.slice(3, 9),
                              model.prepare_input(X[3:9]).data)


class TestFusedKernels:
    #: Contiguous NCHW (what the training conv lands) and channels-last views
    #: transposed to NCHW (what a ``Tensor`` caller can still hand in).
    @pytest.mark.parametrize("shape, channels_last", [
        ((8, 5, 12), False), ((8, 5, 4, 12), False),
        ((8, 5, 12), True), ((8, 5, 4, 12), True)],
        ids=["shape0", "shape1", "shape0_channels_last", "shape1_channels_last"])
    @pytest.mark.parametrize("relu", [False, True])
    def test_fused_batch_norm_bit_exact(self, shape, channels_last, relu):
        rng = np.random.default_rng(3)
        if channels_last:
            x_data = np.moveaxis(rng.standard_normal(shape[:1] + shape[2:] + shape[1:2]), -1, 1)
        else:
            x_data = rng.standard_normal(shape)

        def run(fused):
            bn = BatchNorm(shape[1])
            bn.weight.data[...] = rng_w
            bn.bias.data[...] = rng_b
            x = Tensor(x_data.copy(order="K"), requires_grad=True)
            assert x.data.flags.c_contiguous != channels_last
            if fused:
                out = batch_norm_training(bn, x, relu=relu)
            else:
                out = bn.forward(x)
                if relu:
                    out = out.relu()
            ((out * out).sum()).backward()
            return (out.data, x.grad, bn.weight.grad, bn.bias.grad,
                    bn.running_mean, bn.running_var)

        rng_w = rng.standard_normal(shape[1])
        rng_b = rng.standard_normal(shape[1])
        for a, b in zip(run(False), run(True)):
            assert np.array_equal(a, b)

    def test_fused_batch_norm_channel_mismatch(self):
        bn = BatchNorm(4)
        with pytest.raises(ValueError, match="expected 4 channels"):
            batch_norm_training(bn, Tensor(np.zeros((2, 3, 5))))


class TestWorkspace:
    def test_checkout_semantics(self):
        workspace = Workspace()
        a = workspace.acquire((4, 4), np.float64)
        b = workspace.acquire((4, 4), np.float64)
        assert a is not b  # no aliasing within a step
        assert workspace.allocations == 2
        assert workspace.in_use == 2
        workspace.release_all()
        assert workspace.in_use == 0
        c = workspace.acquire((4, 4), np.float64)
        assert c is a or c is b  # reused across steps
        assert workspace.allocations == 2
        assert workspace.nbytes() == 2 * 4 * 4 * 8


class TestModeRestore:
    def test_predict_restores_training_mode(self):
        X, y = make_data()
        model = make_model("cnn")
        model.train()
        model.predict(X[:4])
        assert model.training, "predict must not leave the model in eval mode"
        model.eval()
        model.predict(X[:4])
        assert not model.training

    def test_evaluate_loss_restores_training_mode(self):
        X, y = make_data()
        model = make_model("cnn")
        model.train()
        model._evaluate_loss(X[:8], y[:8], batch_size=4)
        assert model.training

    def test_fit_leaves_model_in_eval_mode(self):
        X, y = make_data()
        model = make_model("cnn")
        model.fit(X, y, config=TrainingConfig(**{**BASE, "epochs": 2}))
        assert not model.training
