"""The row kernel inside a dCAM forward slice (``SliceScratch``).

``_forward_rows`` enters one :class:`~repro.nn.workspace.SliceScratch` per
slice: the row kernel folds each BatchNorm once per slice and takes its cols
and outputs from the scratch, and writes its cols as shifted copies of the
input.  Pinned here: the kernel's bits are the same with and without a
scratch and equal the padded-window ``_im2col`` formulation, a slice stops
allocating after its first micro-batch, a fold never outlives its slice,
and no scratch stays active on a thread once its slice returns or raises.
"""

import numpy as np
import pytest

import repro.core.dcam as core_dcam
from repro.core.dcam import _forward_pool, _forward_rows, compute_dcam
from repro.models import DCNNClassifier
from repro.nn import BatchNorm, Conv2d, inference_mode, row_conv_block
from repro.nn import fused
from repro.nn.functional import (
    _im2col,
    _row_cols,
    cube_conv_bn_relu,
    fused_conv_bn_relu,
)
from repro.nn.workspace import SliceScratch, active_slice_scratch

LENGTH = 24


def randomize_batch_norm(bn, rng, dtype):
    channels = bn.num_features
    bn.running_mean = rng.standard_normal(channels).astype(dtype)
    bn.running_var = (rng.random(channels) + 0.5).astype(dtype)
    bn.weight.data = rng.standard_normal(channels).astype(dtype)
    bn.bias.data = rng.standard_normal(channels).astype(dtype)


def make_block(in_channels, kernel_width, dtype, seed=0, out_channels=6):
    """A ``(1, ℓ)`` conv with "same" padding and non-trivial BatchNorm statistics."""
    rng = np.random.default_rng(seed)
    conv = Conv2d(in_channels, out_channels, (1, kernel_width),
                  padding=(0, kernel_width // 2), rng=rng)
    conv.weight.data = conv.weight.data.astype(dtype)
    conv.bias.data = rng.standard_normal(out_channels).astype(dtype)
    bn = BatchNorm(out_channels)
    randomize_batch_norm(bn, rng, dtype)
    return conv, bn


def in_scratch(kernel, x, conv, bn, padding):
    """``kernel`` run three times in one scratch: folded once, buffers reused."""
    with SliceScratch() as scratch:
        first = kernel(x, conv, bn, padding).copy()
        second = kernel(x, conv, bn, padding).copy()
        scratch.release_all()
        third = kernel(x, conv, bn, padding).copy()
        assert scratch.allocations == 4  # two blocks' cols and outputs
    assert np.array_equal(first, second) and np.array_equal(first, third)
    return first


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("padding", [None, (0, 0)])
@pytest.mark.parametrize("n_dimensions", [1, 2, 5, 40])
def test_rotated_bank_is_bitwise_the_same_in_a_scratch(n_dimensions, padding, dtype):
    conv, bn = make_block(n_dimensions, 3, dtype)
    series = np.random.default_rng(1).standard_normal((3, n_dimensions, LENGTH)).astype(dtype)
    expected = cube_conv_bn_relu(series, conv, bn, padding)
    actual = in_scratch(cube_conv_bn_relu, series, conv, bn, padding)
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("padding", [None, (0, 0)])
@pytest.mark.parametrize("kernel_width", [1, 3, 5, 8])
def test_row_block_is_bitwise_the_same_in_a_scratch(kernel_width, padding, dtype):
    conv, bn = make_block(4, kernel_width, dtype)
    x = np.random.default_rng(2).standard_normal((2, 4, 5, LENGTH)).astype(dtype)
    expected = fused_conv_bn_relu(x, conv, bn, padding)
    actual = in_scratch(fused_conv_bn_relu, x, conv, bn, padding)
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


@pytest.mark.parametrize("kernel_width, pad, width", [
    (kernel_width, pad, width)
    for kernel_width, pad in [(1, 0), (3, 0), (3, 1), (5, 2), (8, 4), (6, 3), (3, 6)]
    for width in (2, 9) if width + 2 * pad >= kernel_width])
def test_shifted_tap_cols_equal_the_padded_windows(kernel_width, pad, width):
    """Including pads wider than the input, whose edge taps are all border."""
    x = np.random.default_rng(3).standard_normal((2, 3, 4, 9))[..., :width]
    expected, (_, out_w) = _im2col(x, (1, kernel_width), (1, 1), (0, pad))
    with SliceScratch() as scratch:
        scratch.acquire(expected.shape, x.dtype).fill(np.nan)
        scratch.release_all()  # the scratch hands back a dirty buffer
        for workspace in (None, scratch):
            cols, width_out = _row_cols(x, kernel_width, pad, workspace)
            assert width_out == out_w
            assert np.array_equal(cols, expected)


def make_model(seed=0, n_dimensions=6):
    rng = np.random.default_rng(seed)
    model = DCNNClassifier(n_dimensions, LENGTH, 3, filters=(4, 6, 6), rng=rng)
    for block in model.feature_extractor:
        randomize_batch_norm(row_conv_block(block)[1], rng, np.float64)
    return model.eval()


def forward_slice(model, rows, width):
    """Run ``_forward_rows`` over ``rows`` permuted series in one slice."""
    permuted = np.random.default_rng(4).standard_normal((rows, model.n_dimensions, LENGTH))
    weights = np.tile(model.class_weights[0], (rows, 1))
    cams = np.empty((rows, model.n_dimensions, LENGTH))
    predicted = np.empty(rows, dtype=np.int64)
    _forward_rows(model, permuted, weights, cams, predicted, 0, rows, width,
                  reads_series=True)
    return cams, predicted


class RecordingScratch(SliceScratch):
    """Records the allocation count at each micro-batch's release."""

    counts: list = []

    def release_all(self):
        RecordingScratch.counts.append(self.allocations)
        super().release_all()


class NoScratch(SliceScratch):
    """A slice scratch that never becomes active: every call folds and allocates."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class TestAllocations:
    @pytest.fixture(autouse=True)
    def record(self, monkeypatch):
        RecordingScratch.counts = []
        monkeypatch.setattr(core_dcam, "SliceScratch", RecordingScratch)

    def test_a_slice_stops_allocating_after_its_first_micro_batch(self):
        model = make_model(n_dimensions=40)
        forward_slice(model, rows=40, width=2)
        # Layer 1's cols and output, blocks 2 and 3's handed-off cols and
        # block 3's output, once.
        assert RecordingScratch.counts == [5] * 20

    def test_only_the_tail_micro_batch_allocates_again(self):
        model = make_model(n_dimensions=40)
        forward_slice(model, rows=41, width=2)
        counts = RecordingScratch.counts
        assert counts[:-1] == [5] * 20
        assert counts[-1] == 10

    def test_scratch_buffers_do_not_change_the_rows(self, monkeypatch):
        model = make_model()
        cams, predicted = forward_slice(model, rows=9, width=2)
        monkeypatch.setattr(core_dcam, "SliceScratch", NoScratch)
        plain_cams, plain_predicted = forward_slice(model, rows=9, width=2)
        assert np.array_equal(cams, plain_cams)
        assert np.array_equal(predicted, plain_predicted)


def test_no_fold_outlives_its_slice():
    """Weights and BatchNorm statistics changed in place between two explains."""
    series = np.random.default_rng(5).standard_normal((6, LENGTH))
    model = make_model()
    before = compute_dcam(model, series, 1, k=80, rng=np.random.default_rng(0))

    def edit(target):
        _, bn = row_conv_block(target.feature_extractor[1])
        bn.running_var *= 3.0
        first_conv, _ = row_conv_block(target.feature_extractor[0])
        first_conv.weight.data *= -0.5

    edit(model)
    after = compute_dcam(model, series, 1, k=80, rng=np.random.default_rng(0))
    fresh = make_model()
    edit(fresh)
    expected = compute_dcam(fresh, series, 1, k=80, rng=np.random.default_rng(0))
    assert not np.array_equal(before.dcam, expected.dcam)
    assert np.array_equal(after.dcam, expected.dcam)
    assert np.array_equal(after.m_bar, expected.m_bar)
    assert after.n_correct == expected.n_correct


class TestNoScratchLeak:
    def test_nothing_active_after_a_slice_returns(self):
        model = make_model()
        seen = []
        features = model.features

        def spy(x):
            seen.append((active_slice_scratch(), fused.active_workspace(),
                         fused.is_fused_training()))
            return features(x)

        model.features = spy
        forward_slice(model, rows=5, width=2)
        assert [type(entry[0]) for entry in seen] == [SliceScratch] * 3
        assert all(entry[1:] == (None, False) for entry in seen)  # training sees none
        assert active_slice_scratch() is None

    def test_nothing_active_after_a_slice_raises(self):
        model = make_model()
        permuted = np.zeros((4, model.n_dimensions, LENGTH))
        weights = np.tile(model.class_weights[0], (4, 1))
        wrong_cams = np.empty((4, model.n_dimensions, LENGTH + 1))
        with pytest.raises(ValueError):
            _forward_rows(model, permuted, weights, wrong_cams, np.empty(4, np.int64),
                          0, 4, 2, reads_series=True)
        assert active_slice_scratch() is None

    def test_pool_threads_keep_no_scratch(self, monkeypatch):
        monkeypatch.setattr(core_dcam, "_FORWARD_THREADS", 2)
        model = make_model()
        series = np.random.default_rng(6).standard_normal((6, LENGTH))
        compute_dcam(model, series, 0, k=200, batch_size=4, rng=np.random.default_rng(1))
        pool = _forward_pool()
        assert all(pool.submit(active_slice_scratch).result() is None for _ in range(8))

    def test_the_stream_kernel_call_outside_a_slice_gets_fresh_buffers(self):
        conv, bn = make_block(3, 3, np.float64)
        x = np.random.default_rng(7).standard_normal((1, 3, 2, LENGTH))
        with inference_mode():
            first = fused_conv_bn_relu(x, conv, bn)
            second = fused_conv_bn_relu(x, conv, bn)
        assert first is not second and not np.shares_memory(first, second)

    def test_nested_scratches_restore_the_outer_one(self):
        with SliceScratch() as outer:
            with SliceScratch() as inner:
                assert active_slice_scratch() is inner
            assert active_slice_scratch() is outer
        assert active_slice_scratch() is None
