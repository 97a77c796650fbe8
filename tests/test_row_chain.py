"""Chained row blocks and the fanned-out ``M̄`` merge, bit for bit.

The row kernel runs consecutive ``Conv2d -> BatchNorm -> ReLU`` row blocks
as one chain (``_row_chain``): a block's GEMM lands in the next block's
cols, whose other taps are copies of it.  Pinned here: the chain equals the
blocks run one at a time through the unfused formula (``_im2col``, then
``bank @ cols``, then ``+= shift``, then ReLU) bit for bit, at the paper
and serve_tiny shapes, for a stream slab with no padding, for ℓ in
{1, 3, 5, 8}, in float64 and float32, and at forward widths 1 and 2 with an
odd tail; and a ``M̄`` merge shared out over the forward pool equals the
serial merge bit for bit.
"""

import numpy as np
import pytest

import repro.core.dcam as core_dcam
from repro.core.dcam import _assemble_result, _forward_pool, _merge_cam_stack
from repro.core.input_transform import random_permutations
from repro.models import DCNNClassifier
from repro.nn import BatchNorm, Conv2d, Tensor, inference_mode, row_conv_block
from repro.nn.functional import (
    _fold_row_block,
    _im2col,
    _row_chain,
    cube_row_chain,
    fused_conv_bn_relu,
)
from repro.nn.workspace import FoldMemo, SliceScratch, active_slice_scratch


def randomize_batch_norm(bn, rng, dtype):
    channels = bn.num_features
    bn.running_mean = rng.standard_normal(channels).astype(dtype)
    bn.running_var = (rng.random(channels) + 0.5).astype(dtype)
    bn.weight.data = rng.standard_normal(channels).astype(dtype)
    bn.bias.data = rng.standard_normal(channels).astype(dtype)


def make_blocks(channels, kernel_widths, dtype, seed=0):
    """Row blocks ``channels[i] -> channels[i + 1]`` with padding ``ℓ // 2``."""
    rng = np.random.default_rng(seed)
    blocks = []
    for c_in, c_out, kw in zip(channels, channels[1:], kernel_widths):
        conv = Conv2d(c_in, c_out, (1, kw), padding=(0, kw // 2), rng=rng)
        conv.weight.data = conv.weight.data.astype(dtype)
        conv.bias.data = rng.standard_normal(c_out).astype(dtype)
        bn = BatchNorm(c_out)
        randomize_batch_norm(bn, rng, dtype)
        blocks.append((conv, bn))
    return blocks


def unfused_block(x, conv, bn, padding, rotate):
    """One block through ``_im2col`` and the folded bank, shift and ReLU."""
    bank, shift = _fold_row_block(conv, bn, rotate)
    if rotate:
        x = x[:, :, None, :]
    pw = conv.padding[1] if padding is None else padding[1]
    cols, (_, out_w) = _im2col(x, conv.kernel_size, (1, 1), (0, pw))
    out = np.matmul(bank, cols).reshape(x.shape[0], conv.out_channels, -1, out_w)
    out += shift
    np.maximum(out, 0.0, out=out)
    return out


def unfused_chain(x, blocks, rotate, padding=None):
    for index, (conv, bn) in enumerate(blocks):
        x = unfused_block(x, conv, bn, padding, rotate and index == 0)
    return x


def chain_in_micro_batches(x, blocks, rotate, width):
    """The chain over ``x`` in ``width``-row micro-batches of one slice scratch."""
    chained = [(conv, bn, None) for conv, bn in blocks]
    pieces = []
    with SliceScratch() as scratch:
        for begin in range(0, len(x), width):
            pieces.append(_row_chain(x[begin:begin + width], chained, rotate).copy())
            scratch.release_all()
    return np.concatenate(pieces)


SHAPES = {
    # (D, n, filters): dCAM's shapes, whose first block reads the series.
    "paper": (40, 100, (16, 32, 32)),
    "serve_tiny": (4, 48, (8, 16, 16)),
}


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_dcam_chain_is_the_blocks_one_at_a_time(shape, dtype, width):
    n_dimensions, length, filters = SHAPES[shape]
    blocks = make_blocks((n_dimensions,) + filters, (3, 3, 3), dtype)
    series = np.random.default_rng(1).standard_normal((3, n_dimensions, length)).astype(dtype)
    expected = unfused_chain(series, blocks, rotate=True)
    actual = chain_in_micro_batches(series, blocks, True, width)  # 3 rows: an odd tail at 2
    assert actual.dtype == expected.dtype and actual.flags.c_contiguous
    assert np.array_equal(actual, expected)
    assert np.array_equal(cube_row_chain(series, blocks), expected)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel_widths", [(1, 1, 1), (3, 3, 3), (5, 5, 5), (8, 8, 8), (3, 8, 5)])
@pytest.mark.parametrize("rotate", [False, True])
def test_chains_of_every_kernel_width(rotate, kernel_widths, dtype, width):
    """ℓ = 8 has no "same" padding: the block before it does not hand off."""
    channels = (5, 4, 6, 3)
    blocks = make_blocks(channels, kernel_widths, dtype, seed=sum(kernel_widths))
    rng = np.random.default_rng(2)
    x = (rng.standard_normal((3, 5, 17)) if rotate
         else rng.standard_normal((3, 5, 2, 17))).astype(dtype)
    expected = unfused_chain(x, blocks, rotate)
    assert np.array_equal(chain_in_micro_batches(x, blocks, rotate, width), expected)
    assert np.array_equal(_row_chain(x, [(conv, bn, None) for conv, bn in blocks], rotate),
                          expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kernel_width", [1, 3, 5, 8])
def test_a_stream_slab_without_padding(kernel_width, dtype):
    """The streaming trunk's dirty-column slabs: one block, padding ``(0, 0)``."""
    (conv, bn), = make_blocks((4, 6), (kernel_width,), dtype)
    slab = np.random.default_rng(3).standard_normal((1, 4, 6, kernel_width + 4)).astype(dtype)
    expected = unfused_block(slab, conv, bn, (0, 0), rotate=False)
    with inference_mode():
        assert np.array_equal(fused_conv_bn_relu(slab, conv, bn, padding=(0, 0)), expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_dcnn_features_run_the_chain(dtype):
    model = DCNNClassifier(6, 20, 2, filters=(4, 6, 5), rng=np.random.default_rng(4)).eval()
    rng = np.random.default_rng(5)
    for module in model.feature_extractor:
        randomize_batch_norm(row_conv_block(module)[1], rng, np.float64)
    model.astype(dtype)
    blocks = [row_conv_block(module) for module in model.feature_extractor]
    series = rng.standard_normal((3, 6, 20)).astype(dtype)
    with inference_mode():
        features = model.features(Tensor(series))
    assert np.array_equal(features.data, unfused_chain(series, blocks, rotate=True))


def test_a_fold_memo_refolds_only_when_an_array_it_read_is_replaced():
    (conv, bn), = make_blocks((3, 4), (3,), np.float64)
    builds = []

    def build():
        builds.append(1)
        return _fold_row_block(conv, bn, False)

    memo = FoldMemo()
    first = memo.fold(conv, bn, False, build)
    assert memo.fold(conv, bn, False, build) is first and len(builds) == 1
    bn.running_var = bn.running_var * 2.0
    assert memo.fold(conv, bn, False, build) is not first and len(builds) == 2
    conv.weight.data = conv.weight.data.astype(np.float32)
    memo.fold(conv, bn, False, build)
    assert len(builds) == 3
    with memo:
        assert active_slice_scratch() is memo
        assert memo.acquire((2, 3), np.float32) is not memo.acquire((2, 3), np.float32)
    assert active_slice_scratch() is None


class TestFannedOutMerge:
    @pytest.fixture(autouse=True)
    def settable_blas(self, monkeypatch):
        # The merge runs no BLAS; let it fan out wherever the forward could.
        monkeypatch.setattr(core_dcam, "can_set_threads", lambda: True)

    @pytest.fixture
    def submissions(self, monkeypatch):
        pool = _forward_pool()
        calls = []

        class Recording:
            def submit(self, *args):
                calls.append(args)
                return pool.submit(*args)

        monkeypatch.setattr(core_dcam, "_forward_pool", Recording)
        return calls

    @staticmethod
    def stack(k, n_dimensions, length=11, seed=0):
        rng = np.random.default_rng(seed)
        cams = rng.standard_normal((k, n_dimensions, length))
        orders = np.asarray(random_permutations(n_dimensions, k, rng), dtype=np.intp)
        return cams, orders

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("n_dimensions", [5, 7, 40])
    def test_blocks_of_m_bar_add_in_the_serial_order(self, monkeypatch, submissions,
                                                     threads, n_dimensions):
        monkeypatch.setattr(core_dcam, "_FORWARD_THREADS", threads)
        cams, orders = self.stack(100, n_dimensions)
        serial = _merge_cam_stack(cams, orders)
        assert not submissions
        fanned = _merge_cam_stack(cams, orders, width=1)
        assert len(submissions) == threads
        assert np.array_equal(fanned, serial)

    def test_one_permutation(self, monkeypatch, submissions):
        monkeypatch.setattr(core_dcam, "_FORWARD_THREADS", 2)
        monkeypatch.setattr(core_dcam, "_fans_out", lambda rows, width: True)
        cams, orders = self.stack(1, 7)
        fanned = _merge_cam_stack(cams, orders, width=1)
        assert len(submissions) == 2
        assert np.array_equal(fanned, cams[0][core_dcam.permutation_rows(orders)[0]])

    def test_the_correct_subset(self, monkeypatch, submissions):
        monkeypatch.setattr(core_dcam, "_FORWARD_THREADS", 2)
        cams, orders = self.stack(60, 9)
        predicted = np.random.default_rng(1).integers(0, 2, size=60)
        serial = _assemble_result(cams, orders, predicted, 1, True)
        fanned = _assemble_result(cams, orders, predicted, 1, True, 1)
        assert submissions
        assert 0 < serial.n_correct < 60 and fanned.n_correct == serial.n_correct
        assert np.array_equal(fanned.m_bar, serial.m_bar)
        assert np.array_equal(fanned.dcam, serial.dcam)

    def test_no_pool_below_a_full_width_forward_per_thread(self, monkeypatch, submissions):
        monkeypatch.setattr(core_dcam, "_FORWARD_THREADS", 2)
        cams, orders = self.stack(7, 6)
        serial = _merge_cam_stack(cams, orders)
        assert np.array_equal(_merge_cam_stack(cams, orders, width=4), serial)
        assert not submissions
